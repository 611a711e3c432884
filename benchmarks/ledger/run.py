"""One workload, one pass, this interpreter — the ``BENCHMARK.json`` command.

    python3 benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` is the timed pass (end-to-end metrics), ``--trace 1`` the
traced pass (per-layer metrics).  Prints every metric by name with its
unit, then — as the last line of standard output — one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits 1 when an
output check fails and 2 when the program under test is not there.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="budgets / 50 (functional check, not a measurement)")
    parser.add_argument("--json", dest="json_out", default=None,
                        help="also write the full document (manifest, raw "
                             "per-span samples, counters, checks) here")
    parser.add_argument("--trace-out", default=None,
                        help="write the traced pass's spans here as JSONL")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"ledger: the program under test is missing ({ROOT / 'src' / 'repro'})",
              file=sys.stderr)
        return 2
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from benchmarks.ledger import ledger
    from benchmarks.ledger.harness import benchmark_json

    if args.workload not in ledger.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(one of: {', '.join(ledger.WORKLOADS)})")
    seconds = (args.seconds if args.seconds is not None
               else benchmark_json()["run_seconds"])
    if args.trace:
        doc = ledger.run_traced(args.workload, seed=args.seed, seconds=seconds,
                                smoke=args.smoke, trace_out=args.trace_out)
    else:
        doc = ledger.run_timed(args.workload, seed=args.seed, seconds=seconds,
                               smoke=args.smoke)
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(doc, indent=1) + "\n",
                                       encoding="utf-8")
    print(ledger.format_table(doc))
    for check in doc["checks"]:
        if not check["ok"]:
            print(f"ledger: check failed: {check['name']}: {check['detail']}",
                  file=sys.stderr)
    print(ledger.result_line(doc))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
