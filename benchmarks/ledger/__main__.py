"""The whole ledger, or a comparison of two of them.

    PYTHONPATH=src python -m benchmarks.ledger [--seed 23] [--workload NAME]
                                               [--json OUT] [--smoke]
    python -m benchmarks.ledger --compare A.json B.json

Every workload runs as two fresh interpreters, one at a time: the timed
pass (``run.py --trace 0``) and the traced pass (``--trace 1``).  Their
documents are merged under the workload's name; on the simulator the timed
pass's deterministic counters, taken at the span where the traced pass
stops, must equal the traced pass's.  Exits 1 when any check fails.

``--compare`` prints, per workload and end-to-end metric, both values, the
ratio with its base, the bound from ``BENCHMARK.json`` and a verdict; it
exits 1 on any ``worse``.  Run on two ledgers of the same commit it is the
A/A tool.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from benchmarks.ledger.harness import ROOT, benchmark_json

RUN_PY = Path(__file__).resolve().parent / "run.py"
SCRATCH = ROOT / ".ledger_run"


# ------------------------------------------------------------------ one ledger

def _run_pass(workload: str, trace: int, args: argparse.Namespace,
              out: Path) -> Tuple[int, Optional[Dict[str, Any]]]:
    command = [sys.executable, str(RUN_PY), "--workload", workload,
               "--seed", str(args.seed), "--trace", str(trace),
               "--json", str(out)]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.smoke:
        command.append("--smoke")
    if trace and args.trace_out:
        Path(args.trace_out).mkdir(parents=True, exist_ok=True)
        command += ["--trace-out",
                    str(Path(args.trace_out) / f"{workload}.spans.jsonl")]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    # the child's last line is the contract's JSON object; the table is ours
    print("\n".join(done.stdout.splitlines()[:-1]))
    doc = None
    if out.is_file():
        doc = json.loads(out.read_text(encoding="utf-8"))
        out.unlink()
    return done.returncode, doc


def run_ledger(args: argparse.Namespace) -> int:
    names = [w["name"] for w in benchmark_json()["workloads"]]
    chosen = args.workload or names
    unknown = [name for name in chosen if name not in names]
    if unknown:
        print(f"ledger: unknown workload(s) {unknown}; one of {names}",
              file=sys.stderr)
        return 2
    scratch = SCRATCH / f"ledger-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    ledger: Dict[str, Any] = {"ledger": 1, "seed": args.seed,
                              "smoke": args.smoke, "workloads": {}}
    failures: List[str] = []
    for name in chosen:
        entry: Dict[str, Any] = {}
        for trace, key in ((0, "timed"), (1, "traced")):
            code, doc = _run_pass(name, trace, args,
                                  scratch / f"{name}-{key}.json")
            entry[key] = doc
            if doc is None:
                failures.append(f"{name}: {key} pass exited {code} without a result")
            else:
                failures += [f"{name}: {key}: {check['name']}"
                             for check in doc["checks"] if not check["ok"]]
        timed, traced = entry["timed"], entry["traced"]
        if timed and traced and timed["manifest"]["backend"] == "sim":
            agree = timed["counters"] == traced["counters"]
            entry["timed_and_traced_counters_agree"] = agree
            if not agree:
                failures.append(f"{name}: timed and traced passes disagree on "
                                f"the deterministic counters")
        ledger["workloads"][name] = entry
    try:
        scratch.rmdir()
        SCRATCH.rmdir()
    except OSError:
        pass  # another run is using the directory
    ledger["correct"] = not failures
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(ledger, indent=1) + "\n",
                                       encoding="utf-8")
    for failure in failures:
        print(f"ledger: check failed: {failure}", file=sys.stderr)
    print(f"ledger: {len(chosen)} workload(s), "
          f"{'all checks passed' if not failures else f'{len(failures)} check(s) FAILED'}")
    return 1 if failures else 0


# -------------------------------------------------------------------- compare

def _quartiles(samples: List[float]) -> Tuple[float, float]:
    p25, _, p75 = statistics.quantiles(samples, n=4)
    return p25, p75


def _verdict(metric: Dict[str, Any], a: Dict[str, Any], b: Dict[str, Any],
             worsening: float) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for one metric of one workload.

    ``worsening`` is how many times worse B reads than A.  Past the bound
    the verdict is ``worse`` unless the two runs' own spreads say the
    difference is not resolved: for a timing metric with per-span samples
    of the same spans on both sides, the quartiles of the per-span ratios
    (the deterministic span-to-span variation cancels); otherwise the
    p25–p75 intervals of the two runs.
    """
    name, bound = metric["name"], metric["bound"]
    if worsening <= 1.0 + bound:
        return "ok"
    lower = metric["better"] == "lower"
    key = {"us_per_op": "span_us_per_op", "setup_s": "setup_s"}.get(name)
    sa = a["samples"].get(key) if key else None
    sb = b["samples"].get(key) if key else None
    if not sa or not sb or min(len(sa), len(sb)) < 2:
        return "worse"
    same_spans = (len(sa) == len(sb) and name == "us_per_op"
                  and a["manifest"]["params_hash"] == b["manifest"]["params_hash"]
                  and a["manifest"]["seed"] == b["manifest"]["seed"])
    if same_spans:
        ratios = [y / x if lower else x / y for x, y in zip(sa, sb)]
        return "worse" if _quartiles(ratios)[0] > 1.0 + bound else "unresolved"
    (a25, a75), (b25, b75) = _quartiles(sa), _quartiles(sb)
    apart = b25 > a75 * (1.0 + bound) if lower else b75 * (1.0 + bound) < a25
    return "worse" if apart else "unresolved"


def compare(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text(encoding="utf-8"))
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))
    metrics = benchmark_json()["end_to_end"]
    worse = 0
    print(f"A = {path_a}\nB = {path_b}")
    header = (f"{'workload':<16}{'metric':<24}{'A':>13}{'B':>13}"
              f"{'B/A':>9}  {'bound':>6}  verdict")
    print(header)
    print("-" * len(header))
    for name in a["workloads"]:
        ta = a["workloads"][name].get("timed")
        tb = b["workloads"].get(name, {}).get("timed")
        if not ta or not tb:
            print(f"{name:<16}(missing on one side)")
            continue
        for metric in metrics:
            va = ta["metrics"][metric["name"]]["value"]
            vb = tb["metrics"][metric["name"]]["value"]
            ratio = vb / va
            worsening = ratio if metric["better"] == "lower" else 1.0 / ratio
            verdict = _verdict(metric, ta, tb, worsening)
            worse += verdict == "worse"
            print(f"{name:<16}{metric['name']:<24}{va:>13.6g}{vb:>13.6g}"
                  f"{ratio:>8.3f}x  {metric['bound']:>6.2f}  {verdict}"
                  f"   (base A = {va:.6g} {metric['unit']})")
    print(f"compare: {worse} metric(s) worse than the bound allows")
    return 1 if worse else 0


# ------------------------------------------------------------------------ main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument("--workload", action="append",
                        help="run only this workload (repeatable)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--smoke", action="store_true",
                        help="budgets / 50: a functional check, not a measurement")
    parser.add_argument("--json", dest="json_out", default=None)
    parser.add_argument("--trace-out", default=None,
                        help="directory for the traced passes' spans (JSONL)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    return run_ledger(args)


if __name__ == "__main__":
    sys.exit(main())
