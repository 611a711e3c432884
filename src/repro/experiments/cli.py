"""Command-line front end: ``python -m repro.experiments``.

Runs any registered experiment through the sweep farm::

    python -m repro.experiments --list
    python -m repro.experiments --run churn --jobs 4
    python -m repro.experiments --run fig7 --json out.json
    python -m repro.experiments --run churn --smoke --param "duration=15.0"

``--jobs N`` runs the points over N worker processes (default 1: serially,
in-process).  ``--smoke`` applies the registry's shrunken parameters — the
same code path on a seconds-sized grid.  A failed point (``FarmPointError``)
is attempted once and exits 1 with a diagnostic, so CI smoke steps cannot
silently pass on a failure; a ``--param`` key or ``--world`` the experiment
does not take, or a ``--jobs`` below 1, exits 2 naming what it accepts; a
value of another kind than the keyword's default (a string where it is a
number: ``--param 'rate="1"'``) or one the grid refuses (``--run fig9
--param max_top_layer=1``) exits 2 with a one-line reason.
Every experiment runs on the simulator; the live backend's oracle run is
``python -m repro.live``.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import json
import sys
from typing import Any, Dict, List, Optional

from repro.experiments import registry
from repro.farm import FarmPointError


def _parse_param(text: str) -> tuple:
    """``key=value``; the value is parsed by :func:`_param_value`."""
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(
            f"expected key=value, got {text!r}")
    if key.strip() == "jobs":
        raise argparse.ArgumentTypeError("worker processes are --jobs N")
    return key.strip(), raw


def _param_value(key: str, raw: str) -> Any:
    """A Python literal, or a bare name kept as a string (``--param
    shape=flash``); anything else raises ``ValueError`` naming ``key``."""
    try:
        return ast.literal_eval(raw)
    except (ValueError, TypeError, SyntaxError, MemoryError):
        if raw.isidentifier():
            return raw
    raise ValueError(f"--param {key}: {raw!r} is neither a Python literal "
                     f"nor a bare name")


def _check_type(key: str, value: Any, default: Any) -> None:
    """Refuse a ``--param`` value of another kind than its default: a
    number (a bool is not one), a bool or a string; raises ``ValueError``
    naming ``key``."""
    if isinstance(default, bool):
        kind, ok = "a bool", isinstance(value, bool)
    elif isinstance(default, (int, float)):
        kind = "a number"
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    elif isinstance(default, str):
        kind, ok = "a string", isinstance(value, str)
    else:
        return
    if not ok:
        raise ValueError(f"--param {key}: expected {kind} like the default "
                         f"{default!r}, got {value!r}")


def _parse_jobs(text: str) -> int:
    """``--jobs N``: a worker-process count, at least one."""
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"--jobs must be >= 1, got {jobs}")
    return jobs


def _jsonable(value: Any) -> Any:
    """Recursively coerce a result object into JSON-serialisable data."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item") and callable(value.item):  # numpy scalars
        try:
            return value.item()
        except (TypeError, ValueError):
            pass
    if hasattr(value, "tolist") and callable(value.tolist):  # numpy arrays
        return value.tolist()
    if isinstance(value, float):
        # inf/nan are not valid JSON; stringify them so dumps stays strict.
        if value != value or value in (float("inf"), float("-inf")):
            return str(value)
        return value
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    return repr(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run the paper-reproduction experiments through the sweep farm.")
    parser.add_argument("--list", action="store_true",
                        help="list the registered experiments and exit")
    parser.add_argument("--run", metavar="NAME",
                        help="experiment to run (see --list)")
    parser.add_argument("--jobs", type=_parse_jobs, default=1, metavar="N",
                        help="farm worker processes (default: 1, serial)")
    parser.add_argument("--world", action="append", default=None,
                        dest="worlds", metavar="NAME|PATH",
                        help="restrict a world-aware experiment to this "
                             "catalog world or world JSON file (repeatable)")
    parser.add_argument("--json", metavar="PATH", dest="json_path",
                        help="also write the result as JSON to PATH ('-' for stdout)")
    parser.add_argument("--smoke", action="store_true",
                        help="use the registry's shrunken smoke parameters")
    parser.add_argument("--param", action="append", type=_parse_param,
                        default=[], metavar="KEY=VALUE",
                        help="override a sweep keyword (repeatable; value is a "
                             "Python literal, e.g. --param 'duration=30.0')")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the human-readable report")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list:
        width = max(len(name) for name in registry.REGISTRY)
        for name, entry in sorted(registry.REGISTRY.items()):
            print(f"{name:<{width}}  {entry.description}")
        return 0

    if not args.run:
        parser.print_help()
        return 2

    try:
        entry = registry.get(args.run)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    kwargs: Dict[str, Any] = dict(entry.smoke) if args.smoke else {}
    accepted = entry.parameters()
    try:
        for key, raw in args.param:
            value = kwargs[key] = _param_value(key, raw)
            _check_type(key, value, accepted.get(key))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.worlds:
        if "worlds" not in accepted:
            print(f"error: experiment {args.run!r} does not take --world",
                  file=sys.stderr)
            return 2
        kwargs["worlds"] = tuple(args.worlds)

    try:
        result = registry.run(args.run, jobs=args.jobs, **kwargs)
    except (registry.UnknownParameter, ValueError) as exc:
        # a point's own failure arrives as FarmPointError: a ValueError
        # here is the grid refusing its parameters
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FarmPointError as exc:
        print(f"error: experiment {args.run!r} failed: {exc}", file=sys.stderr)
        return 1

    if not args.quiet:
        print(entry.report(result))

    if args.json_path:
        payload = {"experiment": entry.name, "jobs": args.jobs,
                   "parameters": _jsonable(kwargs),
                   "result": _jsonable(result)}
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
        if args.json_path == "-":
            print(text)
        else:
            with open(args.json_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            if not args.quiet:
                print(f"\nJSON written to {args.json_path}")
    return 0
