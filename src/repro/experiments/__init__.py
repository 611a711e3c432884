"""Experiment harnesses — one module per table/figure of the paper, plus
the ablations.

Every module holds a point function (one deployment, explicit seed, plain
result), the grid builder that sweeps it and a report formatter;
:mod:`repro.experiments.registry` declares each experiment once from those
and :func:`run` is the one way to execute any of them::

    from repro.experiments import run
    result = run("fig9", max_top_layer=6, jobs=2)

``python -m repro.experiments --list`` is the index (DESIGN.md §4 maps the
names to the paper's artefacts); the CLI and the tests go through the same
call, and ``tests/test_experiments.py`` states each paper claim once over
the result.
"""

from repro.experiments.registry import (REGISTRY, ExperimentEntry,
                                        UnknownParameter, get, run)
from repro.experiments.report import format_table

__all__ = ["REGISTRY", "ExperimentEntry", "UnknownParameter", "format_table",
           "get", "run"]
