"""Keep tier-1 collectable where pytest-benchmark is not installed.

Collecting ``test_ledger_smoke.py`` makes pytest load ``benchmarks/conftest
.py``, which implements a pytest-benchmark hook; without that plugin pytest
rejects the unknown ``pytest_*`` name.  Declaring the hook's spec here (only
when the plugin is absent) keeps the smoke test in the plain
``python -m pytest`` run with no workflow edit.
"""

from __future__ import annotations


class _BenchmarkHookSpecs:
    @staticmethod
    def pytest_benchmark_update_machine_info(config, machine_info):
        """Spec stand-in for pytest-benchmark's hook of the same name."""


def pytest_addhooks(pluginmanager) -> None:
    if not pluginmanager.hasplugin("benchmark"):
        pluginmanager.add_hookspecs(_BenchmarkHookSpecs)
