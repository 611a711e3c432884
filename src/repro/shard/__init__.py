"""repro.shard: what remains is :mod:`repro.shard.state`, the end-state
summary and replay fingerprint the world catalog and the perf ledger use.
The space-partitioned engine is gone (DESIGN.md §12); nothing is re-exported.
"""
