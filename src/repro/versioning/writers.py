"""Dense writer-id interning.

Version vectors are keyed by writer identity strings.  Every comparison in
the detection inner loop therefore walks a ``str -> int`` dict, paying
string hashing and per-entry bytecode for what is conceptually an array
compare.  This module assigns each writer string a small dense integer id,
process-wide, so vectors can memoise an array projection (``counts[id]``)
and run compare/dominate/order-distance as C-speed ``map``/``all`` passes
over tuples (see :meth:`repro.versioning.version_vector.VersionVector.dense`).

Ids are assigned in first-intern order.  Nothing observable depends on the
numbering — it only indexes the private dense projections — so sharing one
table across deployments in a process is safe, and simulation determinism is
unaffected by how many runs preceded the current one.

Cost caveat: a dense projection spans ``0..max interned id present in the
vector``, so a process that interleaves deployments with *disjoint* writer
name sets gives later vectors high ids and zero-padded projections.  The
repo's topologies reuse the same node-name pattern across deployments, so
ids collide back to the same small range in practice; the global table is
what keeps memoised projections from different vectors index-compatible.
If a workload ever needs isolation, build a private :class:`WriterTable`
and thread it through — the algebra only assumes one shared index space
per comparison.
"""

from __future__ import annotations

from typing import Dict, List


class WriterTable:
    """Bidirectional ``writer string <-> dense int id`` table."""

    __slots__ = ("_ids", "_names")

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}
        self._names: List[str] = []

    def intern(self, writer: str) -> int:
        """Return the writer's dense id, assigning the next one if new."""
        wid = self._ids.get(writer)
        if wid is None:
            wid = self._ids[writer] = len(self._names)
            self._names.append(writer)
        return wid

    def name_of(self, wid: int) -> str:
        return self._names[wid]

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, writer: str) -> bool:
        return writer in self._ids


#: process-wide default table; vectors intern through this unless a caller
#: builds a private table for isolation (tests do, to pin id assignment)
GLOBAL_WRITERS = WriterTable()
