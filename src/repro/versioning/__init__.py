"""Version-vector algebra.

IDEA detects inconsistency by exchanging *version vectors* (Parker et al.,
1983) among replicas and extends them (Section 4.4.1, Figure 5) with

* per-update timestamps,
* an application-supplied numerical meta-datum (e.g. sum of ASCII codes of
  recent white-board updates, or total sale price of a booking server), and
* the time the replica was last known consistent,

from which the TACT-style ``<numerical error, order error, staleness>``
triple is computed against a reference state.

This subpackage provides both the classic vector
(:class:`~repro.versioning.version_vector.VersionVector`, the per-writer
counts) and the extended vector
(:class:`~repro.versioning.extended_vector.ExtendedVersionVector`) with the
merge algebra resolution uses.
"""

from repro.versioning.version_vector import VersionVector
from repro.versioning.extended_vector import (
    ErrorTriple,
    ExtendedVersionVector,
    TruncatedHistoryError,
    UpdateRecord,
    VectorDelta,
    WriterBase,
)
from repro.versioning.writers import GLOBAL_WRITERS, WriterTable

__all__ = [
    "VersionVector",
    "ErrorTriple",
    "ExtendedVersionVector",
    "TruncatedHistoryError",
    "UpdateRecord",
    "VectorDelta",
    "WriterBase",
    "GLOBAL_WRITERS",
    "WriterTable",
]
