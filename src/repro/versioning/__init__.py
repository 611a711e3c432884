"""Version-vector algebra.

IDEA detects inconsistency by exchanging *version vectors* (Parker et al.,
1983) among replicas and extends them (Section 4.4.1, Figure 5) with

* per-update timestamps,
* an application-supplied numerical meta-datum (e.g. sum of ASCII codes of
  recent white-board updates, or total sale price of a booking server), and
* the TACT-style ``<numerical error, order error, staleness>`` triple.

This subpackage provides both the classic vector
(:class:`~repro.versioning.version_vector.VersionVector`) and the extended
vector (:class:`~repro.versioning.extended_vector.ExtendedVersionVector`)
with the comparison and merge algebra detection and resolution use.
"""

from repro.versioning.version_vector import Ordering, VersionVector
from repro.versioning.extended_vector import (
    ErrorTriple,
    ExtendedVersionVector,
    TruncatedHistoryError,
    UpdateRecord,
    WriterBase,
)
from repro.versioning.writers import GLOBAL_WRITERS, WriterTable

__all__ = [
    "Ordering",
    "VersionVector",
    "ErrorTriple",
    "ExtendedVersionVector",
    "TruncatedHistoryError",
    "UpdateRecord",
    "WriterBase",
    "GLOBAL_WRITERS",
    "WriterTable",
]
