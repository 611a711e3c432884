"""Replicated object store — the "general distributed file system" substrate.

The paper assumes IDEA sits on top of a general replication-based file
system that "handles the ordinary read/write operations" and "ensures the
correctness of read/write functionalities" (Section 2).  This subpackage is
that substrate: a per-node replica of each shared object holds each applied
update once, in its extended version vector; the
:class:`~repro.store.filesystem.ReplicatedStore` groups the replicas hosted
by one node and exposes read/write to the application layer, while IDEA's
middleware observes the same replicas to detect and resolve inconsistency.
"""

from repro.store.replica import Replica
from repro.store.filesystem import ReplicatedStore

__all__ = ["Replica", "ReplicatedStore"]
