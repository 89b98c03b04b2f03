"""Qubit partitioning for sharded :class:`repro.service.ReadoutService`.

Qubits are independent (that is the paper's deployment premise -- five
students running concurrently), so a multiplexed request splits by qubit
columns, each shard serves its columns through the ordinary
:meth:`~repro.engine.engine.ReadoutEngine.serve` path, and the front-end
reassembles the columns -- bit-identical to one engine serving the whole
request, because every column is computed by the same backend code on the
same inputs.

This module owns the *partitioning* question (which qubits live on which
shard) and the shape of one ``shard_hosts`` placement entry; *how* a
sub-request reaches a shard is a transport concern -- see
:mod:`repro.service.transport` for the protocol and the local
worker-process implementation, and :mod:`repro.service.net` for the TCP
one.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "partition_qubits",
    "replica_addresses",
]


def replica_addresses(entry) -> list:
    """Normalize one ``shard_hosts`` entry to a list of replica addresses.

    Accepted shapes, in increasing order of redundancy:

    - ``"host:port"`` -- one placement, no replicas;
    - ``(host, port)`` -- same, as a pair (``port`` an ``int``);
    - ``["host:port", (host, port), ...]`` -- replicas of the *same* shard,
      tried in order with automatic failover.

    The two-element ambiguity (is ``("a:1", "b:2")`` one pair or two
    replicas?) is resolved by type: a 2-sequence whose first element is a
    ``str`` and whose second is an ``int`` is a single ``(host, port)``
    address; anything else iterable is a replica list.
    """
    if isinstance(entry, (str, bytes)):
        return [entry]
    try:
        items = list(entry)
    except TypeError:
        raise ValueError(
            "shard placement must be 'host:port', (host, port), or a list "
            f"of replica addresses, got {entry!r}"
        ) from None
    if not items:
        raise ValueError("shard placement needs at least one replica address")
    if (
        len(items) == 2
        and isinstance(items[0], str)
        and isinstance(items[1], int)
    ):
        return [tuple(items)]
    return items


def partition_qubits(
    n_qubits: int,
    n_shards: int,
    atomic_groups: list[list[int]] | None = None,
) -> list[list[int]]:
    """Split ``n_qubits`` into ``n_shards`` contiguous, balanced qubit groups.

    ``atomic_groups`` -- typically the bundle manifest's ``shard_layout``
    hint -- names groups a shard boundary must not split (backends that
    share state).  ``None`` means every qubit is its own atomic group, the
    layout :func:`repro.engine.bundle.save_engine` records for per-qubit
    backends.  The result never contains an empty shard: more shards than
    atomic groups (in particular ``n_shards > n_qubits``) are clipped, so a
    degenerate request cannot spawn idle workers
    (:class:`~repro.service.ReadoutService` warns when it clamps).
    """
    if n_qubits <= 0:
        raise ValueError(f"n_qubits must be positive, got {n_qubits}")
    if n_shards <= 0:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    if atomic_groups is None:
        atomic_groups = [[qubit] for qubit in range(n_qubits)]
    else:
        flat = [qubit for group in atomic_groups for qubit in group]
        if sorted(flat) != list(range(n_qubits)):
            raise ValueError(
                "atomic_groups must cover every qubit index exactly once, "
                f"got {atomic_groups} for {n_qubits} qubits"
            )
        # An empty atomic group carries no constraint and must not become an
        # empty shard; drop it before computing boundaries.
        atomic_groups = [group for group in atomic_groups if group]
    n_shards = min(n_shards, len(atomic_groups))
    # Contiguous split balanced by *qubit* count (atomic groups may be
    # uneven): each boundary is the first group prefix reaching the ideal
    # cumulative share, clamped so every remaining shard still gets a group.
    sizes = [len(group) for group in atomic_groups]
    total = sum(sizes)
    cumulative = np.cumsum(sizes)
    boundaries: list[int] = []
    previous = 0
    for shard in range(1, n_shards):
        target = total * shard / n_shards
        split = int(np.searchsorted(cumulative, target)) + 1
        split = max(split, previous + 1)
        split = min(split, len(atomic_groups) - (n_shards - shard))
        boundaries.append(split)
        previous = split
    edges = [0, *boundaries, len(atomic_groups)]
    return [
        [qubit for group in atomic_groups[start:stop] for qubit in group]
        for start, stop in zip(edges[:-1], edges[1:])
    ]
