"""Reference kernels: fixed work that does not depend on the program.

The host this benchmark runs on is shared, and its speed drifts: on the
2-vCPU KVM guest (Intel Xeon) the benchmark was defined on, the median
``frontdoor`` round of one seed took 0.090 s of CPU in one run and
0.138 s in another, minutes apart.  Process CPU time leaves out the other
processes of the machine, but not this drift, which comes from the host
(a busy sibling hyperthread, the shared cache, the clock).

So a run also times one of these kernels between its ops, and reports
op costs as multiples of the kernel's median time in the same run
(unit ``ref``).  A slower host slows the ops and the kernel alike, and
the quotient stays put; a faster program lowers the quotient, because
the kernel never changes.  Each workload names the kernel that slows
down the way it does:

* ``python``: the interpreter-bound mix of the scalar event engine --
  a heap of timestamped events delivered to slotted objects found by
  dict lookup in a population too large for the cache, and many tiny
  numpy calls;
* ``numpy``: the array calls of ``repro.vec`` -- a scatter-add into
  groups, ``unique`` and ``bincount``.

Both kernels return a checksum, which :func:`timed` compares with the
value they must produce.
"""

from __future__ import annotations

import heapq
from functools import cache
from time import process_time
from typing import Callable

import numpy as np


class _Peer:
    __slots__ = ("inbox", "total")

    def __init__(self) -> None:
        self.inbox: list[int] = []
        self.total = 0


@cache
def _population() -> tuple[dict[int, _Peer], list[int]]:
    """Peers by key, and the fixed random order the kernel visits them
    in.  The population is as large as the simulator's, so that the
    kernel, like the program, misses the cache on most lookups."""
    order = np.random.default_rng(2008).permutation(1 << 17)
    return {ident * 7_919: _Peer() for ident in range(1 << 17)}, (order * 7_919).tolist()


_cursor = 0


def python_kernel() -> int:
    """About 4 ms of interpreter work: a heap of 1,500 timestamped
    events, each delivered to one of the next 500 peers of the order,
    found by dict lookup, whose slotted state it updates; then one tiny
    numpy call per peer."""
    global _cursor
    peers, order = _population()
    visited = [order[(_cursor + k) % len(order)] for k in range(500)]
    _cursor = (_cursor + 500) % len(order)
    heap: list[tuple[float, int, int]] = []
    for seq in range(1_500):
        heapq.heappush(heap, ((seq * 7_919) % 1_009 * 0.5, seq, visited[seq * 7 % 500]))
    total = 0
    while heap:
        _, seq, key = heapq.heappop(heap)
        peer = peers[key]
        peer.inbox.append(seq)
        peer.total += len(peer.inbox)
        total += peer.total
    for key in visited:
        peer = peers[key]
        total += int(np.asarray(peer.inbox, dtype=np.int64).sum())
        peer.inbox = []
        peer.total = 0
    return total


@cache
def _arrays() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rng = np.random.default_rng(2008)
    return (
        rng.integers(0, 4_096, 1 << 18),
        rng.integers(0, 100, 1 << 18),
        rng.integers(0, 1 << 30, 1 << 20),
    )


def numpy_kernel() -> int:
    """About 20 ms of the array calls ``repro.vec`` spends its time in:
    a scatter-add into groups, ``unique`` and ``bincount``."""
    groups, values, keys = _arrays()
    sums = np.zeros(4_096, dtype=np.int64)
    np.add.at(sums, groups, values)
    distinct = np.unique(keys[: 1 << 16])
    counts = np.bincount(keys & 4_095, minlength=4_096)
    return int(sums.sum()) + int(distinct.size) + int(counts.max())


KERNELS: dict[str, Callable[[], int]] = {"python": python_kernel, "numpy": numpy_kernel}

#: What each kernel returns; a different value means the kernel changed.
CHECKSUMS: dict[str, int] = {"python": 1_129_250, "numpy": 13_041_005}


def timed(name: str) -> float:
    """CPU seconds of one call of kernel ``name``."""
    kernel = KERNELS[name]
    started = process_time()
    value = kernel()
    elapsed = process_time() - started
    if value != CHECKSUMS[name]:
        raise SystemExit(f"perfbench: reference kernel {name} returned {value}, not {CHECKSUMS[name]}")
    return elapsed
