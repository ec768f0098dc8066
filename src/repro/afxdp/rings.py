"""Single-producer/single-consumer descriptor rings.

All four AF_XDP rings (fill, completion, rx, tx) are this structure: a
power-of-two array of descriptors with free-running producer/consumer
indexes.  Descriptors here are ``(addr, length)`` pairs; the fill and
completion rings use length 0.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

Desc = Tuple[int, int]


class RingFullError(Exception):
    pass


class DescRing:
    """SPSC descriptor ring with stall accounting.

    ``full_events``/``empty_events`` count the occasions a producer found
    no space or a consumer found nothing queued — the back-pressure
    signals a real AF_XDP deployment watches (``xsk_ring_prod__reserve``
    failures and empty polls) and the numbers ``pmd-perf-show`` style
    tooling reports.
    """

    def __init__(self, size: int) -> None:
        if size <= 0 or size & (size - 1):
            raise ValueError(f"ring size must be a power of two, got {size}")
        self.size = size
        self._slots: List[Optional[Desc]] = [None] * size
        self._prod = 0
        self._cons = 0
        self.full_events = 0
        self.empty_events = 0

    def __len__(self) -> int:
        return self._prod - self._cons

    @property
    def free_space(self) -> int:
        return self.size - len(self)

    def produce(self, desc: Desc) -> None:
        prod = self._prod
        if prod - self._cons >= self.size:
            self.full_events += 1
            raise RingFullError("ring full")
        self._slots[prod & (self.size - 1)] = desc
        self._prod = prod + 1

    def produce_batch(self, descs: Sequence[Desc]) -> int:
        """Enqueue as many as fit; returns how many were enqueued."""
        prod = self._prod
        n = len(descs)
        free = self.size - (prod - self._cons)
        if n > free:
            self.full_events += 1
            n = free
            descs = descs[:n]
        start = prod & (self.size - 1)
        head = self.size - start  # slots left before the array wraps
        if n <= head:
            self._slots[start:start + n] = descs
        else:
            self._slots[start:] = descs[:head]
            self._slots[:n - head] = descs[head:]
        self._prod = prod + n
        return n

    def consume(self) -> Optional[Desc]:
        if self._cons == self._prod:
            self.empty_events += 1
            return None
        desc = self._slots[self._cons & (self.size - 1)]
        self._cons += 1
        return desc

    def consume_batch(self, max_n: int) -> List[Desc]:
        cons = self._cons
        n = self._prod - cons
        if max_n < n:
            n = max_n
        if n <= 0:
            self.empty_events += 1
            return []
        start = cons & (self.size - 1)
        end = start + n
        self._cons = cons + n
        if end <= self.size:
            return self._slots[start:end]
        return self._slots[start:] + self._slots[:end - self.size]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DescRing(size={self.size}, queued={len(self)})"
