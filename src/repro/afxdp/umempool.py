"""umempool: OVS's userspace buffer manager for umem frames (§3.2 O2/O3).

"The umem regions require synchronization, even if only one thread
processes packets received in a given region, because any thread might
need to send a packet to any umem region."

The pool hands out free frame addresses.  Its two knobs are exactly the
paper's optimizations:

* ``lock_strategy`` — O2: a POSIX mutex can context-switch the caller
  (~5 % CPU observed); a spinlock is <1 %.
* ``batched`` — O3: one lock acquisition per *batch* of frames instead of
  one per frame.

Every acquisition charges the corresponding cost to the calling context,
so Table 2's ablation falls out of real allocator behaviour.
"""

from __future__ import annotations

import enum
from typing import List, Optional

from repro.afxdp.umem import Umem
from repro.sim import trace
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.cpu import CpuCategory, ExecContext
from repro.sim.rng import make_rng


class LockStrategy(enum.Enum):
    MUTEX = "mutex"
    SPINLOCK = "spinlock"


#: An uncontended pthread mutex occasionally falls into the futex slow
#: path (lock handoff, priority boosting); we charge a full context switch
#: once per this many acquisitions — tuned so a mutex-per-packet workload
#: shows the ~5 % pthread_mutex_lock CPU share the paper measured.
MUTEX_FUTEX_PERIOD = 400


class UmemPool:
    def __init__(
        self,
        umem: Umem,
        lock_strategy: LockStrategy = LockStrategy.SPINLOCK,
        batched: bool = True,
    ) -> None:
        self.umem = umem
        self.lock_strategy = lock_strategy
        self.batched = batched
        self._free: List[int] = umem.all_addresses()
        self._rng = make_rng("umempool-futex")
        self.lock_acquisitions = 0
        self.futex_slow_paths = 0

    @property
    def free_count(self) -> int:
        return len(self._free)

    def _lock_cost(self, ctx: ExecContext) -> None:
        costs = DEFAULT_COSTS
        self.lock_acquisitions += 1
        if self.lock_strategy is LockStrategy.SPINLOCK:
            ctx.charge(costs.spinlock_ns, label="spinlock")
            return
        ctx.charge(costs.mutex_ns, label="mutex")
        if self.lock_acquisitions % MUTEX_FUTEX_PERIOD == 0:
            # Futex slow path: syscall + possible context switch.
            self.futex_slow_paths += 1
            trace.count("kernel.ctx_switches")
            with ctx.as_category(CpuCategory.SYSTEM):
                ctx.charge(costs.syscall_base_ns, label="futex")
            ctx.charge(costs.context_switch_ns, label="futex_switch")

    def alloc(self, n: int, ctx: ExecContext,
              batched: Optional[bool] = None) -> List[int]:
        """Take ``n`` free frame addresses (fewer if the pool runs dry).

        ``batched`` overrides the pool's configured locking granularity:
        the transmit buffering path was batch-locked from the start, so
        the XSK passes ``batched=True`` there; O3's change is about the
        per-packet receive/refill path.
        """
        free = self._free
        n = min(n, len(free))
        if n == 0:
            return []
        if self.batched if batched is None else batched:
            self._lock_cost(ctx)
        else:
            for _ in range(n):
                self._lock_cost(ctx)
        out = free[-n:]
        del free[-n:]
        return out

    def free(self, addrs: List[int], ctx: ExecContext,
             batched: Optional[bool] = None) -> None:
        if not addrs:
            return
        if self.batched if batched is None else batched:
            self._lock_cost(ctx)
        else:
            for _ in range(len(addrs)):
                self._lock_cost(ctx)
        self.umem.clear_frames(addrs)
        self._free.extend(addrs)
