import pytest

from repro.afxdp.umem import Umem
from repro.afxdp.umempool import MUTEX_FUTEX_PERIOD, LockStrategy, UmemPool
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.cpu import CpuCategory, CpuModel, ExecContext


@pytest.fixture
def ctx():
    return ExecContext(CpuModel(1), 0, CpuCategory.USER)


def _pool(**kwargs):
    return UmemPool(Umem(n_frames=128), **kwargs)


def test_alloc_free_roundtrip(ctx):
    pool = _pool()
    addrs = pool.alloc(10, ctx)
    assert len(addrs) == 10
    assert pool.free_count == 118
    pool.free(addrs, ctx)
    assert pool.free_count == 128


def test_alloc_capped_at_free(ctx):
    pool = _pool()
    assert len(pool.alloc(1000, ctx)) == 128
    assert pool.alloc(1, ctx) == []


def test_free_clears_frames(ctx):
    from repro.net.addresses import MacAddress
    from repro.net.builder import make_udp_packet

    pool = _pool()
    [addr] = pool.alloc(1, ctx)
    pool.umem.write_frame(addr, make_udp_packet(
        MacAddress.local(1), MacAddress.local(2), "10.0.0.1", "10.0.0.2"))
    pool.free([addr], ctx)
    with pytest.raises(ValueError, match="empty"):
        pool.umem.read_frames([addr])


def test_batched_locking_one_lock_per_batch(ctx):
    pool = _pool(batched=True)
    pool.alloc(32, ctx)
    assert pool.lock_acquisitions == 1


def test_unbatched_locking_one_lock_per_frame(ctx):
    pool = _pool(batched=False)
    pool.alloc(32, ctx)
    assert pool.lock_acquisitions == 32


def test_spinlock_cheaper_than_mutex():
    cpu_spin = CpuModel(1)
    ctx_spin = ExecContext(cpu_spin, 0, CpuCategory.USER)
    spin = _pool(lock_strategy=LockStrategy.SPINLOCK, batched=False)
    for _ in range(100):
        spin.free(spin.alloc(1, ctx_spin), ctx_spin)

    cpu_mutex = CpuModel(1)
    ctx_mutex = ExecContext(cpu_mutex, 0, CpuCategory.USER)
    mutex = _pool(lock_strategy=LockStrategy.MUTEX, batched=False)
    for _ in range(100):
        mutex.free(mutex.alloc(1, ctx_mutex), ctx_mutex)

    assert cpu_mutex.busy_ns() > 2 * cpu_spin.busy_ns()


def test_mutex_hits_futex_slow_path(ctx):
    pool = _pool(lock_strategy=LockStrategy.MUTEX, batched=False)
    for _ in range(MUTEX_FUTEX_PERIOD):
        pool.free(pool.alloc(1, ctx), ctx)
    assert pool.futex_slow_paths >= 1


def test_spinlock_never_futexes(ctx):
    pool = _pool(lock_strategy=LockStrategy.SPINLOCK, batched=False)
    for _ in range(MUTEX_FUTEX_PERIOD):
        pool.free(pool.alloc(1, ctx), ctx)
    assert pool.futex_slow_paths == 0


def test_empty_free_is_noop(ctx):
    pool = _pool()
    pool.free([], ctx)
    assert pool.lock_acquisitions == 0
