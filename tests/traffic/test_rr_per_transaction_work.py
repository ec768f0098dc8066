"""How much Python one TCP_RR transaction runs, counted not timed.

The sibling of ``tests/kernel/test_per_packet_work.py`` for the latency
path (Figs. 10/11, the bench's ``rr_latency``): at burst size 1 nothing
amortises, so what a transaction pays is per-transaction and per-burst
*fixed* cost — frames rebuilt, wrapper frames, idle polls, context-manager
generators.  Under ``cProfile`` the number of calls repeats exactly, so
any of those put back fails here before it shows as a slower bench.
"""

import cProfile
import gc
import pstats
import sys

import pytest

from repro.experiments import fig10_latency, fig11_container_latency
from repro.traffic.netperf import TcpRrRunner

TRANSACTIONS = 1_000

#: config -> (the parent's exact profiled calls per transaction, exact
#: ``ExecContext.charge`` calls per transaction), read on the tree whose
#: Figs. 10/11 still built their own switches.  The world table's
#: bounded pump may not add a single call.  CPython 3.10 and 3.11 read
#: exactly these; 3.12 reads 0.002-9 fewer (fig10 252.868 / 352.646 /
#: 218.646, fig11 156.433 / 106.433 / 262.646) with the same charges.
FIG10 = {
    "kernel": (254.87, 25),
    "afxdp": (361.648, 46),
    "dpdk": (220.648, 22),
}
FIG11 = {
    "kernel": (156.435, 13),
    "afxdp": (106.435, 9),
    "dpdk": (264.648, 25),
}


def calls_of(stats, filename, function):
    return sum(nc for (path, _line, name), (_cc, nc, *_rest)
               in stats.stats.items()
               if name == function and path.endswith(filename))


def check_transactions(path, jitter, bound, charges):
    """1,000 warm transactions under ``cProfile``,
    ``TcpRrRunner(seed=3)``; every Python and C function counted.  The
    collector is off meanwhile: a ``gc.callbacks`` entry (Hypothesis
    installs one) would otherwise add calls depending on which tests ran
    before."""
    runner = TcpRrRunner(path.contexts(), jitter, seed=3)
    runner.run(path.one_transaction, 50)  # warm: caches, lazy contexts
    profile = cProfile.Profile()
    gc.disable()
    try:
        profile.enable()
        runner.run(path.one_transaction, TRANSACTIONS)
        profile.disable()
    finally:
        gc.enable()
    stats = pstats.Stats(profile)
    total = sum(nc for _cc, nc, *_rest in stats.stats.values())
    assert total / TRANSACTIONS <= bound, total / TRANSACTIONS
    assert calls_of(stats, "sim/cpu.py", "charge") == charges * TRANSACTIONS
    # Frames are built once per path, never inside the measured loop.
    assert calls_of(stats, "net/builder.py", "make_tcp_packet") == 0
    # Every charge is traced, none through a second frame; the only
    # ``LatencyTrace.add`` calls left are the runner's jitter terms.
    assert calls_of(stats, "sim/cpu.py", "add") == len(jitter) * TRANSACTIONS
    contextlib_frames = [key for key in stats.stats
                         if key[0].endswith("contextlib.py")]
    assert not contextlib_frames, contextlib_frames


@pytest.mark.skipif(sys.getprofile() is not None,
                    reason="another profiler is active")
@pytest.mark.parametrize("config", list(FIG10))
def test_profiled_calls_per_transaction(config):
    """Fig. 10's calls per transaction, kernel / afxdp / dpdk:

    * 478.86 / 685.64 / 411.64 with two ``make_tcp_packet`` builds per
      transaction, a ``LatencyTrace.add`` frame under every charge, the
      ``contextlib`` ``as_category`` and five frames per idle AF_XDP poll;
    * 313.86 / 493.64 / 271.64 on the prototype that only cloned
      templates, inlined the trace and cut three idle polls short;
    * 254.87 / 361.648 / 220.648 since (the fraction is the jitter
      sampler's rejection loop, exact for this seed), which the path
      built through the world table repeats exactly.

    The virtual clock does not move with any of this: ``charge`` calls
    stay 25 / 46 / 22.
    """
    check_transactions(fig10_latency._RrPath(config),
                       fig10_latency._JITTER[config], *FIG10[config])


@pytest.mark.skipif(sys.getprofile() is not None,
                    reason="another profiler is active")
@pytest.mark.parametrize("config", list(FIG11))
def test_fig11_profiled_calls_per_transaction(config):
    """Fig. 11's container path: the kernel and XDP-redirect configs
    settle inside the sender's transmit, DPDK through its PMD."""
    check_transactions(fig11_container_latency._ContainerRrPath(config),
                       fig11_container_latency._JITTER[config],
                       *FIG11[config])
