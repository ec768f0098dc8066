"""How much Python one TCP_RR transaction runs, counted not timed.

The sibling of ``tests/kernel/test_per_packet_work.py`` for the latency
path (Figs. 10/11, the bench's ``rr_latency``): at burst size 1 nothing
amortises, so what a transaction pays is per-transaction and per-burst
*fixed* cost — frames rebuilt, wrapper frames, idle polls, context-manager
generators.  Under ``cProfile`` the number of calls repeats exactly, so
any of those put back fails here before it shows as a slower bench.
"""

import cProfile
import pstats
import sys

import pytest

from repro.experiments.fig10_latency import _JITTER, _RrPath
from repro.traffic.netperf import TcpRrRunner

TRANSACTIONS = 1_000

#: config -> (bound on profiled calls per transaction, exact
#: ``ExecContext.charge`` calls per transaction).
BUDGET = {
    "kernel": (300, 25),
    "afxdp": (440, 46),
    "dpdk": (260, 22),
}


def calls_of(stats, filename, function):
    return sum(nc for (path, _line, name), (_cc, nc, *_rest)
               in stats.stats.items()
               if name == function and path.endswith(filename))


@pytest.mark.skipif(sys.getprofile() is not None,
                    reason="another profiler is active")
@pytest.mark.parametrize("config", list(BUDGET))
def test_profiled_calls_per_transaction(config):
    """1,000 warm transactions per config under ``cProfile``,
    ``TcpRrRunner(seed=3)``; every Python and C function counted.

    Calls per transaction, kernel / afxdp / dpdk:

    * 478.86 / 685.64 / 411.64 with two ``make_tcp_packet`` builds per
      transaction, a ``LatencyTrace.add`` frame under every charge, the
      ``contextlib`` ``as_category`` and five frames per idle AF_XDP poll;
    * 313.86 / 493.64 / 271.64 on the prototype that only cloned
      templates, inlined the trace and cut three idle polls short;
    * 255.87 / 392.65 / 231.65 as merged (the fraction is the jitter
      sampler's rejection loop, exact for this seed).

    The bounds sit between the last two.  The virtual clock does not
    move with any of this: ``charge`` calls stay 25 / 46 / 22.
    """
    bound, charges = BUDGET[config]
    path = _RrPath(config)
    runner = TcpRrRunner(path.contexts(), _JITTER[config], seed=3)
    runner.run(path.one_transaction, 50)  # warm: caches, lazy contexts
    profile = cProfile.Profile()
    profile.enable()
    runner.run(path.one_transaction, TRANSACTIONS)
    profile.disable()
    stats = pstats.Stats(profile)
    total = sum(nc for _cc, nc, *_rest in stats.stats.values())
    assert total / TRANSACTIONS <= bound, total / TRANSACTIONS
    assert calls_of(stats, "sim/cpu.py", "charge") == charges * TRANSACTIONS
    # Frames are built once per path, never inside the measured loop.
    assert calls_of(stats, "net/builder.py", "make_tcp_packet") == 0
    # Every charge is traced, none through a second frame; the only
    # ``LatencyTrace.add`` calls left are the runner's jitter terms.
    assert calls_of(stats, "sim/cpu.py", "add") \
        == len(_JITTER[config]) * TRANSACTIONS
    contextlib_frames = [key for key in stats.stats
                         if key[0].endswith("contextlib.py")]
    assert not contextlib_frames, contextlib_frames
