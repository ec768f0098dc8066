"""How much Python the AF_XDP datapath runs per packet, counted not timed.

The sibling of ``tests/kernel/test_per_packet_work.py`` for the paper's
headline datapath: under ``cProfile`` the number of calls a drive makes
repeats exactly, so a wrapper frame, a per-packet umem check helper or
an EMC flow cache that stops replaying fails here before it shows as a
slower bench.
"""

import cProfile
import pstats
import sys

import pytest

from repro.experiments.p2p import afxdp_p2p
from repro.traffic.trex import FlowSpec, TrexStream

PACKETS = 2_000


class WarmStream:
    """The flows of a stream the world has seen: the drive's warm-up is
    its minimum of 64 packets, none of which misses."""

    flows = FlowSpec(n_flows=1)
    frame_len = 64

    def __init__(self, stream):
        self.burst = stream.burst


def calls_of(stats, filename, function):
    return sum(nc for (path, _line, name), (_cc, nc, *_rest)
               in stats.stats.items()
               if name == function and path.endswith(filename))


@pytest.mark.skipif(sys.getprofile() is not None,
                    reason="another profiler is active")
def test_profiled_calls_per_packet():
    """One warm 2,000-packet ``afxdp_p2p()`` drive (plus its 64 warm-up
    packets) cycling 1,000 flows, under ``cProfile``.

    Calls per packet, every Python and C function counted, and the
    count repeats exactly: 122.06 with an EMC flow cache that replayed
    nothing (one colliding pair bumped the counter that invalidated
    every cell), a ``_check`` frame per umem access and the
    ``_dispatch_xdp``/``_init_metadata``/``_put_on_wire`` hops; 75.08
    with slot-identity cells, batched umem access and the folded walk.
    The bound sits between, nearer the second.  Charges per packet do
    not move (15.80 both sides: the virtual clock sees nothing).
    """
    bench = afxdp_p2p()
    stream = TrexStream(FlowSpec(n_flows=1_000), frame_len=64, seed=1)
    bench.drive(stream, 2_000)  # 2,000 warm-up packets install every flow
    warm = WarmStream(stream)
    bench.drive(warm, PACKETS)
    profile = cProfile.Profile()
    profile.enable()
    bench.drive(warm, PACKETS)
    profile.disable()
    stats = pstats.Stats(profile)
    packets = PACKETS + 64
    total = sum(nc for _cc, nc, *_rest in stats.stats.values())
    assert total / packets <= 88, total / packets
    assert calls_of(stats, "net/packet.py", "clone") == 2 * packets
    charges = calls_of(stats, "sim/cpu.py", "charge")
    assert f"{charges / packets:.2f}" == "15.80"
    # The cross-burst flow cache replays (nearly) every EMC hit: the
    # probe runs only where a cell went stale.
    assert calls_of(stats, "ovs/emc.py", "replay_hit") >= 0.99 * packets
    assert calls_of(stats, "ovs/emc.py", "lookup_cell") <= 0.01 * packets
