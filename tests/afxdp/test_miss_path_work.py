"""How much Python the AF_XDP EMC-miss walk runs per packet, counted.

The miss-path sibling of ``test_per_packet_work.py``: every frame is its
own flow, as in §5.2's random-IP workload, so each one misses the XDP
verdict memo and the EMC and hits the world's one megaflow.  Under
``cProfile`` the number of calls a drive makes repeats exactly, so a
second parse, a second EMC hash or a replay cell stored for a frame
that never comes back fails here before it shows as a slower bench.
"""

import cProfile
import pstats
import sys

import pytest

from repro.experiments.world import build_world
from repro.traffic.trex import FlowSpec, TrexStream

from .test_per_packet_work import WarmStream, calls_of

PACKETS = 2_000
#: The first drive (its 2,000 warm-up packets plus 2,000), then two
#: warm drives of 64 + PACKETS each: every frame of the run is distinct.
FRAMES = 2 * 2_000 + 2 * (64 + PACKETS)


class FirstDrive(WarmStream):
    """The first drive over the frames, its warm-up sized like the
    bench's ``DistinctStream`` (1,000 flows: 2,000 packets)."""

    flows = FlowSpec(n_flows=1_000)


@pytest.mark.skipif(sys.getprofile() is not None,
                    reason="another profiler is active")
def test_profiled_calls_per_never_repeating_packet():
    """A warm 2,000-packet AF_XDP zero-copy P2P drive (plus its 64
    warm-up packets) of frames the world has never seen, under
    ``cProfile``; the stream's frames are all built before the window.

    Per packet: 131.04 calls with two flow parses (the NIC's software
    RSS hash and the dpif's key), two EMC hashes (the failed probe and
    the insert) and a replay cell stored per insert; 114.01 with the RSS
    hash read straight off the frame, the insert at the probe's
    positions and cells stored only by hits; 113.01 with dpif-netdev's
    flow cache standing aside on EMC misses like the other replay cells
    (no token built or probed inside a bypass window).  The bound sits
    just above.  Charges per packet do not move (17.80 both sides: the
    virtual clock sees nothing).
    """
    bench = build_world("afxdp_zc", "P2P")
    stream = TrexStream(FlowSpec(n_flows=FRAMES), frame_len=64, seed=1)
    bench.drive(FirstDrive(stream), 2_000)
    warm = WarmStream(stream)
    bench.drive(warm, PACKETS)
    profile = cProfile.Profile()
    profile.enable()
    bench.drive(warm, PACKETS)
    profile.disable()
    stats = pstats.Stats(profile)
    packets = PACKETS + 64
    dpif = bench.vs.dpif_netdev
    assert dpif.stats.megaflow_hits == FRAMES - 1  # one upcall, no EMC hit
    total = sum(nc for _cc, nc, *_rest in stats.stats.values())
    assert total / packets <= 113.5, total / packets
    assert calls_of(stats, "net/flow.py", "extract_flow") == packets
    assert calls_of(stats, "ovs/emc.py", "_positions") == packets
    assert calls_of(stats, "net/packet.py", "clone") == 2 * packets
    charges = calls_of(stats, "sim/cpu.py", "charge")
    assert f"{charges / packets:.2f}" == "17.80"
    assert len(bench.pmds[0].emc.flow_cache) == 0
