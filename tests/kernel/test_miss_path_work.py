"""How much Python the kernel datapath runs per never-repeating packet.

The miss-path sibling of ``test_per_packet_work.py``: every frame is its
own flow, as in §5.2's random-IP workload, so no replay cell ever
replays and each frame parses and walks to the world's one megaflow.
On such traffic the cells (``ReplayCells``) stand aside and build no
token for all but one probe of ``MISS_LIMIT`` frames per window; a cell
stored for every frame, or a policy that never stands aside, fails here
before it shows as a slower bench.
"""

import cProfile
import pstats
import sys

import pytest

from repro.experiments.world import build_world
from repro.sim.replay import ReplayCells
from repro.traffic.trex import FlowSpec, TrexStream

from ..afxdp.test_miss_path_work import FirstDrive
from .test_per_packet_work import WarmStream, calls_of

PACKETS = 2_000
#: Frames the first drive sends behind its 2,000 warm-up packets.  The
#: profiled drive then ends 200 frames into the first probe after the
#: bypass window reached ``WINDOW_MAX``, at frame 17,664 of the run.
FIRST = 13_800
FRAMES = 2_000 + FIRST + 64 + PACKETS


@pytest.mark.skipif(sys.getprofile() is not None,
                    reason="another profiler is active")
def test_profiled_calls_per_never_repeating_packet():
    """A 2,000-packet kernel P2P drive over 10 queues (plus its 64
    warm-up packets) of frames the world has never seen, under
    ``cProfile``; the stream's frames are all built before the window.

    Per packet: 64.90 calls before the kernel had replay cells (a parse,
    a walk and a ``with_data`` copy per frame, and two rxhash reads);
    61.09 after, with one rxhash read and no copy, while the cells build
    200 tokens and store 200 cells in the window; 61.29 with the cells'
    policy in ``ReplayCells`` (a ``missed`` and a ``store`` call for
    each of those 200 probes).  The bound sits just above.  Charges per
    packet do not move (7.42 on both sides).
    """
    bench = build_world("kernel", "P2P")
    dp = bench.vs.dpif_netlink.dp
    stream = TrexStream(FlowSpec(n_flows=FRAMES), frame_len=64, seed=1)
    bench.drive(FirstDrive(stream), FIRST)
    profile = cProfile.Profile()
    profile.enable()
    bench.drive(WarmStream(stream), PACKETS)
    profile.disable()
    stats = pstats.Stats(profile)
    packets = PACKETS + 64
    assert dp.n_upcalls == 1 and dp.flows.n_hit == FRAMES - 1
    cells = dp.cells
    assert cells.n_replays == 0
    total = sum(nc for _cc, nc, *_rest in stats.stats.values())
    assert total / packets <= 61.5, total / packets
    assert calls_of(stats, "net/flow.py", "extract_flow") == packets
    assert calls_of(stats, "kernel/ovs_module.py", "lookup") == packets
    assert calls_of(stats, "net/packet.py", "with_data") == 0
    assert calls_of(stats, "net/flow.py", "rxhash_of") == packets
    charges = calls_of(stats, "sim/cpu.py", "charge")
    assert f"{charges / packets:.2f}" == "7.42"
    # The window is at its cap, and the cells hold one probe's stores.
    assert cells.window == ReplayCells.WINDOW_MAX
    assert 0 < len(cells) <= ReplayCells.MISS_LIMIT
