"""How much Python the kernel datapath runs per packet, counted not timed.

The wall-clock benchmark (``bench/``) is where speed is measured; this
is its clock-free tripwire in tier-1.  Under ``cProfile`` the number of
calls a drive makes repeats exactly, so a wrapper frame, a dense mask
projection or a third packet copy put back on the per-packet path fails
here before it shows as a slower bench.
"""

import cProfile
import pstats
import sys

import pytest

from repro.experiments.world import build_world
from repro.kernel import ovs_module
from repro.net.flow import MaskSpec
from repro.traffic.trex import FlowSpec, TrexStream
from tests.reference.memos import reference_mode

PACKETS = 2_000


class WarmStream:
    """The flows of a stream the world has seen: the drive's warm-up is
    its minimum of 64 packets, none of which misses."""

    flows = FlowSpec(n_flows=1)
    frame_len = 64

    def __init__(self, stream):
        self.burst = stream.burst


def warm_world():
    bench = build_world("kernel", "P2P")
    stream = TrexStream(FlowSpec(n_flows=1_000), frame_len=64, seed=1)
    bench.drive(stream, 64)  # 2,000 warm-up packets install every flow
    return bench, WarmStream(stream)


def calls_of(stats, filename, function):
    return sum(nc for (path, _line, name), (_cc, nc, *_rest)
               in stats.stats.items()
               if name == function and path.endswith(filename))


@pytest.mark.skipif(sys.getprofile() is not None,
                    reason="another profiler is active")
def test_profiled_calls_per_packet():
    """One warm 2,000-packet kernel P2P drive over 10 queues (plus its
    64 warm-up packets) under ``cProfile``.

    Calls per packet, every Python and C function counted, and the
    count repeats exactly: 119.16 with the field-by-field
    ``extract_flow``, the dense ``apply_mask`` flow table (32 generator
    steps per probed mask) and the ``__new__``/``update``
    ``Packet.clone``; 59.89 with the compiled layouts, the ``MaskSpec``
    table and flat copies; 47.02 with replay cells on the flow table,
    one rxhash per received frame and the packet itself forwarded by an
    ``Output`` that left its bytes alone; 47.04 with the cells' policy
    in ``ReplayCells`` (a ``missed`` and a ``store`` call for each
    packet that walks).  The bound sits just above.  Charges per packet
    do not move (7.42 on both sides).

    The warm-up laps the 1,000 flows twice, and while the cells stood
    aside (their bypass policy) 24 of them stored none: each of those
    parses and walks once, and every other packet replays.  (25 before
    ``ReplayCells``: the probe that starts a bypass stored no cell.)
    """
    bench, stream = warm_world()
    cells = bench.vs.dpif_netlink.dp.cells
    uncached = 1_000 - len(cells)
    replays = cells.n_replays
    profile = cProfile.Profile()
    profile.enable()
    bench.drive(stream, PACKETS)
    profile.disable()
    stats = pstats.Stats(profile)
    packets = PACKETS + 64
    total = sum(nc for _cc, nc, *_rest in stats.stats.values())
    assert total / packets <= 47.5, total / packets
    assert uncached == 24
    assert cells.n_replays - replays == packets - uncached
    assert calls_of(stats, "net/flow.py", "extract_flow") == uncached
    assert calls_of(stats, "kernel/ovs_module.py", "lookup") == uncached
    assert calls_of(stats, "net/packet.py", "with_data") == 0
    assert calls_of(stats, "net/packet.py", "clone") == 2 * packets
    assert calls_of(stats, "net/flow.py", "rxhash_of") == packets
    charges = calls_of(stats, "sim/cpu.py", "charge")
    assert f"{charges / packets:.2f}" == "7.42"


def test_lookup_builds_no_tuple_longer_than_the_mask(monkeypatch):
    """Every packet walks the table here: the cells are bypassed."""
    projected = []

    class RecordingSpec(MaskSpec):
        def project(self, key):
            out = super().project(key)
            projected.append((len(out), sum(1 for bits in self.mask if bits)))
            return out

    monkeypatch.setattr(ovs_module, "MaskSpec", RecordingSpec)
    with reference_mode():
        bench, stream = warm_world()
        projected.clear()
        bench.drive(stream, PACKETS)
    assert len(projected) == PACKETS + 64  # one mask, one probe per packet
    assert all(built <= nonzero < 31 for built, nonzero in projected)
