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

from repro.experiments.p2p import kernel_p2p
from repro.kernel import ovs_module
from repro.net.flow import MaskSpec
from repro.traffic.trex import FlowSpec, TrexStream

PACKETS = 2_000


class WarmStream:
    """The flows of a stream the world has seen: the drive's warm-up is
    its minimum of 64 packets, none of which misses."""

    flows = FlowSpec(n_flows=1)
    frame_len = 64

    def __init__(self, stream):
        self.burst = stream.burst


def warm_world():
    bench = kernel_p2p(n_queues=10)
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
    """One warm 2,000-packet ``kernel_p2p(n_queues=10)`` drive (plus its
    64 warm-up packets) under ``cProfile``.

    Calls per packet, every Python and C function counted, and the
    count repeats exactly: 119.16 with the field-by-field
    ``extract_flow``, the dense ``apply_mask`` flow table (32 generator
    steps per probed mask) and the ``__new__``/``update``
    ``Packet.clone``; 71.16 with the compiled layouts, the ``MaskSpec``
    table and flat copies.  The bound sits between, nearer the second.
    """
    bench, stream = warm_world()
    profile = cProfile.Profile()
    profile.enable()
    bench.drive(stream, PACKETS)
    profile.disable()
    stats = pstats.Stats(profile)
    packets = PACKETS + 64
    total = sum(nc for _cc, nc, *_rest in stats.stats.values())
    assert total / packets <= 80, total / packets
    assert calls_of(stats, "net/flow.py", "extract_flow") == packets
    assert calls_of(stats, "net/packet.py", "clone") == 2 * packets
    assert calls_of(stats, "kernel/ovs_module.py", "lookup") == packets


def test_lookup_builds_no_tuple_longer_than_the_mask(monkeypatch):
    projected = []

    class RecordingSpec(MaskSpec):
        def project(self, key):
            out = super().project(key)
            projected.append((len(out), sum(1 for bits in self.mask if bits)))
            return out

    monkeypatch.setattr(ovs_module, "MaskSpec", RecordingSpec)
    bench, stream = warm_world()
    projected.clear()
    bench.drive(stream, PACKETS)
    assert len(projected) == PACKETS + 64  # one mask, one probe per packet
    assert all(built <= nonzero < 31 for built, nonzero in projected)
