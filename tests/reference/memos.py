"""Reference mode: the datapath with every wall-clock memo bypassed.

The simulator has one production path, and its memos — the replay cells
of :mod:`repro.sim.replay` (the XDP verdict memo, dpif-netdev's flow
cache and the kernel datapath's cells) and the ``rxhash_of`` memo
behind the NIC's RSS steering, its rx-hash offload and the AF_XDP
driver's software rxhash — are that path.  Each must change no
observable, so the tests run whole experiments once as they are and
once under :func:`reference_mode`, which substitutes the memo-free
semantics:

* the rxhash read by ``kernel/nic.py`` and ``afxdp/driver.py`` is
  recomputed from a fresh flow parse (:func:`rxhash`, the definition
  ``tests/net/test_rxhash_differential.py`` proves ``rxhash_of`` equals);
* every ``ReplayCells`` built inside the block starts in its bypass
  state for good, so every frame runs the XDP program and every packet
  parses its frame and walks the EMC or the kernel flow table.
"""

import contextlib
import math
from unittest import mock

from repro.net.flow import extract_flow, rss_hash
from repro.sim.replay import ReplayCells


def rxhash(data: bytes) -> int:
    """The software RSS hash of a frame, parsed afresh every time."""
    return rss_hash(extract_flow(data).five_tuple())


@contextlib.contextmanager
def reference_mode():
    """Run a block with every wall-clock memo bypassed."""
    init = ReplayCells.__init__

    def bypassed(self):
        init(self)
        self.bypass = math.inf  # never counts down to a probe

    with mock.patch("repro.kernel.nic.rxhash_of", rxhash), \
            mock.patch("repro.afxdp.driver.rxhash_of", rxhash), \
            mock.patch.object(ReplayCells, "__init__", bypassed):
        yield
