"""Reference mode: the datapath with every wall-clock memo bypassed.

The simulator has one production path, and its memos — the XDP verdict
memo, the kernel datapath's replay cells and the ``rxhash_of`` memo
behind the NIC's RSS steering, its rx-hash offload and the AF_XDP
driver's software rxhash — are that path.  Each must change no observable, so the tests run whole
experiments once as they are and once under :func:`reference_mode`,
which substitutes the memo-free semantics:

* the rxhash read by ``kernel/nic.py`` and ``afxdp/driver.py`` is
  recomputed from a fresh flow parse (:func:`rxhash`, the definition
  ``tests/net/test_rxhash_differential.py`` proves ``rxhash_of`` equals);
* every ``XdpContext`` built inside the block starts in its bypass
  state for good, so every frame runs the program;
* every ``KernelDatapath`` built inside the block starts with its
  replay cells bypassed for good, so every packet parses its frame and
  walks the flow table.
"""

import contextlib
import math
from unittest import mock

from repro.ebpf.xdp import XdpContext
from repro.kernel.ovs_module import KernelDatapath
from repro.net.flow import extract_flow, rss_hash


def rxhash(data: bytes) -> int:
    """The software RSS hash of a frame, parsed afresh every time."""
    return rss_hash(extract_flow(data).five_tuple())


@contextlib.contextmanager
def reference_mode():
    """Run a block with every wall-clock memo bypassed."""
    attach = XdpContext.__init__
    create = KernelDatapath.__init__

    def attach_bypassed(self, program):
        attach(self, program)
        self._memo_bypass = math.inf  # never counts down to a probe

    def create_bypassed(self, name, namespace):
        create(self, name, namespace)
        self._cell_bypass = math.inf

    with mock.patch("repro.kernel.nic.rxhash_of", rxhash), \
            mock.patch("repro.afxdp.driver.rxhash_of", rxhash), \
            mock.patch.object(XdpContext, "__init__", attach_bypassed), \
            mock.patch.object(KernelDatapath, "__init__", create_bypassed):
        yield
