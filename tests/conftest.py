"""Test-side oracle selectors shared by the equivalence suites."""

import contextlib

from repro.ovs import dpif_netdev
from repro.sim import fastpath


@contextlib.contextmanager
def reference_mode():
    """Everything off: no burst classify, no wall-clock memos, no JIT —
    the per-packet reference the optimized stack must equal."""
    prev = dpif_netdev.BATCH_CLASSIFY
    dpif_netdev.BATCH_CLASSIFY = False
    try:
        with fastpath.disabled():
            yield
    finally:
        dpif_netdev.BATCH_CLASSIFY = prev
