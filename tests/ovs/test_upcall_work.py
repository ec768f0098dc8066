"""How much Python the NSX upcall and revalidation walk, counted not timed.

The slow-path sibling of the per-packet work guards: on the NSX
pipeline every new connection is an upcall and every flow-mod makes the
revalidator re-translate each live megaflow, so ``Ofproto.translate``,
the classifier probe, ``union_masks`` and ``MaskSpec.project`` are the
walk.  The world is ``tests.record.ChurnWorld``: the 3,000-rule smoke
deployment the benchmark's ``nsx_churn`` builds, driven with 256 new
connections in 32-packet bursts around one flow-mod and one
revalidation.

What the walk *decides* (the megaflows it installs, the busy time it
charges, what the revalidator keeps) is the record's ``nsx-churn``
entry.  Here: how many ``charge`` calls it makes, pinned to a reading of
the tree before the read side was rewritten, and the profiled-call
bound, the clock-free guard on how much Python each translation runs.
"""

import cProfile
import pstats
import sys

import pytest

from tests.afxdp.test_per_packet_work import calls_of
from tests.record import CHURN_PACKETS, ChurnWorld

#: ``charge`` calls over the profiled churn, and the translations it ran
#: (upcalls plus the revalidator's re-translations).
CHARGES = 7_691
TRANSLATIONS = 389


def test_churn_decides_what_it_always_did():
    """Every connection reaches its VIF; the megaflows it installs, the
    busy time it charges and what the revalidator keeps are the record's
    ``nsx-churn`` entry."""
    world = ChurnWorld()
    world.churn()
    assert len(world.egress.take_transmitted()) == CHURN_PACKETS
    assert world.dpif.stats.dropped == 0


@pytest.mark.skipif(sys.getprofile() is not None,
                    reason="another profiler is active")
def test_profiled_calls_per_translate():
    """The churn under ``cProfile``, counted per translation.

    Calls per translation, every Python and C function counted (CPython
    3.10.13 / 3.11.7 / 3.12.1): 356.44 / 355.13 / 354.79 with a
    ``sorted`` per classifier lookup, a generator per projection, a
    31-step OR per probed mask, two rebuilt masks, ``FlowKey._replace``
    and an ``isinstance`` chain per action; 212.48 / 211.16 / 211.15
    with the cached probe order, the C-level projection and mask union,
    constant masks, positional key updates and type dispatch.  The bound
    sits between, nearer the second.  ``charge`` does not move: the
    virtual clock sees nothing.
    """
    world = ChurnWorld()
    translations = world.vs.ofproto.n_translations
    profile = cProfile.Profile()
    profile.enable()
    world.churn()
    profile.disable()
    stats = pstats.Stats(profile)
    translations = world.vs.ofproto.n_translations - translations
    assert translations == TRANSLATIONS
    assert calls_of(stats, "sim/cpu.py", "charge") == CHARGES
    total = sum(nc for _cc, nc, *_rest in stats.stats.values())
    assert total / translations <= 240, total / translations
