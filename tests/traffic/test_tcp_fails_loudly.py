"""Fig. 8's TCP worlds never return from a pump with frames in flight.

Each panel settles its world through the world table's bounded pump
after the handshake and after every iperf chunk.  A forwarder that
reports progress forever trips it: the run raises ``AssertionError``
naming the world and the cap (and, where the world has NICs, the frames
pending on them) instead of measuring a half-delivered chunk.
"""

import pytest

from repro.experiments import fig8_tcp_throughput
from repro.experiments.world import PUMP_CAP
from repro.hosts.vm import VirtualMachine
from repro.ovs.pmd import PmdThread

#: panel -> (config, the stage that never settles, the world it wedges).
WEDGED = {
    # The inner pump of host-a settles first, at the handshake.
    "a": ("kernel+tap", (VirtualMachine, "pump"),
          r"kernel/V2V-geneve host-a world still moving frames after "
          rf"{PUMP_CAP} pump rounds \(\d+ frames pending\)"),
    "b": ("afxdp+vhost", (VirtualMachine, "pump"),
          rf"afxdp_zc/V2V world still moving frames after {PUMP_CAP} "
          r"pump rounds$"),
    "c": ("afxdp user", (PmdThread, "run_iteration"),
          rf"afxdp_copy/C2C world still moving frames after {PUMP_CAP} "
          r"pump rounds$"),
}


@pytest.mark.parametrize("panel", sorted(WEDGED))
def test_a_forwarder_that_never_settles_trips_the_pump(panel, monkeypatch):
    config, stage, message = WEDGED[panel]
    rounds = []
    # The pump binds its stages when the world is built: patch the class.
    monkeypatch.setattr(*stage, lambda self, *a, **k: rounds.append(1) or 1)
    with pytest.raises(AssertionError, match=message):
        getattr(fig8_tcp_throughput, f"run_panel_{panel}")(config, 1)
    assert len(rounds) >= PUMP_CAP
