"""Wall-clock fast-path switches.

Wall-clock layers change *no* observable simulation output — virtual-time
charges, trace ledgers, counters and packet bytes are byte-identical —
but make the simulator run faster in real time.  The XDP verdict memo,
the NIC's steering shortcut and rxhash memo and the AF_XDP driver's
receive loop consult this flag.  It is the only one: eBPF always runs
compiled (:mod:`repro.ebpf.jit`).

``ENABLED`` exists so the equivalence test suites can run the optimized
stack against the memo-free reference in one process (``reference_mode``
in ``tests/conftest.py`` is :func:`disabled`); ``bench/`` records it in
its host fingerprint.  Production runs leave it on.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

ENABLED: bool = True


@contextmanager
def disabled() -> Iterator[None]:
    """Run a block with every wall-clock memo layer bypassed."""
    global ENABLED
    prev, ENABLED = ENABLED, False
    try:
        yield
    finally:
        ENABLED = prev
