"""Wall-clock fast-path switches.

The burst-classification work (PR 2) added cross-packet memo layers that
change *no* observable simulation output — virtual-time charges, trace
ledgers, counters and packet bytes are byte-identical — but make the
simulator run several times faster in real time: the XDP verdict memo,
NIC steering/rxhash memos, and the datapath's cross-burst flow cache
consult this flag.

``ENABLED`` exists so the equivalence test suites can run the optimized
stack against the memo-free reference in one process (``reference_mode``
in ``tests/conftest.py``); ``bench/`` records it in its host
fingerprint.  Production runs leave it on.
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
