"""What is left of the megaflow dp-JIT: the two names ``bench/`` reads.

The dp-JIT compiled installed megaflows into Python closures; it was
deleted because 98.9 % of its dispatches were a single ``Output``, which
the datapath walk already inlines (DESIGN §13).  ``bench/spec.py``'s
host fingerprint and ``bench/layers.py``'s ``ovs.dpjit.*`` rows are the
only readers of this module, and it goes when the bench is re-based
(ROADMAP item 1).
"""

from types import SimpleNamespace

#: Read only by ``bench/spec.py``'s host fingerprint.
ENABLED = False

#: Read only by ``bench/layers.py``; nothing compiles, so every field
#: stays 0.
STATS = SimpleNamespace(compiled=0, declined=0, invalidated=0, dispatched=0)
