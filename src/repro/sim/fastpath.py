"""Read only by ``bench/spec.py``'s host fingerprint; goes with the bench
re-base (ROADMAP 1(h)).

The wall-clock memos (the XDP verdict memo, the NIC's steering shortcut
and the ``rxhash_of`` memo) have no switch: they are the only path, and
change no observable.  Reference mode, every memo bypassed, is a
test-side substitution (``tests/reference/memos.py``).
"""

ENABLED = True
