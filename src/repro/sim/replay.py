"""Replay cells: an exact-token front for an expensive lookup.

The XDP verdict memo, dpif-netdev's flow cache and the kernel datapath
keep one each: token -> cell, where the token is everything the lookup
reads and the cell holds its outcome and a stamp of what that outcome
depended on.  A user replays a cell whose stamp still holds, issuing
exactly the lookup's charges and counters, so no policy here can move
a virtual number.  Its hit path is one ``get``, its stamp check inline
and ``n_replays += 1``; :meth:`missed` and :meth:`store` are miss-path
calls.  The policy is DESIGN §8's.
"""


class ReplayCells(dict):
    """token -> cell, with the bypass policy and the cap."""

    __slots__ = ("bypass", "n_replays", "misses", "window", "_seen")

    MISS_LIMIT = 256
    WINDOW = 256
    WINDOW_MAX = 8192
    CAP = 16384

    def __init__(self) -> None:
        super().__init__()
        #: Packets left to let through without a token or a probe.
        self.bypass = 0
        self.n_replays = 0
        #: Fruitless probes in a row, and the next bypass's length.
        self.misses = 0
        self.window = self.WINDOW
        self._seen = 0  # n_replays at the previous miss

    def missed(self) -> None:
        """A fruitless probe: ``MISS_LIMIT`` in a row start a bypass,
        doubling up to ``WINDOW_MAX`` (entering at which clears the
        cells); a replay since the previous miss restarts the count."""
        if self._seen != self.n_replays:
            self._seen = self.n_replays
            self.misses = 0
            self.window = self.WINDOW
        self.misses += 1
        if self.misses >= self.MISS_LIMIT:
            self.misses = 0
            if self.window == self.WINDOW_MAX:
                self.clear()  # some 10,000 probes missed: dead weight
            self.bypass = self.window
            self.window = min(self.window * 2, self.WINDOW_MAX)

    def store(self, token, cell) -> None:
        if len(self) >= self.CAP:
            self.clear()
        self[token] = cell
