"""The replay cells' policy, driven as a user drives it.

``probe`` is a user's hit path: count down a bypass, or look the token
up and replay or miss.  The layers' own properties
(``tests/kernel/test_replay_cells.py``) show that no policy moves an
observable; this file pins the policy itself.
"""

from repro.sim.replay import ReplayCells

LIMIT = ReplayCells.MISS_LIMIT


def probe(cells, token):
    """One packet: 'bypass', 'replay' or 'miss'."""
    if cells.bypass:
        cells.bypass -= 1
        return "bypass"
    if cells.get(token) is not None:
        cells.n_replays += 1
        return "replay"
    cells.missed()
    return "miss"


def miss_run(cells, n):
    return [probe(cells, object()) for _ in range(n)]


def bypass_length(cells):
    """Packets until the cells probe again."""
    n = 0
    while cells.bypass:
        assert probe(cells, object()) == "bypass"
        n += 1
    return n


def test_the_class_constants():
    assert (ReplayCells.MISS_LIMIT, ReplayCells.WINDOW,
            ReplayCells.WINDOW_MAX, ReplayCells.CAP) == (
                256, 256, 8192, 16384)


def test_a_run_of_misses_starts_a_bypass_of_one_window():
    cells = ReplayCells()
    assert miss_run(cells, LIMIT - 1) == ["miss"] * (LIMIT - 1)
    assert cells.bypass == 0
    miss_run(cells, 1)
    assert bypass_length(cells) == ReplayCells.WINDOW
    assert probe(cells, object()) == "miss"


def test_the_window_doubles_up_to_its_max():
    cells = ReplayCells()
    windows = []
    for _ in range(8):
        miss_run(cells, LIMIT)
        windows.append(bypass_length(cells))
    assert windows == [256, 512, 1024, 2048, 4096, 8192, 8192, 8192]


def test_a_replay_resets_the_run_and_the_window_at_the_next_miss():
    cells = ReplayCells()
    for _ in range(3):
        miss_run(cells, LIMIT)
        bypass_length(cells)
    assert cells.window == 2048
    cells["hot"] = "cell"
    miss_run(cells, LIMIT - 1)
    assert probe(cells, "hot") == "replay"
    assert cells.window == 2048  # nothing reads it before the next miss
    # The run restarts: LIMIT - 1 more misses start no bypass ...
    miss_run(cells, LIMIT - 1)
    assert cells.bypass == 0 and cells.window == ReplayCells.WINDOW
    # ... and the next one starts the first window again.
    miss_run(cells, 1)
    assert bypass_length(cells) == ReplayCells.WINDOW


def test_entering_a_bypass_at_the_full_window_clears_the_cells():
    cells = ReplayCells()
    while cells.window < ReplayCells.WINDOW_MAX:
        miss_run(cells, LIMIT)
        bypass_length(cells)
    for i in range(LIMIT - 1):
        cells.store(i, "cell")
    miss_run(cells, LIMIT - 1)
    assert len(cells) == LIMIT - 1
    miss_run(cells, 1)
    assert len(cells) == 0
    assert bypass_length(cells) == ReplayCells.WINDOW_MAX


def test_a_bypass_below_the_full_window_keeps_the_cells():
    cells = ReplayCells()
    cells.store("kept", "cell")
    miss_run(cells, LIMIT)
    assert cells.bypass and cells["kept"] == "cell"


def test_a_store_into_a_full_cache_clears_it_first():
    cells = ReplayCells()
    for i in range(ReplayCells.CAP):
        cells.store(i, i)
    assert len(cells) == ReplayCells.CAP
    cells.store("next", "cell")
    assert dict(cells) == {"next": "cell"}
    cells.store("next", "again")  # a replace below the cap clears nothing
    assert len(cells) == 1


def test_the_hit_path_is_the_dict_lookup():
    """``get`` is dict's own: a subclass adds no Python frame to it."""
    assert ReplayCells.get is dict.get
    assert not hasattr(ReplayCells(), "__dict__")
