"""Every run of ``tests/record.py`` matches its entry in the record.

A mismatch fails with the moved keys, old and new value each; if the
change was meant, ``PYTHONPATH=src python -m tests.record`` re-records
and the diff of ``tests/record.json`` is the review.
"""

import copy

import pytest

from repro.sim import costs
from tests import record

@pytest.fixture(scope="module")
def recorded():
    return record.load()


def moved(recorded, name):
    return record.compare({name: recorded[name]},
                          {name: record.observe(name)})


def test_the_record_holds_exactly_the_runs(recorded):
    assert sorted(recorded) == sorted(record.RUNS)


@pytest.mark.parametrize("name", sorted(record.RUNS))
def test_run_matches_the_record(recorded, name):
    lines = moved(recorded, name)
    assert not lines, "\n".join(lines)


def test_a_pvp_entry_moves_with_the_guest_forwarder_cost(recorded):
    """Teeth: the record sees a cost the PVP worlds charge per packet."""
    name = "matrix-PVP-dpdk-1f"
    with costs.overridden(
            guest_fwd_ns=costs.DEFAULT_COSTS.guest_fwd_ns + 1.0):
        lines = moved(recorded, name)
    assert any(line.startswith(f"{name}/") for line in lines), lines


def test_the_fig8_entry_moves_with_the_recirculation_cost(recorded):
    """Teeth: the fig8 entry sees every recirculated pass."""
    with costs.overridden(
            recirculate_ns=costs.DEFAULT_COSTS.recirculate_ns + 1.0):
        lines = moved(recorded, "fig8")
    assert any(line.startswith("fig8/") for line in lines), lines


def _first_matrix_cell(recorded):
    """A copy of the record's ``matrix-quick`` entry, and its first cell."""
    moved = {"matrix-quick": copy.deepcopy(recorded["matrix-quick"])}
    cells = moved["matrix-quick"]["result"]["cells"]
    cell_id = sorted(cells)[0]
    return moved, cell_id, cells[cell_id]


def test_compare_passes_identical_records(recorded):
    assert record.compare(recorded, copy.deepcopy(recorded)) == []


def test_compare_names_a_cut_matrix_rate(recorded):
    """One quick-matrix cell's rate cut by 12 %: exactly that key moves."""
    cut, cell_id, cell = _first_matrix_cell(recorded)
    old = cell["rate_mpps"]
    cell["rate_mpps"] *= 0.88
    assert record.compare({"matrix-quick": recorded["matrix-quick"]},
                          cut) == [
        f"matrix-quick/result/cells/{cell_id}/rate_mpps: "
        f"{old!r} -> {cell['rate_mpps']!r} (-12.00 %)"]


def test_compare_names_a_raised_matrix_rate(recorded):
    """A silent speedup moves the record as surely as a slowdown."""
    raised, cell_id, cell = _first_matrix_cell(recorded)
    old = cell["rate_mpps"]
    cell["rate_mpps"] *= 1.12
    assert record.compare({"matrix-quick": recorded["matrix-quick"]},
                          raised) == [
        f"matrix-quick/result/cells/{cell_id}/rate_mpps: "
        f"{old!r} -> {cell['rate_mpps']!r} (+12.00 %)"]


def test_compare_names_coordinate_drift(recorded):
    """A cell swept at another coordinate is a moved key, rate or not."""
    drifted, cell_id, cell = _first_matrix_cell(recorded)
    old = cell["link_gbps"]
    cell["link_gbps"] = 100.0
    assert record.compare({"matrix-quick": recorded["matrix-quick"]},
                          drifted) == [
        f"matrix-quick/result/cells/{cell_id}/link_gbps: "
        f"{old!r} -> 100.0 ({100 * (100.0 - old) / old:+.2f} %)"]


def test_compare_diffs_ledgers_by_line_and_counts_the_rest():
    old = {"run": {"ledger": ["span a ns=1.0", "span b ns=2.0"],
                   "counters": {f"c{i:02}": i for i in range(30)}}}
    new = copy.deepcopy(old)
    new["run"]["ledger"].insert(1, "span ab ns=0.5")
    del new["run"]["counters"]["c00"]
    new["run"]["counters"]["extra"] = 1
    for i in range(1, 30):
        new["run"]["counters"][f"c{i:02}"] += 1
    lines = record.compare(old, new)
    assert lines[:4] == ["run/counters/c00: 0 -> (absent)",
                         "run/counters/c01: 1 -> 2 (+100.00 %)",
                         "run/counters/c02: 2 -> 3 (+50.00 %)",
                         "run/counters/c03: 3 -> 4 (+33.33 %)"]
    assert len(lines) == record.LIMIT + 1
    assert lines[-1] == "... and 12 more moved keys"
    assert record.compare({"run": old["run"]["ledger"]},
                          {"run": new["run"]["ledger"]}) == [
        "run: + span ab ns=0.5"]
