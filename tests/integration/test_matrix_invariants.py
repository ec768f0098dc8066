"""Cross-datapath invariants of ``matrix.json`` (the paper's ordering).

Asserted over a freshly swept quick grid (the sweep the record's
``matrix-quick`` entry compares exactly):

* §5.2 / Fig. 9 ordering at 64B single-flow cells:
  DPDK >= AF_XDP zero-copy >= AF_XDP copy >= kernel;
* flow diversity never makes a *lane* faster: the per-busy-lane rate is
  non-increasing in flow count.  (The total rate may legitimately rise
  for the kernel datapath — RSS spreads 1000 flows over 10 IRQ lanes —
  so the total-rate version of the invariant only binds when the lane
  count does not grow.)
* the emitted document is schema-valid and covers the advertised grid;
* each cell's rate is its world's own measurement: ``run_cell`` reports
  exactly what ``World.drive`` measured for the same stream, with no
  search or second formula in between.
"""

import pytest

from repro.experiments.world import build_world
from repro.perfmatrix.cells import CellSpec, run_cell
from repro.perfmatrix.matrix import QUICK_GRID
from repro.perfmatrix.schema import validate_matrix
from repro.traffic.trex import FlowSpec, TrexStream
from tests.record import load, quick_matrix


@pytest.fixture(scope="module")
def doc():
    return quick_matrix()


def _cells(doc):
    return {c["id"]: c for c in doc["cells"]}


def test_schema_valid(doc):
    assert validate_matrix(doc) == []


def test_grid_coverage(doc):
    """The acceptance floor: >= 3 datapaths x 2 topologies x 2 packet
    sizes x 2 flow counts, every supported grid point present."""
    cells = doc["cells"]
    assert len({c["datapath"] for c in cells}) >= 3
    assert len({c["topology"] for c in cells}) >= 2
    assert len({c["frame_len"] for c in cells}) >= 2
    assert len({c["n_flows"] for c in cells}) >= 2
    grid = doc["grid"]
    expected = (len(grid["datapaths"]) * len(grid["topologies"])
                * len(grid["frame_lens"]) * len(grid["flow_counts"]))
    skipped_pairs = {(s["datapath"], s["topology"])
                     for s in doc["skipped"]}
    expected -= (len(skipped_pairs)
                 * len(grid["frame_lens"]) * len(grid["flow_counts"]))
    assert len(cells) == expected


def test_paper_ordering_at_64b_single_flow(doc):
    """DPDK >= AF_XDP zc >= AF_XDP copy >= kernel (Fig. 9, §5.2)."""
    cells = _cells(doc)
    ranking = ("dpdk", "afxdp_zc", "afxdp_copy", "kernel")
    checked = 0
    for topo in {c["topology"] for c in doc["cells"]}:
        rates = []
        for dp in ranking:
            cell = cells.get(f"{topo.lower()}/{dp}/64B/1f")
            if cell is not None:
                rates.append((dp, cell["rate_mpps"]))
        if len(rates) < 2:
            continue
        checked += 1
        for (fast_dp, fast), (slow_dp, slow) in zip(rates, rates[1:]):
            assert fast >= slow, (
                f"{topo}: {fast_dp} ({fast:.3f} Mpps) should not be "
                f"slower than {slow_dp} ({slow:.3f} Mpps)"
            )
    assert checked, "no 64B/1-flow cells to rank"


def test_per_lane_rate_non_increasing_in_flow_count(doc):
    cells = _cells(doc)
    flow_counts = sorted(doc["grid"]["flow_counts"])
    checked = 0
    for cell in doc["cells"]:
        if cell["n_flows"] != flow_counts[0]:
            continue
        for flows in flow_counts[1:]:
            other = cells.get(
                f"{cell['topology'].lower()}/{cell['datapath']}"
                f"/{cell['frame_len']}B/{flows}f")
            if other is None:
                continue
            checked += 1
            lean = cell["rate_mpps"] / cell["n_busy_lanes"]
            fat = other["rate_mpps"] / other["n_busy_lanes"]
            assert fat <= lean + 1e-9, (
                f"{other['id']}: per-lane rate rose with flow diversity "
                f"({lean:.4f} -> {fat:.4f} Mpps/lane)"
            )
            if other["n_busy_lanes"] <= cell["n_busy_lanes"]:
                assert other["rate_mpps"] <= cell["rate_mpps"] + 1e-9, (
                    f"{other['id']}: total rate rose with flow count "
                    f"without extra lanes"
                )
    assert checked, "no flow-count pairs to compare"


def test_rate_is_the_worlds_own_measurement(doc):
    """Every quick-grid cell's ``rate_mpps`` (``run_cell`` at the grid's
    400 packets and 25 Gbps) is exactly ``World.drive(...).mpps`` for
    the same stream on an untraced world: nothing between the drive and
    the document re-derives the rate."""
    cells = _cells(doc)
    assert len(cells) == len(QUICK_GRID.specs())
    for spec in QUICK_GRID.specs():
        world = build_world(spec.datapath, spec.topology,
                            link_gbps=QUICK_GRID.link_gbps)
        stream = TrexStream(
            FlowSpec(n_flows=spec.n_flows,
                     vary_dst=(spec.topology != "PCP")),
            frame_len=spec.frame_len,
        )
        measured = world.drive(stream, QUICK_GRID.packets)
        cell = cells[spec.cell_id]
        assert cell["rate_mpps"] == measured.mpps, spec.cell_id
        assert cell["capped_by_line"] == measured.capped_by_line, (
            spec.cell_id)


def test_fresh_rates_are_bit_identical_to_the_record(doc):
    """Determinism, end to end: same grid, same budget, same floats as
    the record's ``matrix-quick`` entry."""
    recorded = load()["matrix-quick"]["result"]["cells"]
    assert {c["id"]: c["rate_mpps"] for c in doc["cells"]} == {
        cell_id: c["rate_mpps"] for cell_id, c in recorded.items()}


def test_cell_runner_rejects_bad_budget():
    with pytest.raises(ValueError):
        run_cell(CellSpec("P2P", "dpdk", 64, 1), packets=0)
