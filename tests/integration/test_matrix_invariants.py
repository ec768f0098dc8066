"""Invariants of the quick grid's ``matrix.json`` document.

Asserted over the record's ``matrix-quick`` entry, which
``tests/test_record.py`` compares with a fresh sweep exactly; the
paper's orderings over it are rows of ``tests/test_claims.py``.  Here:

* the document covers the advertised grid;
* each cell's rate is its world's own measurement: ``run_cell`` reports
  exactly what ``World.drive`` measured for the same stream, with no
  search or second formula in between.
"""

import pytest

from repro.experiments.world import build_world
from repro.perfmatrix.cells import CellSpec, run_cell
from repro.perfmatrix.matrix import QUICK_GRID
from repro.traffic.trex import FlowSpec, TrexStream
from tests.record import load


@pytest.fixture(scope="module")
def doc():
    """The recorded document, cells keyed by ``id``."""
    return load()["matrix-quick"]["result"]


def test_grid_coverage(doc):
    """The acceptance floor: >= 3 datapaths x 2 topologies x 2 packet
    sizes x 2 flow counts, every supported grid point present."""
    cells = list(doc["cells"].values())
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


def test_rate_is_the_worlds_own_measurement(doc):
    """Every quick-grid cell's ``rate_mpps`` (``run_cell`` at the grid's
    400 packets and 25 Gbps) is exactly ``World.drive(...).mpps`` for
    the same stream on an untraced world: nothing between the drive and
    the document re-derives the rate."""
    cells = doc["cells"]
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


def test_cell_runner_rejects_bad_budget():
    with pytest.raises(ValueError):
        run_cell(CellSpec("P2P", "dpdk", 64, 1), packets=0)
