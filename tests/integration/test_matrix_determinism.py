"""Determinism gates for the performance matrix.

Running any matrix cell (or a whole grid) twice yields byte-identical
canonical JSON: every number comes off the virtual cost model, never a
wall clock.  That the harness is observably read-only — a matrix run
leaves the paper experiments' observations byte-identical — is the
identity gate's ``after-matrix`` row (``test_jit_equivalence.py``).
"""

import json

import pytest

from repro.perfmatrix.cells import CellSpec, UnsupportedCell, run_cell
from repro.perfmatrix.matrix import MatrixGrid, canonical_json, run_matrix
from repro.sim import trace

#: Tiny budget: determinism does not depend on scale.
PACKETS = 200

TINY_GRID = MatrixGrid(
    label="quick",
    frame_lens=(64,),
    flow_counts=(1,),
    datapaths=("kernel", "dpdk"),
    topologies=("P2P",),
    packets=PACKETS,
)


@pytest.mark.parametrize("spec", [
    CellSpec("P2P", "dpdk", 64, 1),
    CellSpec("P2P", "afxdp_zc", 1518, 1000),
    CellSpec("PVP", "kernel", 64, 1),
    CellSpec("PCP", "afxdp_zc", 64, 1),
], ids=lambda s: s.cell_id)
def test_cell_json_is_byte_identical_across_runs(spec):
    a = json.dumps(run_cell(spec, packets=PACKETS), sort_keys=True)
    b = json.dumps(run_cell(spec, packets=PACKETS), sort_keys=True)
    assert a == b


def test_matrix_json_is_byte_identical_across_runs():
    assert canonical_json(run_matrix(TINY_GRID)) == canonical_json(
        run_matrix(TINY_GRID))


def test_unsupported_cells_raise():
    with pytest.raises(UnsupportedCell):
        run_cell(CellSpec("PVP", "ebpf", 64, 1), packets=PACKETS)


def test_matrix_under_external_recorder_leaves_it_balanced():
    """Riding a caller's recorder (python -m repro --trace matrix) must
    not corrupt it: spans stay balanced and the cell result is the one
    a bare run produces."""
    bare = json.dumps(
        run_cell(CellSpec("P2P", "dpdk", 64, 1), packets=PACKETS),
        sort_keys=True)
    with trace.recording() as rec:
        riding = json.dumps(
            run_cell(CellSpec("P2P", "dpdk", 64, 1), packets=PACKETS),
            sort_keys=True)
        assert rec.counters, "riding the recorder should still count"
    assert riding == bare
