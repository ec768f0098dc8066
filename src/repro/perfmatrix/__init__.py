"""The automated performance matrix (the scenario-coverage flywheel).

``ovs_perf``-style harness over the simulated testbed: sweep packet
size × flow count × datapath × topology, report each cell's measured
rate — the world's own drive, reduced by
:func:`repro.experiments.common.reduce_run` exactly as ``fig9`` reduces
it — and emit one machine-readable ``matrix.json`` (``python -m repro
matrix --quick --out matrix.json``).  See :mod:`repro.perfmatrix.matrix`
for the grids.

The harness is observably read-only: it builds every cell from the world
table the paper experiments use and never mutates global state, so a
matrix sweep leaves the paper experiments' ledgers, counters and
flamegraphs byte-identical (the ``after-matrix`` row of
``tests/integration/test_jit_equivalence``).
"""

from repro.perfmatrix.cells import (  # noqa: F401
    DATAPATHS,
    TOPOLOGIES,
    CellSpec,
    UnsupportedCell,
    cell_support,
    run_cell,
)
from repro.perfmatrix.matrix import (  # noqa: F401
    FULL_GRID,
    QUICK_GRID,
    MatrixGrid,
    canonical_json,
    run_matrix,
)
