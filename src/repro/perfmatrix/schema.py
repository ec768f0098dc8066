"""Schema validation for ``matrix.json`` (no external dependency).

``validate_matrix`` returns a list of human-readable problems (empty =
valid).  The emitter runs it, so a malformed document is never emitted.
"""

from __future__ import annotations

from typing import Any, List

SCHEMA_ID = "repro.perfmatrix/2"

_CELL_REQUIRED = {
    "id": str,
    "topology": str,
    "datapath": str,
    "frame_len": int,
    "n_flows": int,
    "packets": int,
    "link_gbps": (int, float),
    "rate_mpps": (int, float),
    "ns_per_packet": (int, float),
    "cycles_per_packet": (int, float),
    "capped_by_line": bool,
    "n_busy_lanes": int,
    "cpu_util": dict,
    "drops": dict,
}

_GRID_REQUIRED = {
    "frame_lens": list,
    "flow_counts": list,
    "datapaths": list,
    "topologies": list,
}


def _check_keys(obj: dict, required: dict, where: str,
                problems: List[str]) -> bool:
    ok = True
    for key, typ in required.items():
        if key not in obj:
            problems.append(f"{where}: missing key {key!r}")
            ok = False
        elif not isinstance(obj[key], typ):
            problems.append(
                f"{where}: {key!r} should be {typ}, got "
                f"{type(obj[key]).__name__}"
            )
            ok = False
    return ok


def _check_cell(cell: Any, index: int, problems: List[str]) -> None:
    where = f"cells[{index}]"
    if not isinstance(cell, dict):
        problems.append(f"{where}: not an object")
        return
    if not _check_keys(cell, _CELL_REQUIRED, where, problems):
        return
    where = f"cells[{index}] ({cell['id']})"
    if cell["rate_mpps"] < 0:
        problems.append(f"{where}: negative rate")


def validate_matrix(doc: Any) -> List[str]:
    """All the ways ``doc`` fails to be a valid matrix (empty = valid)."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    if doc.get("schema") != SCHEMA_ID:
        problems.append(
            f"schema is {doc.get('schema')!r}, expected {SCHEMA_ID!r}"
        )
    grid = doc.get("grid")
    if not isinstance(grid, dict):
        problems.append("missing grid object")
    else:
        _check_keys(grid, _GRID_REQUIRED, "grid", problems)
    cells = doc.get("cells")
    if not isinstance(cells, list) or not cells:
        problems.append("cells must be a non-empty list")
        return problems
    for i, cell in enumerate(cells):
        _check_cell(cell, i, problems)
    ids = [c.get("id") for c in cells if isinstance(c, dict)]
    dupes = {i for i in ids if ids.count(i) > 1}
    if dupes:
        problems.append(f"duplicate cell ids: {sorted(dupes)}")
    skipped = doc.get("skipped")
    if not isinstance(skipped, list):
        problems.append("missing skipped list")
    else:
        for i, entry in enumerate(skipped):
            if not isinstance(entry, dict) or not {
                "datapath", "topology", "reason"
            } <= set(entry):
                problems.append(f"skipped[{i}]: malformed entry")
    return problems
