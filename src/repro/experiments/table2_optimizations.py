"""Table 2: the AF_XDP optimization ladder (§3.2).

============================  =========
Optimizations                 Rate
============================  =========
none                          0.8 Mpps
O1                            4.8
O1+O2                         6.0
O1+O2+O3                      6.3
O1+O2+O3+O4                   6.6
O1+O2+O3+O4+O5                7.1 (estimated)
============================  =========

O1 dedicated PMD thread per queue; O2 spinlock instead of mutex;
O3 spinlock batching; O4 metadata pre-allocation; O5 checksum offload
(estimated by stamping a fixed value, as the paper did).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.afxdp.driver import AfxdpOptions
from repro.afxdp.umempool import LockStrategy
from repro.analysis.reporting import format_table
from repro.experiments.world import build_world
from repro.traffic.trex import FlowSpec, TrexStream

PACKETS = 2_000
LINK_GBPS = 10.0

#: The ladder, in the paper's order: (label, options, main-thread-mode).
LADDER: List[Tuple[str, AfxdpOptions, bool]] = [
    (
        "none",
        AfxdpOptions(lock_strategy=LockStrategy.MUTEX, batched_locking=False,
                     preallocated_metadata=False, batch_size=8),
        True,
    ),
    (
        "O1",
        AfxdpOptions(lock_strategy=LockStrategy.MUTEX, batched_locking=False,
                     preallocated_metadata=False),
        False,
    ),
    (
        "O1+O2",
        AfxdpOptions(batched_locking=False, preallocated_metadata=False),
        False,
    ),
    (
        "O1+O2+O3",
        AfxdpOptions(preallocated_metadata=False),
        False,
    ),
    (
        "O1+O2+O3+O4",
        AfxdpOptions(),
        False,
    ),
    (
        "O1+O2+O3+O4+O5",
        AfxdpOptions(sw_checksum_on_tx=False),
        False,
    ),
]

PAPER_MPPS = {
    "none": 0.8,
    "O1": 4.8,
    "O1+O2": 6.0,
    "O1+O2+O3": 6.3,
    "O1+O2+O3+O4": 6.6,
    "O1+O2+O3+O4+O5": 7.1,
}


@dataclass
class Table2Result:
    mpps: Dict[str, float]

    def speedup(self, a: str, b: str) -> float:
        return self.mpps[b] / self.mpps[a]

    def render(self) -> str:
        rows = [
            (label, f"{self.mpps[label]:.1f}", PAPER_MPPS[label])
            for label, _opts, _main in LADDER
        ]
        return format_table(
            ["Optimizations", "Rate (Mpps)", "Paper (Mpps)"],
            rows,
            title="Table 2: single-flow 64B rates, physical NIC <-> OVS userspace",
        )


def run_cell(label: str, packets: int) -> float:
    """One ladder rung (``label`` indexes :data:`LADDER`): fresh world,
    fresh stream, one rate."""
    options, main_mode = next(
        (opts, mode) for lbl, opts, mode in LADDER if lbl == label)
    world = build_world("afxdp_zc", "P2P", options=options,
                        link_gbps=LINK_GBPS, pmd_main_thread_mode=main_mode)
    measurement = world.drive(TrexStream(FlowSpec(1), frame_len=64),
                              packets)
    return measurement.mpps


def run_table2(packets: int = PACKETS) -> Table2Result:
    return Table2Result(mpps={label: run_cell(label, packets)
                              for label, _opts, _main in LADDER})


def main() -> None:  # pragma: no cover - CLI entry
    result = run_table2()
    print(result.render())
    print(f"\nO1 speedup: {result.speedup('none', 'O1'):.1f}x "
          f"(paper: 6x)")


if __name__ == "__main__":  # pragma: no cover
    main()
