"""Figure 1: lines changed per year in the out-of-tree kernel datapath.

The motivation figure: thousands of lines of churn every year, a growing
share of it pure backporting ("run faster and faster just to stay in the
same place", §2.1.1).  This experiment renders the digitised dataset,
checks it against the paper's case studies, and regenerates a churn
series from the :class:`~repro.analysis.loc_model.BackportModel` to show
the same shape emerges from the amplification factors the paper reports
(ERSPAN: 50 -> 5,000+ lines; conncount: 600 -> 1,300+).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.loc_model import (
    BACKPORT_CASE_STUDIES,
    OUT_OF_TREE_CHURN,
    BackportModel,
)
from repro.analysis.reporting import bar_chart, format_table


@dataclass
class Fig1Result:
    dataset: Dict[int, Tuple[int, int]]
    simulated: List[Tuple[int, int]]

    def render(self) -> str:
        years = sorted(self.dataset)
        parts = [
            bar_chart(
                [str(y) for y in years],
                [self.dataset[y][0] for y in years],
                unit="LoC",
                title="Figure 1 (dataset): new-feature churn per year",
            ),
            bar_chart(
                [str(y) for y in years],
                [self.dataset[y][1] for y in years],
                unit="LoC",
                title="Figure 1 (dataset): backport churn per year",
            ),
            format_table(
                ["Year", "Features (model)", "Backports (model)"],
                [(y, f, b) for y, (f, b) in
                 zip(years, self.simulated)],
                title="Backport-model regeneration",
            ),
        ]
        return "\n\n".join(parts)


def run_fig1() -> Fig1Result:
    model = BackportModel()
    feature_series = [feat for feat, _bp in (
        OUT_OF_TREE_CHURN[y] for y in sorted(OUT_OF_TREE_CHURN))]
    simulated = model.simulate_years(feature_series)
    return Fig1Result(dataset=dict(OUT_OF_TREE_CHURN), simulated=simulated)


def main() -> None:  # pragma: no cover - CLI entry
    result = run_fig1()
    print(result.render())
    print("\nCase studies (§2.1.1):")
    for case in BACKPORT_CASE_STUDIES:
        amp = case.backport_loc / case.upstream_loc
        print(f"  {case.feature}: {case.upstream_loc} upstream LoC -> "
              f"{case.backport_loc} backport LoC ({amp:.0f}x)")


if __name__ == "__main__":  # pragma: no cover
    main()
