"""Trace regression gates: byte-identical ledgers across identical runs
and cost conservation on real experiment runs (the acceptance bar for
the observability layer).

The batched-vs-reference gates additionally pin the burst classifier's
observational-equivalence contract at full-experiment scale: running an
experiment with batching plus every wall-clock memo layer must produce
the byte-identical trace ledger the per-packet reference path produces.
"""

import pytest

from repro.sim import trace
from tests.conftest import reference_mode


def _experiment_ledger(experiment: str, packets: int) -> str:
    with trace.recording() as rec:
        if experiment == "fig2":
            from repro.experiments.fig2_single_flow import run_fig2

            run_fig2(packets=packets)
        elif experiment == "fig9":
            from repro.experiments.fig9_forwarding import run_fig9

            run_fig9(packets=packets, scenarios=("P2P",))
        else:
            from repro.experiments.table2_optimizations import run_table2

            run_table2(packets=packets)
    return rec.ledger()


def _fig9_ledger(packets: int = 300) -> str:
    return _experiment_ledger("fig9", packets)


def test_fig9_ledgers_are_byte_identical():
    assert _fig9_ledger() == _fig9_ledger()


@pytest.mark.parametrize("experiment,packets",
                         [("fig2", 400), ("fig9", 300), ("table2", 400)])
def test_batched_ledger_matches_reference(experiment, packets):
    batched = _experiment_ledger(experiment, packets)
    with reference_mode():
        reference = _experiment_ledger(experiment, packets)
    assert batched == reference


def test_ledger_differs_when_the_run_differs():
    # Sanity for the regression above: the ledger is not trivially empty
    # or constant.
    a, b = _fig9_ledger(packets=300), _fig9_ledger(packets=400)
    assert a and b and a != b


@pytest.mark.parametrize("experiment", ["fig2", "fig9", "table2"])
def test_experiment_runs_conserve_cost(experiment):
    with trace.recording() as rec:
        if experiment == "fig2":
            from repro.experiments.fig2_single_flow import run_fig2

            run_fig2(packets=400)
        elif experiment == "fig9":
            from repro.experiments.fig9_forwarding import run_fig9

            run_fig9(packets=300, scenarios=("P2P",))
        else:
            from repro.experiments.table2_optimizations import run_table2

            run_table2(packets=400)
    assert rec.total_ns > 0
    assert rec.conserved(), (
        f"{experiment}: spans {rec.total_ns!r} ns != "
        f"cpu {rec.cpu_charged_ns!r} ns"
    )
