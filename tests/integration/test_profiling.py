"""What a profile of a real experiment says.

These tests read the identity gate's cached default observations
(``test_jit_equivalence.py``): the profiler's root balances against the
span ledger and the CPU-side tally, and the tree narrates the run.  Its
invisibility to the ledger and the determinism of its flamegraph are
that gate's ``trace-only`` and ``second-run`` rows.
"""

import pytest

from tests.integration.test_jit_equivalence import (EXPERIMENTS,
                                                    default_recorder)


def _walk(node):
    yield node
    for child in node.children.values():
        yield from _walk(child)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_profile_conserves_against_ledger(experiment):
    rec = default_recorder(experiment)
    root_ns = rec.profiler.root.inclusive_ns()
    assert root_ns > 0
    assert root_ns == pytest.approx(rec.total_ns, rel=1e-9)
    assert root_ns == pytest.approx(rec.cpu_charged_ns, rel=1e-9)


def test_table5_breakdown_covers_all_four_programs():
    """Table 5's A-D cost split, measured: each task's eBPF time shows
    up under its own ``xdp:<program>`` frame, and the per-program times
    sum exactly to the ledger's ``ebpf`` stage total."""
    rec = default_recorder("table5")
    programs = {
        "A": "xdp:xdp_drop_all",
        "B": "xdp:xdp_parse_drop",
        "C": "xdp:xdp_parse_lookup_drop",
        "D": "xdp:xdp_parse_swap_tx",
    }
    frames = {
        node.label: node
        for node in _walk(rec.profiler.root)
        if node.label.startswith("xdp:")
    }
    assert set(frames) == set(programs.values())
    def ebpf_ns(frame):
        return sum(n.ns for n in _walk(frame) if n.label == "ebpf")

    per_task = {
        task: ebpf_ns(frames[label]) for task, label in programs.items()
    }
    assert all(ns > 0 for ns in per_task.values())
    # The same packet count ran through each task; drop-only is the
    # cheapest program, and adding a parse stage costs more still.
    # (Full A<B<C<D rate ordering includes TX-path cost charged
    # outside the program frame, so it is not asserted here.)
    assert all(per_task["A"] < per_task[t] for t in "BCD")
    assert per_task["B"] < per_task["C"]
    # Every eBPF nanosecond in the ledger is attributed to exactly one
    # program frame.
    assert sum(per_task.values()) == pytest.approx(
        rec.spans["ebpf"][1], rel=1e-9)


def test_fig2_tree_contains_expected_frames():
    """The call tree narrates the fig2 pipeline: kernel NIC servicing
    with its eBPF programs, and the PMD poll loop with the datapath
    input frame nested inside."""
    rec = default_recorder("fig2")
    labels = {node.label for node in _walk(rec.profiler.root)}
    assert "kernel.service_nic" in labels
    assert "dp.input" in labels
    assert any(label.startswith("pmd/") for label in labels)
