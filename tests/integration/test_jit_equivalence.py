"""The identity gate: every way of running an experiment other than the
default must be invisible to every observable.

For each experiment (fig2, fig9, table2, table5) the default run — every
compiler and memo on, no telemetry session, one process — is compared
with the same run under one changed axis:

* the eBPF JIT off (interpreter + verdict memo);
* the megaflow dp-JIT off (generic action walk);
* full reference mode (no burst classify, no memos, no JIT);
* an inert ``Telemetry()`` session installed (sampler and exporter off);
* the cells spread over 2 and 4 worker processes.

Each comparison byte-diffs the trace ledger, the counter map and the
collapsed-stack flamegraph through one helper, :func:`observe`.  Every
axis also proves the comparison can fail: the default run must have
executed eBPF programs and dispatched compiled megaflows, and 1/1 sampling
must diverge from it.  The shard axis's proof — a ``reorder`` or
``collapse`` merge mutation changes fig9's ledger at shards=2 — is
``test_merge_mutations_trip_on_a_real_experiment`` in
``test_shard_equivalence.py``.
"""

import contextlib
import functools

import pytest

from repro import telemetry
from repro.ebpf import jit
from repro.ovs import dpjit
from repro.sim import profile, shard
from repro.sim.profile import collapse
from repro.telemetry import IpfixConfig, SflowConfig, Telemetry
from repro.telemetry.sflow import SAMPLE_POINTS
from tests.conftest import reference_mode

PACKETS = {"fig2": 400, "fig9": 300, "table2": 400, "table5": 500}
EXPERIMENTS = sorted(PACKETS)
#: table5 is pure XDP: no DpifNetdev, so no dp-JIT dispatch happens there.
DP_EXPERIMENTS = ["fig2", "fig9", "table2"]


def _run_experiment(experiment: str, shards: int = 1) -> None:
    packets = PACKETS[experiment]
    if experiment == "fig2":
        from repro.experiments.fig2_single_flow import run_fig2

        run_fig2(packets=packets, shards=shards)
    elif experiment == "fig9":
        from repro.experiments.fig9_forwarding import run_fig9

        run_fig9(packets=packets, scenarios=("P2P",), shards=shards)
    elif experiment == "table2":
        from repro.experiments.table2_optimizations import run_table2

        run_table2(packets=packets, shards=shards)
    else:
        from repro.experiments.table5_xdp_cost import run_table5

        run_table5(packets=packets, shards=shards)


def observe(experiment: str, *contexts, shards: int = 1):
    """One profiled run inside ``contexts`` -> (ledger, counters,
    collapsed flamegraph)."""
    with contextlib.ExitStack() as stack:
        for context in contexts:
            stack.enter_context(context)
        rec = stack.enter_context(profile.profiling())
        _run_experiment(experiment, shards)
    return rec.ledger(), dict(rec.counters), collapse(rec.profiler.root)


def diff(a, b):
    """``None`` when two observations are byte-identical, else what
    differs."""
    (led_a, counters_a, flame_a), (led_b, counters_b, flame_b) = a, b
    if led_a != led_b:
        return "trace ledger differs"
    if counters_a != counters_b:
        return "counters differ: %r" % {
            k: (counters_a.get(k), counters_b.get(k))
            for k in set(counters_a) | set(counters_b)
            if counters_a.get(k) != counters_b.get(k)}
    if flame_a != flame_b:
        return "collapsed-stack flamegraph differs"
    return None


@functools.lru_cache(maxsize=None)
def _default(experiment: str):
    """The default run every axis is compared with, observed once."""
    before = dpjit.STATS.dispatched
    observed = observe(experiment)
    dispatched = dpjit.STATS.dispatched - before
    # The comparisons below are not vacuous: something was recorded,
    # eBPF programs ran, compiled megaflows were dispatched.
    ledger, counters, flame = observed
    assert ledger and flame
    assert counters.get("ebpf.runs", 0) > 0
    if experiment in DP_EXPERIMENTS:
        assert dispatched > 0
    return observed


def _assert_identical(experiment: str, *contexts, shards: int = 1) -> None:
    assert diff(_default(experiment),
                observe(experiment, *contexts, shards=shards)) is None


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_jit_run_is_byte_identical_to_interpreter_run(experiment):
    _assert_identical(experiment, jit.disabled())


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_dpjit_run_is_byte_identical_to_generic_walk(experiment):
    _assert_identical(experiment, dpjit.disabled())


@pytest.mark.parametrize("experiment", DP_EXPERIMENTS)
def test_run_matches_full_reference_mode(experiment):
    _assert_identical(experiment, reference_mode())


def test_table5_jit_matches_full_reference_mode():
    """table5 — the all-XDP workload, where virtually every charged
    nanosecond flows through the eBPF engine."""
    _assert_identical("table5", reference_mode())


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_inert_telemetry_session_is_invisible(experiment):
    """Installed but disabled must equal not installed: no hot path may
    charge, count or draw randomness when monitoring is off."""
    _assert_identical(experiment, telemetry.monitoring(Telemetry()))


@pytest.mark.parametrize("shards", [2, 4])
@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_sharded_run_is_byte_identical_to_serial(experiment, shards):
    _assert_identical(experiment, shards=shards)
    assert not shard.LAST_REPORT.degenerate  # workers really ran it


# ----------------------------------------------------------------------
# Proof of teeth: each axis can make the comparison fail.
# ----------------------------------------------------------------------
def test_dpjit_actually_compiled_the_dp_experiments():
    """fig2's datapath flows must run through compiled closures, not
    fall back to the generic walk."""
    dpjit.reset_stats()
    _run_experiment("fig2")
    s = dpjit.STATS
    assert s.compiled > 0 and s.dispatched > 0, (
        s.compiled, s.declined, s.dispatched, s.decline_reasons)


def test_jit_actually_ran_the_experiments():
    """table5's four programs must all execute through compiled code
    with zero declines, not fall back to the interpreter."""
    jit.reset_stats()
    _run_experiment("table5")
    stats = jit.stats()
    ran = {name: st for name, st in stats.items() if st.jit_runs}
    assert len(ran) >= 4, stats
    assert all(st.declined is None for st in stats.values()), stats


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_full_sampling_diverges(experiment):
    """The telemetry hooks are alive: a fully monitored run observes
    packets somewhere, so something differs from the default run."""
    session = Telemetry(sflow=SflowConfig(rate=1, points=SAMPLE_POINTS),
                        ipfix=IpfixConfig())
    full = observe(experiment, telemetry.monitoring(session))
    assert diff(_default(experiment), full) is not None

