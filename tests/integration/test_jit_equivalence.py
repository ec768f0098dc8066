"""The identity gate: every way of running an experiment other than the
default must be invisible to every observable.

For each experiment (fig2, fig9, table2, table5) the default run — eBPF
compiled, every memo on, no telemetry session, one process — is compared
with the same run under one changed axis:

* every eBPF run on the step-by-step reference VM
  (``tests/reference/ebpf_vm.py``, monkeypatched over ``EbpfVm.run``);
* reference mode (no wall-clock memos);
* an inert ``Telemetry()`` session installed (sampler and exporter off).

Each comparison byte-diffs the trace ledger, the counter map and the
collapsed-stack flamegraph through one helper, :func:`observe`.  Every
axis also proves the comparison can fail: the default run must have
executed eBPF programs and, where a userspace datapath runs, received
packets into it, and 1/1 sampling must diverge from it.

The shard axis compares results, not ledgers: no trace crosses a
process boundary (DESIGN §17), so fig9's cells at 1, 2 and 4 worker
processes must equal the serial run's.
"""

import contextlib
import functools

import pytest

from repro import telemetry
from repro.ebpf import jit
from repro.ebpf.vm import EbpfVm
from repro.experiments.fig9_forwarding import run_fig9
from repro.sim import profile
from repro.sim.profile import collapse
from repro.telemetry import IpfixConfig, SflowConfig, Telemetry
from repro.telemetry.sflow import SAMPLE_POINTS
from tests.conftest import reference_mode
from tests.reference.ebpf_vm import ReferenceVm

PACKETS = {"fig2": 400, "fig9": 300, "table2": 400, "table5": 500}
EXPERIMENTS = sorted(PACKETS)
#: table5 is pure XDP: no DpifNetdev receives a packet there.
DP_EXPERIMENTS = ["fig2", "fig9", "table2"]


def _run_experiment(experiment: str) -> None:
    packets = PACKETS[experiment]
    if experiment == "fig2":
        from repro.experiments.fig2_single_flow import run_fig2

        run_fig2(packets=packets)
    elif experiment == "fig9":
        run_fig9(packets=packets, scenarios=("P2P",))
    elif experiment == "table2":
        from repro.experiments.table2_optimizations import run_table2

        run_table2(packets=packets)
    else:
        from repro.experiments.table5_xdp_cost import run_table5

        run_table5(packets=packets)


def observe(experiment: str, *contexts):
    """One profiled run inside ``contexts`` -> (ledger, counters,
    collapsed flamegraph)."""
    with contextlib.ExitStack() as stack:
        for context in contexts:
            stack.enter_context(context)
        rec = stack.enter_context(profile.profiling())
        _run_experiment(experiment)
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
    observed = observe(experiment)
    # The comparisons below are not vacuous: something was recorded,
    # eBPF programs ran, the userspace datapath classified packets.
    ledger, counters, flame = observed
    assert ledger and flame
    assert counters.get("ebpf.runs", 0) > 0
    if experiment in DP_EXPERIMENTS:
        assert counters.get("dp.rx_packets", 0) > 0
    return observed


def _assert_identical(experiment: str, *contexts) -> None:
    assert diff(_default(experiment), observe(experiment, *contexts)) is None


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_jit_run_is_byte_identical_to_interpreter_run(experiment,
                                                      monkeypatch):
    default = _default(experiment)  # observed before the substitution
    monkeypatch.setattr(EbpfVm, "run", ReferenceVm.run)
    assert diff(default, observe(experiment)) is None


@pytest.mark.parametrize("experiment", DP_EXPERIMENTS)
def test_run_matches_full_reference_mode(experiment):
    _assert_identical(experiment, reference_mode())


def test_table5_jit_matches_full_reference_mode():
    """table5 — the all-XDP workload, where virtually every charged
    nanosecond flows through eBPF and, with the memos off, every frame
    runs the compiled program."""
    _assert_identical("table5", reference_mode())


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_inert_telemetry_session_is_invisible(experiment):
    """Installed but disabled must equal not installed: no hot path may
    charge, count or draw randomness when monitoring is off."""
    _assert_identical(experiment, telemetry.monitoring(Telemetry()))


@functools.lru_cache(maxsize=None)
def _serial_fig9_cells():
    return run_fig9(packets=PACKETS["fig9"], scenarios=("P2P",)).cells


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_sharded_run_is_byte_identical_to_serial(shards):
    cells = run_fig9(packets=PACKETS["fig9"], scenarios=("P2P",),
                     shards=shards).cells
    assert repr(cells) == repr(_serial_fig9_cells())


# ----------------------------------------------------------------------
# Proof of teeth: each axis can make the comparison fail.
# ----------------------------------------------------------------------
def test_jit_actually_ran_the_experiments(monkeypatch):
    """table5's four programs execute as compiled code by default, and
    the reference-VM axis really replaces every one of those runs."""
    jit.reset_stats()
    _run_experiment("table5")
    compiled_runs = {name: st.jit_runs for name, st in jit.stats().items()}
    assert sum(1 for runs in compiled_runs.values() if runs) >= 4, \
        compiled_runs

    jit.reset_stats()
    before = ReferenceVm.runs
    monkeypatch.setattr(EbpfVm, "run", ReferenceVm.run)
    _run_experiment("table5")
    assert ReferenceVm.runs - before == sum(compiled_runs.values())
    assert not any(st.jit_runs for st in jit.stats().values())


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_full_sampling_diverges(experiment):
    """The telemetry hooks are alive: a fully monitored run observes
    packets somewhere, so something differs from the default run."""
    session = Telemetry(sflow=SflowConfig(rate=1, points=SAMPLE_POINTS),
                        ipfix=IpfixConfig())
    full = observe(experiment, telemetry.monitoring(session))
    assert diff(_default(experiment), full) is not None

