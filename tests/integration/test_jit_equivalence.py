"""The identity gate: every way of running an experiment other than the
default must be invisible to every observable.

For each experiment (fig2, fig9, table2, table5) the default run — eBPF
compiled, every memo on, no telemetry session or fault plan, profiled,
one process — is observed once per session.  Each row of :data:`AXES`
runs the same experiment one other way and byte-diffs the trace ledger,
the counter map and the collapsed-stack flamegraph against it through
one helper, :func:`diff`:

* ``reference-vm`` — every eBPF run on the step-by-step reference VM
  (``tests/reference/ebpf_vm.py``);
* ``reference-mode`` — every wall-clock memo bypassed: the replay cells
  of the XDP verdict memo, dpif-netdev's flow cache and the kernel
  datapath, and the rxhash memo (``tests/reference/memos.py``);
* ``inert-telemetry`` — a ``Telemetry()`` session installed with its
  sampler and exporter off;
* ``inert-faults`` — a fault plan with every ``FAULT_POINTS`` rule at
  rate 0: no stray RNG draw, charge or counter;
* ``trace-only`` — no profiler attached (ledger and counters);
* ``second-run`` — the same run again in the same process;
* ``after-matrix`` — the run after a perf-matrix sweep: no cache, RNG or
  cost table leaks from the matrix into the experiments;
* ``planes-composed`` — the four invisible planes above at once.

Two rows stand outside the table.  The full reference stack — both
test-side oracles at once, the reference VM and reference mode — must
equal the default too, and the default observation itself must balance:
its span ledger against the CPU-side tally (the profiler's root against
both is ``test_profiling.py``'s).  Every axis can also fail: the default run executed eBPF programs and, where a
userspace datapath runs, received packets into it; the reference VM
and reference mode really replace what they claim to; 1/1 sampling and
a different packet count both diverge from the default.

The shard axis compares results, not ledgers: no trace crosses a
process boundary (DESIGN §17), so fig9's cells at 1, 2 and 4 worker
processes must equal the serial run's.
"""

import contextlib
import functools
from unittest import mock

import pytest

from repro import telemetry
from repro.ebpf import jit
from repro.experiments.fig2_single_flow import run_fig2
from repro.experiments.fig9_forwarding import run_fig9
from repro.experiments.table2_optimizations import run_table2
from repro.experiments.table5_xdp_cost import run_table5
from repro.ebpf.xdp import XdpContext
from repro.kernel.ovs_module import KernelDatapath
from repro.net import flow
from repro.ovs.emc import ExactMatchCache
from repro.perfmatrix.matrix import MatrixGrid, run_matrix
from repro.sim import faults, profile, trace
from repro.sim.faults import FaultPlan, FaultRule
from repro.sim.profile import collapse
from repro.telemetry import IpfixConfig, SflowConfig, Telemetry
from repro.telemetry.sflow import SAMPLE_POINTS
from tests.reference.ebpf_vm import ReferenceVm, substituted
from tests.reference.memos import reference_mode

PACKETS = {"fig2": 400, "fig9": 300, "table2": 400, "table5": 500}
EXPERIMENTS = sorted(PACKETS)
#: table5 is pure XDP: no DpifNetdev receives a packet there.
DP_EXPERIMENTS = ["fig2", "fig9", "table2"]

_RUNNERS = {
    "fig2": run_fig2,
    "fig9": lambda packets: run_fig9(packets=packets, scenarios=("P2P",)),
    "table2": run_table2,
    "table5": run_table5,
}


def record(experiment: str, *contexts, profiled: bool = True,
           packets: int = 0):
    """Run ``experiment`` (at ``PACKETS`` unless ``packets`` is given)
    inside ``contexts`` under a fresh recorder; returns the recorder."""
    with contextlib.ExitStack() as stack:
        for context in contexts:
            stack.enter_context(context)
        rec = stack.enter_context(
            profile.profiling() if profiled else trace.recording())
        _RUNNERS[experiment](packets=packets or PACKETS[experiment])
    return rec


def observation(rec):
    """(ledger, counters, collapsed flamegraph or ``None`` unprofiled)."""
    flame = collapse(rec.profiler.root) if rec.profiler else None
    return rec.ledger(), dict(rec.counters), flame


def observe(experiment: str, *contexts, profiled: bool = True):
    return observation(record(experiment, *contexts, profiled=profiled))


def diff(a, b):
    """``None`` when two observations are byte-identical, else what
    differs.  Flamegraphs are compared when both runs were profiled."""
    (led_a, counters_a, flame_a), (led_b, counters_b, flame_b) = a, b
    if led_a != led_b:
        return "trace ledger differs"
    if counters_a != counters_b:
        return "counters differ: %r" % {
            k: (counters_a.get(k), counters_b.get(k))
            for k in set(counters_a) | set(counters_b)
            if counters_a.get(k) != counters_b.get(k)}
    if None not in (flame_a, flame_b) and flame_a != flame_b:
        return "collapsed-stack flamegraph differs"
    return None


@functools.lru_cache(maxsize=None)
def default_recorder(experiment: str):
    """The default run every axis is compared with, recorded once."""
    rec = record(experiment)
    # The comparisons are not vacuous: something was recorded, eBPF
    # programs ran, the userspace datapath classified packets.
    assert rec.total_ns > 0 and rec.ledger() and collapse(rec.profiler.root)
    assert rec.counters.get("ebpf.runs", 0) > 0
    if experiment in DP_EXPERIMENTS:
        assert rec.counters.get("dp.rx_packets", 0) > 0
    return rec


def _default(experiment: str):
    return observation(default_recorder(experiment))


def _inert_plan() -> FaultPlan:
    return FaultPlan(seed=9, rules=[
        FaultRule(point, rate=0.0) for point in faults.FAULT_POINTS])


@contextlib.contextmanager
def _after_a_matrix_sweep():
    run_matrix(MatrixGrid(label="after", frame_lens=(64,),
                          flow_counts=(1, 1000),
                          datapaths=("kernel", "afxdp_zc", "dpdk"),
                          topologies=("PVP",), packets=200))
    yield


def _full_reference():
    """Both test-side oracles: the reference VM and reference mode."""
    return substituted(), reference_mode()


#: axis -> how one experiment is observed under it.
AXES = {
    "reference-vm": lambda e: observe(e, substituted()),
    "reference-mode": lambda e: observe(e, reference_mode()),
    "inert-telemetry": lambda e: observe(
        e, telemetry.monitoring(Telemetry())),
    "inert-faults": lambda e: observe(e, faults.injecting(_inert_plan())),
    "trace-only": lambda e: observe(e, profiled=False),
    "second-run": observe,
    "after-matrix": lambda e: observe(e, _after_a_matrix_sweep()),
    "planes-composed": lambda e: observe(
        e, *_full_reference(),
        telemetry.monitoring(Telemetry()), faults.injecting(_inert_plan())),
}


@pytest.mark.parametrize("experiment", EXPERIMENTS)
@pytest.mark.parametrize("axis", AXES)
def test_axis_is_invisible(axis, experiment):
    default = _default(experiment)  # observed before the axis applies
    assert diff(default, AXES[axis](experiment)) is None


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_run_matches_full_reference_mode(experiment):
    default = _default(experiment)
    assert diff(default, observe(experiment, *_full_reference())) is None


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_experiment_runs_conserve_cost(experiment):
    rec = default_recorder(experiment)
    assert rec.conserved(), (
        f"{experiment}: spans {rec.total_ns!r} ns != "
        f"cpu {rec.cpu_charged_ns!r} ns")


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
def test_jit_actually_ran_the_experiments():
    """table5's four programs execute as compiled code by default, and
    the reference-VM axis really replaces every one of those runs."""
    jit.reset_stats()
    record("table5", profiled=False)
    compiled_runs = {name: st.jit_runs for name, st in jit.stats().items()}
    assert sum(1 for runs in compiled_runs.values() if runs) >= 4, \
        compiled_runs

    jit.reset_stats()
    before = ReferenceVm.runs
    record("table5", substituted(), profiled=False)
    assert ReferenceVm.runs - before == sum(compiled_runs.values())
    assert not any(st.jit_runs for st in jit.stats().values())


def test_reference_mode_bypasses_both_memos():
    """By default every layer's replay cells replay: the XDP verdict
    memo, dpif-netdev's flow cache and the kernel datapath's cells.
    Under reference mode none replays (more frames run compiled) and no
    rxhash is read from its memo."""
    def memo_use(*contexts):
        jit.reset_stats()
        flow._RXHASH_MEMO.clear()
        built = {XdpContext: [], KernelDatapath: [], ExactMatchCache: []}
        with contextlib.ExitStack() as stack:
            for cls, objs in built.items():
                def collect(self, *args, _init=cls.__init__, _objs=objs,
                            **kwargs):
                    _init(self, *args, **kwargs)
                    _objs.append(self)
                stack.enter_context(
                    mock.patch.object(cls, "__init__", collect))
            record("fig9", *contexts, profiled=False)
        replays = {
            "xdp": sum(x.memo.n_replays for x in built[XdpContext]),
            "kernel": sum(dp.cells.n_replays
                          for dp in built[KernelDatapath]),
            "dpif": sum(emc.flow_cache.n_replays
                        for emc in built[ExactMatchCache]),
        }
        return (sum(st.jit_runs for st in jit.stats().values()),
                len(flow._RXHASH_MEMO), replays)

    compiled, hashed, replays = memo_use()
    compiled_ref, hashed_ref, replays_ref = memo_use(reference_mode())
    assert hashed > 0 and hashed_ref == 0
    assert compiled_ref > compiled
    assert all(replays.values()), replays
    assert not any(replays_ref.values()), replays_ref


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_full_sampling_diverges(experiment):
    """The telemetry hooks are alive: a fully monitored run observes
    packets somewhere, so something differs from the default run."""
    session = Telemetry(sflow=SflowConfig(rate=1, points=SAMPLE_POINTS),
                        ipfix=IpfixConfig())
    full = observe(experiment, telemetry.monitoring(session))
    assert diff(_default(experiment), full) is not None


def test_a_different_packet_count_changes_the_ledger():
    """The ledger is neither empty nor constant across runs."""
    longer = record("fig9", profiled=False, packets=PACKETS["fig9"] + 100)
    assert longer.ledger() != _default("fig9")[0]
