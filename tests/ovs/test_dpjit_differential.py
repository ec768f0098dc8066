"""Differential suite: compiled megaflow closures vs the generic walk.

The dp-layer twin of the PR 5 eBPF differential suite.  Hypothesis
drives random bursts (drawn over a destination pool whose low byte
selects the upcall translation, so every compilable chain shape —
single/multi output, set-field + vlan rewrites, trunc, userspace punt,
meter admission, tunnel encapsulation, recirculation — plus drop and
failed-upcall outcomes run side by side) through twin datapaths under
random fault plans, once with the dp-JIT on and once with it off.  The
two executions must agree on *every* observable: transmitted bytes,
pipeline stats, cache counters, the exact virtual-time floats (local
time and per-(cpu, category) busy time — float addition is
order-sensitive, so equality proves the charge sequence itself), and
the trace ledger.

The suite also proves the gate has teeth: deliberately mis-compiling a
closure (a perturbed charge constant; a reordered action chain) makes
the same byte-identity comparison trip.
"""

import contextlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.addresses import MacAddress
from repro.net.builder import make_udp_packet
from repro.net.flow import MaskSpec, mask_from_fields
from repro.net.tunnel import TunnelConfig
from repro.ovs import dpjit, odp
from repro.ovs.dpif_netdev import DpifNetdev
from repro.ovs.emc import ExactMatchCache
from repro.ovs.netdevs import SimAdapter
from repro.sim import faults, trace
from repro.sim.cpu import CpuCategory, CpuModel, ExecContext
from repro.sim.faults import FaultPlan, FaultRule
from tests.conftest import reference_mode

#: Low byte 1..16 selects the chain shape in the upcall below.
DSTS = [f"10.1.0.{i}" for i in range(1, 17)]
MASK = mask_from_fields(eth_type=-1, nw_dst=-1, recirc_id=-1)
TUN = TunnelConfig(
    tunnel_type="geneve",
    local_ip=0xC0A80001,
    remote_ip=0xC0A80002,
    vni=7,
    local_mac=MacAddress.local(0x90),
    remote_mac=MacAddress.local(0x91),
)

#: Fault-plan makers (plans are stateful: one fresh instance per run).
PLAN_MAKERS = [
    lambda seed: None,
    lambda seed: FaultPlan(seed=seed, emc_insert_inv_prob=2,
                           upcall_queue_cap=2),
    lambda seed: FaultPlan(seed=seed, flow_limit=3),
    lambda seed: FaultPlan(
        seed=seed,
        rules=(FaultRule(point="dp.upcall_overload", rate=0.3),),
        emc_insert_inv_prob=3,
    ),
]


def _make_world():
    dpif = DpifNetdev()
    rx = SimAdapter()
    out_a = SimAdapter()
    out_b = SimAdapter()
    p_rx = dpif.add_port("rx", rx)
    p_a = dpif.add_port("a", out_a)
    p_b = dpif.add_port("b", out_b)
    # A tiny meter bucket, never refilled (virtual now stays 0), so the
    # compiled admission branch sees both verdicts within one run.
    dpif.meters.add(1, rate_kbps=1000, burst_kb=1)

    def upcall(key, ctx):
        if key.recirc_id:
            return ((odp.Output(p_a.port_no),), MASK)
        last = key.nw_dst & 0xFF
        if last % 13 == 0:
            return None  # translation failure -> drop
        if last % 11 == 0:
            return ((), MASK)  # explicit drop (empty chain)
        if last % 7 == 0:
            return ((odp.TunnelPush(TUN, p_b.port_no),), MASK)
        if last % 5 == 0:
            return ((odp.Recirc(1),), MASK)
        if last % 4 == 0:
            return ((odp.SetField("nw_ttl", 9), odp.PushVlan(5, 1),
                     odp.Output(p_a.port_no)), MASK)
        if last % 3 == 0:
            return ((odp.Output(p_a.port_no), odp.Output(p_b.port_no)),
                    MASK)
        if last % 2 == 0:
            return ((odp.PushVlan(3, 1), odp.PopVlan(), odp.Trunc(64),
                     odp.Userspace("sample"), odp.Output(p_b.port_no)),
                    MASK)
        return ((odp.Meter(1), odp.Output(p_a.port_no)), MASK)

    dpif.upcall_fn = upcall
    cpu = CpuModel(2)
    ctx = ExecContext(cpu, 0, CpuCategory.USER)
    emc = ExactMatchCache(n_entries=4)  # constant displacement churn
    return dpif, ctx, cpu, emc, p_rx, (out_a, out_b)


def _packets(burst):
    return [
        make_udp_packet(
            MacAddress.local(1), MacAddress.local(2),
            "192.168.7.1", DSTS[d], 1000 + s, 2000,
        )
        for d, s in burst
    ]


def _observe(bursts, plan=None, dpjit_on=True, reference=False):
    dpif, ctx, cpu, emc, p_rx, outs = _make_world()
    with contextlib.ExitStack() as stack:
        if reference:
            stack.enter_context(reference_mode())
        elif not dpjit_on:
            stack.enter_context(dpjit.disabled())
        if plan is not None:
            stack.enter_context(faults.injecting(plan))
        rec = stack.enter_context(trace.recording())
        for burst in bursts:
            dpif.process_batch(_packets(burst), p_rx.port_no, ctx, emc)
    s = dpif.stats
    return {
        "tx": tuple(
            tuple(p.data for p in o.take_transmitted()) for o in outs
        ),
        "local_time_ns": ctx.local_time_ns,
        "busy": tuple(
            cpu.busy_ns(cpu=c, category=cat)
            for c in range(cpu.n_cpus) for cat in CpuCategory
        ),
        "stats": (s.packets, s.passes, s.emc_hits, s.megaflow_hits,
                  s.upcalls, s.failed_upcalls, s.lost, s.dropped),
        "emc": (emc.hits, emc.misses, emc.insertions, emc.occupancy),
        "dpcls": (dpif.megaflows.hits, dpif.megaflows.misses,
                  len(dpif.megaflows), dpif.megaflows.n_masks),
        "ledger": rec.ledger(),
        "cpu_charged_ns": rec.cpu_charged_ns,
    }


burst_st = st.lists(
    st.tuples(st.integers(0, len(DSTS) - 1), st.integers(0, 7)),
    min_size=1, max_size=16,
)
bursts_st = st.lists(burst_st, min_size=1, max_size=8)
plan_st = st.tuples(st.integers(0, len(PLAN_MAKERS) - 1),
                    st.integers(0, 3))


@settings(deadline=None, max_examples=50)
@given(bursts=bursts_st, plan=plan_st)
def test_compiled_closures_are_observationally_equivalent(bursts, plan):
    maker, seed = PLAN_MAKERS[plan[0]], plan[1]
    on = _observe(bursts, maker(seed), dpjit_on=True)
    off = _observe(bursts, maker(seed), dpjit_on=False)
    assert on == off


@settings(deadline=None, max_examples=20)
@given(bursts=bursts_st)
def test_compiled_path_matches_full_reference_mode(bursts):
    """dp-JIT on (batched, fastpath live) vs everything stripped."""
    on = _observe(bursts, dpjit_on=True)
    ref = _observe(bursts, reference=True)
    assert on == ref


@settings(deadline=None, max_examples=20)
@given(bursts=bursts_st, plan=plan_st)
def test_compiled_path_is_deterministic(bursts, plan):
    maker, seed = PLAN_MAKERS[plan[0]], plan[1]
    assert (_observe(bursts, maker(seed), dpjit_on=True)
            == _observe(bursts, maker(seed), dpjit_on=True))


def test_every_chain_shape_compiles_and_dispatches():
    """Non-vacuousness: the suite really executes compiled closures for
    every compilable chain shape (no silent interpreter fallback)."""
    dpjit.reset_stats()
    # One burst per dst: all sixteen translations install and execute.
    bursts = [[(d, 0) for d in range(len(DSTS))]] * 2
    obs = _observe(bursts, dpjit_on=True)
    assert obs["stats"][0] == 32
    s = dpjit.STATS
    assert s.compiled >= 7, vars_of(s)
    assert s.dispatched > 0
    assert s.declined == 0, s.decline_reasons


def vars_of(s):
    return {k: getattr(s, k) for k in s.__slots__}


def test_ct_and_tunnel_pop_chains_decline_forever():
    from repro.net.flow import FlowKey

    dpjit.reset_stats()
    for actions in (((odp.Ct(zone=1, commit=True),)),
                    ((odp.TunnelPop(3),))):
        from repro.ovs.megaflow import MegaflowEntry

        entry = MegaflowEntry(actions=tuple(actions), key=FlowKey(),
                              mask=MASK)
        assert dpjit.bind(entry) is None
        # The decline is cached on the entry: a second dispatch attempt
        # does not recompile.
        declined_before = dpjit.STATS.declined
        assert entry.jit[0] is entry.actions and entry.jit[1] is None
        assert dpjit.STATS.declined == declined_before
    assert dpjit.STATS.declined == 2
    assert "ct is not locally compilable" in dpjit.STATS.decline_reasons
    assert ("tunnel_pop is not locally compilable"
            in dpjit.STATS.decline_reasons)


def test_compiled_match_is_the_subtable_test():
    """``_dp_match`` must accept exactly the keys whose MaskSpec
    projection equals the entry's — the very subtable dict test."""
    bursts = [[(d, 0) for d in range(len(DSTS))]]
    dpif, ctx, cpu, emc, p_rx, _outs = _make_world()
    for burst in bursts:
        dpif.process_batch(_packets(burst), p_rx.port_no, ctx, emc)
    checked = 0
    for entry in dpif.megaflows.entries():
        if entry.jit is None or entry.jit[2] is None:
            continue
        match = entry.jit[2].match_fn
        spec = MaskSpec(entry.mask)
        assert match(entry.key)
        want = spec.project(entry.key)
        for i, _bits in spec.fields:
            wrong = entry.key._replace(
                **{entry.key._fields[i]: entry.key[i] ^ 0x1})
            assert match(wrong) == (spec.project(wrong) == want)
            assert not match(wrong)
        checked += 1
    assert checked >= 5


# ---------------------------------------------------------------------------
# Gate-has-teeth: a seeded inequivalence must trip the byte-identity
# comparison (otherwise the equivalence harness proves nothing).
# ---------------------------------------------------------------------------
#: dst index 3 -> low byte 4 -> the SetField+PushVlan+Output chain.
TEETH_BURSTS = [[(3, 0), (3, 1)], [(3, 0)]]


def test_gate_passes_before_seeding_inequivalence():
    assert (_observe(TEETH_BURSTS, dpjit_on=True)
            == _observe(TEETH_BURSTS, dpjit_on=False))


def test_gate_trips_on_a_perturbed_charge_constant(monkeypatch):
    orig = dpjit._translate

    def perturbed(entry):
        source, glb = orig(entry)
        return source.replace(
            "costs.action_ns", "(costs.action_ns * 1.0000001)"), glb

    monkeypatch.setattr(dpjit, "_translate", perturbed)
    mutated = _observe(TEETH_BURSTS, dpjit_on=True)
    honest = _observe(TEETH_BURSTS, dpjit_on=False)
    assert mutated != honest
    assert mutated["ledger"] != honest["ledger"]
    assert mutated["local_time_ns"] != honest["local_time_ns"]


def test_gate_trips_on_a_reordered_action_chain(monkeypatch):
    from repro.ovs.megaflow import MegaflowEntry

    orig = dpjit._translate

    def reordered(entry):
        if len(entry.actions) > 1:
            twin = MegaflowEntry(actions=tuple(reversed(entry.actions)),
                                 key=entry.key, mask=entry.mask)
            return orig(twin)
        return orig(entry)

    monkeypatch.setattr(dpjit, "_translate", reordered)
    mutated = _observe(TEETH_BURSTS, dpjit_on=True)
    honest = _observe(TEETH_BURSTS, dpjit_on=False)
    assert mutated != honest
    # Output-before-rewrite transmits the unmodified frame.
    assert mutated["tx"] != honest["tx"]
