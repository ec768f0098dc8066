"""Hypothesis differential suite: JIT vs the reference VM, bit for bit.

Every library program (plus hand-built hostile ones that fault) is run
twice over randomized map state, packet bytes, context metadata, and
fault plans — once as compiled code, once on the step-by-step reference
VM (``tests/reference/ebpf_vm.py``) substituted for ``EbpfVm.run``.
The two executions must agree on the verdict, the (possibly rewritten)
packet bytes, the redirect target, the final map contents and versions,
the exact charge sequence, and every trace counter — including the
``VmFault`` -> ``XDP_ABORTED`` paths.  Both sides build a fresh program
instance from the same factory and replay the same map-population plan,
so mutating programs cannot leak state between the engines.

The library programs exercise a small corner of the ISA, so a second
property runs *random* verified programs: forward branches, imm/reg
ALU, stack and packet loads and stores, map-value access and helper
calls, under the same comparison.
"""

import contextlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ebpf import jit, programs
from repro.ebpf.helpers import Helper
from repro.ebpf.isa import Insn, Reg
from repro.ebpf.maps import ArrayMap, DevMap, HashMap
from repro.ebpf.program import Program, ProgramBuilder
from repro.ebpf.verifier import verify
from repro.ebpf.xdp import XdpAction, XdpContext
from repro.sim import faults, trace
from tests.reference.ebpf_vm import ReferenceVm, substituted

import pytest


class _ChargeLog:
    """A minimal ExecContext stand-in that records (label, ns) pairs."""

    def __init__(self):
        self.charges = []

    def charge(self, ns, label=None):
        self.charges.append((label, ns))


def _hostile_oob_load():
    """Reads far past the end of any packet we generate -> VmFault."""
    b = ProgramBuilder("hostile_oob_load")
    b.mov_reg(Reg.R2, Reg.R1)
    b.ldxw(Reg.R2, Reg.R1, 0)
    b.ldxw(Reg.R3, Reg.R2, 4096)
    b.mov_imm(Reg.R0, 2)
    b.exit_()
    return verify(b.build())


def _hostile_oob_store():
    """Writes past the 512-byte stack -> VmFault on the store path."""
    b = ProgramBuilder("hostile_oob_store")
    b.mov_reg(Reg.R2, Reg.R10)
    b.stw(Reg.R2, 64, 7)
    b.mov_imm(Reg.R0, 2)
    b.exit_()
    return verify(b.build())


def _hostile_ptr_return():
    """Returns a pointer instead of a scalar verdict -> VmFault at exit."""
    b = ProgramBuilder("hostile_ptr_return")
    b.mov_reg(Reg.R0, Reg.R10)
    b.exit_()
    return verify(b.build())


FACTORIES = {
    "drop": lambda: programs.drop_program(),
    "pass": lambda: programs.pass_program(),
    "parse_drop": lambda: programs.parse_drop_program(),
    "parse_lookup_drop": lambda: programs.parse_lookup_drop_program()[0],
    "parse_swap_tx": lambda: programs.parse_swap_tx_program(),
    "l2_forward": lambda: programs.l2_forward_program()[0],
    "xsk_redirect": lambda: programs.xsk_redirect_program()[0],
    "steering": lambda: programs.steering_program()[0],
    "container_redirect": lambda: programs.container_redirect_program()[0],
    "l4_load_balancer": lambda: programs.l4_load_balancer_program()[0],
    "hostile_oob_load": _hostile_oob_load,
    "hostile_oob_store": _hostile_oob_store,
    "hostile_ptr_return": _hostile_ptr_return,
}


# --------------------------------------------------------------------------
# Strategies


def _eth_frame(dst, src, ethertype, rest):
    return dst + src + ethertype + rest


_eth_packets = st.builds(
    _eth_frame,
    st.binary(min_size=6, max_size=6),
    st.binary(min_size=6, max_size=6),
    st.sampled_from([b"\x08\x00", b"\x86\xdd", b"\x08\x06", b"\x12\x34"]),
    st.binary(max_size=80),
)

_packets = st.one_of(st.binary(max_size=96), _eth_packets)


def _draw_map_plan(data, program, pkt):
    """One population plan per map id, replayable on a fresh instance.

    HashMap keys are sometimes derived from the packet prefix so that
    programs whose lookup keys come from header fields (l2 fib,
    container ip table, LB 5-tuple) actually take their hit paths.
    """
    plan = {}
    for map_id in sorted(program.maps):
        m = program.maps[map_id]
        ops = []
        n = data.draw(st.integers(min_value=0,
                                  max_value=min(m.max_entries, 4)),
                      label=f"map{map_id}.entries")
        if isinstance(m, DevMap):  # includes XskMap
            for i in range(n):
                slot = data.draw(
                    st.integers(min_value=0, max_value=m.max_entries - 1),
                    label=f"map{map_id}.slot{i}")
                ifindex = data.draw(st.integers(min_value=1, max_value=9),
                                    label=f"map{map_id}.ifindex{i}")
                ops.append(("dev", slot, ifindex))
        elif isinstance(m, HashMap):
            for i in range(n):
                from_pkt = data.draw(st.booleans(),
                                     label=f"map{map_id}.frompkt{i}")
                if from_pkt:
                    key = (bytes(pkt) + bytes(m.key_size))[:m.key_size]
                else:
                    key = data.draw(
                        st.binary(min_size=m.key_size, max_size=m.key_size),
                        label=f"map{map_id}.key{i}")
                value = data.draw(
                    st.binary(min_size=m.value_size,
                              max_size=m.value_size),
                    label=f"map{map_id}.value{i}")
                ops.append(("hash", key, value))
        plan[map_id] = ops
    return plan


def _apply_map_plan(plan, program):
    for map_id, ops in plan.items():
        m = program.maps[map_id]
        for op in ops:
            if op[0] == "dev":
                m.set_dev(op[1], op[2])
            else:
                m.update(op[1], op[2])


def _dump_maps(program):
    """Full observable state of every map: version + contents."""
    out = {}
    for map_id in sorted(program.maps):
        m = program.maps[map_id]
        if isinstance(m, DevMap):
            state = tuple(sorted(m._slots.items()))
        elif isinstance(m, HashMap):
            state = tuple(sorted(m._table.items()))
        elif isinstance(m, ArrayMap):
            state = tuple(m._slots)
        else:
            state = tuple(sorted(getattr(m, "_entries", {}).items()))
        out[map_id] = (m.version, state)
    return out


def _norm_redirect(redirect, program):
    """Replace the map object with its program-local id so redirect
    targets compare across two independent program instances."""
    if redirect is None:
        return None
    if redirect[0] == "ifindex":
        return redirect
    _, bpf_map, slot = redirect
    for map_id, m in program.maps.items():
        if m is bpf_map:
            return ("map", map_id, slot)
    return ("map", "?", slot)


def _fault_plan(seed, nth):
    return faults.FaultPlan(
        seed=seed,
        rules=[faults.FaultRule("ebpf.map_lookup_fault",
                                nth=nth, max_fires=2)],
    )


def _observe(factory, map_plan, pkt, ktime, ifindex, queue, fault, jit_on):
    """Run one engine over a fresh program instance; return everything
    the outside world could notice."""
    program = factory()
    _apply_map_plan(map_plan, program)
    ctx = XdpContext(program)
    log = _ChargeLog()
    st_jit = jit.stats_for(program.name)
    runs_before = (st_jit.jit_runs, ReferenceVm.runs)
    with contextlib.ExitStack() as stack:
        if not jit_on:
            stack.enter_context(substituted())
        if fault is not None:
            stack.enter_context(faults.injecting(_fault_plan(*fault)))
        rec = stack.enter_context(trace.recording())
        verdict = ctx.run(pkt, exec_ctx=log, ingress_ifindex=ifindex,
                          rx_queue_index=queue, ktime_ns=ktime)
        counters = dict(rec.counters)
        ledger = rec.ledger()
    jit_runs = st_jit.jit_runs - runs_before[0]
    reference_runs = ReferenceVm.runs - runs_before[1]
    # Exactly the engine under test ran, at most once (a lookup fault
    # answers before any engine does).
    assert (reference_runs if jit_on else jit_runs) == 0
    return {
        "runs": jit_runs if jit_on else reference_runs,
        "action": verdict.action,
        "data": bytes(verdict.data),
        "redirect": _norm_redirect(verdict.redirect, program),
        "insns": verdict.insns_executed,
        "touched": verdict.touched_data,
        "charges": log.charges,
        "counters": counters,
        "ledger": ledger,
        "maps": _dump_maps(program),
    }


# --------------------------------------------------------------------------
# The differential property


@pytest.mark.parametrize("name", sorted(FACTORIES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_jit_matches_interpreter(name, data):
    factory = FACTORIES[name]
    pkt = data.draw(_packets, label="packet")
    ktime = data.draw(st.integers(min_value=0, max_value=10**9),
                      label="ktime")
    ifindex = data.draw(st.integers(min_value=0, max_value=7),
                        label="ifindex")
    queue = data.draw(st.integers(min_value=0, max_value=3), label="queue")
    fault = None
    if data.draw(st.booleans(), label="inject_fault"):
        fault = (data.draw(st.integers(min_value=0, max_value=2**16),
                           label="fault_seed"),
                 data.draw(st.integers(min_value=1, max_value=3),
                           label="fault_nth"))
    map_plan = _draw_map_plan(data, factory(), pkt)

    jit_side = _observe(factory, map_plan, pkt, ktime, ifindex, queue,
                        fault, jit_on=True)
    interp_side = _observe(factory, map_plan, pkt, ktime, ifindex, queue,
                           fault, jit_on=False)
    assert jit_side == interp_side


@pytest.mark.parametrize(
    "name", ["hostile_oob_load", "hostile_oob_store", "hostile_ptr_return"])
def test_hostile_programs_abort_identically(name):
    """Faulting programs compile, run, and abort the same on the JIT
    and the reference VM.  A mid-run fault (the OOB accesses) retires no
    instructions; a bad *verdict* (pointer return) faults only after
    the run's counters have flushed — on both engines alike."""
    factory = FACTORIES[name]
    jit.compiled_for(factory())  # raises VerifierError if refused
    for jit_on in (True, False):
        obs = _observe(factory, {}, bytes(64), 0, 0, 0, None, jit_on)
        assert obs["action"] == XdpAction.ABORTED
        if name != "hostile_ptr_return":
            assert "ebpf.insns_retired" not in obs["counters"]
    jit_side = _observe(factory, {}, bytes(64), 0, 0, 0, None, True)
    interp_side = _observe(factory, {}, bytes(64), 0, 0, 0, None, False)
    assert jit_side == interp_side


def test_lookup_fault_path_is_shared(capsys):
    """The injected map-lookup fault is consulted before the program
    runs, so both sides see the same PASS + charge shape."""
    program = programs.parse_lookup_drop_program()[0]
    obs = []
    for jit_on in (True, False):
        obs.append(_observe(lambda: programs.parse_lookup_drop_program()[0],
                            {}, bytes(64), 0, 0, 0, (3, 1), jit_on))
    assert obs[0] == obs[1]
    assert obs[0]["action"] == XdpAction.PASS
    assert obs[0]["counters"].get("ebpf.map_lookup_faults") == 1


# --------------------------------------------------------------------------
# Random verified programs
#
# A program is a fixed prologue (r6 = ctx, r7 = data, r8 = data_end), a
# random body of snippets, and an exit.  Scalars live in r0, r2-r5 and r9;
# any register may still be read as an operand, so pointer arithmetic,
# pointer spills and NULL-check comparisons come up too.  Branches are
# drawn with a placeholder offset and resolved afterwards to a random
# forward target, so control can skip any suffix of the body.

_SCALARS = (0, 2, 3, 4, 5, 9)
_ALU_OPS = ("add", "sub", "mul", "div", "mod", "and", "or", "xor", "lsh",
            "rsh", "arsh", "mov")
_PREDS = ("jeq", "jne", "jgt", "jge", "jlt", "jle", "jset", "jsgt", "jsge")
_WIDTHS = {"b": 1, "h": 2, "w": 4, "dw": 8}
_FORWARD = object()  # placeholder offset of a branch yet to be resolved

_imms = st.one_of(
    st.integers(min_value=-4, max_value=64),
    st.sampled_from([-(2**31), 2**31 - 1, 0xFFFF, 0x8000, 255, 63, 64]),
    st.integers(min_value=-(2**31), max_value=2**31 - 1),
)
_scalar = st.sampled_from(_SCALARS)
_any_reg = st.integers(min_value=0, max_value=10)
_width = st.sampled_from(sorted(_WIDTHS))
_stack_off = st.integers(min_value=-72, max_value=-1)


@st.composite
def _snippet(draw):
    kind = draw(st.sampled_from([
        "alu_imm", "alu_reg", "unary", "branch_imm", "branch_reg", "ja",
        "pkt_load_guarded", "pkt_load", "pkt_store_guarded", "stack_store",
        "stack_store_reg", "stack_load", "ctx_load", "helper", "map_lookup",
        "map_update", "map_handle", "verdict",
    ]))
    if kind == "alu_imm":
        return [Insn(f"{draw(st.sampled_from(_ALU_OPS))}_imm",
                     dst=draw(_scalar), imm=draw(_imms))]
    if kind == "alu_reg":
        return [Insn(f"{draw(st.sampled_from(_ALU_OPS))}_reg",
                     dst=draw(_scalar), src=draw(_any_reg))]
    if kind == "unary":
        op = draw(st.sampled_from(["neg", "be", "le"]))
        imm = draw(st.sampled_from([16, 32, 64])) if op != "neg" else 0
        return [Insn(op, dst=draw(st.sampled_from(_SCALARS + (7,))),
                     imm=imm)]
    if kind == "branch_imm":
        return [Insn(f"{draw(st.sampled_from(_PREDS))}_imm",
                     dst=draw(_any_reg), imm=draw(_imms), off=_FORWARD)]
    if kind == "branch_reg":
        return [Insn(f"{draw(st.sampled_from(_PREDS))}_reg",
                     dst=draw(_any_reg), src=draw(_any_reg), off=_FORWARD)]
    if kind == "ja":
        return [Insn("ja", off=_FORWARD)]
    width = draw(_width)
    size = _WIDTHS[width]
    if kind in ("pkt_load_guarded", "pkt_store_guarded"):
        # The data_end bounds check real programs make before touching
        # the packet: skip the access when it would run past the end.
        off = draw(st.integers(min_value=0, max_value=64))
        if kind == "pkt_load_guarded":
            access = Insn(f"ldx{width}", dst=draw(_scalar), src=7, off=off)
        elif draw(st.booleans()):
            access = Insn(f"st{width}", dst=7, off=off, imm=draw(_imms))
        else:
            access = Insn(f"stx{width}", dst=7, src=draw(_any_reg), off=off)
        return [Insn("mov_reg", dst=2, src=7),
                Insn("add_imm", dst=2, imm=off + size),
                Insn("jgt_reg", dst=2, src=8, off=1),
                access]
    if kind == "pkt_load":  # unguarded: faults past the end
        return [Insn(f"ldx{width}", dst=draw(_scalar), src=7,
                     off=draw(st.integers(min_value=0, max_value=96)))]
    if kind == "stack_store":
        return [Insn(f"st{width}", dst=10, off=draw(_stack_off),
                     imm=draw(_imms))]
    if kind == "stack_store_reg":
        return [Insn(f"stx{width}", dst=10, src=draw(_any_reg),
                     off=draw(_stack_off))]
    if kind == "stack_load":
        return [Insn(f"ldx{width}", dst=draw(_scalar), src=10,
                     off=draw(_stack_off))]
    if kind == "ctx_load":
        off = draw(st.sampled_from([0, 4, 8, 12, 16, 20]))
        return [Insn("ldxw", dst=draw(_scalar), src=6, off=off)]
    if kind == "helper":
        helper = draw(st.sampled_from([
            Helper.KTIME_GET_NS, Helper.GET_PRANDOM_U32, Helper.REDIRECT,
            Helper.REDIRECT_MAP, Helper.XDP_ADJUST_HEAD, Helper.CSUM_DIFF,
        ]))
        if helper == Helper.REDIRECT:
            args = [Insn("mov_imm", dst=1,
                         imm=draw(st.integers(min_value=0, max_value=9)))]
        elif helper == Helper.REDIRECT_MAP:
            args = [Insn("ld_map", dst=1, imm=2),
                    Insn("mov_imm", dst=2,
                         imm=draw(st.integers(min_value=0, max_value=5))),
                    Insn("mov_imm", dst=3,
                         imm=draw(st.integers(min_value=0, max_value=3)))]
        elif helper == Helper.XDP_ADJUST_HEAD:
            args = [Insn("mov_reg", dst=1, src=6),
                    Insn("mov_imm", dst=2,
                         imm=draw(st.integers(min_value=-24, max_value=24)))]
        elif helper == Helper.CSUM_DIFF:
            args = [Insn("mov_reg", dst=3, src=10),
                    Insn("add_imm", dst=3, imm=-16),
                    Insn("mov_imm", dst=4,
                         imm=draw(st.sampled_from([0, 4, 8, 16, 32]))),
                    Insn("mov_imm", dst=5, imm=draw(_imms))]
        else:
            args = []
        reload = []
        if helper == Helper.XDP_ADJUST_HEAD and draw(st.booleans()):
            reload = [Insn("ldxw", dst=7, src=6, off=0),
                      Insn("ldxw", dst=8, src=6, off=4)]
        return args + [Insn("call", imm=int(helper))] + reload
    if kind == "map_lookup":
        # Key on the stack, lookup, then (if found) bump the value in
        # place: a map-value write the run must flush back.
        map_id = draw(st.sampled_from([0, 1]))
        return [Insn("stw", dst=10, off=-8,
                     imm=draw(st.integers(min_value=0, max_value=5))),
                Insn("ld_map", dst=1, imm=map_id),
                Insn("mov_reg", dst=2, src=10),
                Insn("add_imm", dst=2, imm=-8),
                Insn("call", imm=int(Helper.MAP_LOOKUP_ELEM)),
                Insn("jeq_imm", dst=0, imm=0, off=3),
                Insn("ldxdw", dst=3, src=0, off=0),
                Insn("add_imm", dst=3, imm=draw(_imms)),
                Insn("stxdw", dst=0, src=3, off=0)]
    if kind == "map_update":
        helper = draw(st.sampled_from([Helper.MAP_UPDATE_ELEM,
                                       Helper.MAP_DELETE_ELEM]))
        return [Insn("stw", dst=10, off=-8,
                     imm=draw(st.integers(min_value=0, max_value=5))),
                Insn("stdw", dst=10, off=-16, imm=draw(_imms)),
                Insn("ld_map", dst=1, imm=draw(st.sampled_from([0, 1]))),
                Insn("mov_reg", dst=2, src=10),
                Insn("add_imm", dst=2, imm=-8),
                Insn("mov_reg", dst=3, src=10),
                Insn("add_imm", dst=3, imm=-16),
                Insn("call", imm=int(helper))]
    if kind == "map_handle":  # a handle where scalars live: must fault
        return [Insn("ld_map", dst=draw(_scalar),
                     imm=draw(st.sampled_from([0, 1, 2])))]
    # verdict
    return [Insn("mov_imm", dst=0,
                 imm=draw(st.integers(min_value=0, max_value=5)))]


@st.composite
def _random_program_insns(draw):
    insns = [Insn("mov_reg", dst=6, src=1),
             Insn("ldxw", dst=7, src=6, off=0),
             Insn("ldxw", dst=8, src=6, off=4)]
    for snippet in draw(st.lists(_snippet(), min_size=1, max_size=24)):
        insns.extend(snippet)
    if draw(st.booleans()):
        insns.append(Insn("mov_imm", dst=0,
                          imm=draw(st.integers(min_value=0, max_value=4))))
    insns.append(Insn("exit"))
    last = len(insns) - 1
    for pc, insn in enumerate(insns):
        if insn.off is _FORWARD:
            off = draw(st.integers(min_value=0, max_value=last - pc - 1),
                       label=f"branch{pc}")
            insns[pc] = insn._replace(off=off)
    return tuple(insns)


def _random_program_factory(insns):
    def build():
        maps = {0: HashMap(key_size=4, value_size=8, max_entries=4),
                1: ArrayMap(value_size=8, max_entries=4),
                2: DevMap(max_entries=4)}
        return verify(Program("random", insns, maps))
    return build


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_random_verified_programs_match_reference_vm(data):
    insns = data.draw(_random_program_insns(), label="insns")
    factory = _random_program_factory(insns)
    pkt = data.draw(_packets, label="packet")
    ktime = data.draw(st.integers(min_value=0, max_value=10**9),
                      label="ktime")
    ifindex = data.draw(st.integers(min_value=0, max_value=7),
                        label="ifindex")
    queue = data.draw(st.integers(min_value=0, max_value=3), label="queue")
    fault = None
    if data.draw(st.booleans(), label="inject_fault"):
        fault = (data.draw(st.integers(min_value=0, max_value=2**16),
                           label="fault_seed"), 1)
    map_plan = _draw_map_plan(data, factory(), pkt)

    jit_side = _observe(factory, map_plan, pkt, ktime, ifindex, queue,
                        fault, jit_on=True)
    reference_side = _observe(factory, map_plan, pkt, ktime, ifindex,
                              queue, fault, jit_on=False)
    assert jit_side == reference_side
