"""dp-JIT: compile installed megaflows into specialized Python closures.

The paper's central trick is translating slow-path decisions into
specialized fast-path artifacts; PR 5 applied it to eBPF programs, and
this module applies it one layer up, to the userspace datapath itself.
For each installed :class:`~repro.ovs.megaflow.MegaflowEntry` the
translator generates Python source containing

* ``_dp_match`` — the miniflow mask-and-compare inlined as a chain of
  ``key[i] & bits == const`` tests over the mask's non-zero fields (the
  :class:`~repro.net.flow.MaskSpec` projection, unrolled with the
  entry's masked key baked in as constants), and
* ``_dp_exec`` — the flow's odp action chain unrolled with every
  ``isinstance`` dispatch resolved at compile time: output appends,
  set-field/vlan rewrites, tunnel encapsulation, truncation, meter
  admission, userspace punts and recirculation re-entry become straight
  -line statements.

Per-entry *constants* (match values, ports, rewrite values, tunnel
configs) are hoisted into the generated functions' globals rather than
baked in as literals, so every megaflow with the same *shape* (mask
structure + action chain structure) emits byte-identical source.  The
``compile()`` step — by far the dominant translation cost, ~10x the
codegen itself — is memoized on that source text: a ruleset with
thousands of flows sharing a handful of chain shapes pays for a handful
of compiles.  The resulting closure is cached *on the entry*
(``entry.jit = (actions_ref, exec_fn, compiled)``); the burst pipeline
in :mod:`repro.ovs.dpif_netdev` dispatches to ``exec_fn`` ahead of the
generic ``_execute`` walk.

The contract is **charge-exactness**, inherited verbatim from PR 5: a
compiled execution must be observationally identical to the interpreted
``DpifNetdev._execute`` walk — the same per-packet virtual-time charges
(``action_ns`` before each action, then the action's own charges) issued
in the same order with the same float operations, the same transmit
batches in the same insertion order, the same :class:`PipelineStats`
bumps, the same trace-ledger and flamegraph bytes.  Costs are read from
the live :data:`~repro.sim.costs.DEFAULT_COSTS` singleton at *run* time,
never baked in as float literals, so ``costs.overridden()`` sensitivity
sweeps keep working.

Anything the translator cannot prove locally compilable — conntrack
(``ct`` consults the shared :class:`UserspaceConntrack` tables),
``tunnel_pop`` (its decapsulation parse failure re-enters the drop
path), unknown action types, and over-long chains — is *declined*: the
entry is marked and runs on the interpreter forever (PR 5's
``JitDecline`` pattern).  Recirculation compiles by tail-calling the
datapath's own ``_process_one`` re-entry point, exactly as the
interpreter does.

Invalidation rides every mutation channel through one mechanism: a
cached closure is honored only while ``entry.jit[0] is entry.actions``
(the identity of the very actions tuple that was compiled).  Flow-mods,
revalidator sweeps, evictions and flushes remove the entry itself (each
``megaflows.version`` bump that could retire a decision either removes
entries or leaves their closures untouched-and-correct), and
:class:`~repro.ovs.megaflow.MegaflowCache` reports every removed
compiled closure here so ``appctl fastpath/show`` can show invalidation
counts; an in-place actions rebind is caught by the identity check at
the next dispatch and recompiled.

Gating: module switch :data:`ENABLED` (tests turn it off with
:func:`disabled` to run the generic walk as the oracle) AND the global
:mod:`repro.sim.fastpath` switch, checked per burst by the datapath.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from repro.net.flow import MaskSpec
from repro.net.packet import Packet
from repro.net.tunnel import encapsulate
from repro.ovs import odp
from repro.ovs.packet_ops import do_pop_vlan, do_push_vlan, set_field
from repro.sim.costs import DEFAULT_COSTS
from repro import telemetry as _telemetry
from repro.telemetry.drops import DropReason as _DropReason

ENABLED: bool = True

#: Chains longer than this decline: the real datapath bounds action
#: lists too, and an unbounded unroll would bloat the generated source.
MAX_ACTIONS = 64


@contextmanager
def disabled():
    """Run a block with the dp-JIT off (forces the generic walk)."""
    global ENABLED
    saved = ENABLED
    ENABLED = False
    try:
        yield
    finally:
        ENABLED = saved


class DpJitDecline(Exception):
    """The translator refuses this megaflow; the interpreter runs it."""


# ----------------------------------------------------------------------
# Bookkeeping (appctl fastpath/show).
# ----------------------------------------------------------------------
class DpJitStats:
    """Datapath-wide compile/dispatch counters.

    ``dispatched`` is bumped per compiled execution — a wall-clock-only
    statistic, like the eBPF JIT's per-program run counts, never part of
    any ledger.
    """

    __slots__ = ("compiled", "declined", "invalidated", "dispatched",
                 "decline_reasons")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.compiled = 0
        self.declined = 0
        self.invalidated = 0
        self.dispatched = 0
        self.decline_reasons: Dict[str, int] = {}


STATS = DpJitStats()


def reset_stats() -> None:
    STATS.reset()


class CompiledMegaflow:
    """One megaflow's generated functions plus the source to trust them."""

    __slots__ = ("exec_fn", "match_fn", "source", "actions")

    def __init__(self, exec_fn, match_fn, source: str, actions: Tuple) -> None:
        self.exec_fn = exec_fn
        self.match_fn = match_fn
        self.source = source
        self.actions = actions


# ----------------------------------------------------------------------
# Translation.
# ----------------------------------------------------------------------
#: SetField names the interpreter accepts (odp.validate_actions); only
#: these are embedded into generated source.
_SET_FIELDS = frozenset(
    {"eth_src", "eth_dst", "nw_src", "nw_dst", "nw_ttl", "tp_src", "tp_dst"}
)


class _Emitter:
    def __init__(self) -> None:
        self.lines: List[str] = []
        self.indent = 0
        self.glb: Dict[str, object] = {}

    def __call__(self, line: str = "") -> None:
        self.lines.append("    " * self.indent + line if line else "")

    def param(self, value: object) -> str:
        """Hoist a per-entry constant into the globals; returns its
        name.  Keeping constants out of the source text is what lets
        same-shape megaflows share one compiled code object."""
        name = f"_K{len(self.glb)}"
        self.glb[name] = value
        return name

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def _emit_match(w: _Emitter, entry) -> None:
    """``_dp_match(key)``: the unrolled mask-and-compare.

    Equivalent to ``spec.project(key) == spec.project(entry.key)`` —
    the very test the subtable dict performs — with the mask bits folded
    in as literals and the entry's masked key hoisted as parameters.
    """
    spec = MaskSpec(entry.mask)
    w("def _dp_match(key):")
    w.indent = 1
    if not spec.fields:
        w("return True  # match-all mask")
    else:
        terms = []
        for i, bits in spec.fields:
            want = w.param(entry.key[i] & bits)
            terms.append(f"key[{i}] & {bits:#x} == {want}")
        w("return (" + "\n        and ".join(terms) + ")")
    w.indent = 0
    w()


def _emit_output(w: _Emitter, port_no: int, expr: str) -> None:
    port = w.param(port_no)
    w(f"_b = tx_batches.get({port})")
    w("if _b is None:")
    w(f"    _b = tx_batches[{port}] = []")
    w(f"_b.append({expr})")


def _translate(entry) -> Tuple[str, Dict[str, object]]:
    """Emit the source and globals for ``entry``'s match + exec pair."""
    actions = entry.actions
    if len(actions) > MAX_ACTIONS:
        raise DpJitDecline(f"action chain too long: {len(actions)}")

    w = _Emitter()
    w.glb.update({
        "_COSTS": DEFAULT_COSTS,
        "_set_field": set_field,
        "_push_vlan": do_push_vlan,
        "_pop_vlan": do_pop_vlan,
        "_encapsulate": encapsulate,
        "_Packet": Packet,
        # Drop sites in generated code emit the same taxonomy events the
        # interpreter does (uncharged bookkeeping, so charge-exactness
        # is untouched; _TELE.ACTIVE is read at run time).
        "_TELE": _telemetry,
        "_DR_EMPTY": _DropReason.DP_EMPTY_ACTIONS,
        "_DR_METER": _DropReason.DP_METER_DROP,
    })
    glb = w.glb
    _emit_match(w, entry)
    w("def _dp_exec(dp, pkt, ctx, emc, tx_batches, depth, statses):")
    w.indent = 1
    w("costs = _COSTS")
    if not actions:
        # An empty action list means drop — charged and counted exactly
        # as the interpreter's early-out.
        w("for s in statses:")
        w("    s.dropped += 1")
        w("_t = _TELE.ACTIVE")
        w("if _t is not None:")
        w("    _t.drop(_DR_EMPTY, octets=len(pkt.data))")
        w("return")
        return w.source(), glb

    # Pass 1: the pure data-transform chain.  Every rewrite
    # (set-field, vlan push/pop, trunc, encapsulation) is a function of
    # the input frame alone, and every charge depends only on cost
    # constants and frame *lengths* — so the computed frames are
    # memoized per input frame on the closure (the fastpath wall-clock
    # memo idiom: identical observables, the byte surgery runs once per
    # distinct frame instead of once per packet).
    compute: List[Tuple[str, str]] = []  # (var, expression)
    data = "_d0"
    for idx, act in enumerate(actions):
        t = type(act)
        if t is odp.SetField:
            if act.field not in _SET_FIELDS:
                raise DpJitDecline(f"set of unknown field {act.field!r}")
            val = w.param(int(act.value))
            expr = f"_set_field({data}, {act.field!r}, {val})"
        elif t is odp.PushVlan:
            vid, pcp = w.param(int(act.vid)), w.param(int(act.pcp))
            expr = f"_push_vlan({data}, {vid}, {pcp})"
        elif t is odp.PopVlan:
            expr = f"_pop_vlan({data})"
        elif t is odp.Trunc:
            expr = f"{data}[:{w.param(int(act.max_len))}]"
        elif t is odp.TunnelPush:
            # The outer frame is computed (and memoized) here; the
            # charges and the output append stay in the effect pass.
            name = w.param(act.config)
            outer = f"_o{idx}"
            compute.append((outer, f"_encapsulate({name}, {data})"))
            continue
        elif t is odp.Ct:
            # Conntrack reads and mutates shared connection state and
            # packet metadata through the interpreter's _do_ct; not
            # locally compilable.
            raise DpJitDecline("ct is not locally compilable")
        elif t is odp.TunnelPop:
            # Decapsulation can fail mid-chain and re-enters the
            # pipeline with rewritten tunnel metadata; left to the
            # interpreter.
            raise DpJitDecline("tunnel_pop is not locally compilable")
        elif t in (odp.Output, odp.Userspace, odp.Meter, odp.Recirc):
            continue  # effects, not transforms
        else:
            raise DpJitDecline(f"unknown action {act!r}")
        data = f"_d{idx + 1}"
        compute.append((data, expr))

    w("_d0 = pkt.data")
    if compute:
        glb["_MEMO"] = {}
        names = ", ".join(var for var, _ in compute)
        trailer = "," if len(compute) == 1 else ""
        w("_vals = _MEMO.get(_d0)")
        w("if _vals is None:")
        w.indent += 1
        for var, expr in compute:
            w(f"{var} = {expr}")
        w(f"_vals = ({names}{trailer})")
        w("if len(_MEMO) < 4096:")
        w("    _MEMO[_d0] = _vals")
        w.indent -= 1
        w("else:")
        w(f"    ({names}{trailer}) = _vals")

    # Pass 2: the effect sequence — charges, stats, meter admission,
    # transmit appends, recirculation — exactly the interpreter's order.
    data = "_d0"
    for idx, act in enumerate(actions):
        t = type(act)
        w(f"# [{idx}] {t.__name__}")
        w("ctx.charge(costs.action_ns, label='odp_action')")
        if t is odp.Output:
            # A frame the chain has not rewritten goes out as the packet
            # itself (same bytes, and the meta is shared either way).
            _emit_output(w, act.port_no,
                         "pkt" if data == "_d0" else f"pkt.with_data({data})")
        elif t is odp.Userspace:
            w("ctx.charge(costs.userspace_slowpath_ns, label='userspace')")
        elif t is odp.Meter:
            w(f"if not dp.meters.admit({w.param(int(act.meter_id))}, "
              f"len({data}), dp.now_ns_fn()):")
            w("    for s in statses:")
            w("        s.dropped += 1")
            w("    _t = _TELE.ACTIVE")
            w("    if _t is not None:")
            w(f"        _t.drop(_DR_METER, octets=len({data}))")
            w("    return")
        elif t is odp.TunnelPush:
            outer = f"_o{idx}"
            w("ctx.charge(costs.tunnel_encap_ns, label='tunnel_push')")
            w(f"ctx.charge(costs.copy_cost(len({outer}) - len({data})), "
              "label='encap_copy')")
            _emit_output(w, act.out_port, f"_Packet({outer})")
        elif t is odp.Recirc:
            # Re-entry is the interpreter's own _process_one — the same
            # tail call _execute makes, so the recirculated pass (and
            # any compiled closure *it* dispatches) is shared semantics.
            w(f"_out = pkt.with_data({data})")
            w(f"_out.meta.recirc_id = {w.param(int(act.recirc_id))}")
            w("ctx.charge(costs.recirculate_ns, label='recirc')")
            w("dp._process_one(_out, ctx, emc, tx_batches, depth + 1, "
              "statses)")
            w("return")
        else:
            data = f"_d{idx + 1}"  # the transform computed in pass 1
    return w.source(), glb


#: source text -> code object.  Constants live in each entry's globals,
#: so the key space is bounded by *shape* diversity (mask structures x
#: chain structures), not by flow count.
_CODE_CACHE: Dict[str, object] = {}


def compile_entry(entry) -> Optional[CompiledMegaflow]:
    """Translate + compile ``entry``'s chain; ``None`` if declined."""
    try:
        source, glb = _translate(entry)
        code = _CODE_CACHE.get(source)
        if code is None:
            code = _CODE_CACHE[source] = compile(source, "<dp-jit>", "exec")
        exec(code, glb)
    except DpJitDecline as exc:
        _note_decline(str(exc))
        return None
    except Exception as exc:  # pragma: no cover - codegen bug safety net
        # A translator defect must never take the datapath down: decline
        # and let the generic walk define the semantics.
        _note_decline(f"internal error: {exc!r}")
        return None
    compiled = CompiledMegaflow(glb["_dp_exec"], glb["_dp_match"], source,
                                entry.actions)
    STATS.compiled += 1
    return compiled


def _note_decline(reason: str) -> None:
    STATS.declined += 1
    STATS.decline_reasons[reason] = (
        STATS.decline_reasons.get(reason, 0) + 1)


def bind(entry):
    """(Re)compile ``entry`` and cache the result on it.

    Returns the executable closure, or ``None`` when the chain declined
    (the cached decline is honored forever — until the actions tuple is
    replaced, which this call also detects as an invalidation).
    """
    prev = entry.jit
    if prev is not None and prev[0] is not entry.actions and prev[1] is not None:
        # Stale closure on an in-place actions rebind: the compiled code
        # no longer matches the entry's decision.  Count it; the fresh
        # compile below replaces it and the stale fn is never run.
        STATS.invalidated += 1
    compiled = compile_entry(entry)
    fn = None if compiled is None else compiled.exec_fn
    entry.jit = (entry.actions, fn, compiled)
    return fn


def decline_entry(entry) -> None:
    """Pin ``entry`` to the interpreter without compiling.

    Used for transient (uninstalled) entries the upcall path creates
    per packet under flow-limit pressure: compiling those would pay the
    translation cost once per packet for a closure that is thrown away.
    """
    entry.jit = (entry.actions, None, None)


def note_closure_dropped(n: int = 1) -> None:
    """A mutation channel (flow-mod, revalidation, eviction, flush)
    removed ``n`` entries holding compiled closures."""
    STATS.invalidated += n


def render() -> str:
    """The ``appctl fastpath/show`` rows for this layer."""
    s = STATS
    lines = [
        f"dp-jit megaflows: compiled {s.compiled}  declined {s.declined}"
        f"  invalidated {s.invalidated}  dispatched {s.dispatched}",
        f"  shared code objects: {len(_CODE_CACHE)} shapes",
    ]
    for reason in sorted(s.decline_reasons):
        lines.append(f"  declined {s.decline_reasons[reason]}x: {reason}")
    return "\n".join(lines)
