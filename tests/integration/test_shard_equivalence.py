"""Pooled execution is invisible: byte-identity, determinism, any
execution order (DESIGN §17).

The identity gate (``test_jit_equivalence.py``) compares fig9's cells
serial vs pooled; this suite adds run-twice determinism, spawn-started
workers, and the property only a property test can state — the ports of
a seeded fault-plan world, run in *any* order, merge to the serial
conservation ledger.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.fault_cells import fault_units, merged_fault_ledger
from repro.experiments.fig9_forwarding import cell_units, run_fig9
from repro.sim.shard import merge_ledgers, run_one_unit, run_units
from repro.tools.conservation import PacketLedger

N_PORTS = 4
_PLAN_SEED = 20260809


def test_fig9_sharded_byte_identical_and_deterministic():
    serial = run_fig9(packets=200, scenarios=("P2P",)).cells
    for shards in (1, 2, 4):
        first = run_fig9(packets=200, scenarios=("P2P",),
                         shards=shards).cells
        assert first == serial
        # Byte-identical, not merely close: compare the repr dumps.
        assert repr(first) == repr(serial)
        assert run_fig9(packets=200, scenarios=("P2P",),
                        shards=shards).cells == first  # run twice


def test_fig9_cells_under_spawned_workers_equal_the_inline_values():
    units = cell_units(200, ("P2P",))
    assert repr(run_units(units, shards=2, start_method="spawn")) == \
        repr(run_units(units))


# ----------------------------------------------------------------------
# The Hypothesis property: ANY execution order merges exactly.
# ----------------------------------------------------------------------
_UNITS = fault_units(N_PORTS, _PLAN_SEED, packets=120)


def _serial_ledger() -> PacketLedger:
    # Computed once; every example compares against the same ledger.
    if not hasattr(_serial_ledger, "value"):
        _serial_ledger.value = merge_ledgers(run_units(_UNITS))
    return _serial_ledger.value


@settings(max_examples=12, deadline=None)
@given(order=st.permutations(range(N_PORTS)))
def _inline_in_any_order_merges_to(serial, order):
    assert merge_ledgers(run_one_unit(_UNITS[i]) for i in order) == serial


def test_any_execution_order_merges_to_the_serial_fault_ledger():
    serial = _serial_ledger()
    assert serial.forwarded < serial.offered  # faults really fire
    assert serial.sinks, "no drop sinks: the property is vacuous"
    _inline_in_any_order_merges_to(serial)
    # The pool's own orders; spawn proves Unit.plan rebuilds in a fresh
    # interpreter.
    assert merge_ledgers(run_units(_UNITS, shards=2)) == serial
    assert merge_ledgers(run_units(_UNITS, shards=3,
                                   start_method="spawn")) == serial


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_fault_world_run_twice_determinism(workers):
    for seed in (0, 7):
        a = json.dumps(merged_fault_ledger(N_PORTS, seed, shards=workers,
                                           packets=120), sort_keys=True)
        b = json.dumps(merged_fault_ledger(N_PORTS, seed, shards=workers,
                                           packets=120), sort_keys=True)
        assert a == b
        # ... and equal across worker counts.
        assert a == json.dumps(merged_fault_ledger(N_PORTS, seed,
                                                   packets=120),
                               sort_keys=True)


def test_merge_ledgers_sums_integer_sinks_exactly():
    merged = merge_ledgers([
        PacketLedger(offered=10, forwarded=8, sinks={"a": 2}),
        PacketLedger(offered=5, forwarded=4, sinks={"a": 1, "b": 0}),
    ])
    assert (merged.offered, merged.forwarded) == (15, 12)
    assert merged.sinks == {"a": 3, "b": 0}
