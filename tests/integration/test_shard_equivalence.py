"""Sharded execution is invisible: byte-identity, determinism,
arbitrary partitions (DESIGN §17).

The identity gate (``test_jit_equivalence.py``) byte-diffs the full
experiment set serial vs sharded; this suite adds run-twice determinism
and the properties only a property test can state — *any* port->shard
partition of a seeded fault-plan world merges to the serial conservation
ledger.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.fault_cells import merged_fault_ledger
from repro.experiments.fig9_forwarding import cell_units, run_fig9
from repro.experiments.fig12_multiqueue import run_fig12
from repro.sim import profile
from repro.sim.profile import collapse
from repro.sim.shard import merge_ledgers, run_units
from repro.tools.conservation import PacketLedger

N_PORTS = 4
_PLAN_SEED = 20260809


def _fig9_observables(packets: int, shards: int):
    with profile.profiling() as rec:
        result = run_fig9(packets=packets, scenarios=("P2P",),
                          shards=shards)
    return (dict(result.cells), rec.ledger(), dict(rec.counters),
            collapse(rec.profiler.root))


def test_fig9_sharded_byte_identical_and_deterministic():
    serial = _fig9_observables(200, shards=1)
    assert serial[1] and serial[2]  # not a vacuous comparison
    for shards in (1, 2, 4):
        first = _fig9_observables(200, shards=shards)
        assert first == serial
        assert _fig9_observables(200, shards=shards) == first  # run twice


def test_fig12_sharded_mpps_byte_identical_to_serial():
    serial = run_fig12(packets_per_queue=40, shards=1).series
    for shards in (2, 4):
        sharded = run_fig12(packets_per_queue=40, shards=shards).series
        assert sharded == serial
        # Byte-identical, not merely close: compare the repr dumps.
        assert json.dumps({str(k): v for k, v in sharded.items()}) == \
            json.dumps({str(k): v for k, v in serial.items()})


def test_merge_mutations_trip_on_a_real_experiment():
    units = cell_units(120, scenarios=("P2P",))
    with profile.profiling() as rec:
        run_units(units, shards=1)
    serial = rec.ledger()
    for mutation in ("reorder", "collapse"):
        with profile.profiling() as rec:
            run_units(units, shards=2, _mutate_merge=mutation)
        assert rec.ledger() != serial, mutation


# ----------------------------------------------------------------------
# The Hypothesis property: ANY partition merges exactly.
# ----------------------------------------------------------------------
def _serial_ledger():
    # Computed once; every example compares against the same dict.
    if not hasattr(_serial_ledger, "value"):
        _serial_ledger.value = merged_fault_ledger(
            N_PORTS, _PLAN_SEED, shards=1, packets=120)
    return _serial_ledger.value


@settings(max_examples=12, deadline=None)
@given(partition=st.lists(st.integers(min_value=0, max_value=2),
                          min_size=N_PORTS, max_size=N_PORTS))
def test_any_partition_merges_to_the_serial_fault_ledger(partition):
    serial = _serial_ledger()
    assert serial["forwarded"] < serial["offered"]  # faults really fire
    assert serial["sinks"], "no drop sinks: the property is vacuous"
    sharded = merged_fault_ledger(N_PORTS, _PLAN_SEED, shards=3,
                                  placement=partition, packets=120)
    assert sharded == serial


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_fault_world_run_twice_determinism(workers):
    a = merged_fault_ledger(N_PORTS, _PLAN_SEED, shards=workers,
                            packets=120)
    b = merged_fault_ledger(N_PORTS, _PLAN_SEED, shards=workers,
                            packets=120)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_merge_ledgers_sums_integer_sinks_exactly():
    merged = merge_ledgers([
        PacketLedger(offered=10, forwarded=8, sinks={"a": 2}),
        PacketLedger(offered=5, forwarded=4, sinks={"a": 1, "b": 0}),
    ])
    assert (merged.offered, merged.forwarded) == (15, 12)
    assert merged.sinks == {"a": 3, "b": 0}
