"""The drop-reason taxonomy is closed, consistent, and round-trips."""

import pytest

from repro.afxdp.driver import AfxdpDriver
from repro.afxdp.socket import XskSocket
from repro.afxdp.umem import Umem
from repro.afxdp.umempool import UmemPool
from repro.telemetry.drops import (
    XSK_RX_REASONS,
    XSK_TX_REASONS,
    DropReason,
    DropStage,
    reason_for_sink,
)


def test_every_reason_round_trips_through_its_sink_string():
    for reason in DropReason:
        assert reason_for_sink(reason.value) is reason


def test_unknown_sink_is_an_error():
    with pytest.raises(KeyError):
        reason_for_sink("nic.made_up_counter")


def test_sink_strings_are_unique_and_every_reason_has_a_stage():
    values = [r.value for r in DropReason]
    assert len(values) == len(set(values))
    for reason in DropReason:
        assert isinstance(reason.stage, DropStage)


def test_every_other_reason_is_its_own_ledger_sink():
    # No reason lacks a sink: beside the dp.* fold below, each reason
    # (the kernel datapath's included) counts in its own.
    for reason in DropReason:
        if not reason.value.startswith("dp."):
            assert reason.ledger_sink == reason.value


def test_fine_grained_dp_reasons_fold_into_the_coarse_sink():
    for reason in DropReason:
        if reason.value.startswith("dp."):
            assert reason.ledger_sink == DropReason.DP_DROPPED.value


def test_xsk_counters_name_real_socket_attributes():
    umem = Umem(n_frames=64, ring_size=64)
    sock = XskSocket(umem, UmemPool(umem), ring_size=64)
    for reason in XSK_RX_REASONS + XSK_TX_REASONS:
        assert getattr(sock, reason.counter) == 0


def test_driver_retired_counters_derive_from_the_taxonomy():
    assert AfxdpDriver._RETIRED_COUNTERS == ("tx_sent",) + tuple(
        r.counter for r in XSK_RX_REASONS + XSK_TX_REASONS)


def test_xsk_reasons_sit_on_the_right_side_of_the_datapath():
    for reason in XSK_RX_REASONS:
        assert reason.stage is DropStage.PRE_DATAPATH
    for reason in XSK_TX_REASONS:
        assert reason.stage is DropStage.POST_DATAPATH
