"""OpenFlow meters: token-bucket rate limiting.

§6 ✗: "Traffic shaping and policing is still missing, so we currently use
the OpenFlow meter action to support rate limiting, which is not fully
equivalent."  A meter polices (drops over-rate packets); it cannot shape
(queue and pace) — that limitation is inherent to this structure and is
demonstrated in the ablation benches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class MeterBand:
    rate_kbps: int
    burst_kb: int


class Meter:
    def __init__(self, meter_id: int, band: MeterBand) -> None:
        self.meter_id = meter_id
        self.band = band
        self._tokens_bits = band.burst_kb * 8_000.0
        self._last_ns = 0
        self.n_passed = 0
        self.n_dropped = 0

    def admit(self, nbytes: int, now_ns: int) -> bool:
        """Police one packet: True = pass, False = drop."""
        elapsed = max(0, now_ns - self._last_ns)
        self._last_ns = now_ns
        cap = self.band.burst_kb * 8_000.0
        self._tokens_bits = min(
            cap, self._tokens_bits + elapsed * self.band.rate_kbps / 1e6 * 1e3
        )
        need = nbytes * 8
        if self._tokens_bits >= need:
            self._tokens_bits -= need
            self.n_passed += 1
            return True
        self.n_dropped += 1
        return False


class MeterTable:
    def __init__(self) -> None:
        self._meters: Dict[int, Meter] = {}

    def add(self, meter_id: int, rate_kbps: int, burst_kb: int = 64) -> Meter:
        if meter_id in self._meters:
            raise ValueError(f"meter {meter_id} exists")
        meter = Meter(meter_id, MeterBand(rate_kbps, burst_kb))
        self._meters[meter_id] = meter
        return meter

    def admit(self, meter_id: int, nbytes: int, now_ns: int) -> bool:
        meter = self._meters.get(meter_id)
        if meter is None:
            return True  # no meter = no policing
        return meter.admit(nbytes, now_ns)
