"""Per-UAV SINR, min-SINR, sum rate and dB/dBm conversions.

The SINR is evaluated from the effective matrix (H Phi G) @ F_hat where
the combined precoder already folds the per-UAV powers, so the desired
power of UAV u is |effective[u, u]|^2 and the interference from UAV i is
|effective[u, i]|^2.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "SinrReport",
    "sinr_report",
    "dbm_to_watts",
    "db_to_linear",
    "linear_to_db",
]


class SinrReport(NamedTuple):
    per_uav_sinr: np.ndarray  # linear ratios, length N_U
    min_sinr: float  # linear
    min_sinr_db: float
    sum_rate: float  # bits/s/Hz

    @property
    def per_uav_sinr_db(self) -> np.ndarray:
        return 10.0 * np.log10(self.per_uav_sinr)


def sinr_report(effective: np.ndarray, noise_power: float) -> SinrReport:
    """SINRs from the N_U x N_U effective channel-precoder product."""
    effective = np.asarray(effective, dtype=np.complex128)
    if effective.ndim != 2 or effective.shape[0] != effective.shape[1]:
        raise ValueError(f"effective matrix must be square, got {effective.shape}")
    if noise_power <= 0:
        raise ValueError("noise_power must be > 0")
    # np.add.reduce and np.minimum.reduce: ndarray.sum and .min, unwrapped
    powers = np.abs(effective) ** 2
    desired = powers.diagonal()
    interference = np.add.reduce(powers, axis=1) - desired
    sinr = desired / (interference + noise_power)
    min_sinr = float(np.minimum.reduce(sinr))
    sum_rate = float(np.add.reduce(np.log2(1.0 + sinr)))
    return SinrReport(sinr, min_sinr, linear_to_db(min_sinr), sum_rate)


def dbm_to_watts(x_dbm: float) -> float:
    return 10.0 ** ((x_dbm - 30.0) / 10.0)


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def linear_to_db(x) -> float:
    if x <= 0:
        raise ValueError("linear_to_db requires a positive ratio")
    return 10.0 * float(np.log10(x))
