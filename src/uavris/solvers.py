"""Beamforming and phase-shift solvers.

Two structured solvers plus the decoders that map raw agent outputs onto
the feasible set:

  * interference cancellation (IC): with phases fixed, the combined
    precoder is the scaled right pseudo-inverse of the cascaded channel,
    so the effective channel is a positive multiple of the identity and
    every UAV sees zero interference;
  * one-element-serving-one-UAV (ORESOU): each RIS element is assigned
    to exactly one UAV and its phase cancels that element's cascaded
    phase offset so assigned contributions add coherently.

The pseudo-inverse scaling uses F_hat = sqrt(p_max / tr(Ft^H Ft)) * Ft,
which meets tr(F_hat^H F_hat) = p_max with equality.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelSet, PhaseConfig, cascaded_channel
from .linalg import right_pinv
from .metrics import SinrReport, sinr_report

__all__ = [
    "BeamformingMatrix",
    "AssociationMatrix",
    "ic_beamforming",
    "oresou_phases",
    "decode_association",
    "normalize_beamformer",
    "quantize_one_bit",
    "random_search_step",
    "ZeroBeamformerError",
]

_POWER_SLACK = 1e-9
# searchsorted counts the edges below a phase: one exactly on the open interval
# (pi/2, 3*pi/2), which snaps to pi, as the upper edge is the float below 3*pi/2
_ONE_BIT_EDGES = np.array([np.pi / 2, np.nextafter(3 * np.pi / 2, 0.0)])
_ONE_BIT_LEVELS = np.array([0.0, np.pi, 0.0])


class ZeroBeamformerError(ValueError):
    """The raw precoder has an all-zero column: no scaling gives that UAV
    any power, so its SINR is 0."""


def _power(f: np.ndarray) -> float:
    """tr(F^H F), summed as ``np.sum(np.abs(f) ** 2)`` sums it: through
    ``np.add.reduce``, the reduction behind ``np.sum``, without its wrapper."""
    return float(np.add.reduce(np.abs(f) ** 2, axis=None))


@functools.cache
def _identity(n: int) -> np.ndarray:
    """The n x n int8 identity, read-only: row u is the one-hot row of UAV u."""
    eye = np.eye(n, dtype=np.int8)
    eye.flags.writeable = False
    return eye


@dataclass(frozen=True)
class BeamformingMatrix:
    """Combined precoder F_hat = F @ P, shape (N_B, N_U), with
    tr(F_hat^H F_hat) <= p_max."""

    f_hat: np.ndarray
    p_max: float
    _power: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        f = np.asarray(self.f_hat, dtype=np.complex128)
        if f.ndim != 2:
            raise ValueError("f_hat must be a matrix")
        # one reduction checks both: a finite power has only finite entries
        power = _power(f)
        if not math.isfinite(power) and not np.isfinite(f).all():
            raise ValueError("f_hat contains non-finite entries")
        if power > self.p_max * (1.0 + _POWER_SLACK) + _POWER_SLACK:
            raise ValueError(f"power {power} exceeds budget {self.p_max}")
        object.__setattr__(self, "f_hat", f)
        object.__setattr__(self, "_power", power)

    @property
    def transmit_power(self) -> float:
        return self._power


@dataclass(frozen=True)
class AssociationMatrix:
    """Binary element-to-UAV assignment, shape (N*N_R, N_U); one-hot rows."""

    assoc: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.assoc)
        if a.ndim != 2:
            raise ValueError("assoc must be a matrix")
        # a row is one-hot exactly when it equals the one-hot row of its argmax
        if not (a == _identity(a.shape[1]).take(a.argmax(axis=1), axis=0)).all():
            if not ((a == 0) | (a == 1)).all():
                raise ValueError("assoc entries must be 0 or 1")
            raise ValueError("each assoc row must sum to exactly 1")
        object.__setattr__(self, "assoc", a.astype(np.int8))

    @property
    def serving_uav(self) -> np.ndarray:
        """Index of the UAV served by each element, length N*N_R."""
        return self.assoc.argmax(axis=1)


def ic_beamforming(
    channels: ChannelSet,
    phases: PhaseConfig,
    p_max: float,
    cascade: np.ndarray | None = None,
) -> BeamformingMatrix:
    """Interference-cancelling precoder for a fixed phase configuration.

    ``cascade`` is ``cascaded_channel(channels, phases)`` when the caller
    already holds it; by default it is computed here.  Raises
    RankDeficientError when the cascaded channel is not full row rank,
    i.e. this phase configuration is infeasible for IC.
    """
    if cascade is None:
        cascade = cascaded_channel(channels, phases)
    f_tilde = right_pinv(cascade)
    return BeamformingMatrix(math.sqrt(p_max / _power(f_tilde)) * f_tilde, p_max)


def oresou_phases(
    assoc: AssociationMatrix, channels: ChannelSet, f_hat: BeamformingMatrix
) -> PhaseConfig:
    """Phases that cancel each assigned element's cascaded phase offset.

    For element m serving UAV u the effective scalar through the current
    precoder column is e_m = h[u, m] * (g[m, :] @ f_hat[:, u]); the phase
    is set to -arg(e_m) so all of UAV u's assigned contributions arrive
    with zero phase.
    """
    serving = assoc.serving_uav
    if serving.shape[0] != channels.n_elements:
        raise ValueError("association size does not match channel element count")
    m_idx = np.arange(channels.n_elements)
    bs_component = channels.g_stacked @ f_hat.f_hat  # (N*N_R, N_U)
    effective = channels.h_stacked.T[m_idx, serving] * bs_component[m_idx, serving]
    # -arg(e) through the call np.angle makes.  This mod is not redundant
    # with PhaseConfig's: it rounds a tiny negative -arg(e) up to exactly
    # 2*pi, which PhaseConfig's mod folds to 0; with one mod it stays 2*pi
    theta = np.mod(-np.arctan2(effective.imag, effective.real), 2 * np.pi)
    return PhaseConfig(theta)


def decode_association(raw: np.ndarray, n_uav: int) -> AssociationMatrix:
    """One-hot each row of the reshaped raw scores at its argmax
    (ties break toward the lowest UAV index)."""
    raw = np.asarray(raw, dtype=float)
    if raw.size % n_uav != 0:
        raise ValueError(f"raw length {raw.size} not divisible by n_uav {n_uav}")
    winners = raw.reshape(-1, n_uav).argmax(axis=1)
    return AssociationMatrix(_identity(n_uav).take(winners, axis=0))


def normalize_beamformer(raw: np.ndarray, n_bs: int, n_uav: int, p_max: float) -> BeamformingMatrix:
    """Raw real/imag pairs -> precoder rescaled so the power budget binds
    with equality.  Scale-invariant in the raw vector.  Raises
    ZeroBeamformerError (a ValueError) when some UAV's precoder column is
    all zeros, the all-zero raw vector included."""
    raw = np.ascontiguousarray(raw, dtype=float)
    if raw.size != 2 * n_bs * n_uav:
        raise ValueError(f"raw length {raw.size} != 2*{n_bs}*{n_uav}")
    # consecutive (real, imag) pairs are the memory layout of complex128
    f = raw.reshape(-1).view(np.complex128).reshape(n_bs, n_uav)
    served = f.any(axis=0).tolist()
    if not all(served):
        uavs = ", ".join(str(u) for u, s in enumerate(served) if not s)
        raise ZeroBeamformerError(f"all-zero precoder column for UAV {uavs}")
    return BeamformingMatrix(math.sqrt(p_max / _power(f)) * f, p_max)


def quantize_one_bit(phases: PhaseConfig) -> PhaseConfig:
    """Snap each phase to whichever of {0, pi} is angularly closer;
    ties (pi/2, 3*pi/2) snap to 0."""
    return PhaseConfig(_ONE_BIT_LEVELS.take(_ONE_BIT_EDGES.searchsorted(phases.theta)))


def random_search_step(
    rng: np.random.Generator,
    channels: ChannelSet,
    p_max: float,
    noise_power: float,
    one_bit: bool = False,
) -> tuple[PhaseConfig, BeamformingMatrix, SinrReport]:
    """One constraint-satisfying random draw of phases and precoder."""
    phases = PhaseConfig(theta=rng.uniform(0.0, 2 * np.pi, channels.n_elements))
    if one_bit:
        phases = quantize_one_bit(phases)
    raw = rng.standard_normal(2 * channels.n_bs_antennas * channels.n_uav)
    f_hat = normalize_beamformer(raw, channels.n_bs_antennas, channels.n_uav, p_max)
    report = sinr_report(cascaded_channel(channels, phases) @ f_hat.f_hat, noise_power)
    return phases, f_hat, report
