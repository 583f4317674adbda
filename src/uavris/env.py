"""Training environment: wraps the scene/channel model as a step-based
environment whose actions are raw vectors in [-1, 1]^k, decoded per
solver variant into a feasible (phases, precoder) pair.

Variants and their action layouts (k values for the default scenario):
  IC      : k = N*N_R          raw -> theta = pi*(raw+1); precoder by IC
  ORESOU  : k = N*N_R*N_U + 2*N_B*N_U
                               association scores + raw precoder
  JOINT   : k = N*N_R + 2*N_B*N_U
                               theta directly + raw precoder
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import ChannelSet, PhaseConfig, assemble_channels, cascaded_channel
from .linalg import all_finite
from .metrics import SinrReport, sinr_report
from .scene import SystemConfig, build_geometry
from .solvers import (
    BeamformingMatrix,
    RankDeficientError,
    ZeroBeamformerError,
    decode_association,
    ic_beamforming,
    normalize_beamformer,
    oresou_phases,
    quantize_one_bit,
)

__all__ = ["Variant", "Objective", "StepOutcome", "DownlinkEnv", "REWARD_SCALE", "PENALTY_DB"]

REWARD_SCALE = 10.0  # dB (and rate) divided by this before storage
PENALTY_DB = -40.0  # reward for infeasible actions (rank-deficient IC, a zero precoder column)
MIN_SINR_CLIP_DB = (-40.0, 60.0)


class Variant(str, Enum):
    IC = "IC"
    ORESOU = "ORESOU"
    JOINT = "JOINT_DRL"


class Objective(str, Enum):
    MAX_MIN_SINR = "max_min_sinr"
    MAX_SUM_RATE = "max_sum_rate"


@dataclass(frozen=True)
class StepOutcome:
    phases: PhaseConfig | None
    f_hat: BeamformingMatrix | None
    report: SinrReport | None
    feasible: bool
    reward: float


# frozen and the same for every infeasible step, so all of them share it
_INFEASIBLE = StepOutcome(
    phases=None, f_hat=None, report=None, feasible=False, reward=PENALTY_DB / REWARD_SCALE
)


class DownlinkEnv:
    """One (config, variant, objective) environment instance.

    Channels are redrawn on reset and held fixed until the next one.
    The state is one vector: the pathloss-normalized channel entries
    (real and imaginary parts), built whenever ``channels`` is assigned
    (``reset`` does so), then the previous step's reward-scaled min-SINR,
    0 after a reset, which each step overwrites.  Arrays of a
    ``ChannelSet`` changed in place are not seen by the state.
    """

    def __init__(
        self,
        config: SystemConfig,
        variant: Variant,
        objective: Objective = Objective.MAX_MIN_SINR,
        one_bit: bool = False,
    ):
        self.config = config
        self.variant = Variant(variant)
        self.objective = Objective(objective)
        self.one_bit = one_bit
        ne = config.n_ris_elements
        self.state_dim = 2 * config.n_uav * ne + 2 * ne * config.n_bs_antennas + 1
        # the action is the phase source (raw phases, or ORESOU's association
        # scores) up to _split, then the raw precoder, which IC does not have
        self._split = ne * config.n_uav if self.variant is Variant.ORESOU else ne
        beam = 0 if self.variant is Variant.IC else 2 * config.n_bs_antennas * config.n_uav
        self.action_dim = self._split + beam
        self.geometry = build_geometry(config)
        self.channels = None

    @property
    def channels(self) -> ChannelSet | None:
        return self._channels

    @channels.setter
    def channels(self, ch: ChannelSet | None) -> None:
        self._channels = ch
        self._state_vector = None
        if ch is not None:
            n = self.config.elements_per_ris
            # divide each link block by its pathloss amplitude -> O(1) features
            g_norm = ch.g_stacked / np.repeat(ch.pathloss_bs_ris, n)[:, np.newaxis]
            h_norm = ch.h_stacked / np.repeat(ch.pathloss_ris_uav.T, n, axis=1)
            self._state_vector = np.concatenate(
                [
                    h_norm.real.ravel(),
                    h_norm.imag.ravel(),
                    g_norm.real.ravel(),
                    g_norm.imag.ravel(),
                    [0.0],
                ]
            )

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        self.channels = assemble_channels(self.config, self.geometry, rng)
        return self._state_vector.copy()

    def _decode(self, action: np.ndarray) -> tuple[PhaseConfig, BeamformingMatrix, np.ndarray]:
        """Map a raw action in [-1, 1]^k onto the feasible set: the phases,
        the precoder and the cascade H Phi G of the phases.

        Raises RankDeficientError (IC) or ZeroBeamformerError (a raw
        precoder column of zeros) when the action has no feasible decoding.
        """
        c = self.config
        head, tail = action[: self._split], action[self._split :]
        if self.variant is Variant.ORESOU:
            assoc = decode_association(head, c.n_uav)
            f_hat = normalize_beamformer(tail, c.n_bs_antennas, c.n_uav, c.p_max)
            phases = oresou_phases(assoc, self.channels, f_hat)
        else:
            phases = PhaseConfig(theta=np.pi * (head + 1.0))
        if self.one_bit:
            phases = quantize_one_bit(phases)
        cascade = cascaded_channel(self.channels, phases)
        if self.variant is Variant.IC:
            f_hat = ic_beamforming(self.channels, phases, c.p_max, cascade=cascade)
        elif self.variant is Variant.JOINT:
            f_hat = normalize_beamformer(tail, c.n_bs_antennas, c.n_uav, c.p_max)
        return phases, f_hat, cascade

    def step(self, action: np.ndarray) -> tuple[np.ndarray, StepOutcome]:
        """Decode, evaluate SINRs, compute the reward, advance the state.

        An action without a feasible decoding is a penalized step; an
        action of the wrong shape or with non-finite entries raises
        ValueError.
        """
        action = np.asarray(action, dtype=float)
        if action.shape != (self.action_dim,):
            raise ValueError(f"action shape {action.shape} != ({self.action_dim},)")
        if not all_finite(action):
            raise ValueError("action contains non-finite entries")
        try:
            phases, f_hat, cascade = self._decode(action)
        except (RankDeficientError, ZeroBeamformerError):
            self._state_vector[-1] = _INFEASIBLE.reward
            return self._state_vector.copy(), _INFEASIBLE

        report = sinr_report(cascade @ f_hat.f_hat, self.config.noise_power)
        low, high = MIN_SINR_CLIP_DB
        clipped_db = min(max(report.min_sinr_db, low), high)
        if self.objective is Objective.MAX_MIN_SINR:
            reward = clipped_db / REWARD_SCALE
        else:
            reward = report.sum_rate / REWARD_SCALE
        self._state_vector[-1] = clipped_db / REWARD_SCALE
        outcome = StepOutcome(
            phases=phases, f_hat=f_hat, report=report, feasible=True, reward=reward
        )
        return self._state_vector.copy(), outcome
