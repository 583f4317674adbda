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


class DownlinkEnv:
    """One (config, variant, objective) environment instance.

    Channels are redrawn on reset and held fixed until the next one.
    The state is the pathloss-normalized channel entries (real and
    imaginary parts) plus the previous step's reward-scaled min-SINR, 0
    after a reset.  The channel entries are
    computed once per channel realization, whenever ``channels`` is
    assigned (``reset`` does so); arrays of a ``ChannelSet`` changed in
    place are not seen by the state.
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
        beam = 2 * config.n_bs_antennas * config.n_uav
        self.state_dim = 2 * config.n_uav * ne + 2 * ne * config.n_bs_antennas + 1
        if self.variant is Variant.IC:
            self.action_dim = ne
        elif self.variant is Variant.ORESOU:
            self.action_dim = ne * config.n_uav + beam
        else:
            self.action_dim = ne + beam
        self.geometry = build_geometry(config)
        self.channels = None
        self._prev_min_sinr_feature = 0.0

    @property
    def channels(self) -> ChannelSet | None:
        return self._channels

    @channels.setter
    def channels(self, channels: ChannelSet | None) -> None:
        self._channels = channels
        self._features = None if channels is None else self._channel_features(channels)

    def _channel_features(self, ch: ChannelSet) -> np.ndarray:
        """The state with its last entry, the min-SINR feature, left at 0."""
        n = self.config.elements_per_ris
        # divide each link block by its pathloss amplitude -> O(1) features
        g_norm = ch.g_stacked / np.repeat(ch.pathloss_bs_ris, n)[:, np.newaxis]
        h_norm = ch.h_stacked / np.repeat(ch.pathloss_ris_uav.T, n, axis=1)
        return np.concatenate(
            [
                h_norm.real.ravel(),
                h_norm.imag.ravel(),
                g_norm.real.ravel(),
                g_norm.imag.ravel(),
                [0.0],
            ]
        )

    def _state(self) -> np.ndarray:
        state = self._features.copy()
        state[-1] = self._prev_min_sinr_feature
        return state

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        self.channels = assemble_channels(self.config, self.geometry, rng)
        self._prev_min_sinr_feature = 0.0
        return self._state()

    def _checked_action(self, action: np.ndarray) -> np.ndarray:
        action = np.asarray(action, dtype=float)
        if action.shape != (self.action_dim,):
            raise ValueError(f"action shape {action.shape} != ({self.action_dim},)")
        if not all_finite(action):
            raise ValueError("action contains non-finite entries")
        return action

    def decode(self, action: np.ndarray) -> tuple[PhaseConfig, BeamformingMatrix]:
        """Map a raw action in [-1, 1]^k onto the feasible set.

        Raises ValueError for an action of the wrong shape or with
        non-finite entries.  Raises RankDeficientError (IC) or
        ZeroBeamformerError (a raw precoder column of zeros) when the
        action has no feasible decoding.
        """
        phases, f_hat, _ = self._decode(self._checked_action(action))
        return phases, f_hat

    def _decode(self, action: np.ndarray) -> tuple[PhaseConfig, BeamformingMatrix, np.ndarray]:
        """``decode`` of a checked action, plus the cascade H Phi G of the
        decoded phases."""
        c = self.config
        ne = c.n_ris_elements
        if self.variant is Variant.ORESOU:
            split = ne * c.n_uav
            assoc = decode_association(action[:split], c.n_uav)
            f_hat = normalize_beamformer(action[split:], c.n_bs_antennas, c.n_uav, c.p_max)
            phases = oresou_phases(assoc, self.channels, f_hat)
            if self.one_bit:
                phases = quantize_one_bit(phases)
            return phases, f_hat, cascaded_channel(self.channels, phases)

        phases = PhaseConfig(theta=np.pi * (action[:ne] + 1.0))
        if self.one_bit:
            phases = quantize_one_bit(phases)
        if self.variant is Variant.IC:
            cascade = cascaded_channel(self.channels, phases)
            return phases, ic_beamforming(self.channels, phases, c.p_max, cascade=cascade), cascade
        f_hat = normalize_beamformer(action[ne:], c.n_bs_antennas, c.n_uav, c.p_max)
        return phases, f_hat, cascaded_channel(self.channels, phases)

    def step(self, action: np.ndarray) -> tuple[np.ndarray, StepOutcome]:
        """Decode, evaluate SINRs, compute the reward, advance the state.

        An action without a feasible decoding is a penalized step; an
        action of the wrong shape or with non-finite entries raises
        ValueError.
        """
        action = self._checked_action(action)
        try:
            phases, f_hat, cascade = self._decode(action)
        except (RankDeficientError, ZeroBeamformerError):
            self._prev_min_sinr_feature = PENALTY_DB / REWARD_SCALE
            outcome = StepOutcome(
                phases=None,
                f_hat=None,
                report=None,
                feasible=False,
                reward=PENALTY_DB / REWARD_SCALE,
            )
            return self._state(), outcome

        report = sinr_report(cascade @ f_hat.f_hat, self.config.noise_power)
        low, high = MIN_SINR_CLIP_DB
        clipped_db = min(max(report.min_sinr_db, low), high)
        if self.objective is Objective.MAX_MIN_SINR:
            reward = clipped_db / REWARD_SCALE
        else:
            reward = report.sum_rate / REWARD_SCALE
        self._prev_min_sinr_feature = clipped_db / REWARD_SCALE
        outcome = StepOutcome(
            phases=phases, f_hat=f_hat, report=report, feasible=True, reward=reward
        )
        return self._state(), outcome
