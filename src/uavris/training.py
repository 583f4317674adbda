"""The one training loop of all four algorithms: DDPG over the downlink
environment for IC, ORESOU and JOINT_DRL, and the random-search baseline
as JOINT_DRL's action layout under a random policy with no learner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .agent import DdpgAgent, DdpgHyperparams
from .channel import PhaseConfig
from .env import DownlinkEnv, Objective, Variant
from .scene import SystemConfig
from .solvers import BeamformingMatrix

__all__ = [
    "TrainingTrace",
    "default_hyperparams",
    "run_training",
    "run_random_search",
    "RANDOM_SEARCH",
    "STEPS_PER_EPISODE",
]

RANDOM_SEARCH = "RANDOM"
# steps between channel redraws
STEPS_PER_EPISODE = 200


def default_hyperparams(variant: Variant | str) -> DdpgHyperparams:
    """Per-variant tuned hyperparameters.

    IC and ORESOU work well with the textbook settings.  The joint
    variant needs the bandit-style ones: channels are redrawn each
    episode and an action does not alter the future channel state, so
    the return is effectively single-step (discount 0), and a small
    recency-biased replay buffer keeps the critic adapted to the
    current channel realization instead of an average over stale ones.
    """
    if Variant(variant) is Variant.JOINT:
        return DdpgHyperparams(
            actor_lr=3e-4, discount=0.0, buffer_capacity=2000, noise_decay=0.9999
        )
    return DdpgHyperparams()


@dataclass
class TrainingTrace:
    """Per-step record of one optimization run.

    Infeasible steps carry nan SINRs; best_* fields track the running
    best over feasible steps only.
    """

    algorithm: str
    seed: int
    objective: str
    one_bit: bool
    p_max: float
    min_sinr_db: np.ndarray  # (steps,)
    per_uav_sinr_db: np.ndarray  # (steps, N_U)
    sum_rate: np.ndarray  # (steps,)
    feasible: np.ndarray  # (steps,) bool
    best_min_sinr_db: np.ndarray = field(init=False)  # running max
    best_step: int = -1
    best_phases: PhaseConfig | None = None
    best_f_hat: BeamformingMatrix | None = None

    def __post_init__(self):
        filled = np.where(self.feasible, self.min_sinr_db, -np.inf)
        self.best_min_sinr_db = np.maximum.accumulate(filled)

    @property
    def n_steps(self) -> int:
        return self.min_sinr_db.shape[0]

    @property
    def final_best_min_sinr_db(self) -> float:
        return float(self.best_min_sinr_db[-1])

    def rolling_mean_sinr_db(self, window: int) -> np.ndarray:
        """Rolling average of per-UAV SINRs: at step t the mean of the
        last min(t+1, window) instants.  Infeasible steps enter as nan
        and are skipped."""
        out = np.empty_like(self.per_uav_sinr_db)
        for t in range(self.n_steps):
            lo = max(0, t + 1 - window)
            chunk = self.per_uav_sinr_db[lo : t + 1]
            with np.errstate(invalid="ignore"):
                out[t] = np.nanmean(chunk, axis=0)
        return out


def run_training(
    config: SystemConfig,
    variant: Variant | str,
    total_steps: int,
    seed: int = 0,
    objective: Objective | str = Objective.MAX_MIN_SINR,
    one_bit: bool = False,
    hyper: DdpgHyperparams | None = None,
) -> TrainingTrace:
    """Run ``total_steps`` steps of a ``Variant`` or ``RANDOM_SEARCH`` and
    return its trace.

    Every ``STEPS_PER_EPISODE`` steps the channels are redrawn; each step
    selects an action, decodes and evaluates it and records the outcome.
    A DDPG variant acts at random during the warmup and by its noisy
    policy afterwards, stores each transition and performs one critic +
    actor update once the warmup is over.  ``hyper=None`` selects the
    per-variant defaults from ``default_hyperparams``.  The random search
    draws uniform phases and a Gaussian precoder for the JOINT_DRL
    decoder, and ignores ``objective`` and ``hyper``: it has no learner
    and keeps the best min-SINR draw.

    Raises ``FloatingPointError``, naming the variant, seed and step, as
    soon as an update returns a non-finite critic loss or mean Q.
    """
    learner = variant != RANDOM_SEARCH
    variant = Variant(variant) if learner else Variant.JOINT
    objective = Objective(objective) if learner else Objective.MAX_MIN_SINR
    env = DownlinkEnv(config, variant, objective=objective, one_bit=one_bit)
    rng = np.random.default_rng(seed)
    if learner:
        if hyper is None:
            hyper = default_hyperparams(variant)
        # a run never holds more transitions than it takes steps, so a larger
        # ring would never wrap either: the run is the same, in less memory
        capacity = max(1, min(hyper.buffer_capacity, total_steps))
        hyper = replace(hyper, buffer_capacity=capacity)
        agent = DdpgAgent.create(env.state_dim, env.action_dim, hyper, rng)
        noise_std = hyper.noise_std

    min_sinr_db = np.full(total_steps, np.nan)
    per_uav = np.full((total_steps, config.n_uav), np.nan)
    sum_rate = np.zeros(total_steps)
    feasible = np.zeros(total_steps, dtype=bool)
    best_val = -np.inf
    best = (None, None, -1)

    for t in range(total_steps):
        if t % STEPS_PER_EPISODE == 0:
            state = env.reset(rng)
        if not learner:
            action = np.concatenate([
                rng.uniform(-1.0, 1.0, config.n_ris_elements),
                rng.standard_normal(2 * config.n_bs_antennas * config.n_uav),
            ])
        elif t < hyper.warmup_steps:
            action = rng.uniform(-1.0, 1.0, env.action_dim)
        else:
            action = agent.select_action(state, noise_std, rng)
            noise_std *= hyper.noise_decay
        next_state, outcome = env.step(action)

        feasible[t] = outcome.feasible
        if outcome.feasible:
            rep = outcome.report
            min_sinr_db[t] = rep.min_sinr_db
            per_uav[t] = rep.per_uav_sinr_db
            sum_rate[t] = rep.sum_rate
            if rep.min_sinr_db > best_val:
                best_val = rep.min_sinr_db
                best = (outcome.phases, outcome.f_hat, t)

        if learner:
            agent.buffer.push(state, action, outcome.reward, next_state)
            if t >= hyper.warmup_steps and agent.buffer.size >= hyper.batch_size:
                loss, mean_q = agent.train_step(rng)
                if not (math.isfinite(loss) and math.isfinite(mean_q)):
                    raise FloatingPointError(
                        f"{variant.value} seed {seed} diverged at step {t}: "
                        f"critic loss {loss}, mean Q {mean_q}"
                    )
        state = next_state

    trace = TrainingTrace(
        algorithm=variant.value if learner else RANDOM_SEARCH,
        seed=seed,
        objective=objective.value,
        one_bit=one_bit,
        p_max=config.p_max,
        min_sinr_db=min_sinr_db,
        per_uav_sinr_db=per_uav,
        sum_rate=sum_rate,
        feasible=feasible,
    )
    trace.best_phases, trace.best_f_hat, trace.best_step = best
    return trace


def run_random_search(
    config: SystemConfig,
    iterations: int = 10_000,
    seed: int = 0,
    one_bit: bool = False,
) -> TrainingTrace:
    """Random-search baseline: ``run_training`` of ``RANDOM_SEARCH``."""
    return run_training(config, RANDOM_SEARCH, iterations, seed, one_bit=one_bit)
