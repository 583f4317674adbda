"""The one training loop of all four algorithms: DDPG over the downlink
environment for IC, ORESOU and JOINT_DRL, and the random-search baseline
as JOINT_DRL's action layout under a random policy with no learner.
"""

from __future__ import annotations

import ctypes
import functools
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .agent import DdpgAgent, DdpgHyperparams
from .channel import PhaseConfig
from .env import DownlinkEnv, Objective, Variant
from .scene import SystemConfig
from .solvers import BeamformingMatrix

__all__ = [
    "TrainingTrace",
    "run_training",
    "run_random_search",
    "RANDOM_SEARCH",
    "STEPS_PER_EPISODE",
]

RANDOM_SEARCH = "RANDOM"
# steps between channel redraws
STEPS_PER_EPISODE = 200
# OpenBLAS's (get, set) thread-count functions: scipy-openblas wheels add the
# "scipy_" prefix, 64-bit-integer builds the "64_" suffix
_BLAS_THREAD_API = [
    (f"{prefix}openblas_get_num_threads{suffix}", f"{prefix}openblas_set_num_threads{suffix}")
    for prefix in ("scipy_", "")
    for suffix in ("64_", "")
]


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
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        out = np.empty_like(self.per_uav_sinr_db)
        for t in range(self.n_steps):
            lo = max(0, t + 1 - window)
            chunk = self.per_uav_sinr_db[lo : t + 1]
            with np.errstate(invalid="ignore"):
                out[t] = np.nanmean(chunk, axis=0)
        return out


@functools.cache
def _blas_thread_api():
    """The (get, set) thread-count functions of the BLAS numpy loaded, or
    None.  Looks in the libraries numpy's wheel ships, then in the
    libraries this process has mapped (Linux)."""
    numpy_dir = Path(np.__file__).parent
    libs = [*numpy_dir.parent.glob("numpy.libs/*blas*"), *numpy_dir.glob(".dylibs/*blas*")]
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        maps = []
    libs += sorted({f[5] for f in map(str.split, maps) if len(f) == 6 and "blas" in f[5]})
    for path in libs:
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for get_name, set_name in _BLAS_THREAD_API:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextmanager
def _one_blas_thread():
    """Run the block with numpy's BLAS on one thread, then restore the
    caller's thread count (why: see ``run_training``)."""
    api = _blas_thread_api()
    if api is None:
        warnings.warn(
            "found no thread-count API in numpy's BLAS; training results may "
            "depend on the BLAS thread count",
            RuntimeWarning,
            stacklevel=4,
        )
        yield
        return
    get, set_ = api
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


@_one_blas_thread()
def run_training(
    config: SystemConfig,
    variant: Variant | str,
    total_steps: int,
    seed: int = 0,
    objective: Objective | str = Objective.MAX_MIN_SINR,
    one_bit: bool = False,
    hyper: DdpgHyperparams = DdpgHyperparams(),
) -> TrainingTrace:
    """Run ``total_steps`` steps of a ``Variant`` or ``RANDOM_SEARCH`` and
    return its trace.

    Every ``STEPS_PER_EPISODE`` steps the channels are redrawn; each step
    selects an action, decodes and evaluates it and records the outcome.
    A DDPG variant acts at random during the warmup and by its noisy
    policy afterwards, stores each transition and performs one critic +
    actor update once the warmup is over and the buffer holds a batch.
    Its ring holds max(batch_size, min(buffer_capacity, total_steps))
    transitions and runs as a ``buffer_capacity`` ring would.  The random
    search draws uniform phases and a Gaussian precoder for the JOINT_DRL
    decoder, and ignores ``objective`` and ``hyper``: it has no learner
    and keeps the best min-SINR draw.

    The run holds numpy's BLAS to one thread and afterwards restores the
    caller's setting, also when it raises: a multithreaded BLAS blocks a
    product's inner dimension differently (ORESOU's 465-column critic input
    does on a 2-core AVX-512 host), and one ulp in the first update moves
    every later step.  So a trace depends only on its arguments, whatever
    the host's ``OMP_NUM_THREADS`` or ``OPENBLAS_NUM_THREADS``.  Where
    numpy's BLAS has no OpenBLAS thread-count API, the run warns
    (``RuntimeWarning``) and goes on with the caller's threads.  The
    thread count is process-wide: run concurrent runs in separate
    processes, not threads.

    Raises ``ValueError`` for ``total_steps < 1``, and
    ``FloatingPointError``, naming the variant, seed and step, as soon as
    an update returns a non-finite critic loss or mean Q.
    """
    if total_steps < 1:
        raise ValueError(f"total_steps must be >= 1, got {total_steps}")
    learner = variant != RANDOM_SEARCH
    variant = Variant(variant) if learner else Variant.JOINT
    objective = Objective(objective) if learner else Objective.MAX_MIN_SINR
    env = DownlinkEnv(config, variant, objective=objective, one_bit=one_bit)
    rng = np.random.default_rng(seed)
    if learner:
        # a run never holds more transitions than it takes steps, so a larger
        # ring would never wrap either: the run is the same, in less memory
        capacity = max(hyper.batch_size, min(hyper.buffer_capacity, total_steps))
        hyper = replace(hyper, buffer_capacity=capacity)
        agent = DdpgAgent.create(env.state_dim, env.action_dim, hyper, rng)
        noise_std = hyper.noise_std

    min_sinr_db = np.full(total_steps, np.nan)
    # linear per-UAV SINRs; converted to dB once, after the loop
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
            per_uav[t] = rep.per_uav_sinr
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
        per_uav_sinr_db=10.0 * np.log10(per_uav),
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
