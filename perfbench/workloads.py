"""The three workloads.  Each is a closed loop with one caller: a round
runs its cells one after another through the program's public entry
points (``run_algorithm``, ``run_pmax_sweep``), and every iteration waits
for the one before it.  It is batch compute, so no arrival rate applies.

A run is a warm-up round followed by timed rounds.  The number of rounds
comes from ``--seconds`` and a nominal round time measured on the
reference machine (2 cores, one BLAS thread), never from the clock, so a
seed and a run length fix the inputs, the work and every output.
"""

from __future__ import annotations

import dataclasses
import gc
import importlib
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from checks import check_sweep_csv

TRAINED_STEPS = 300  # train_ddpg: updates per cell after the 1000-step warmup
TRAIN_ITERATIONS = 1000 + TRAINED_STEPS
ROLLOUT_ITERATIONS = 2000
P_MAX_DBM = 45.0
DDPG_VARIANTS = ("IC", "ORESOU", "JOINT_DRL")
SMOKE_SPEC = Path("configs") / "smoke.yaml"


def _uavris(module: str = ""):
    return importlib.import_module("uavris" + (f".{module}" if module else ""))


def _take_uavris() -> dict:
    """Remove the package's modules from ``sys.modules`` and return them."""
    names = [m for m in sys.modules if m == "uavris" or m.startswith("uavris.")]
    return {name: sys.modules.pop(name) for name in names}


def _call(fn, *args, **kwargs) -> tuple[float, list[str]]:
    """Seconds one public call takes, and no call-level problems.  An
    exception is not raised here: the probe's cell holds it, and the
    output checks count it."""
    start = time.perf_counter()
    try:
        fn(*args, **kwargs)
    except Exception:
        pass
    return time.perf_counter() - start, []


def _cell_seed(seed: int, round_index: int, cell_index: int) -> int:
    return seed * 1000 + round_index * 10 + cell_index


class Workload:
    name = ""
    round_seconds = 1.0  # nominal, on the reference machine

    def __init__(self, root: Path, out_dir: Path):
        self.root = root
        self.out_dir = out_dir

    def rounds(self, seconds: float) -> int:
        return max(1, int(seconds / self.round_seconds))

    def setup(self) -> float:
        """Seconds for a fresh import of the package, the config and
        geometry, and the first env and agent construction.  Modules
        imported before stay in use afterwards, hooks and all."""
        previous = _take_uavris()
        gc.collect()  # free the cycles of a discarded import before timing
        start = time.perf_counter()
        _uavris()
        config, variant, hyper = self._first_cell()
        env = _uavris("env").DownlinkEnv(config, variant)
        agent_cls = _uavris("agent").DdpgAgent
        agent_cls.create(env.state_dim, env.action_dim, hyper, np.random.default_rng(0))
        elapsed = time.perf_counter() - start
        if previous:
            _take_uavris()
            sys.modules.update(previous)
        return elapsed

    def _first_cell(self):
        raise NotImplementedError

    def run_round(self, probe, seed: int, round_index: int, warm_up: bool = False):
        """Run one round, yielding after each public call its wall time and
        the problems the call-level checks found, so that the caller can
        check and drop the call's cells before the next call."""
        raise NotImplementedError

    @staticmethod
    def kind(cell) -> tuple:
        """Cells of one kind share a latency pool."""
        return (str(cell.algorithm), cell.one_bit, cell.config.p_max)

    def _config(self):
        metrics = _uavris("metrics")
        return _uavris("scene").default_config(p_max=metrics.dbm_to_watts(P_MAX_DBM))


class TrainDdpg(Workload):
    name = "train_ddpg"
    round_seconds = 4.5

    def _first_cell(self):
        return self._config(), DDPG_VARIANTS[0], _uavris("agent").DdpgHyperparams()

    def run_round(self, probe, seed, round_index, warm_up=False):
        experiments = _uavris("experiments")
        config = self._config()
        iterations = 1050 if warm_up else TRAIN_ITERATIONS  # warm-up: 50 updates
        for i, variant in enumerate(DDPG_VARIANTS):
            yield _call(experiments.run_algorithm, variant, config, iterations,
                        _cell_seed(seed, round_index, i))


class Rollout(Workload):
    name = "rollout"
    round_seconds = 2.2

    def _first_cell(self):
        hyper = _uavris("agent").DdpgHyperparams(warmup_steps=ROLLOUT_ITERATIONS)
        return self._config(), DDPG_VARIANTS[0], hyper

    def run_round(self, probe, seed, round_index, warm_up=False):
        experiments = _uavris("experiments")
        config = self._config()
        iterations = 200 if warm_up else ROLLOUT_ITERATIONS
        hyper = _uavris("agent").DdpgHyperparams(warmup_steps=iterations)
        for i, (one_bit, algorithm) in enumerate(
            (b, a) for b in (False, True) for a in DDPG_VARIANTS + ("RANDOM",)
        ):
            yield _call(experiments.run_algorithm, algorithm, config, iterations,
                        _cell_seed(seed, round_index, i), one_bit=one_bit, hyper=hyper)


class SmokeStudy(Workload):
    name = "smoke_study"
    round_seconds = 1.1

    def _spec(self):
        return _uavris("experiments").load_spec(self.root / SMOKE_SPEC)

    def _first_cell(self):
        spec = self._spec()
        config = spec.scenario.with_p_max(_uavris("metrics").dbm_to_watts(spec.p_max_grid_dbm[0]))
        return config, spec.algorithms[0], spec.ddpg

    def run_round(self, probe, seed, round_index, warm_up=False):
        experiments = _uavris("experiments")
        first = len(probe.cells)
        with tempfile.TemporaryDirectory(dir=self.out_dir) as tmp:
            spec = dataclasses.replace(
                self._spec(), seeds=(_cell_seed(seed, round_index, 0),), output_dir=tmp
            )
            start = time.perf_counter()
            try:
                csv_path = experiments.run_pmax_sweep(spec)
            except Exception as exc:
                yield time.perf_counter() - start, [f"run_pmax_sweep raised {exc!r}"]
                return
            wall = time.perf_counter() - start
            yield wall, check_sweep_csv(csv_path, spec, probe.cells[first:])


WORKLOADS = {w.name: w for w in (TrainDdpg, Rollout, SmokeStudy)}
