#!/usr/bin/env python3
"""In-process A/B of the DDPG update of two checkouts of this repository.

    scripts/ab_update.py PARENT_DIR CHANGE_DIR [--reps R] [--updates U]
        [--json PATH] [--require-identical]

Both checkouts' ``uavris`` packages are loaded into this one process, each
from its own ``src/``, by swapping them in and out of ``sys.modules``.
BLAS runs on one thread.  For each case below, one training run of the
change's package records every transition and the agent it ends with.
Each side then gets an agent of its own with the same networks, the same
optimizer state and the same transitions pushed into its replay buffer:

* ``train_ddpg/<variant>``: the default scene at 45 dBm with the default
  hyperparameters, 1,150 steps into the benchmark's 1,300-step cell
  (1,000 warmup steps, then 150 updates), for IC, ORESOU and JOINT_DRL;
* ``smoke/IC``: ``configs/smoke.yaml``'s IC cell at 45 dBm (32-wide
  nets, batch 32), 300 steps into its 500.

After one untimed run per side, timed runs of ``U`` calls of
``DdpgAgent.train_step`` alternate between the sides, ``R`` per side,
each on a fresh copy of its side's agent and with the same generator
seed, so both sides sample the same batches.
Per case the script prints each side's minimum and median microseconds
per update and the change's ratio to the parent, then the largest
absolute difference between the two sides' parameters after one update
from the same state.  ``--json`` also writes these numbers to a file.
With ``--require-identical`` it exits 1 when that difference is not 0
in every case: run a checkout against itself this way to check that the
script still runs.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import copy
import importlib
import json
import sys
import time
from pathlib import Path

import numpy as np

SEED = 5  # of the recorded training run; timed run r draws from seed r
P_MAX_DBM = 45.0
TRAIN_DDPG_STEPS = 1150
SMOKE_STEPS = 300


def _take_uavris() -> dict:
    """Remove the package's modules from ``sys.modules`` and return them."""
    names = [m for m in sys.modules if m == "uavris" or m.startswith("uavris.")]
    return {name: sys.modules.pop(name) for name in names}


class Checkout:
    """One checkout's ``uavris``, imported from ``root/src`` and kept out
    of ``sys.modules`` except inside ``with checkout:``."""

    def __init__(self, root: Path):
        self.root = root
        sys.path.insert(0, str(root / "src"))
        try:
            for name in ("agent", "experiments", "metrics", "scene", "training"):
                setattr(self, name, importlib.import_module(f"uavris.{name}"))
        finally:
            sys.path.pop(0)
        self._modules = _take_uavris()

    def __enter__(self):
        sys.modules.update(self._modules)
        return self

    def __exit__(self, *exc):
        _take_uavris()


def record_run(pkg: Checkout, config, variant: str, steps: int, hyper):
    """The agent ``run_training`` ends with after ``steps`` steps, and
    every transition it pushed."""
    agent_cls, buffer_cls = pkg.agent.DdpgAgent, pkg.agent.ReplayBuffer
    create, push = agent_cls.create, buffer_cls.push
    agents, transitions = [], []

    def recording_create(*args, **kwargs):
        agents.append(create(*args, **kwargs))
        return agents[-1]

    def recording_push(self, *transition):
        transitions.append(copy.deepcopy(transition))
        push(self, *transition)

    agent_cls.create, buffer_cls.push = recording_create, recording_push
    try:
        pkg.training.run_training(config, variant, steps, seed=SEED, hyper=hyper)
    finally:
        agent_cls.create, buffer_cls.push = create, push
    return agents[0], transitions


def rebuild(pkg: Checkout, recorded, transitions, hyper):
    """An agent of ``pkg`` holding the state of ``recorded``."""
    agent = pkg.agent.DdpgAgent.create(
        recorded.actor.layer_dims[0], recorded.actor.layer_dims[-1], hyper,
        np.random.default_rng(0),
    )
    for name in ("actor", "critic"):
        getattr(agent, name).flat[:] = getattr(recorded, name).flat
    for name in ("actor_opt", "critic_opt"):
        vars(getattr(agent, name)).update(copy.deepcopy(vars(getattr(recorded, name))))
    for transition in transitions:
        agent.buffer.push(*transition)
    return agent


def time_updates(agent, updates: int, seed: int) -> float:
    """Microseconds per ``train_step`` over ``updates`` calls on a copy."""
    agent = copy.deepcopy(agent)
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    for _ in range(updates):
        agent.train_step(rng)
    return (time.perf_counter() - start) / updates * 1e6


def one_update_difference(parent_agent, change_agent, seed: int) -> float:
    diffs = []
    agents = [copy.deepcopy(a) for a in (parent_agent, change_agent)]
    for agent in agents:
        agent.train_step(np.random.default_rng(seed))
    for name in ("actor", "critic"):
        p, c = (getattr(a, name).flat.astype(np.float64) for a in agents)
        diffs.append(float(np.max(np.abs(p - c))))
    return max(diffs)


def cases(pkg: Checkout):
    metrics, agent_mod = pkg.metrics, pkg.agent
    config = pkg.scene.default_config(p_max=metrics.dbm_to_watts(P_MAX_DBM))
    hyper = agent_mod.DdpgHyperparams()
    for variant in ("IC", "ORESOU", "JOINT_DRL"):
        yield f"train_ddpg/{variant}", config, variant, TRAIN_DDPG_STEPS, hyper
    spec = pkg.experiments.load_spec(pkg.root / "configs" / "smoke.yaml")
    yield ("smoke/IC", spec.scenario.with_p_max(metrics.dbm_to_watts(P_MAX_DBM)), "IC",
           SMOKE_STEPS, spec.ddpg)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--reps", type=int, default=9, help="timed runs per side and case")
    parser.add_argument("--updates", type=int, default=40, help="train_step calls per run")
    parser.add_argument("--json", type=Path, help="also write the results here")
    parser.add_argument("--require-identical", action="store_true",
                        help="exit 1 unless one update leaves identical parameters")
    args = parser.parse_args(argv)
    sides = {"parent": Checkout(args.parent.resolve()),
             "change": Checkout(args.change.resolve())}

    results = {}
    print(f"{'case':18s} {'side':6s} {'min us':>9s} {'median us':>10s}")
    with sides["change"] as change:
        all_cases = list(cases(change))
    for name, config, variant, steps, hyper in all_cases:
        with sides["change"] as change:
            recorded, transitions = record_run(change, config, variant, steps, hyper)
        agents = {}
        for side, pkg in sides.items():
            with pkg:
                agents[side] = rebuild(pkg, recorded, transitions, hyper)
        times = {side: [] for side in agents}
        for side in agents:  # untimed warm-up, so neither side runs cold
            with sides[side]:
                time_updates(agents[side], args.updates, 0)
        for rep in range(args.reps):
            order = ("parent", "change") if rep % 2 == 0 else ("change", "parent")
            for side in order:
                with sides[side]:
                    times[side].append(time_updates(agents[side], args.updates, rep))
        result = {side: {"min_us": min(t), "median_us": float(np.median(t))}
                  for side, t in times.items()}
        for key in ("min_us", "median_us"):
            result[f"{key}_ratio"] = result["change"][key] / result["parent"][key]
        result["max_param_diff"] = one_update_difference(
            agents["parent"], agents["change"], 0)
        results[name] = result
        for side in agents:
            print(f"{name:18s} {side:6s} {result[side]['min_us']:9.1f} "
                  f"{result[side]['median_us']:10.1f}")
        print(f"{name:18s} change/parent: min {result['min_us_ratio']:.3f}, median "
              f"{result['median_us_ratio']:.3f}; max |param diff| after one update "
              f"{result['max_param_diff']:.3g}")
    if args.json:
        args.json.write_text(json.dumps(
            {"reps": args.reps, "updates": args.updates, "cases": results}, indent=2) + "\n")
    if args.require_identical and any(r["max_param_diff"] != 0.0 for r in results.values()):
        print("ab_update: the two sides' parameters differ after one update", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
