#!/usr/bin/env python3
"""In-process A/B of the DDPG update, and of each layer it calls, of two
checkouts of this repository.

    scripts/ab_update.py PARENT_DIR CHANGE_DIR [--reps R] [--updates U]
        [--json PATH] [--require-identical]

Both checkouts' ``uavris`` packages are loaded into this one process, each
from its own ``src/``, by swapping them in and out of ``sys.modules``.
BLAS runs on one thread.  For each case below, one training run of the
change's package records every transition and the agent it ends with.
Each side then builds agents of its own, through its own constructors,
with the same networks, the same optimizer state and the same transitions
pushed into its replay buffer:

* ``train_ddpg/<variant>``: the default scene at 45 dBm with the default
  hyperparameters, 1,150 steps into the benchmark's 1,300-step cell
  (1,000 warmup steps, then 150 updates), for IC, ORESOU and JOINT_DRL;
* ``smoke/IC``: ``configs/smoke.yaml``'s IC cell at 45 dBm (32-wide
  nets, batch 32), 300 steps into its 500.

Each case times ``DdpgAgent.train_step``.  The IC cases also time each
layer the update calls, on one batch the rebuilt buffer samples:

* ``mlp_forward_cached``: the critic's forward pass on the batch;
* ``mlp_gradients/params``: the critic's parameter gradients into one
  buffer, from that pass and the critic step's upstream gradient;
* ``mlp_gradients/input``: the critic's action-column input gradient of
  the actor step, from the same pass;
* ``Adam.step``: the critic optimizer's step on the critic's parameters
  and that gradient;
* ``ReplayBuffer.sample``: a batch from the agent's buffer.

After one untimed run per side, timed runs of ``U`` calls alternate
between the sides, ``R`` per side, each on a freshly rebuilt agent and
with the same generator seed, so both sides sample the same batches.
Per case and layer the script prints each side's minimum and median
microseconds per call and the change's ratio to the parent.  Then it
prints the largest absolute difference between the two sides' parameters
and Adam moments after 17 updates from the same state (through Adam's
first subnormal flush, at step 16), and between each layer's outputs
after ``U`` calls.  ``--json`` also writes these numbers to a file.  With
``--require-identical`` it exits 1 when any difference is not 0: run a
checkout against itself this way to check that the script still runs.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import copy
import functools
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
COMPARED_UPDATES = 17  # Adam flushes subnormal first moments at step 16
LAYER_CASES = ("train_ddpg/IC", "smoke/IC")
LAYERS = ("mlp_forward_cached", "mlp_gradients/params", "mlp_gradients/input", "Adam.step",
          "ReplayBuffer.sample")


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
            for name in ("agent", "experiments", "metrics", "nets", "scene", "training"):
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
    """An agent of ``pkg`` holding the state of ``recorded``.  It is built
    through ``pkg``'s constructors, never copied, so its networks' layer
    views are those of its own parameter vectors on either side."""
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


def train_steps(agent, calls: int, seed: int):
    """``calls`` updates, and the arrays the comparison reads after them."""
    rng = np.random.default_rng(seed)
    for _ in range(calls):
        agent.train_step(rng)
    return [agent.actor.flat, agent.critic.flat] + [
        getattr(getattr(agent, opt), moment)
        for opt in ("actor_opt", "critic_opt") for moment in ("m", "v")
    ]


def layer_calls(pkg: Checkout, agent, seed: int) -> dict:
    """Layer name -> (call, outputs): ``call()`` does that layer's work of
    one update once, ``outputs()`` returns what its latest call gave."""
    nets, hyper = pkg.nets, agent.hyper
    rng = np.random.default_rng(seed)
    (contexts, index, lasts), actions, rewards = agent.buffer.sample(rng, hyper.batch_size)
    n = len(index)
    x = (contexts, index, np.concatenate([lasts[:, np.newaxis], actions], axis=1))
    q, cache = nets.mlp_forward_cached(agent.critic, x)
    upstream = (2.0 / n) * (q[:, 0] - rewards)[:, np.newaxis]
    mean_q_grad = np.full((n, 1), -1.0 / n, dtype=q.dtype)
    action_columns = slice(contexts.shape[1] + 1, None)
    grads = np.zeros_like(agent.critic.flat)
    nets.mlp_gradients(agent.critic, cache, upstream, out=grads, wrt="params")
    params, step_grads = agent.critic.flat.copy(), grads.copy()
    last = {}

    def forward():
        last["mlp_forward_cached"] = [nets.mlp_forward_cached(agent.critic, x)[0]]

    def param_gradients():
        nets.mlp_gradients(agent.critic, cache, upstream, out=grads, wrt="params")
        last["mlp_gradients/params"] = [grads]

    def input_gradient():
        last["mlp_gradients/input"] = [nets.mlp_gradients(
            agent.critic, cache, mean_q_grad, wrt="input", input_columns=action_columns)[2]]

    def adam_step():
        np.copyto(step_grads, grads)  # the step consumes its gradient
        agent.critic_opt.step(params, step_grads)
        last["Adam.step"] = [params, agent.critic_opt.m, agent.critic_opt.v]

    def sample():
        states, *rest = agent.buffer.sample(rng, hyper.batch_size)
        last["ReplayBuffer.sample"] = [*states, *rest]

    calls = (forward, param_gradients, input_gradient, adam_step, sample)
    return {name: (call, lambda name=name: last[name]) for name, call in zip(LAYERS, calls)}


def run_layer(pkg: Checkout, make_agent, calls: int, seed: int, layer: str):
    """Microseconds per call of ``layer`` over ``calls`` calls on a fresh
    agent, and the layer's outputs after them."""
    call, outputs = layer_calls(pkg, make_agent(), seed)[layer]
    start = time.perf_counter()
    for _ in range(calls):
        call()
    return (time.perf_counter() - start) / calls * 1e6, outputs()


def run_train_step(pkg: Checkout, make_agent, calls: int, seed: int):
    agent = make_agent()
    start = time.perf_counter()
    outputs = train_steps(agent, calls, seed)
    return (time.perf_counter() - start) / calls * 1e6, outputs


def max_difference(parent_arrays, change_arrays) -> float:
    diffs = [0.0]
    for p, c in zip(parent_arrays, change_arrays, strict=True):
        p, c = np.asarray(p, dtype=np.float64), np.asarray(c, dtype=np.float64)
        if p.shape != c.shape:
            return float("inf")
        if not np.array_equal(p, c, equal_nan=True):
            diffs.append(float(np.nanmax(np.abs(p - c))) or float("inf"))
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


def alternate(sides: dict, makers: dict, run, reps: int, calls: int) -> dict:
    """Min and median microseconds per call of ``run`` on each side, from
    ``reps`` timed runs per side that alternate which side goes first."""
    times = {side: [] for side in sides}
    for side, pkg in sides.items():  # untimed warm-up, so neither side runs cold
        with pkg:
            run(pkg, makers[side], calls, 0)
    for rep in range(reps):
        order = ("parent", "change") if rep % 2 == 0 else ("change", "parent")
        for side in order:
            with sides[side]:
                times[side].append(run(sides[side], makers[side], calls, rep)[0])
    result = {side: {"min_us": min(t), "median_us": float(np.median(t))}
              for side, t in times.items()}
    for key in ("min_us", "median_us"):
        result[f"{key}_ratio"] = result["change"][key] / result["parent"][key]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--reps", type=int, default=9, help="timed runs per side and case")
    parser.add_argument("--updates", type=int, default=40, help="calls per timed run")
    parser.add_argument("--json", type=Path, help="also write the results here")
    parser.add_argument("--require-identical", action="store_true",
                        help="exit 1 unless both sides give identical parameters and outputs")
    args = parser.parse_args(argv)
    sides = {"parent": Checkout(args.parent.resolve()),
             "change": Checkout(args.change.resolve())}

    results = {}
    print(f"{'case':18s} {'layer':22s} {'side':6s} {'min us':>9s} {'median us':>10s}")
    with sides["change"] as change:
        all_cases = list(cases(change))
    for name, config, variant, steps, hyper in all_cases:
        with sides["change"] as change:
            recorded, transitions = record_run(change, config, variant, steps, hyper)
        makers = {side: (lambda pkg=pkg: rebuild(pkg, recorded, transitions, hyper))
                  for side, pkg in sides.items()}
        layers = {"train_step": run_train_step}
        if name in LAYER_CASES:
            layers.update({layer: functools.partial(run_layer, layer=layer) for layer in LAYERS})
        result = results[name] = {}
        for layer, run in layers.items():
            timed = result[layer] = alternate(sides, makers, run, args.reps, args.updates)
            outputs = {}
            for side, pkg in sides.items():
                with pkg:
                    outputs[side] = run(pkg, makers[side], args.updates, 0)[1]
            timed["max_output_diff"] = max_difference(outputs["parent"], outputs["change"])
            for side in sides:
                print(f"{name:18s} {layer:22s} {side:6s} {timed[side]['min_us']:9.1f} "
                      f"{timed[side]['median_us']:10.1f}")
            print(f"{name:18s} {layer:22s} change/parent: min {timed['min_us_ratio']:.3f}, "
                  f"median {timed['median_us_ratio']:.3f}; max |output diff| "
                  f"{timed['max_output_diff']:.3g}")
        compared = {}
        for side, pkg in sides.items():
            with pkg:
                compared[side] = train_steps(makers[side](), COMPARED_UPDATES, 0)
        result["max_param_diff"] = max_difference(compared["parent"], compared["change"])
        print(f"{name:18s} max |param or moment diff| after {COMPARED_UPDATES} updates "
              f"{result['max_param_diff']:.3g}")
    if args.json:
        args.json.write_text(json.dumps(
            {"reps": args.reps, "updates": args.updates, "compared_updates": COMPARED_UPDATES,
             "cases": results}, indent=2) + "\n")
    differences = [r["max_param_diff"] for r in results.values()] + [
        layer["max_output_diff"] for r in results.values() for layer in r.values()
        if isinstance(layer, dict)]
    if args.require_identical and any(d != 0.0 for d in differences):
        print("ab_update: the two sides' parameters or layer outputs differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
