#!/usr/bin/env python3
"""In-process A/B of the DDPG update, of each layer it calls and of the
environment step, of two checkouts of this repository.

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

The environment cases run the benchmark's ``rollout`` scene (the default
scene at 45 dBm) on one recorded channel realization, which each side
rebuilds through its own ``ChannelSet``, and on a fixed list of
``ENV_ACTIONS`` uniform actions per case:

* ``rollout/<variant>`` and ``rollout/<variant>/one-bit``: a fresh
  ``DownlinkEnv`` of each variant and phase mode steps through its list;
* ``rollout/IC`` also times ``right_pinv`` on the cascaded channels of
  IC's continuous phases, and ``sinr_report`` on the effective channels
  of JOINT_DRL's continuous actions (with interference).

Each timed run of an environment case makes one call per input, and the
runs alternate between the sides as above.

Per case and layer the script prints each side's minimum and median
microseconds per call and the change's ratio to the parent.  Then it
prints the largest absolute difference between the two sides' parameters
and Adam moments after 17 updates from the same state (through Adam's
first subnormal flush, at step 16), and between each layer's outputs
after ``U`` calls, or, for an environment case, between every output of
every call: phases, precoder, SINRs, reward, feasibility and state.
Outputs that are equal in value but not in bits (0.0 and -0.0, NaN
payloads) count as an infinite difference.  ``--json`` also writes these
numbers to a file.  With ``--require-identical`` it exits 1 when any
difference is not 0: run a checkout against itself this way to check
that the script still runs.
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
ENV_ACTIONS = 200  # per environment case; one timed run steps through all of them
VARIANTS = ("IC", "ORESOU", "JOINT_DRL")


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
            for name in ("agent", "channel", "env", "experiments", "linalg", "metrics", "nets",
                         "scene", "solvers", "training"):
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
    """The largest |difference| between paired arrays, real or complex: 0
    when every pair is equal bit for bit, and inf for a pair of different
    shapes or of different bits at equal values."""
    diffs = [0.0]
    for p, c in zip(parent_arrays, change_arrays, strict=True):
        p, c = np.asarray(p), np.asarray(c)
        if p.shape != c.shape:
            return float("inf")
        if p.dtype == c.dtype and p.tobytes() == c.tobytes():
            continue
        p, c = (np.stack([x.real, x.imag]).astype(np.float64) for x in (p, c))
        with np.errstate(invalid="ignore"):
            gap = np.abs(p - c)
        diffs.append(float(np.nanmax(gap, initial=0.0)) or float("inf"))
    return max(diffs)


def cases(pkg: Checkout):
    metrics, agent_mod = pkg.metrics, pkg.agent
    config = pkg.scene.default_config(p_max=metrics.dbm_to_watts(P_MAX_DBM))
    hyper = agent_mod.DdpgHyperparams()
    for variant in VARIANTS:
        yield f"train_ddpg/{variant}", config, variant, TRAIN_DDPG_STEPS, hyper
    spec = pkg.experiments.load_spec(pkg.root / "configs" / "smoke.yaml")
    yield ("smoke/IC", spec.scenario.with_p_max(metrics.dbm_to_watts(P_MAX_DBM)), "IC",
           SMOKE_STEPS, spec.ddpg)


def env_inputs(pkg: Checkout):
    """The recorded channel's arrays and each environment case's fixed
    actions, drawn through ``pkg``, and the inputs of the ``right_pinv``
    and ``sinr_report`` cases, computed through ``pkg``."""
    config = pkg.scene.default_config(p_max=pkg.metrics.dbm_to_watts(P_MAX_DBM))
    rng = np.random.default_rng(SEED)
    channels = pkg.channel.assemble_channels(config, pkg.scene.build_geometry(config), rng)
    arrays = {name: getattr(channels, name) for name in
              ("g_stacked", "h_stacked", "pathloss_bs_ris", "pathloss_ris_uav")}
    actions = {}
    for one_bit in (False, True):
        for variant in VARIANTS:
            dim = pkg.env.DownlinkEnv(config, variant, one_bit=one_bit).action_dim
            actions[variant, one_bit] = rng.uniform(-1.0, 1.0, (ENV_ACTIONS, dim))
    ne, solvers = config.n_ris_elements, pkg.solvers
    cascades, effective = [], []
    for ic, joint in zip(actions["IC", False], actions["JOINT_DRL", False]):
        cascades.append(pkg.channel.cascaded_channel(
            channels, pkg.channel.PhaseConfig(np.pi * (ic + 1.0))))
        f_hat = solvers.normalize_beamformer(joint[ne:], config.n_bs_antennas, config.n_uav,
                                             config.p_max)
        phases = pkg.channel.PhaseConfig(np.pi * (joint[:ne] + 1.0))
        effective.append(pkg.channel.cascaded_channel(channels, phases) @ f_hat.f_hat)
    return arrays, actions, cascades, effective


def env_runs(pkg: Checkout, inputs) -> dict:
    """(case, layer) -> ``run(seed)`` of ``pkg``, each returning the
    microseconds per call over one pass through its inputs and every
    output of that pass.  ``seed`` is unused: the inputs are fixed."""
    arrays, actions, cascades, effective = inputs
    config = pkg.scene.default_config(p_max=pkg.metrics.dbm_to_watts(P_MAX_DBM))

    def step(variant, one_bit, seed):
        env = pkg.env.DownlinkEnv(config, variant, one_bit=one_bit)
        env.channels = pkg.channel.ChannelSet(**arrays)
        start = time.perf_counter()
        steps = [env.step(action) for action in actions[variant, one_bit]]
        elapsed = time.perf_counter() - start
        outputs = []
        for state, out in steps:
            outputs += [state, out.reward, out.feasible]
            if out.feasible:
                report = out.report
                outputs += [out.phases.theta, out.f_hat.f_hat, report.per_uav_sinr,
                            report.min_sinr, report.min_sinr_db, report.sum_rate]
        return elapsed / len(steps) * 1e6, outputs

    def timed(fn, inputs, unpack):
        def run(seed):
            start = time.perf_counter()
            results = [fn(x) for x in inputs]
            elapsed = time.perf_counter() - start
            return elapsed / len(inputs) * 1e6, [y for r in results for y in unpack(r)]
        return run

    runs = {}
    for one_bit in (False, True):
        for variant in VARIANTS:
            case = f"rollout/{variant}" + ("/one-bit" if one_bit else "")
            runs[case, "DownlinkEnv.step"] = functools.partial(step, variant, one_bit)
    runs["rollout/IC", "right_pinv"] = timed(pkg.linalg.right_pinv, cascades, lambda r: [r])
    noise = config.noise_power
    runs["rollout/IC", "sinr_report"] = timed(
        lambda e: pkg.metrics.sinr_report(e, noise), effective,
        lambda r: [r.per_uav_sinr, r.min_sinr, r.min_sinr_db, r.sum_rate])
    return runs


def alternate(sides: dict, runs: dict, reps: int) -> dict:
    """Min and median microseconds per call of each side's ``run(seed)``,
    from ``reps`` timed runs per side that alternate which side goes
    first, and the largest difference between the sides' outputs of
    ``run(0)``."""
    times = {side: [] for side in sides}
    outputs = {}
    for side, pkg in sides.items():  # untimed, so neither side runs cold
        with pkg:
            outputs[side] = runs[side](0)[1]
    for rep in range(reps):
        order = ("parent", "change") if rep % 2 == 0 else ("change", "parent")
        for side in order:
            with sides[side]:
                times[side].append(runs[side](rep)[0])
    result = {side: {"min_us": min(t), "median_us": float(np.median(t))}
              for side, t in times.items()}
    for key in ("min_us", "median_us"):
        result[f"{key}_ratio"] = result["change"][key] / result["parent"][key]
    result["max_output_diff"] = max_difference(outputs["parent"], outputs["change"])
    return result


def print_timing(case: str, layer: str, timed: dict) -> None:
    for side in ("parent", "change"):
        print(f"{case:26s} {layer:22s} {side:6s} {timed[side]['min_us']:9.1f} "
              f"{timed[side]['median_us']:10.1f}")
    print(f"{case:26s} {layer:22s} change/parent: min {timed['min_us_ratio']:.3f}, "
          f"median {timed['median_us_ratio']:.3f}; max |output diff| "
          f"{timed['max_output_diff']:.3g}")


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
    print(f"{'case':26s} {'layer':22s} {'side':6s} {'min us':>9s} {'median us':>10s}")
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
            runs = {side: functools.partial(run, pkg, makers[side], args.updates)
                    for side, pkg in sides.items()}
            result[layer] = alternate(sides, runs, args.reps)
            print_timing(name, layer, result[layer])
        compared = {}
        for side, pkg in sides.items():
            with pkg:
                compared[side] = train_steps(makers[side](), COMPARED_UPDATES, 0)
        result["max_param_diff"] = max_difference(compared["parent"], compared["change"])
        print(f"{name:26s} max |param or moment diff| after {COMPARED_UPDATES} updates "
              f"{result['max_param_diff']:.3g}")

    with sides["change"] as change:
        inputs = env_inputs(change)
    side_runs = {}
    for side, pkg in sides.items():
        with pkg:
            side_runs[side] = env_runs(pkg, inputs)
    for case, layer in side_runs["change"]:
        runs = {side: side_runs[side][case, layer] for side in sides}
        timed = results.setdefault(case, {})[layer] = alternate(sides, runs, args.reps)
        print_timing(case, layer, timed)
    if args.json:
        args.json.write_text(json.dumps(
            {"reps": args.reps, "updates": args.updates, "compared_updates": COMPARED_UPDATES,
             "cases": results}, indent=2) + "\n")
    differences = [r["max_param_diff"] for r in results.values() if "max_param_diff" in r] + [
        layer["max_output_diff"] for r in results.values() for layer in r.values()
        if isinstance(layer, dict)]
    if args.require_identical and any(d != 0.0 for d in differences):
        print("ab_update: the two sides' parameters or layer outputs differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
