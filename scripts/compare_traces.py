#!/usr/bin/env python3
"""Compare the run_algorithm traces of two checkouts of this repository.

    scripts/compare_traces.py PARENT_DIR CHANGE_DIR [--steps N]
        [--seeds S ...] [--p-max-dbm P ...]

Each checkout runs in its own subprocess, importing ``uavris`` from its
own ``src/`` with one BLAS thread.  Each runs every algorithm in both
phase modes, for each seed and transmit power (defaults: 1,300 steps,
seeds 0-2, 20 and 45 dBm), with the default hyperparameters.  Per trace
field, the script prints how many cells are equal (NaN equal to NaN) and
the largest |difference| over all cells, then the cells that differ.
Besides the trace, each DDPG cell's final actor and critic and both
optimizers' Adam moments are fields too.  First moments are compared
with every entry below their dtype's smallest normal number set to 0 on
both sides, since ``Adam`` flushes such entries where that changes no
parameter.  For each cell that differs in any field, it then
prints both sides' best min-SINR, the step of that best, and the mean
feasible min-SINR over the last fifth of the steps; last, the seed means
of the best and of that tail mean per algorithm, phase mode and power.
Exits 0 when every field both sides have is equal in every cell, 1
otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ALGORITHMS = ("IC", "ORESOU", "JOINT_DRL", "RANDOM")


def dump(out: str, steps: int, seeds: list[int], powers: list[float]) -> None:
    """Run every cell in this process and save each trace's arrays and
    each DDPG cell's final networks and Adam moments."""
    import uavris
    from uavris.agent import DdpgAgent
    from uavris.experiments import run_algorithm
    from uavris.metrics import dbm_to_watts
    from uavris.scene import default_config

    if not Path(uavris.__file__).resolve().is_relative_to(Path.cwd().resolve()):
        raise SystemExit(f"uavris imported from {uavris.__file__}, not from {Path.cwd()}")
    agents = []
    create = DdpgAgent.create.__func__

    def keep_agent(cls, *args, **kwargs):
        agents.append(create(cls, *args, **kwargs))
        return agents[-1]

    DdpgAgent.create = classmethod(keep_agent)
    arrays = {}
    for algorithm in ALGORITHMS:
        for one_bit in (False, True):
            for p_dbm in powers:
                config = default_config(p_max=dbm_to_watts(p_dbm))
                for seed in seeds:
                    agents.clear()
                    trace = run_algorithm(algorithm, config, steps, seed, one_bit=one_bit)
                    cell = f"{algorithm} {'one_bit' if one_bit else 'continuous'} {p_dbm:g} dBm seed {seed}"
                    fields = {
                        f.name: getattr(trace, f.name)
                        for f in dataclasses.fields(trace)
                        if isinstance(getattr(trace, f.name), np.ndarray)
                    }
                    fields["best_step"] = np.array(trace.best_step)
                    fields["best_phases.theta"] = (
                        trace.best_phases.theta if trace.best_phases is not None else np.empty(0)
                    )
                    fields["best_f_hat.f_hat"] = (
                        trace.best_f_hat.f_hat if trace.best_f_hat is not None else np.empty(0)
                    )
                    for agent in agents:
                        fields |= agent_arrays(agent)
                    for name, value in fields.items():
                        arrays[f"{cell}|{name}"] = value
    np.savez(out, **arrays)


def agent_arrays(agent) -> dict[str, np.ndarray]:
    """The parameters of an agent's actor and critic and its optimizers'
    Adam moments (empty before the first update), the first moments with
    their subnormal entries set to 0."""
    arrays = {f"{net}.flat": getattr(agent, net).flat for net in ("actor", "critic")}
    for opt in ("actor_opt", "critic_opt"):
        for moment in ("m", "v"):
            value = getattr(getattr(agent, opt), moment)
            if value is None:
                value = np.empty(0)
            elif moment == "m":
                value = np.where(np.abs(value) < np.finfo(value.dtype).tiny, 0.0, value)
            arrays[f"{opt}.{moment}"] = value
    return arrays


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        return float("inf")
    a, b = np.atleast_1d(a), np.atleast_1d(b)  # best_step is 0-d
    if a.dtype == bool or b.dtype == bool:
        a, b = a.astype(float), b.astype(float)
    d = np.abs(a - b).astype(float)
    d[np.isnan(a) & np.isnan(b)] = 0.0
    d[np.isnan(d)] = np.inf
    return float(d.max()) if d.size else 0.0


def run_side(checkout: Path, out: Path, args) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--dump", str(out),
           "--steps", str(args.steps), "--seeds", *map(str, args.seeds),
           "--p-max-dbm", *map(str, args.p_max_dbm)]
    return subprocess.Popen(cmd, cwd=checkout, env=env)


def compare(parent: dict, change: dict) -> bool:
    fields = sorted({key.split("|")[1] for key in parent} | {key.split("|")[1] for key in change})
    differing = []
    print(f"{'field':<20} {'equal cells':>12} {'max |diff|':>12}")
    ok = True
    for name in fields:
        keys = [k for k in parent if k.endswith("|" + name)]
        change_keys = [k for k in change if k.endswith("|" + name)]
        if not keys or not change_keys:
            side = "parent" if keys else "change"
            print(f"{name:<20} {'only in ' + side:>12}")
            continue
        equal, worst = 0, 0.0
        for key in keys:
            a, b = parent[key], change.get(key)
            if b is not None and np.array_equal(a, b, equal_nan=True):
                equal += 1
                continue
            delta = float("inf") if b is None else max_abs_diff(a, b)
            worst = max(worst, delta)
            differing.append((key.split("|")[0], name, delta))
        ok &= equal == len(keys)
        print(f"{name:<20} {f'{equal}/{len(keys)}':>12} {worst:>12.3g}")
    for cell, name, delta in differing:
        print(f"differs: {cell}: {name} (max |diff| {delta:.3g})")
    print_results(parent, change, {cell for cell, _, _ in differing})
    return ok


def summarize(arrays: dict, cell: str) -> tuple[float, int, float]:
    """Best min-SINR, its step, and the mean feasible (non-NaN) min-SINR
    over the last fifth of the steps (NaN if none of them is feasible)."""
    min_sinr = arrays[f"{cell}|min_sinr_db"]
    tail = min_sinr[-max(1, min_sinr.size // 5):]
    feasible = tail[~np.isnan(tail)]
    tail_mean = float(feasible.mean()) if feasible.size else np.nan
    best = float(arrays[f"{cell}|best_min_sinr_db"][-1])
    return best, int(arrays[f"{cell}|best_step"]), tail_mean


def print_results(parent: dict, change: dict, differing: set[str]) -> None:
    """Both sides' results for each differing cell, then their seed means
    per algorithm, phase mode and power."""
    cells = [cell for cell in dict.fromkeys(key.split("|")[0] for key in parent)
             if f"{cell}|min_sinr_db" in change]
    results = {side: {cell: summarize(arrays, cell) for cell in cells}
               for side, arrays in (("parent", parent), ("change", change))}
    changed = [cell for cell in cells if cell in differing]
    if changed:
        print(f"\n{'differing cell':<36} {'best dB (step), parent -> change':>37} "
              f"{'tail-fifth mean dB':>22}")
    for cell in changed:
        (pb, ps, pt), (cb, cs, ct) = results["parent"][cell], results["change"][cell]
        print(f"{cell:<36} {f'{pb:.2f} ({ps})':>17} -> {f'{cb:.2f} ({cs})':<16} "
              f"{pt:>10.2f} -> {ct:<8.2f}")
    print(f"\n{'seed means':<36} {'best dB, parent -> change':>37} {'tail-fifth mean dB':>22}")
    for group in dict.fromkeys(cell.rsplit(" seed ", 1)[0] for cell in cells):
        members = [cell for cell in cells if cell.rsplit(" seed ", 1)[0] == group]
        (pb, _, pt), (cb, _, ct) = (
            np.mean([results[side][cell] for cell in members], axis=0)
            for side in ("parent", "change")
        )
        print(f"{group:<36} {pb:>17.2f} -> {cb:<16.2f} {pt:>10.2f} -> {ct:<8.2f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?", type=Path)
    parser.add_argument("change", nargs="?", type=Path)
    parser.add_argument("--steps", type=int, default=1300)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--p-max-dbm", type=float, nargs="+", default=[20.0, 45.0])
    parser.add_argument("--dump", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dump:
        dump(args.dump, args.steps, args.seeds, args.p_max_dbm)
        return 0
    if args.parent is None or args.change is None:
        parser.error("PARENT_DIR and CHANGE_DIR are required")
    for checkout in (args.parent, args.change):
        if not (checkout / "src" / "uavris").is_dir():
            parser.error(f"no src/uavris in {checkout}")
    with tempfile.TemporaryDirectory() as tmp:
        outs = [Path(tmp) / "parent.npz", Path(tmp) / "change.npz"]
        procs = [run_side(c.resolve(), o, args) for c, o in zip((args.parent, args.change), outs)]
        if any([p.wait() != 0 for p in procs]):
            print("compare_traces: a checkout failed to run its cells", file=sys.stderr)
            return 2
        with np.load(outs[0]) as parent, np.load(outs[1]) as change:
            ok = compare(dict(parent), dict(change))
    print("identical" if ok else "traces differ")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
