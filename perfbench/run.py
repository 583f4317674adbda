"""uavris benchmark.

    python3 perfbench/run.py --workload train_ddpg --seed 0 --seconds 30 --trace 0

Runs one workload (see workloads.py) in this process with BLAS pinned to
one thread, checks every output (see checks.py) and prints the metrics,
by name and unit, then one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.  An attempt is one loop iteration; it fails when an output
check on it fails.  ``--trace 0`` reports the end-to-end metrics and
``--trace 1`` the per-layer ones, from rounds that alternate traced and
untraced on the same inputs, with the tracing overhead.  Details and the
measured spreads are in README.md.
"""

from __future__ import annotations

import ctypes
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# No transparent huge pages for this process: whether the kernel has a free
# 2 MB page for numpy's large (madvised) arrays depends on the host, and it
# moved the peak RSS of identical runs by 20 MB.  PR_SET_THP_DISABLE = 41.
try:
    ctypes.CDLL(None, use_errno=True).prctl(41, 1, 0, 0, 0)
except (OSError, AttributeError):
    pass

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from checks import check_cell  # noqa: E402
from probes import NETS_PREFIX, IterationProbe, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
WARM_UP_ROUND = 99  # round index whose seeds the warm-up round uses
# End-to-end metrics in the JSON line; BENCHMARK.json bounds these.  The
# timings among them are 10th percentiles: on a host whose speed switches
# between two levels 40% apart every few seconds, medians and means moved
# by 10-30% between identical runs, and the low percentile by about 2%.
GATED = ("setup_s", "iter_ms_p10", "wall_s", "peak_rss_mb", "tail_min_sinr")


def environment() -> dict:
    """Interpreter, numpy, BLAS, threads, cores and the git commit."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        sha = head.read_text().strip()
        ref = ROOT / ".git" / sha.removeprefix("ref: ")
        if sha.startswith("ref: ") and ref.is_file():
            sha = ref.read_text().strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
    }


def flops_per_update(agent) -> int:
    """Matmul FLOPs of one DDPG update, computed from the layer dims: the
    critic step runs target actor, target critic and critic forward plus
    the critic backward (weight and input gradients); the actor step runs
    actor and critic forward, critic backward and actor backward.  0 when
    the agent no longer exposes the dims."""
    def forward(net):
        dims = net.layer_dims
        return 2 * agent.hyper.batch_size * sum(a * b for a, b in zip(dims[:-1], dims[1:]))

    try:
        return 4 * forward(agent.actor) + 7 * forward(agent.critic)
    except AttributeError:
        return 0


class RunLog:
    """What the rounds of one run produced, after the output checks."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.pools: dict = {}  # cell kind -> latency arrays of the timed rounds
        self.round_walls: list[float] = []  # untraced timed rounds
        self.call_walls: dict[int, list[float]] = {}  # call's place in its round -> seconds
        self.iterations = {False: 0, True: 0}
        self.busy = {False: 0.0, True: 0.0}
        self.tail_db: list[float] = []  # per timed cell
        self.best_db: list[float] = []  # per timed cell
        self.flops: dict[int, int] = {}  # cell index -> FLOPs per update
        self.feasible = self.steps = 0

    def add_call(self, workload, cells, first_index, call_problems, timed, traced) -> None:
        """Check the cells one public call ran and drop what they held."""
        n_call = failed = 0
        for index, cell in enumerate(cells, start=first_index):
            cell_failed, problems, min_db = check_cell(cell)
            n_call += cell.n_iterations
            failed += cell_failed
            self.problems += problems
            finite = min_db[np.isfinite(min_db)]
            self.feasible += finite.size
            self.steps += min_db.size
            if cell.agent is not None:
                self.flops[index] = flops_per_update(cell.agent)
            if timed:
                self.pools.setdefault(workload.kind(cell), []).append(cell.latencies_ms())
                self.iterations[traced] += cell.n_iterations
                self.busy[traced] += cell.seconds
                tail = min_db[-max(1, min_db.size // 5):]
                tail = tail[np.isfinite(tail)]
                self.tail_db.append(float(np.mean(tail)) if tail.size else float("nan"))
                self.best_db.append(float(finite.max()) if finite.size else float("nan"))
            cell.release()
        n_call = max(n_call, 1)
        if call_problems:
            self.problems += call_problems
            failed = n_call
        self.attempted += n_call
        self.failed += min(failed, n_call)

    def latency_ms(self, stat) -> float:
        """Mean over cell kinds of ``stat`` of the kind's latencies."""
        return float(np.mean([stat(np.concatenate(p)) for p in self.pools.values()]))

    def rate(self, traced: bool) -> float:
        return self.iterations[traced] / self.busy[traced]


def p10(values) -> float:
    return float(np.quantile(values, 0.1))


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    first_setup = workload.setup()
    setups = []

    probe = IterationProbe()
    probe.install()
    tracer = Tracer(probe) if trace else None
    rounds = workload.rounds(seconds)
    schedule = [(WARM_UP_ROUND, False, False)]  # (round, traced, timed)
    if trace:  # pairs on identical inputs; alternate which runs first
        for r in range(max(1, round(rounds / 2))):
            order = (False, True) if r % 2 == 0 else (True, False)
            schedule += [(r, traced, True) for traced in order]
    else:
        schedule += [(r, False, True) for r in range(rounds)]

    log = RunLog()
    try:
        for round_index, traced, timed in schedule:
            if traced:
                tracer.install()
            wall = 0.0
            try:
                first = len(probe.cells)
                calls = workload.run_round(probe, seed, round_index, not timed)
                for place, (call_s, problems) in enumerate(calls):
                    wall += call_s
                    if timed and not traced:
                        log.call_walls.setdefault(place, []).append(call_s)
                    log.add_call(workload, probe.cells[first:], first, problems, timed, traced)
                    first = len(probe.cells)
            finally:
                if traced:
                    tracer.uninstall()
            if timed and not traced:
                log.round_walls.append(wall)
            if not trace:  # set-ups spread over the run, one per round
                setups.append(workload.setup())
    finally:
        probe.uninstall()

    result = {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "problems": log.problems[:20],
        "rounds": sum(1 for _, _, timed in schedule if timed),
        "first_setup_s": first_setup,
        "setup_samples": len(setups),
        "round_wall_s": log.round_walls,
        "cell_best_db": log.best_db,
        "cell_tail_db": log.tail_db,
        "iter_samples": {str(k): sum(len(a) for a in v) for k, v in log.pools.items()},
    }
    if trace:
        result["metrics"] = layer_metrics(tracer, probe, log, sum(t for _, t, _ in schedule))
        result["absent_layers"] = tracer.absent
        tracer.write(OUT_DIR / f"spans_{workload.name}.csv")
        return result

    tail_db = float(np.mean(log.tail_db))
    result["metrics"] = {
        "setup_s": (p10(setups), "s"),
        "iter_ms_p10": (log.latency_ms(p10), "ms"),
        "wall_s": (sum(p10(w) for w in log.call_walls.values()), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "tail_min_sinr": (10.0 ** (tail_db / 10.0), "ratio"),
        "setup_s_p50": (float(np.median(setups)), "s"),
        "iter_ms_mean": (log.latency_ms(np.mean), "ms"),
        "iter_ms_p50": (log.latency_ms(np.median), "ms"),
        "iter_ms_p99": (log.latency_ms(lambda x: np.quantile(x, 0.99)), "ms"),
        "iters_per_s": (log.rate(False), "1/s"),
        "failed_frac": (log.failed / log.attempted, "ratio"),
        "tail_min_sinr_db": (tail_db, "dB"),
    }
    return result


def layer_metrics(tracer, probe, log, traced_rounds: int) -> dict:
    """Per layer: calls and self time per traced round, mean inclusive
    time per call; plus counts, ratios and the tracing overhead."""
    layer, cell, duration, self_ns = tracer.self_times()
    metrics = {}
    for index, name in enumerate(tracer.names):
        mine = layer == index
        calls = int(np.count_nonzero(mine))
        metrics[f"{name}.calls"] = (calls / traced_rounds, "count")
        metrics[f"{name}.self_ms"] = (float(self_ns[mine].sum()) * 1e-6 / traced_rounds, "ms")
        mean_us = float(duration[mine].sum()) * 1e-3 / calls if calls else 0.0
        metrics[f"{name}.mean_us"] = (mean_us, "us")

    nets = np.isin(layer, [i for i, n in enumerate(tracer.names) if n.startswith(NETS_PREFIX)])
    roots = np.array([span[3] < 0 for span in tracer.spans], dtype=bool)
    total = float(duration[roots].sum()) if roots.size else 0.0
    metrics["nets.self_share"] = (float(self_ns[nets].sum()) / total if total else 0.0, "ratio")
    updates = np.bincount(cell[layer == tracer.names.index("agent.train_step")],
                          minlength=len(probe.cells))
    flops = sum(int(n) * log.flops.get(i, 0) for i, n in enumerate(updates))
    metrics["nets.flops_per_train_step"] = (flops / updates.sum() if updates.sum() else 0.0,
                                            "flop")
    pinv_calls = metrics["linalg.right_pinv.calls"][0] * traced_rounds
    raised = tracer.raised_count("linalg.right_pinv", "RankDeficientError")
    metrics["linalg.rank_deficient"] = (raised / pinv_calls if pinv_calls else 0.0, "1/call")
    metrics["env.feasible_ratio"] = (log.feasible / log.steps if log.steps else 0.0, "ratio")
    metrics["tracing.iters_per_s_untraced"] = (log.rate(False), "1/s")
    metrics["tracing.iters_per_s_traced"] = (log.rate(True), "1/s")
    metrics["tracing.overhead_frac"] = (log.rate(False) / log.rate(True) - 1.0, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be > 0 and --seed >= 0")
    if not (ROOT / "src" / "uavris" / "__init__.py").is_file():
        print(f"perfbench: no uavris sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)

    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    workload = WORKLOADS[args.workload](ROOT, OUT_DIR)
    started = time.perf_counter()
    result = run(workload, args.seed, args.seconds, bool(args.trace))
    elapsed = time.perf_counter() - started

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in result.pop("metrics").items()}
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{result['rounds']} timed rounds in {elapsed:.1f} s; "
          f"{result['failed']} of {result['attempted']} iterations failed")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    print(f"  first setup {result['first_setup_s']:.4f} s; latency samples per cell kind "
          f"(algorithm, one_bit, p_max W): {result['iter_samples']}")
    for problem in result["problems"]:
        print(f"  FAILED CHECK: {problem}")
    if result.get("absent_layers"):
        print(f"  absent layers: {', '.join(result['absent_layers'])}")
    with open(OUT_DIR / f"result_{workload.name}_trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"environment": env, "seed": args.seed, "seconds": args.seconds,
                   "elapsed_s": elapsed, **result, "metrics": metrics}, fh, indent=1)
    if not args.trace:
        metrics = {k: metrics[k] for k in GATED}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
