"""Experiment orchestration: spec loading/validation, the three studies
(objective fairness, min-SINR vs transmit power, one-bit vs continuous),
CSV emission and plot-script generation.

Each study lists its cells, (algorithm, p_max_dbm, seed, objective,
one_bit) tuples, in run order; one runner runs them one at a time and
hands each finished trace to the study's row builder before the next
cell starts, so a study holds no more than one trace at a time.

CSV conventions: UTF-8, comma-separated, header row, floats printed with
6 significant digits.  Every file is deterministic given (spec, seeds),
whatever the host's BLAS thread settings: ``run_training`` holds numpy's
BLAS to one thread, because a multithreaded BLAS may sum a product's terms
in another order and so change a trained trajectory.
"""

from __future__ import annotations

import csv
import dataclasses
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .agent import DdpgHyperparams
from .env import Objective, Variant
from .metrics import db_to_linear, dbm_to_watts
from .scene import SystemConfig
from .training import RANDOM_SEARCH, TrainingTrace, run_training

__all__ = [
    "SpecError",
    "ExperimentSpec",
    "load_spec",
    "save_spec",
    "run_algorithm",
    "run_fairness",
    "run_pmax_sweep",
    "run_onebit_table",
    "emit_plot_script",
]

EXPERIMENTS = ("fairness", "pmax_sweep", "onebit_table")
ALGORITHMS = (Variant.IC.value, Variant.ORESOU.value, Variant.JOINT.value, RANDOM_SEARCH)
FLOAT_FMT = "%.6g"


class SpecError(ValueError):
    """Experiment spec failed to parse or validate."""


@dataclass(frozen=True)
class ExperimentSpec:
    scenario: SystemConfig = SystemConfig()
    experiment: str = "pmax_sweep"
    objective: str = Objective.MAX_MIN_SINR.value
    algorithms: tuple[str, ...] = ALGORITHMS
    p_max_grid_dbm: tuple[float, ...] = (20.0, 25.0, 30.0, 35.0, 40.0, 45.0)
    iterations: int = 10_000
    seeds: tuple[int, ...] = (0, 1, 2)
    rolling_window: int = 300
    one_bit: bool = False
    output_dir: str = "results"
    ddpg: DdpgHyperparams = DdpgHyperparams()

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise SpecError(f"experiment: {self.experiment!r} not one of {EXPERIMENTS}")
        if self.objective not in (o.value for o in Objective):
            raise SpecError(f"objective: unknown value {self.objective!r}")
        for name in ("algorithms", "seeds", "p_max_grid_dbm"):
            if not getattr(self, name):
                raise SpecError(f"{name}: must be nonempty")
        for a in self.algorithms:
            if a not in ALGORITHMS:
                raise SpecError(f"algorithms: unknown algorithm {a!r}")
        if any(seed < 0 for seed in self.seeds):
            raise SpecError(f"seeds: {self.seeds} holds a negative seed")
        for p in self.p_max_grid_dbm:
            _check_p_max_dbm(p, "p_max_grid_dbm")
        for name in ("iterations", "rolling_window"):
            if getattr(self, name) < 1:
                raise SpecError(f"{name}: must be >= 1")


def _check_p_max_dbm(p: float, where: str) -> None:
    """The one transmit-power bound: outside [0, 60] dBm, NaN included, is a SpecError."""
    if not 0.0 <= p <= 60.0:
        raise SpecError(f"{where}: {p} outside [0, 60] dBm")


# spec keys of a section that are not fields of its dataclass: dB/dBm
# aliases of linear fields, and fields a spec may not set, with the reason
_DB_ALIASES = {
    SystemConfig: {
        "noise_power_dbm": ("noise_power", dbm_to_watts),
        "rician_bs_ris_db": ("rician_bs_ris", db_to_linear),
        "rician_ris_uav_db": ("rician_ris_uav", db_to_linear),
    },
}
_REJECTED = {
    SystemConfig: dict.fromkeys(
        ("p_max", "p_max_dbm"),
        "each cell sets the transmit power, from "
        "p_max_grid_dbm (pmax_sweep) or --p-max-dbm (fairness, onebit_table)",
    ),
}

# the exact YAML scalar types each field type accepts (so a bool is no int)
_SCALARS = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}


def _typed(hint, value, where: str):
    """``value`` checked against the field type ``hint``: a dataclass is a
    section, a tuple is a list."""
    if dataclasses.is_dataclass(hint):
        return _parse_section(hint, value, where)
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise SpecError(f"{where}: expected a list, got {value!r}")
        hints = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(value) != len(hints):
            raise SpecError(f"{where}: expected {len(hints)} entries, got {value!r}")
        return tuple(_typed(h, v, where) for v, h in zip(value, hints))
    if type(value) not in _SCALARS[hint]:
        raise SpecError(f"{where}: expected {hint.__name__}, got {value!r}")
    return value


def _parse_section(cls, raw, name: str = ""):
    """A ``cls`` built from the spec section ``name`` (empty for the top
    level): a mapping of its fields, or null for the defaults."""
    label = name or "top level"
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise SpecError(f"{label}: expected a mapping, got {raw!r}")
    hints = typing.get_type_hints(cls)
    aliases, rejected = _DB_ALIASES.get(cls, {}), _REJECTED.get(cls, {})
    kwargs = {}
    try:
        for alias, (target, _) in aliases.items():
            if alias in raw and target in raw:
                raise SpecError(f"{name}.{alias} and {name}.{target}: give one, not both")
        for key, value in raw.items():
            where = f"{name}.{key}" if name else f"{key}"
            if key in rejected:
                raise SpecError(f"{where}: {rejected[key]}")
            if key in aliases:
                target, convert = aliases[key]
                kwargs[target] = convert(_typed(float, value, where))
            elif key in hints:
                kwargs[key] = _typed(hints[key], value, where)
            else:
                raise SpecError(f"{where}: unknown field")
        return cls(**kwargs)
    except SpecError:
        raise
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{label}: {exc}") from exc


def load_spec(path) -> ExperimentSpec:
    """Load and validate an experiment spec from a YAML file.

    Every section, the top level included, is parsed by the same rules:
    unknown keys and values of the wrong type are errors, and unspecified
    fields take their defaults (the two-RIS / two-UAV scene).
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark is not None else ""
        raise SpecError(f"cannot parse {path}{where}: {exc}") from exc
    return _parse_section(ExperimentSpec, raw)


def save_spec(spec: ExperimentSpec, path) -> None:
    """Serialize a spec to YAML such that load_spec returns it unchanged,
    save for ``scenario.p_max``, which each cell sets and which is omitted."""

    def plain(obj):
        if dataclasses.is_dataclass(obj):
            return {k: plain(v) for k, v in dataclasses.asdict(obj).items()}
        if isinstance(obj, tuple):
            return [plain(v) for v in obj]
        return obj

    doc = plain(spec)
    del doc["scenario"]["p_max"]
    Path(path).write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")


def run_algorithm(
    algorithm: str,
    config: SystemConfig,
    iterations: int,
    seed: int,
    objective: str = Objective.MAX_MIN_SINR.value,
    one_bit: bool = False,
    hyper: DdpgHyperparams = DdpgHyperparams(),
) -> TrainingTrace:
    """Run one (algorithm, config, seed) cell and return its trace."""
    return run_training(config, algorithm, iterations, seed, objective, one_bit, hyper)


def _fmt(x) -> str:
    if isinstance(x, float) or isinstance(x, np.floating):
        if np.isnan(x):
            return "nan"
        return FLOAT_FMT % x
    return str(x)


def _write_csv(spec: ExperimentSpec, header: list[str], rows: list[list]) -> Path:
    """Write ``<output_dir>/<experiment>.csv`` and return its path."""
    path = Path(spec.output_dir) / f"{spec.experiment}.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])
    return path


def _trace_rows(trace: TrainingTrace, p_max_dbm: float, window: int) -> list[list]:
    rolling = trace.rolling_mean_sinr_db(window)
    rows = []
    for t in range(trace.n_steps):
        rows.append(
            [trace.algorithm, trace.objective, trace.seed, p_max_dbm, t]
            + list(trace.per_uav_sinr_db[t])
            + [trace.min_sinr_db[t]]
            + list(rolling[t])
            + [trace.best_min_sinr_db[t], trace.sum_rate[t]]
        )
    return rows


def _per_step_header(n_uav: int) -> list[str]:
    return (
        ["algorithm", "objective", "seed", "p_max_dbm", "step"]
        + [f"sinr_uav{u + 1}_db" for u in range(n_uav)]
        + ["min_sinr_db"]
        + [f"rolling_sinr_uav{u + 1}_db" for u in range(n_uav)]
        + ["best_min_sinr_db", "sum_rate"]
    )


def _run_cells(spec: ExperimentSpec, experiment: str, cells):
    """Run each (algorithm, p_max_dbm, seed, objective, one_bit) cell in
    order and yield it with its trace."""
    if spec.experiment != experiment:
        raise SpecError(f"experiment is {spec.experiment!r}, expected {experiment!r}")
    for cell in cells:
        algorithm, p_max_dbm, seed, objective, one_bit = cell
        config = spec.scenario.with_p_max(dbm_to_watts(p_max_dbm))
        yield cell, run_algorithm(
            algorithm,
            config,
            spec.iterations,
            seed,
            objective=objective,
            one_bit=one_bit,
            hyper=spec.ddpg,
        )


def run_fairness(spec: ExperimentSpec, p_max_dbm: float = 35.0) -> Path:
    """Joint-DRL training under the max-sum-rate and then the max-min-SINR
    objective; per-step rows with rolling averages."""
    _check_p_max_dbm(p_max_dbm, "p_max_dbm")
    cells = [
        (Variant.JOINT.value, p_max_dbm, seed, objective.value, spec.one_bit)
        for objective in (Objective.MAX_SUM_RATE, Objective.MAX_MIN_SINR)
        for seed in spec.seeds
    ]
    rows = []
    for _, trace in _run_cells(spec, "fairness", cells):
        rows.extend(_trace_rows(trace, p_max_dbm, spec.rolling_window))
    return _write_csv(spec, _per_step_header(spec.scenario.n_uav), rows)


def run_pmax_sweep(spec: ExperimentSpec) -> Path:
    """Best min-SINR per (algorithm, p_max, seed) cell plus seed means."""
    cells = [
        (algorithm, p_dbm, seed, spec.objective, spec.one_bit)
        for algorithm in spec.algorithms
        for p_dbm in spec.p_max_grid_dbm
        for seed in spec.seeds
    ]
    rows, group = [], []
    for (algorithm, p_dbm, seed, _, _), trace in _run_cells(spec, "pmax_sweep", cells):
        group.append(trace.final_best_min_sinr_db)
        rows.append([algorithm, p_dbm, seed, group[-1]])
        if len(group) == len(spec.seeds):
            rows.append([algorithm, p_dbm, "mean", float(np.mean(group))])
            group = []
    return _write_csv(spec, ["algorithm", "p_max_dbm", "seed", "best_min_sinr_db"], rows)


def run_onebit_table(spec: ExperimentSpec, p_max_dbm: float = 45.0) -> Path:
    """Continuous vs one-bit best min-SINR per algorithm, with the
    continuous-minus-one-bit difference, per seed and seed mean.  Both
    phase modes always run, so ``spec.one_bit`` has no effect here."""
    _check_p_max_dbm(p_max_dbm, "p_max_dbm")
    cells = [
        (algorithm, p_max_dbm, seed, spec.objective, one_bit)
        for algorithm in spec.algorithms
        for one_bit in (False, True)
        for seed in spec.seeds
    ]
    n_seeds = len(spec.seeds)
    rows, group = [], []
    for (algorithm, _, _, _, _), trace in _run_cells(spec, "onebit_table", cells):
        group.append(trace.final_best_min_sinr_db)
        if len(group) < 2 * n_seeds:
            continue
        continuous, one_bit = group[:n_seeds], group[n_seeds:]
        means = ("mean", float(np.mean(continuous)), float(np.mean(one_bit)))
        for seed, c, o in [*zip(spec.seeds, continuous, one_bit), means]:
            rows.append([algorithm, seed, p_max_dbm, "continuous", c])
            rows.append([algorithm, seed, p_max_dbm, "one_bit", o])
            rows.append([algorithm, seed, p_max_dbm, "difference", c - o])
        group = []
    return _write_csv(spec, ["algorithm", "seed", "p_max_dbm", "mode", "min_sinr_db"], rows)


_PLOT_TEMPLATE = '''\
#!/usr/bin/env python3
"""Render {kind} chart from {csv_name} (auto-generated)."""
import csv
from collections import defaultdict

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

with open({csv_name!r}, newline="", encoding="utf-8") as fh:
    rows = list(csv.DictReader(fh))

{body}
plt.savefig({png_name!r}, dpi=150, bbox_inches="tight")
print("wrote", {png_name!r})
'''

_BODY_SWEEP = '''\
series = defaultdict(list)
for r in rows:
    if r["seed"] == "mean":
        series[r["algorithm"]].append((float(r["p_max_dbm"]), float(r["best_min_sinr_db"])))
plt.figure(figsize=(6, 4))
for alg, pts in series.items():
    pts.sort()
    plt.plot([p for p, _ in pts], [v for _, v in pts], marker="o", label=alg)
plt.xlabel("P_max (dBm)")
plt.ylabel("best min-SINR (dB)")
plt.legend()
plt.grid(True, alpha=0.3)
'''

_BODY_FAIRNESS = '''\
objectives = sorted({{r["objective"] for r in rows}})
uav_cols = [c for c in rows[0] if c.startswith("rolling_sinr_uav")]
inst_cols = [c for c in rows[0] if c.startswith("sinr_uav")]
seed0 = rows[0]["seed"]
fig, axes = plt.subplots(len(objectives), 1, figsize=(7, 4 * len(objectives)), squeeze=False)
for ax, obj in zip(axes[:, 0], objectives):
    sub = [r for r in rows if r["objective"] == obj and r["seed"] == seed0]
    steps = [int(r["step"]) for r in sub]
    for col in inst_cols:
        vals = [float(r[col]) if r[col] != "nan" else float("nan") for r in sub]
        ax.plot(steps, vals, alpha=0.25, label=col + " (instant)")
    for col in uav_cols:
        vals = [float(r[col]) if r[col] != "nan" else float("nan") for r in sub]
        ax.plot(steps, vals, linewidth=2, label=col)
    ax.set_title("objective: " + obj)
    ax.set_xlabel("step")
    ax.set_ylabel("SINR (dB)")
    ax.legend(fontsize=7)
    ax.grid(True, alpha=0.3)
'''

_BODY_ONEBIT = '''\
algs, cont, onebit = [], [], []
for r in rows:
    if r["seed"] == "mean" and r["mode"] == "continuous":
        algs.append(r["algorithm"])
        cont.append(float(r["min_sinr_db"]))
for a in algs:
    for r in rows:
        if r["seed"] == "mean" and r["mode"] == "one_bit" and r["algorithm"] == a:
            onebit.append(float(r["min_sinr_db"]))
x = range(len(algs))
plt.figure(figsize=(6, 4))
plt.bar([i - 0.2 for i in x], cont, width=0.4, label="continuous")
plt.bar([i + 0.2 for i in x], onebit, width=0.4, label="one-bit")
plt.xticks(list(x), algs)
plt.ylabel("best min-SINR (dB)")
plt.legend()
plt.grid(True, axis="y", alpha=0.3)
'''


# the chart of each study, by the study's name, the stem of its CSV
_CHARTS = {
    "fairness": ("SINR-vs-step", _BODY_FAIRNESS),
    "pmax_sweep": ("min-SINR-vs-power", _BODY_SWEEP),
    "onebit_table": ("one-bit comparison", _BODY_ONEBIT),
}


def emit_plot_script(csv_path) -> Path:
    """Write a standalone matplotlib script next to a study's CSV; the chart
    is the one of the study the file is named after."""
    csv_path = Path(csv_path)
    if csv_path.stem not in _CHARTS:
        raise ValueError(f"{csv_path}: not a study CSV, expected one of {EXPERIMENTS}")
    kind, body = _CHARTS[csv_path.stem]
    out = csv_path.with_suffix(".plot.py")
    out.write_text(
        _PLOT_TEMPLATE.format(
            kind=kind,
            csv_name=csv_path.name,
            png_name=csv_path.with_suffix(".png").name,
            body=body.format(),
        ),
        encoding="utf-8",
    )
    return out
