"""Output checks, run after each cell outside the timed region.

Each check recomputes what it needs with plain numpy from the channels
and decisions the program returned, so a wrong layer cannot vouch for
itself.  Tolerances are those of acceptance criteria 1 and 2.
"""

from __future__ import annotations

import csv

import numpy as np

IC_OFFDIAG_TOL = 1e-9  # criterion 1: max |off-diagonal| / mean |diagonal|
POWER_TOL = 1e-9  # criterion 2: |tr(F^H F) - p_max| / p_max
SINR_RTOL = 1e-6  # reported SINR against the recomputed one
CSV_RTOL = 1e-5  # the study CSV prints 6 significant digits
CHECK_CHUNK = 256  # decisions checked at once; bounds the checks' memory


def check_decisions(h, g, theta, f, p_max, noise_power, sinr, interference_free) -> np.ndarray:
    """Pass/fail per stacked feasible decision: finite SINRs equal to the
    recomputed ones, the power budget met with equality, and, for IC, no
    interference.  Shapes: h (n, N_U, M), g (n, M, N_B), theta (n, M),
    f (n, N_B, N_U), sinr (n, N_U)."""
    eff = np.einsum("nue,neb,nbk->nuk", h * np.exp(1j * theta)[:, None, :], g, f)
    power = np.abs(eff) ** 2
    desired = np.einsum("nuu->nu", power)
    expected = desired / (power.sum(axis=2) - desired + noise_power)
    with np.errstate(invalid="ignore"):
        ok = np.all(np.abs(sinr - expected) <= SINR_RTOL * expected, axis=1)
    ok &= np.all(np.isfinite(sinr), axis=1)
    used = np.sum(np.abs(f) ** 2, axis=(1, 2))
    ok &= np.abs(used - p_max) <= POWER_TOL * p_max
    if interference_free:
        off = np.abs(eff * (1.0 - np.eye(eff.shape[1])))
        ok &= off.max(axis=(1, 2)) <= IC_OFFDIAG_TOL * np.sqrt(desired).mean(axis=1)
    return ok


def _decisions(cell):
    """Min-SINR (dB, nan when infeasible) per iteration, and the feasible
    decisions as (channels, phases, f_hat, report) tuples."""
    rows = []
    min_db = []
    for channels, outcome in cell.steps:
        if outcome.feasible:
            rows.append((channels, outcome.phases, outcome.f_hat, outcome.report))
            min_db.append(outcome.report.min_sinr_db)
        else:
            min_db.append(np.nan)
    for channels, (phases, f_hat, report) in cell.draws:
        rows.append((channels, phases, f_hat, report))
        min_db.append(report.min_sinr_db)
    return np.asarray(min_db, dtype=float), rows


def _failed_decisions(rows, config, interference_free: bool) -> int:
    failed = 0
    for lo in range(0, len(rows), CHECK_CHUNK):
        chunk = rows[lo : lo + CHECK_CHUNK]
        ok = check_decisions(
            np.stack([r[0].h_stacked for r in chunk]),
            np.stack([r[0].g_stacked for r in chunk]),
            np.stack([r[1].theta for r in chunk]),
            np.stack([r[2].f_hat for r in chunk]),
            config.p_max,
            config.noise_power,
            np.stack([r[3].per_uav_sinr for r in chunk]),
            interference_free,
        )
        failed += int(np.count_nonzero(~ok))
    return failed


def _finite_parameters(agent) -> bool:
    """Every float array the agent's networks and optimizers hold is
    finite.  The replay buffer is skipped: it is data, not parameters."""
    arrays = []
    for name, value in vars(agent).items():
        if name == "buffer":
            continue
        members = vars(value).values() if hasattr(value, "__dict__") else [value]
        for member in members:
            items = member if isinstance(member, (list, tuple)) else [member]
            arrays += [a for a in items if isinstance(a, np.ndarray) and a.dtype.kind == "f"]
    return bool(arrays) and all(np.all(np.isfinite(a)) for a in arrays)


def check_cell(cell) -> tuple[int, list[str], np.ndarray]:
    """Failed iterations of one finished cell, the reasons, and the
    min-SINR (dB, nan when infeasible) of each iteration.  A decision that
    fails fails its iteration; a failed cell-level check fails them all."""
    n = cell.n_iterations
    if cell.error is not None:
        return max(n, 1), [f"{cell.algorithm}: raised {cell.error!r}"], np.zeros(0)
    min_db, rows = _decisions(cell)
    problems = []
    if min_db.size != n:
        problems.append(f"{cell.algorithm}: {n} iterations but {min_db.size} outcomes")
    feasible_db = min_db[np.isfinite(min_db)]
    best = float(feasible_db.max()) if feasible_db.size else -np.inf
    if cell.trace is None or cell.trace.final_best_min_sinr_db != best:
        problems.append(f"{cell.algorithm}: trace best differs from the best step {best}")
    if cell.agent is not None and not _finite_parameters(cell.agent):
        problems.append(f"{cell.algorithm}: non-finite network parameters")
    if problems:
        return max(n, 1), problems, min_db
    ic = str(getattr(cell.algorithm, "value", cell.algorithm)) == "IC"
    failed = _failed_decisions(rows, cell.config, interference_free=ic)
    if failed:
        problems.append(f"{cell.algorithm}: {failed} decisions fail the output checks")
    return failed, problems, min_db


def check_sweep_csv(path, spec, cells) -> list[str]:
    """The pmax-sweep CSV holds one row per (algorithm, p_max, seed) cell,
    in run order, with that cell's best min-SINR, then each group's mean."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    expected = []
    bests = iter(c.trace.final_best_min_sinr_db for c in cells)
    for algorithm in spec.algorithms:
        for p_dbm in spec.p_max_grid_dbm:
            group = [(str(seed), next(bests, np.nan)) for seed in spec.seeds]
            expected += [(algorithm, p_dbm, s, v) for s, v in group]
            expected.append((algorithm, p_dbm, "mean", float(np.mean([v for _, v in group]))))
    if len(rows) != len(expected):
        return [f"CSV has {len(rows)} rows, expected {len(expected)}"]
    for row, (algorithm, p_dbm, seed, value) in zip(rows, expected):
        got = float(row["best_min_sinr_db"])
        if (row["algorithm"], float(row["p_max_dbm"]), row["seed"]) != (algorithm, p_dbm, seed) \
                or not abs(got - value) <= CSV_RTOL * abs(value):
            return [f"CSV row {row} does not match {(algorithm, p_dbm, seed, value)}"]
    return []
