"""Tests of the benchmark itself:  python3 -m pytest perfbench/tests"""

import os
import sys
import time
import types
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", ["train_ddpg", "smoke_study"])
def test_same_seed_same_learning(name, tmp_path):
    """Two runs on one seed agree exactly on the quality metric and on
    every cell's best min-SINR."""
    first, second = (
        run.run(WORKLOADS[name](run.ROOT, tmp_path), seed=3, seconds=1, trace=False)
        for _ in range(2)
    )
    assert first["correct"] and second["correct"]
    assert first["cell_best_db"] == second["cell_best_db"]
    assert len(first["cell_best_db"]) >= 3
    assert first["metrics"]["tail_min_sinr"] == second["metrics"]["tail_min_sinr"]


def test_reported_metrics_match_benchmark_json():
    import json

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.GATED)
    layers = [m["name"] for m in spec["per_layer"]]
    assert layers[: 3 * len(probes.LAYERS)] == [
        f"{name}.{field}" for name, _ in probes.LAYERS for field in ("calls", "self_ms", "mean_us")
    ]


def _fake_module(monkeypatch):
    fake = types.ModuleType("perfbench_fake_layers")

    def inner():
        time.sleep(0.002)

    def outer():
        time.sleep(0.001)
        fake.inner()

    fake.inner, fake.outer = inner, outer
    monkeypatch.setitem(sys.modules, fake.__name__, fake)
    return fake


def test_self_time_excludes_children_and_absent_layers_are_reported(monkeypatch):
    fake = _fake_module(monkeypatch)
    monkeypatch.setattr(probes, "LAYERS", (
        ("fake.outer", ((fake.__name__, "outer"),)),
        ("fake.inner", ((fake.__name__, "inner"),)),
        ("fake.gone", ((fake.__name__, "no_such_function"), ("no_such_module", "f"))),
    ))
    tracer = probes.Tracer(probes.IterationProbe())
    tracer.install()
    fake.outer()
    tracer.uninstall()
    assert tracer.absent == ["fake.gone"]
    layer, _cell, duration, self_ns = tracer.self_times()
    outer, inner = (layer == tracer.names.index(n) for n in ("fake.outer", "fake.inner"))
    assert self_ns[inner][0] == duration[inner][0]
    assert self_ns[outer][0] == duration[outer][0] - duration[inner][0]
    assert 0.5e6 < self_ns[outer][0] < 2e6 <= self_ns[inner][0]
    assert fake.outer.__name__ == "outer"  # uninstall restored the original


def test_checks_reject_broken_decisions():
    rng = np.random.default_rng(0)
    n, n_u, m, n_b = 3, 2, 8, 4
    h = rng.standard_normal((n, n_u, m)) + 1j * rng.standard_normal((n, n_u, m))
    g = rng.standard_normal((n, m, n_b)) + 1j * rng.standard_normal((n, m, n_b))
    theta = rng.uniform(0, 2 * np.pi, (n, m))
    cascade = np.einsum("nue,neb->nub", h * np.exp(1j * theta)[:, None, :], g)
    f = np.stack([np.linalg.pinv(c) for c in cascade])
    f *= np.sqrt(10.0 / np.sum(np.abs(f) ** 2, axis=(1, 2)))[:, None, None]

    def sinr_of(f):
        power = np.abs(np.einsum("nub,nbk->nuk", cascade, f)) ** 2
        desired = np.einsum("nuu->nu", power)
        return desired / (power.sum(axis=2) - desired + 1e-3)

    def ok(f, sinr=None):
        sinr = sinr_of(f) if sinr is None else sinr
        return checks.check_decisions(h, g, theta, f, 10.0, 1e-3, sinr, True)

    assert ok(f).all()
    assert not ok(f * 1.01).any()  # power budget missed
    bad = sinr_of(f)
    bad[1, 0] = np.nan
    assert list(ok(f, bad)) == [True, False, True]  # non-finite SINR
    assert not ok(f, sinr_of(f) * 1.001).any()  # reported SINR is not the true one
    leaky = f.copy()
    leaky[2, :, 0] += 0.1 * leaky[2, :, 1]
    leaky[2] *= np.sqrt(10.0 / np.sum(np.abs(leaky[2]) ** 2))
    assert list(ok(leaky)) == [True, True, False]  # interference not cancelled
