import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from uavris import training
from uavris.agent import DdpgAgent, DdpgHyperparams
from uavris.channel import assemble_channels, cascaded_channel
from uavris.env import (
    MIN_SINR_CLIP_DB,
    PENALTY_DB,
    REWARD_SCALE,
    DownlinkEnv,
    Objective,
    Variant,
)
from uavris.linalg import _PIVOT_RTOL, RankDeficientError
from uavris.metrics import dbm_to_watts, sinr_report
from uavris.scene import build_geometry, default_config
from uavris.solvers import random_search_step
from uavris.training import (
    RANDOM_SEARCH,
    TrainingTrace,
    run_random_search,
    run_training,
)


def fast_hyper(**overrides):
    base = dict(hidden_dims=(16, 16), batch_size=8, warmup_steps=4, buffer_capacity=512)
    base.update(overrides)
    return DdpgHyperparams(**base)


class TestEnvDimensions:
    def test_state_dim(self, config):
        env = DownlinkEnv(config, Variant.IC)
        # 2*2*32 + 2*32*4 + 1
        assert env.state_dim == 385

    @pytest.mark.parametrize(
        "variant,expected",
        [(Variant.IC, 32), (Variant.ORESOU, 80), (Variant.JOINT, 48)],
    )
    def test_action_dims(self, config, variant, expected):
        assert DownlinkEnv(config, variant).action_dim == expected

    def test_reset_state_shape_and_determinism(self, config):
        env = DownlinkEnv(config, Variant.IC)
        s1 = env.reset(np.random.default_rng(3))
        s2 = DownlinkEnv(config, Variant.IC).reset(np.random.default_rng(3))
        assert s1.shape == (385,)
        np.testing.assert_array_equal(s1, s2)
        assert s1[-1] == 0.0

    def test_state_features_order_unity(self, config):
        # pathloss-normalized entries should be O(1)
        env = DownlinkEnv(config, Variant.IC)
        s = env.reset(np.random.default_rng(0))
        assert np.max(np.abs(s)) < 10.0


class TestEnvDecode:
    # a step's outcome carries the decoded phases and precoder
    def test_ic_round_trip(self, config):
        env = DownlinkEnv(config, Variant.IC)
        env.reset(np.random.default_rng(1))
        action = np.random.default_rng(2).uniform(-1, 1, 32)
        _, outcome = env.step(action)
        phases, f_hat = outcome.phases, outcome.f_hat
        np.testing.assert_allclose(phases.theta, np.pi * (action + 1.0))
        assert f_hat.transmit_power == pytest.approx(config.p_max, rel=1e-9)
        eff = cascaded_channel(env.channels, phases) @ f_hat.f_hat
        off = eff - np.diag(np.diag(eff))
        assert np.max(np.abs(off)) <= 1e-9 * np.mean(np.abs(np.diag(eff)))

    def test_one_bit_decoding(self, config):
        env = DownlinkEnv(config, Variant.IC, one_bit=True)
        env.reset(np.random.default_rng(1))
        _, outcome = env.step(np.random.default_rng(2).uniform(-1, 1, 32))
        assert np.isin(outcome.phases.theta, (0.0, np.pi)).all()

    def test_oresou_layout(self, config):
        env = DownlinkEnv(config, Variant.ORESOU)
        env.reset(np.random.default_rng(1))
        _, outcome = env.step(np.random.default_rng(2).uniform(-1, 1, 80))
        assert outcome.phases.theta.shape == (32,)
        assert outcome.f_hat.f_hat.shape == (4, 2)

    def test_joint_layout(self, config):
        env = DownlinkEnv(config, Variant.JOINT)
        env.reset(np.random.default_rng(1))
        action = np.random.default_rng(2).uniform(-1, 1, 48)
        _, outcome = env.step(action)
        np.testing.assert_allclose(outcome.phases.theta, np.pi * (action[:32] + 1.0))
        assert outcome.f_hat.transmit_power == pytest.approx(config.p_max, rel=1e-9)


class TestEnvStep:
    def test_reward_matches_report(self, config):
        env = DownlinkEnv(config, Variant.IC)
        env.reset(np.random.default_rng(5))
        state, outcome = env.step(np.random.default_rng(6).uniform(-1, 1, 32))
        assert outcome.feasible
        clipped = np.clip(outcome.report.min_sinr_db, *MIN_SINR_CLIP_DB)
        assert outcome.reward == pytest.approx(clipped / REWARD_SCALE)
        assert state[-1] == pytest.approx(clipped / REWARD_SCALE)

    def test_sum_rate_objective(self, config):
        env = DownlinkEnv(config, Variant.JOINT, objective=Objective.MAX_SUM_RATE)
        env.reset(np.random.default_rng(5))
        _, outcome = env.step(np.random.default_rng(6).uniform(-1, 1, 48))
        assert outcome.reward == pytest.approx(outcome.report.sum_rate / REWARD_SCALE)

    def test_infeasible_action_penalized(self, config):
        # an all-zero precoder segment cannot be normalized
        env = DownlinkEnv(config, Variant.JOINT)
        env.reset(np.random.default_rng(5))
        action = np.concatenate([np.zeros(32), np.zeros(16)])
        state, outcome = env.step(action)
        assert not outcome.feasible
        assert outcome.reward == pytest.approx(PENALTY_DB / REWARD_SCALE)
        assert outcome.report is None
        assert state[-1] == pytest.approx(PENALTY_DB / REWARD_SCALE)

    @pytest.mark.parametrize("variant", [Variant.JOINT, Variant.ORESOU])
    def test_zero_precoder_column_penalized(self, config, variant):
        # UAV 0 gets no power, so its SINR is 0: an infeasible step, not
        # a -inf dB report
        env = DownlinkEnv(config, variant)
        env.reset(np.random.default_rng(5))
        action = np.random.default_rng(6).uniform(-1, 1, env.action_dim)
        beam = action[-2 * config.n_bs_antennas * config.n_uav :]
        beam.reshape(config.n_bs_antennas, config.n_uav, 2)[:, 0, :] = 0.0
        state, outcome = env.step(action)
        assert not outcome.feasible
        assert outcome.report is None
        assert outcome.reward == PENALTY_DB / REWARD_SCALE
        assert state[-1] == PENALTY_DB / REWARD_SCALE

    def test_rank_deficient_ic_penalized(self):
        # co-located UAVs give identical rows -> IC infeasible for any phases
        cfg = default_config(uav_positions=((2.0, 6.0, 10.0), (2.0, 6.0, 10.0)))
        env = DownlinkEnv(cfg, Variant.IC)
        rng = np.random.default_rng(0)
        env.reset(rng)
        # force identical fading on both rows so the cascade is exactly rank 1
        env.channels.h_stacked[1] = env.channels.h_stacked[0]
        _, outcome = env.step(rng.uniform(-1, 1, 32))
        assert not outcome.feasible

    def test_report_recomputable(self, config):
        env = DownlinkEnv(config, Variant.ORESOU)
        env.reset(np.random.default_rng(8))
        _, outcome = env.step(np.random.default_rng(9).uniform(-1, 1, 80))
        redo = sinr_report(
            cascaded_channel(env.channels, outcome.phases) @ outcome.f_hat.f_hat,
            config.noise_power,
        )
        np.testing.assert_allclose(outcome.report.per_uav_sinr, redo.per_uav_sinr, rtol=1e-12)


class TestStepRejectsMalformedActions:
    # a malformed action is a caller error, not an infeasible step
    @pytest.mark.parametrize("variant", list(Variant))
    def test_wrong_shape_raises(self, config, variant):
        env = DownlinkEnv(config, variant)
        env.reset(np.random.default_rng(1))
        with pytest.raises(ValueError, match="action shape"):
            env.step(np.zeros(5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("variant", list(Variant))
    def test_non_finite_raises(self, config, variant, bad):
        env = DownlinkEnv(config, variant)
        env.reset(np.random.default_rng(1))
        action = np.random.default_rng(2).uniform(-1, 1, env.action_dim)
        action[-1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            env.step(action)


def _reference_state(env, prev_feature):
    ch = env.channels
    n = env.config.elements_per_ris
    g_norm = ch.g_stacked / np.repeat(ch.pathloss_bs_ris, n)[:, np.newaxis]
    h_norm = ch.h_stacked / np.repeat(ch.pathloss_ris_uav.T, n, axis=1)
    return np.concatenate(
        [
            h_norm.real.ravel(),
            h_norm.imag.ravel(),
            g_norm.real.ravel(),
            g_norm.imag.ravel(),
            [prev_feature],
        ]
    )


def _reference_right_pinv(a):
    """A^H (A A^H)^{-1} by an explicit Cholesky factorization and forward
    and back substitution, as right_pinv computed it before LAPACK."""
    gram = a @ a.conj().T
    n = gram.shape[0]
    low = np.zeros_like(gram)
    for k in range(n):
        d = gram[k, k].real - np.sum(np.abs(low[k, :k]) ** 2)
        if d <= 0:
            raise RankDeficientError("not positive definite")
        low[k, k] = np.sqrt(d)
        low[k + 1 :, k] = (gram[k + 1 :, k] - low[k + 1 :, :k] @ low[k, :k].conj()) / low[k, k]
    rhs = np.eye(n, dtype=np.complex128)
    y = np.zeros_like(rhs)
    for i in range(n):
        y[i] = (rhs[i] - low[i, :i] @ y[:i]) / low[i, i]
    x = np.zeros_like(rhs)
    for i in range(n - 1, -1, -1):
        x[i] = (y[i] - low[i + 1 :, i].conj() @ x[i + 1 :]) / low[i, i].real
    return a.conj().T @ x


def _reference_beamformer(raw, c):
    pairs = np.asarray(raw, dtype=float).reshape(-1, 2)
    f = (pairs[:, 0] + 1j * pairs[:, 1]).reshape(c.n_bs_antennas, c.n_uav)
    norm_sq = float(np.sum(np.abs(f) ** 2))
    if norm_sq == 0.0:
        raise ValueError("all-zero beamformer")
    return np.sqrt(c.p_max / norm_sq) * f


def _reference_lapack_pinv(a):
    """A^H (A A^H)^{-1} by LAPACK, written with numpy's plain calls: the
    Cholesky pivot test, then one solve."""
    gram = a @ a.conj().T
    try:
        low = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise RankDeficientError("not positive definite") from None
    pivots = np.diagonal(low).real ** 2
    if pivots.min() < _PIVOT_RTOL * pivots.max():
        raise RankDeficientError("pivot ratio")
    return np.linalg.solve(gram, a).conj().T


def _reference_phases(theta, one_bit):
    """PhaseConfig's wrap, then the one-bit snap by its two comparisons."""
    theta = np.mod(theta, 2 * np.pi)
    if one_bit:
        to_pi = (theta > np.pi / 2) & (theta < 3 * np.pi / 2)
        theta = np.mod(np.where(to_pi, np.pi, 0.0), 2 * np.pi)
    return theta


def _reference_report(effective, noise_power):
    powers = np.abs(effective) ** 2
    desired = np.diag(powers)
    sinr = desired / (powers.sum(axis=1) - desired + noise_power)
    min_sinr = float(sinr.min())
    min_sinr_db = float(10.0 * np.log10(min_sinr))
    return sinr, min_sinr, min_sinr_db, float(np.sum(np.log2(1.0 + sinr)))


def _reference_step(env, action, prev_feature):
    """One env step written out with numpy's plain public calls
    (``np.argmax``, ``np.eye``, ``np.angle``, ``np.sum``, ``ndarray.sum``
    and ``.min``), the state rebuilt from the channels and the IC cascade
    computed for the precoder and again for the SINRs.  Returns (state,
    reward, theta or None, f_hat or None, report tuple or None, next
    feature, IC's precoder by a hand-written Cholesky or None)."""
    c = env.config
    ne = c.n_ris_elements
    ch = env.channels

    def cascade(theta):
        return (ch.h_stacked * np.exp(1j * theta)[np.newaxis, :]) @ ch.g_stacked

    hand = None
    try:
        if env.variant is Variant.ORESOU:
            split = ne * c.n_uav
            winners = np.argmax(action[:split].reshape(-1, c.n_uav), axis=1)
            serving = np.argmax(np.eye(c.n_uav, dtype=np.int8)[winners], axis=1)
            f_hat = _reference_beamformer(action[split:], c)
            m = np.arange(ne)
            effective = ch.h_stacked.T[m, serving] * (ch.g_stacked @ f_hat)[m, serving]
            theta = _reference_phases(np.mod(-np.angle(effective), 2 * np.pi), env.one_bit)
        else:
            theta = _reference_phases(np.pi * (action[:ne] + 1.0), env.one_bit)
            if env.variant is Variant.IC:
                f_tilde = _reference_lapack_pinv(cascade(theta))
                f_hat = np.sqrt(c.p_max / float(np.sum(np.abs(f_tilde) ** 2))) * f_tilde
                hand = _reference_right_pinv(cascade(theta))
                hand = np.sqrt(c.p_max / float(np.sum(np.abs(hand) ** 2))) * hand
            else:
                f_hat = _reference_beamformer(action[ne:], c)
    except (RankDeficientError, ValueError):
        feature = PENALTY_DB / REWARD_SCALE
        return _reference_state(env, feature), feature, None, None, None, feature, None
    report = _reference_report(cascade(theta) @ f_hat, c.noise_power)
    clipped_db = float(np.clip(report[2], *MIN_SINR_CLIP_DB))
    if env.objective is Objective.MAX_MIN_SINR:
        reward = clipped_db / REWARD_SCALE
    else:
        reward = report[3] / REWARD_SCALE
    feature = clipped_db / REWARD_SCALE
    return _reference_state(env, feature), reward, theta, f_hat, report, feature, hand


def _bits(x):
    """dtype, shape and bytes: equal only for bit-identical values."""
    x = np.asarray(x)
    return x.dtype, x.shape, x.tobytes()


class TestStepMatchesReference:
    """The step equals its from-scratch reference bit for bit, for every
    variant and phase mode.  IC's precoder also stays within rounding of
    a hand-written Cholesky right inverse.  The run crosses a reset and a
    direct assignment of ``env.channels``, and every 25th JOINT or ORESOU
    action has an all-zero precoder part, an infeasible step."""

    STEPS = 300

    @pytest.mark.parametrize("objective", list(Objective))
    @pytest.mark.parametrize("one_bit", [False, True])
    @pytest.mark.parametrize("variant", list(Variant))
    def test_random_actions(self, config, variant, one_bit, objective):
        env = DownlinkEnv(config, variant, objective=objective, one_bit=one_bit)
        rng = np.random.default_rng(11)
        state = env.reset(rng)
        np.testing.assert_array_equal(state, _reference_state(env, 0.0))
        with_precoder = variant is not Variant.IC
        beam = 2 * config.n_bs_antennas * config.n_uav
        feature = 0.0
        infeasible = 0
        for t in range(self.STEPS):
            if t == self.STEPS // 3:
                state = env.reset(rng)
                feature = 0.0
                np.testing.assert_array_equal(state, _reference_state(env, 0.0))
            if t == 2 * self.STEPS // 3:
                env.channels = assemble_channels(config, env.geometry, rng)
            action = rng.uniform(-1.0, 1.0, env.action_dim)
            if with_precoder and t % 25 == 24:
                action[-beam:] = 0.0
            ref_state, ref_reward, ref_theta, ref_f_hat, ref_report, feature, hand = (
                _reference_step(env, action, feature)
            )
            state, outcome = env.step(action)

            assert outcome.feasible == (ref_theta is not None)
            assert _bits(state) == _bits(ref_state)
            assert _bits(outcome.reward) == _bits(ref_reward)
            if not outcome.feasible:
                infeasible += 1
                assert outcome.phases is outcome.f_hat is outcome.report is None
                continue
            assert _bits(outcome.phases.theta) == _bits(ref_theta)
            assert _bits(outcome.f_hat.f_hat) == _bits(ref_f_hat)
            report = outcome.report
            got = (report.per_uav_sinr, report.min_sinr, report.min_sinr_db, report.sum_rate)
            for value, ref in zip(got, ref_report):
                assert _bits(value) == _bits(ref)
            if hand is not None:
                error = np.linalg.norm(outcome.f_hat.f_hat - hand)
                assert error <= 1e-12 * np.linalg.norm(hand)
        assert infeasible == (self.STEPS // 25 if with_precoder else 0)


class TestTrainingTrace:
    def _trace(self, min_db, feasible):
        n = len(min_db)
        return TrainingTrace(
            algorithm="IC",
            seed=0,
            objective="max_min_sinr",
            one_bit=False,
            p_max=1.0,
            min_sinr_db=np.array(min_db, dtype=float),
            per_uav_sinr_db=np.tile(np.array(min_db, dtype=float)[:, None], (1, 2)),
            sum_rate=np.zeros(n),
            feasible=np.array(feasible, dtype=bool),
        )

    def test_best_running_max_skips_infeasible(self):
        t = self._trace([1.0, 5.0, np.nan, 3.0], [True, True, False, True])
        np.testing.assert_array_equal(t.best_min_sinr_db, [1.0, 5.0, 5.0, 5.0])
        assert t.final_best_min_sinr_db == 5.0

    def test_rolling_mean_window(self):
        t = self._trace([0.0, 2.0, 4.0, 6.0], [True] * 4)
        roll = t.rolling_mean_sinr_db(window=2)
        np.testing.assert_allclose(roll[:, 0], [0.0, 1.0, 3.0, 5.0])

    def test_rolling_mean_skips_nan(self):
        t = self._trace([2.0, np.nan, 4.0], [True, False, True])
        roll = t.rolling_mean_sinr_db(window=3)
        np.testing.assert_allclose(roll[:, 0], [2.0, 2.0, 3.0])

    @pytest.mark.parametrize("window", [0, -2])
    def test_rolling_mean_window_below_one_rejected(self, window):
        t = self._trace([2.0, 4.0], [True, True])
        with pytest.raises(ValueError, match=rf"window must be >= 1, got {window}$"):
            t.rolling_mean_sinr_db(window)


class TestRunTraining:
    @pytest.fixture(autouse=True)
    def short_episodes(self, monkeypatch):
        monkeypatch.setattr(training, "STEPS_PER_EPISODE", 10)

    def test_short_run_shapes(self, config):
        trace = run_training(
            config,
            Variant.IC,
            total_steps=30,
            seed=0,
            hyper=fast_hyper(),
        )
        assert trace.n_steps == 30
        assert trace.algorithm == "IC"
        assert trace.feasible.all()
        assert np.isfinite(trace.final_best_min_sinr_db)
        assert trace.best_step >= 0
        assert trace.best_phases is not None

    def test_total_steps_exact_cap(self, config):
        trace = run_training(config, Variant.JOINT, total_steps=25, hyper=fast_hyper())
        assert trace.n_steps == 25

    def test_seed_reproducibility(self, config):
        kw = dict(total_steps=20, seed=3, hyper=fast_hyper())
        a = run_training(config, Variant.ORESOU, **kw)
        b = run_training(config, Variant.ORESOU, **kw)
        np.testing.assert_array_equal(a.min_sinr_db, b.min_sinr_db)

    def test_best_solution_verifiable(self, config):
        trace = run_training(config, Variant.IC, total_steps=20, hyper=fast_hyper())
        # the stored best must reproduce the recorded best value on the
        # episode's channels; re-derive them from the same seed schedule
        assert trace.final_best_min_sinr_db == pytest.approx(
            np.nanmax(trace.min_sinr_db), rel=1e-12
        )

    def test_non_finite_update_stops_the_run(self, config, monkeypatch):
        train_step = DdpgAgent.train_step
        calls = []

        def poisoned(agent, rng):
            calls.append(1)
            if len(calls) == 3:
                agent.critic.flat[0] = np.nan
            return train_step(agent, rng)

        monkeypatch.setattr(DdpgAgent, "train_step", poisoned)
        # warmup 4, batch 8: updates start at step 7, so the third is step 9
        with pytest.raises(FloatingPointError, match=r"^IC seed 5 diverged at step 9: "):
            run_training(config, Variant.IC, total_steps=30, seed=5, hyper=fast_hyper())
        assert len(calls) == 3

    @pytest.mark.parametrize("steps", [0, -5])
    @pytest.mark.parametrize(
        "run",
        [
            pytest.param(lambda c, n: run_training(c, Variant.IC, n), id="run_training"),
            pytest.param(lambda c, n: run_random_search(c, iterations=n), id="run_random_search"),
        ],
    )
    def test_fewer_than_one_step_rejected(self, config, monkeypatch, run, steps):
        built = []
        monkeypatch.setattr(training, "DownlinkEnv", lambda *a, **k: built.append(1))
        with pytest.raises(ValueError, match=rf"total_steps must be >= 1, got {steps}$"):
            run(config, steps)
        assert built == []

    @pytest.mark.parametrize("algorithm", [*Variant, RANDOM_SEARCH])
    def test_per_uav_sinr_db_is_each_steps_report_in_db(self, config, monkeypatch, algorithm):
        # the trace keeps the linear SINRs and converts them after the loop;
        # the dB values equal the per-step conversion, bit for bit
        outcomes = []
        step = DownlinkEnv.step

        def recording(env, action):
            out = step(env, action)
            outcomes.append(out[1])
            return out

        monkeypatch.setattr(DownlinkEnv, "step", recording)
        trace = run_training(config, algorithm, total_steps=40, seed=2, hyper=fast_hyper())
        assert len(outcomes) == 40
        for row, outcome in zip(trace.per_uav_sinr_db, outcomes):
            if outcome.feasible:
                expected = 10 * np.log10(outcome.report.per_uav_sinr)
                assert row.tobytes() == expected.tobytes()
            else:
                assert np.isnan(row).all()

    # warmup 4, batch 8: a 30-step run updates at steps 7-29, a 5-step run never
    @pytest.mark.parametrize(
        "steps,capacity,expected,updates",
        [
            pytest.param(30, 100_000, 30, 23, id="100000-30"),
            pytest.param(30, 12, 12, 23, id="12-12"),
            pytest.param(5, 100_000, 8, 0, id="run-shorter-than-a-batch"),
        ],
    )
    def test_replay_buffer_sized_to_the_run(
        self, config, monkeypatch, steps, capacity, expected, updates
    ):
        agents = []
        create = DdpgAgent.create.__func__

        def recording(cls, *args, **kwargs):
            agents.append(create(cls, *args, **kwargs))
            return agents[-1]

        monkeypatch.setattr(training.DdpgAgent, "create", classmethod(recording))
        run_training(
            config, Variant.IC, total_steps=steps, hyper=fast_hyper(buffer_capacity=capacity)
        )
        assert agents[0].buffer.capacity == expected
        assert agents[0].critic_opt.t == updates


class TestDefaultHyperparams:
    @pytest.mark.parametrize("variant", [Variant.IC, Variant.ORESOU, Variant.JOINT])
    def test_no_hyper_is_the_default_object(self, config, variant):
        # 1,100 steps after a 1,000-step warmup: 100 updates
        a = run_training(config, variant, total_steps=1100, seed=1)
        b = run_training(config, variant, total_steps=1100, seed=1, hyper=DdpgHyperparams())
        for name in ("min_sinr_db", "per_uav_sinr_db", "sum_rate", "feasible"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)
        assert a.best_step == b.best_step


TRACE_ARRAYS = ("min_sinr_db", "per_uav_sinr_db", "sum_rate", "feasible", "best_min_sinr_db")

# one ORESOU run, saved to argv[1]: its 465-column critic input is where a
# multithreaded BLAS blocks the first layer's product differently
TRACE_CHILD = f"""
import sys
import numpy as np
from uavris.metrics import dbm_to_watts
from uavris.scene import default_config
from uavris.training import run_training
# 1,100 steps after a 1,000-step warmup: 100 updates
t = run_training(default_config(p_max=dbm_to_watts(45.0)), "ORESOU", 1100, seed=0)
np.savez(sys.argv[1], best_step=t.best_step, **{{k: getattr(t, k) for k in {TRACE_ARRAYS}}})
"""

needs_blas_thread_api = pytest.mark.skipif(
    training._blas_thread_api() is None,
    reason="numpy's BLAS exposes no OpenBLAS thread-count API",
)


class TestBlasThreadInvariance:
    def test_trace_independent_of_blas_threads(self, tmp_path):
        src = str(Path(training.__file__).parents[1])
        traces = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.npz"
            env = dict(
                os.environ,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
                OMP_NUM_THREADS=threads,
                OPENBLAS_NUM_THREADS=threads,
            )
            proc = subprocess.run(
                [sys.executable, "-c", TRACE_CHILD, str(out)],
                env=env,
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            traces.append(np.load(out))
        one, two = traces
        for name in TRACE_ARRAYS:
            assert np.array_equal(one[name], two[name], equal_nan=True), name
        assert one["best_step"] == two["best_step"]

    @pytest.fixture
    def caller_threads(self):
        get, set_ = training._blas_thread_api()
        before = get()
        set_(2)
        yield get()
        set_(before)

    @staticmethod
    def _record_threads(monkeypatch, poison_at=None):
        """Patch ``train_step`` to record the BLAS thread count of each call;
        the ``poison_at``-th call returns a nan loss."""
        get, _ = training._blas_thread_api()
        train_step = DdpgAgent.train_step
        seen = []

        def recording(agent, rng):
            seen.append(get())
            loss, mean_q = train_step(agent, rng)
            return (np.nan if len(seen) == poison_at else loss), mean_q

        monkeypatch.setattr(DdpgAgent, "train_step", recording)
        return seen

    @needs_blas_thread_api
    def test_one_thread_inside_caller_threads_after(self, config, monkeypatch, caller_threads):
        seen = self._record_threads(monkeypatch)
        run_training(config, Variant.IC, total_steps=30, hyper=fast_hyper())
        assert seen and set(seen) == {1}
        assert training._blas_thread_api()[0]() == caller_threads

    @needs_blas_thread_api
    def test_caller_threads_restored_after_divergence(self, config, monkeypatch, caller_threads):
        seen = self._record_threads(monkeypatch, poison_at=3)
        with pytest.raises(FloatingPointError, match="diverged"):
            run_training(config, Variant.IC, total_steps=30, hyper=fast_hyper())
        assert seen == [1, 1, 1]
        assert training._blas_thread_api()[0]() == caller_threads

    def test_no_thread_api_warns_once_and_runs(self, config, monkeypatch):
        monkeypatch.setattr(training, "_blas_thread_api", lambda: None)
        with pytest.warns(RuntimeWarning, match="BLAS thread count") as caught:
            trace = run_training(config, Variant.IC, total_steps=30, hyper=fast_hyper())
        assert len([w for w in caught if w.category is RuntimeWarning]) == 1
        assert trace.n_steps == 30 and trace.feasible.all()


class TestRunRandomSearch:
    def test_trace_fields(self, config):
        trace = run_random_search(config, iterations=50, seed=1)
        assert trace.algorithm == RANDOM_SEARCH
        assert trace.n_steps == 50
        assert trace.feasible.all()
        assert np.all(np.diff(trace.best_min_sinr_db) >= 0)

    def test_one_bit_flag_recorded(self, config):
        trace = run_random_search(config, iterations=10, seed=1, one_bit=True)
        assert trace.one_bit
        assert np.isin(trace.best_phases.theta, (0.0, np.pi)).all()

    def test_seed_reproducibility(self, config):
        a = run_random_search(config, iterations=40, seed=5)
        b = run_random_search(config, iterations=40, seed=5)
        np.testing.assert_array_equal(a.min_sinr_db, b.min_sinr_db)

    def test_best_improves_with_budget(self, config):
        short = run_random_search(config, iterations=20, seed=2)
        long = run_random_search(config, iterations=400, seed=2)
        assert long.final_best_min_sinr_db >= short.final_best_min_sinr_db

    @staticmethod
    def _reference(config, iterations, seed, one_bit):
        """The random search as its own loop over ``random_search_step``,
        which the shared training loop replaced."""
        rng = np.random.default_rng(seed)
        geometry = build_geometry(config)
        min_db = np.empty(iterations)
        per_uav = np.empty((iterations, config.n_uav))
        sum_rate = np.empty(iterations)
        best_val, best = -np.inf, (None, None, -1)
        for t in range(iterations):
            if t % training.STEPS_PER_EPISODE == 0:
                channels = assemble_channels(config, geometry, rng)
            phases, f_hat, report = random_search_step(
                rng, channels, config.p_max, config.noise_power, one_bit=one_bit
            )
            min_db[t] = report.min_sinr_db
            per_uav[t] = report.per_uav_sinr_db
            sum_rate[t] = report.sum_rate
            if report.min_sinr_db > best_val:
                best_val, best = report.min_sinr_db, (phases, f_hat, t)
        return min_db, per_uav, sum_rate, best

    @pytest.mark.parametrize("one_bit", [False, True])
    @pytest.mark.parametrize("p_max_dbm", [20.0, 45.0])
    def test_bit_identical_to_own_loop(self, p_max_dbm, one_bit):
        config = default_config(p_max=dbm_to_watts(p_max_dbm))
        trace = run_random_search(config, iterations=1200, seed=3, one_bit=one_bit)
        min_db, per_uav, sum_rate, (phases, f_hat, step) = self._reference(
            config, 1200, 3, one_bit
        )
        assert trace.feasible.all()
        assert np.array_equal(trace.min_sinr_db, min_db)
        assert np.array_equal(trace.per_uav_sinr_db, per_uav)
        assert np.array_equal(trace.sum_rate, sum_rate)
        assert np.array_equal(trace.best_min_sinr_db, np.maximum.accumulate(min_db))
        assert trace.best_step == step
        assert np.array_equal(trace.best_phases.theta, phases.theta)
        assert np.array_equal(trace.best_f_hat.f_hat, f_hat.f_hat)
