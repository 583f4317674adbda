import numpy as np
import pytest

from uavris.agent import DdpgAgent, DdpgHyperparams
from uavris.channel import cascaded_channel
from uavris.env import (
    MIN_SINR_CLIP_DB,
    PENALTY_DB,
    REWARD_SCALE,
    DownlinkEnv,
    Objective,
    Variant,
)
from uavris.metrics import sinr_report
from uavris.scene import default_config
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
    def test_ic_round_trip(self, config):
        env = DownlinkEnv(config, Variant.IC)
        env.reset(np.random.default_rng(1))
        action = np.random.default_rng(2).uniform(-1, 1, 32)
        phases, f_hat = env.decode(action)
        np.testing.assert_allclose(phases.theta, np.pi * (action + 1.0))
        assert f_hat.transmit_power == pytest.approx(config.p_max, rel=1e-9)
        eff = cascaded_channel(env.channels, phases) @ f_hat.f_hat
        off = eff - np.diag(np.diag(eff))
        assert np.max(np.abs(off)) <= 1e-9 * np.mean(np.abs(np.diag(eff)))

    def test_one_bit_decoding(self, config):
        env = DownlinkEnv(config, Variant.IC, one_bit=True)
        env.reset(np.random.default_rng(1))
        phases, _ = env.decode(np.random.default_rng(2).uniform(-1, 1, 32))
        assert np.isin(phases.theta, (0.0, np.pi)).all()

    def test_oresou_layout(self, config):
        env = DownlinkEnv(config, Variant.ORESOU)
        env.reset(np.random.default_rng(1))
        phases, f_hat = env.decode(np.random.default_rng(2).uniform(-1, 1, 80))
        assert phases.theta.shape == (32,)
        assert f_hat.f_hat.shape == (4, 2)

    def test_joint_layout(self, config):
        env = DownlinkEnv(config, Variant.JOINT)
        env.reset(np.random.default_rng(1))
        action = np.random.default_rng(2).uniform(-1, 1, 48)
        phases, f_hat = env.decode(action)
        np.testing.assert_allclose(phases.theta, np.pi * (action[:32] + 1.0))
        assert f_hat.transmit_power == pytest.approx(config.p_max, rel=1e-9)

    def test_bad_action_shape(self, config):
        env = DownlinkEnv(config, Variant.IC)
        env.reset(np.random.default_rng(1))
        with pytest.raises(ValueError):
            env.decode(np.zeros(31))


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
            reward=np.zeros(n),
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


class TestRunTraining:
    def test_short_run_shapes(self, config):
        trace = run_training(
            config,
            Variant.IC,
            total_steps=30,
            steps_per_episode=10,
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
        trace = run_training(
            config, Variant.JOINT, total_steps=25, steps_per_episode=10, hyper=fast_hyper()
        )
        assert trace.n_steps == 25

    def test_seed_reproducibility(self, config):
        kw = dict(total_steps=20, steps_per_episode=10, seed=3, hyper=fast_hyper())
        a = run_training(config, Variant.ORESOU, **kw)
        b = run_training(config, Variant.ORESOU, **kw)
        np.testing.assert_array_equal(a.min_sinr_db, b.min_sinr_db)

    def test_best_solution_verifiable(self, config):
        trace = run_training(
            config, Variant.IC, total_steps=20, steps_per_episode=10, hyper=fast_hyper()
        )
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
            run_training(
                config, Variant.IC, total_steps=30, steps_per_episode=10, seed=5,
                hyper=fast_hyper(),
            )
        assert len(calls) == 3


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
