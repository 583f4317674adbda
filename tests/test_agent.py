import math
import tracemalloc

import numpy as np
import pytest

from uavris.agent import DdpgAgent, DdpgHyperparams, ReplayBuffer
from uavris.nets import mlp_forward, mlp_forward_cached


def small_hyper(**overrides):
    base = dict(
        hidden_dims=(16, 16),
        batch_size=8,
        buffer_capacity=256,
        warmup_steps=0,
    )
    base.update(overrides)
    return DdpgHyperparams(**base)


class TestReplayBuffer:
    def test_push_and_sample_shapes(self):
        buf = ReplayBuffer(capacity=10, state_dim=3, action_dim=2)
        rng = np.random.default_rng(0)
        for i in range(5):
            buf.push(np.full(3, i), np.full(2, -i), float(i), np.full(3, i + 1))
        s, a, r, ns = buf.sample(rng, 4)
        assert s.shape == (4, 3) and a.shape == (4, 2) and r.shape == (4,)
        assert ns.shape == (4, 3)

    def test_ring_overwrite(self):
        buf = ReplayBuffer(capacity=3, state_dim=1, action_dim=1)
        for i in range(5):
            buf.push([i], [0], 0.0, [0])
        assert buf.size == 3
        # oldest entries (0, 1) were overwritten by 3 and 4
        np.testing.assert_array_equal(np.sort(buf.states[:, 0]), [2, 3, 4])

    def test_underfilled_errors(self):
        buf = ReplayBuffer(capacity=10, state_dim=1, action_dim=1)
        buf.push([0], [0], 0.0, [0])
        with pytest.raises(ValueError):
            buf.sample(np.random.default_rng(0), 2)

    def test_transitions_stored_faithfully(self):
        buf = ReplayBuffer(capacity=4, state_dim=2, action_dim=1)
        buf.push([1.0, 2.0], [0.5], -3.0, [4.0, 5.0])
        np.testing.assert_array_equal(buf.states[0], [1.0, 2.0])
        np.testing.assert_array_equal(buf.actions[0], [0.5])
        assert buf.rewards[0] == -3.0
        np.testing.assert_array_equal(buf.next_states[0], [4.0, 5.0])


class TestDdpgAgent:
    def test_create_structure(self):
        agent = DdpgAgent.create(5, 3, small_hyper(), np.random.default_rng(0))
        assert agent.actor.layer_dims == [5, 16, 16, 3]
        assert agent.critic.layer_dims == [8, 16, 16, 1]
        assert agent.actor.layer_dims[-1] == 3
        np.testing.assert_array_equal(agent.actor.flat, agent.target_actor.flat)
        np.testing.assert_array_equal(agent.critic.flat, agent.target_critic.flat)

    def test_policy_bounded(self):
        agent = DdpgAgent.create(4, 2, small_hyper(), np.random.default_rng(1))
        out = agent.policy(np.random.default_rng(0).standard_normal(4) * 10)
        assert (np.abs(out) <= 1.0).all()

    def test_select_action_noise_and_clip(self):
        agent = DdpgAgent.create(4, 2, small_hyper(), np.random.default_rng(1))
        state = np.zeros(4)
        clean = agent.select_action(state, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(clean, agent.policy(state))
        noisy = agent.select_action(state, 50.0, np.random.default_rng(0))
        assert (np.abs(noisy) <= 1.0).all()
        assert not np.allclose(noisy, clean)

    def test_critic_loss_decreases_on_fixed_batch(self):
        rng = np.random.default_rng(2)
        agent = DdpgAgent.create(3, 2, small_hyper(), rng)
        batch = (
            rng.standard_normal((8, 3)),
            rng.standard_normal((8, 2)),
            rng.standard_normal(8),
            rng.standard_normal((8, 3)),
        )
        first = agent.critic_train_step(batch)
        for _ in range(200):
            last = agent.critic_train_step(batch)
        assert last < first

    def test_actor_objective_increases_on_fixed_batch(self):
        rng = np.random.default_rng(3)
        agent = DdpgAgent.create(3, 2, small_hyper(), rng)
        batch = (rng.standard_normal((8, 3)),)
        first = agent.actor_train_step(batch)
        for _ in range(200):
            last = agent.actor_train_step(batch)
        assert last > first

    def test_actor_step_leaves_critic_unchanged(self):
        rng = np.random.default_rng(4)
        agent = DdpgAgent.create(3, 2, small_hyper(), rng)
        critic_before = agent.critic.flat.copy()
        agent.actor_train_step((rng.standard_normal((8, 3)),))
        np.testing.assert_array_equal(agent.critic.flat, critic_before)

    def test_update_targets_moves_toward_main(self):
        rng = np.random.default_rng(5)
        agent = DdpgAgent.create(3, 2, small_hyper(), rng)
        agent.actor.flat += 1.0
        gap_before = np.abs(agent.actor.flat - agent.target_actor.flat).max()
        agent.update_targets()
        gap_after = np.abs(agent.actor.flat - agent.target_actor.flat).max()
        assert gap_after == pytest.approx(gap_before * (1 - agent.hyper.soft_update_tau))

    def test_train_step_runs_end_to_end(self):
        rng = np.random.default_rng(6)
        agent = DdpgAgent.create(3, 2, small_hyper(), rng)
        for _ in range(16):
            s = rng.standard_normal(3)
            a = agent.select_action(s, 0.2, rng)
            agent.buffer.push(s, a, rng.standard_normal(), rng.standard_normal(3))
        loss, objective = agent.train_step(rng)
        assert np.isfinite(loss) and np.isfinite(objective)

    def test_bandit_convergence_smoke(self):
        # constant state, reward = -||a - target||^2: the policy should move
        # toward the target under plain DDPG updates
        rng = np.random.default_rng(7)
        hyper = small_hyper(discount=0.0, batch_size=32, buffer_capacity=2048)
        agent = DdpgAgent.create(1, 2, hyper, rng)
        target = np.array([0.4, -0.6])
        state = np.ones(1)
        start_err = np.abs(agent.policy(state) - target).max()
        noise = 0.3
        for t in range(3000):
            a = agent.select_action(state, noise, rng)
            r = -float(np.sum((a - target) ** 2))
            agent.buffer.push(state, a, r, state)
            if agent.buffer.size >= hyper.batch_size:
                agent.train_step(rng)
            noise *= 0.999
        end_err = np.abs(agent.policy(state) - target).max()
        assert end_err < min(0.15, start_err)


class TestHyperparams:
    def test_validation(self):
        with pytest.raises(ValueError):
            DdpgHyperparams(discount=1.0)
        with pytest.raises(ValueError):
            DdpgHyperparams(soft_update_tau=0.0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("hidden_dims", (128, 0)),
            ("actor_lr", -1.0),
            ("actor_lr", 0.0),
            ("critic_lr", float("nan")),
            ("critic_lr", float("inf")),
            ("batch_size", 0),
            ("buffer_capacity", 0),
            ("noise_std", -0.1),
            ("noise_decay", 1.5),
            ("noise_decay", 0.0),
            ("warmup_steps", -3),
        ],
    )
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            DdpgHyperparams(**{field: value})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("hidden_dims", ()),
            ("batch_size", 1),
            ("buffer_capacity", 1),
            ("noise_std", 0.0),
            ("noise_decay", 1.0),
            ("warmup_steps", 0),
        ],
    )
    def test_boundary_values_accepted(self, field, value):
        assert getattr(DdpgHyperparams(**{field: value}), field) == value


def _reference_backward(net, cache, g, input_columns=slice(None)):
    """Backward pass as first written: every product, fresh arrays; the
    first layer's input product covers ``input_columns`` only."""
    pre_acts, activations, _ = cache
    parts = []
    for l in range(len(net.weights) - 1, -1, -1):
        if l == len(net.weights) - 1:
            if net.output_activation == "tanh":
                g = g * (1.0 - activations[l + 1] ** 2)
        else:
            g = g * (pre_acts[l] > 0.0)
        parts[:0] = [(g.T @ activations[l]).ravel(), g.sum(axis=0)]
        g = g @ (net.weights[l] if l > 0 else net.weights[0][:, input_columns])
    return np.concatenate(parts), g


def _reference_adam(opt, params, grads):
    if opt.m is None:
        opt.m, opt.v = np.zeros_like(params), np.zeros_like(params)
    opt.t += 1
    bc2_sqrt = math.sqrt(1.0 - opt.beta2**opt.t)
    lr_t = opt.lr * bc2_sqrt / (1.0 - opt.beta1**opt.t)
    opt.m *= opt.beta1
    opt.m += (1.0 - opt.beta1) * grads
    opt.v *= opt.beta2
    opt.v += (1.0 - opt.beta2) * np.square(grads)
    denom = np.sqrt(opt.v)
    denom += opt.eps * bc2_sqrt
    params -= lr_t * opt.m / denom


def _reference_train_step(agent, rng):
    """The allocate-everything DDPG update in the agent's dtype: target
    passes at any discount, all gradients, flattened copies and
    out-of-place optimizer updates.  The actor step's critic input
    gradient covers the action columns only, and at discount 0 the
    targets are not blended."""
    states, actions, rewards, next_states = agent.buffer.sample(rng, agent.hyper.batch_size)
    n = states.shape[0]
    dtype = agent.critic.flat.dtype
    next_actions = mlp_forward(agent.target_actor, next_states)
    next_q = mlp_forward(agent.target_critic, np.concatenate([next_states, next_actions], 1))
    targets = rewards + agent.hyper.discount * next_q[:, 0]
    q, cache = mlp_forward_cached(agent.critic, np.concatenate([states, actions], 1))
    err = q[:, 0] - targets
    grads, _ = _reference_backward(agent.critic, cache, (2.0 / n) * err[:, np.newaxis])
    _reference_adam(agent.critic_opt, agent.critic.flat, grads)

    actions, actor_cache = mlp_forward_cached(agent.actor, states)
    _, critic_cache = mlp_forward_cached(agent.critic, np.concatenate([states, actions], 1))
    _, action_grad = _reference_backward(
        agent.critic, critic_cache, np.full((n, 1), 1.0 / n, dtype=dtype),
        input_columns=slice(states.shape[1], None),
    )
    grads, _ = _reference_backward(agent.actor, actor_cache, action_grad)
    _reference_adam(agent.actor_opt, agent.actor.flat, -grads)

    if agent.hyper.discount == 0.0:
        return
    tau = agent.hyper.soft_update_tau
    for target, main in ((agent.target_actor, agent.actor), (agent.target_critic, agent.critic)):
        target.flat *= 1.0 - tau
        target.flat += tau * main.flat


def _filled_agent(state_dim, action_dim, hyper, seed=0, transitions=128):
    rng = np.random.default_rng(seed)
    agent = DdpgAgent.create(state_dim, action_dim, hyper, rng)
    for _ in range(transitions):
        agent.buffer.push(
            rng.standard_normal(state_dim),
            rng.uniform(-1.0, 1.0, action_dim),
            rng.standard_normal(),
            rng.standard_normal(state_dim),
        )
    return agent


class TestUpdateMatchesReference:
    @pytest.mark.parametrize("discount", [0.99, 0.0])
    def test_bitwise_equal_over_20_updates(self, discount):
        hyper = small_hyper(hidden_dims=(32, 32), batch_size=16, discount=discount)
        agent = _filled_agent(40, 6, hyper)
        ref = _filled_agent(40, 6, hyper)
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(20):
            agent.train_step(rng)
            _reference_train_step(ref, ref_rng)
        for name in ("actor", "critic", "target_actor", "target_critic"):
            assert np.array_equal(getattr(agent, name).flat, getattr(ref, name).flat), name
        for name in ("actor_opt", "critic_opt"):
            opt, ref_opt = getattr(agent, name), getattr(ref, name)
            assert opt.t == ref_opt.t == 20
            assert np.array_equal(opt.m, ref_opt.m) and np.array_equal(opt.v, ref_opt.v), name

    def test_steady_state_update_allocates_no_parameter_sized_temporaries(self):
        # 385 -> 128 -> 128 -> 32 is the default scene's IC actor (70k
        # parameters per net).  With parameter-sized temporaries this update
        # peaked at 3.7 MiB; with the agent's shared buffers, at 1.5 MiB in
        # float64 and 0.7 MiB in float32, so a float64 leak fails the bound.
        hyper = DdpgHyperparams(hidden_dims=(128, 128), batch_size=64, buffer_capacity=256)
        agent = _filled_agent(385, 32, hyper)
        rng = np.random.default_rng(0)
        agent.train_step(rng)
        tracemalloc.start()
        try:
            agent.train_step(rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.0 * 2**20
