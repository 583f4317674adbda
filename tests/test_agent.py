import copy
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from uavris.agent import NET_DTYPE, DdpgAgent, DdpgHyperparams, ReplayBuffer
from uavris.env import Variant
from uavris.nets import flatten_gradients, mlp_forward_cached, mlp_gradients
from uavris.training import STEPS_PER_EPISODE, run_training


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
        (contexts, index, lasts), a, r = buf.sample(rng, 4)
        assert index.shape == lasts.shape == r.shape == (4,) and a.shape == (4, 2)
        # a batch of 10 from 10 states repeats some: one context per
        # distinct state, in order of first appearance
        for i in range(5, 10):
            buf.push(np.full(3, i), np.full(2, -i), float(i), np.full(3, i + 1))
        (contexts, index, lasts), _, _ = buf.sample(rng, 10)
        assert contexts.shape == (len(set(lasts.tolist())), 2)
        assert list(dict.fromkeys(index.tolist())) == list(range(len(contexts)))
        np.testing.assert_array_equal(_dense_states(contexts, index, lasts)[:, 0], lasts)

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


def _dense_states(contexts, index, lasts):
    """The (n, state_dim) array a sampled batch of states stands for."""
    return np.concatenate([contexts[index], lasts[:, np.newaxis]], axis=1)


def _each_row_its_context(states):
    """A dense batch of states as a sampled one, every row its own context."""
    states = np.asarray(states)
    return states[:, :-1], np.arange(len(states)), states[:, -1]


class _DenseReplayBuffer:
    """The replay buffer with a dense float32 state array, the reference
    the context-sharing buffer must match bit for bit.  A sample groups
    its states by the bytes of their contexts, in order of first
    appearance."""

    def __init__(self, capacity: int, state_dim: int, action_dim: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.states = np.zeros((capacity, state_dim), dtype=NET_DTYPE)
        self.actions = np.zeros((capacity, action_dim), dtype=NET_DTYPE)
        self.rewards = np.zeros(capacity, dtype=NET_DTYPE)
        self.size = 0
        self._head = 0

    def push(self, state, action, reward, next_state) -> None:
        i = self._head
        self.states[i] = state
        self.actions[i] = action
        self.rewards[i] = reward
        self._head = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, rng, batch_size):
        if self.size < batch_size:
            raise ValueError(f"buffer holds {self.size} < batch_size {batch_size}")
        idx = rng.integers(0, self.size, size=batch_size)
        states = self.states[idx]
        keys = [state[:-1].tobytes() for state in states]
        distinct = list(dict.fromkeys(keys))
        contexts = states[[keys.index(key) for key in distinct], :-1]
        index = np.array([distinct.index(key) for key in keys])
        return (contexts, index, states[:, -1]), self.actions[idx], self.rewards[idx]


def _nan(payload: int, sign: int = 0) -> float:
    """A float64 quiet NaN whose payload survives rounding to float32."""
    bits = (sign << 63) | 0x7FF8_0000_0000_0000 | (payload << 29)
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


def _assert_same_bits(a, b):
    assert a.dtype == b.dtype == NET_DTYPE and a.shape == b.shape
    assert np.array_equal(a.view(np.uint32), b.view(np.uint32))


def _transitions(seed, state_dim, action_dim, count):
    """Random transitions whose contexts are new or recur, consecutively
    and not, with next-state contexts that differ from the state's, and
    contexts that are equal as values but not as bits (0.0 and -0.0, NaNs
    with other payloads)."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(state_dim - 1)
    pool = [base]
    for value in (0.0, -0.0, _nan(1), _nan(2), _nan(1, sign=1)):
        context = base.copy()
        context[:1] = value
        pool.append(context)
    pool += [rng.standard_normal(state_dim - 1) for _ in range(3)]
    lasts = [-0.0, 0.0, _nan(3), np.inf]
    context = pool[0]
    for _ in range(count):
        draw = rng.random()
        if draw < 0.25:
            context = rng.standard_normal(state_dim - 1)
            pool.append(context)
        elif draw < 0.5:
            context = pool[rng.integers(len(pool))]
        next_context = context if rng.random() < 0.6 else pool[rng.integers(len(pool))]
        last, next_last = (
            lasts[rng.integers(len(lasts))] if rng.random() < 0.3 else rng.standard_normal()
            for _ in range(2)
        )
        yield (
            np.append(context, last),
            rng.uniform(-1.0, 1.0, action_dim),
            rng.standard_normal(),
            np.append(next_context, next_last),
        )
        context = next_context


class TestReplayBufferMatchesDense:
    @pytest.mark.parametrize(
        "capacity,state_dim,action_dim",
        [(1, 1, 1), (1, 6, 2), (2, 1, 3), (5, 7, 2), (13, 9, 3)],
    )
    def test_every_push_matches_bitwise(self, capacity, state_dim, action_dim):
        buf = ReplayBuffer(capacity, state_dim, action_dim)
        ref = _DenseReplayBuffer(capacity, state_dim, action_dim)
        pushes = 10 * capacity + 40
        for t, transition in enumerate(_transitions(capacity, state_dim, action_dim, pushes)):
            buf.push(*transition)
            ref.push(*transition)
            assert buf.size == ref.size
            for name in ("states", "actions", "rewards"):
                _assert_same_bits(getattr(buf, name), getattr(ref, name))
            # the ring keeps two rows for equal contexts pushed apart, which
            # the dense double groups as one, so the batches are compared
            # as the dense arrays they stand for
            batch_size = min(buf.size, 4)
            got, want = (
                b.sample(np.random.default_rng(t), batch_size) for b in (buf, ref)
            )
            for got_part, want_part in zip(
                (_dense_states(*got[0]), *got[1:]), (_dense_states(*want[0]), *want[1:])
            ):
                _assert_same_bits(got_part, want_part)

    def test_env_like_episodes_hold_under_a_megabyte(self):
        # 10 episodes of the default scene's 385-entry state (384 channel
        # features fixed per episode, then the previous min-SINR) with an
        # 80-entry action: dense state arrays alone held 6.2 MB
        buf = ReplayBuffer(2000, 385, 80)
        rng = np.random.default_rng(0)
        for _ in range(10):
            state = np.append(rng.standard_normal(384), 0.0)
            for _ in range(STEPS_PER_EPISODE):
                next_state = state.copy()
                next_state[-1] = rng.standard_normal()
                buf.push(state, rng.uniform(-1.0, 1.0, 80), rng.standard_normal(), next_state)
                state = next_state
        assert buf.size == 2000
        held = sum(a.nbytes for a in vars(buf).values() if isinstance(a, np.ndarray))
        assert held < 1.0e6

    def test_state_dim_must_be_positive(self):
        with pytest.raises(ValueError, match="state_dim"):
            ReplayBuffer(4, 0, 1)


class TestRunMatchesDenseBuffer:
    @pytest.mark.parametrize("discount", [0.0])  # the one discount the agent accepts
    @pytest.mark.parametrize("one_bit", [False, True])
    @pytest.mark.parametrize("variant", [Variant.IC, Variant.ORESOU, Variant.JOINT])
    def test_trace_bitwise_equal(self, config, monkeypatch, variant, one_bit, discount):
        # three episodes through a 150-row ring, which wraps twice
        hyper = DdpgHyperparams(
            hidden_dims=(16, 16), batch_size=16, buffer_capacity=150, warmup_steps=32,
            discount=discount,
        )
        steps = 2 * STEPS_PER_EPISODE + 50
        runs = [run_training(config, variant, steps, seed=3, one_bit=one_bit, hyper=hyper)]
        monkeypatch.setattr("uavris.agent.ReplayBuffer", _DenseReplayBuffer)
        runs.append(run_training(config, variant, steps, seed=3, one_bit=one_bit, hyper=hyper))
        got, want = runs
        for name in ("min_sinr_db", "per_uav_sinr_db", "sum_rate", "feasible", "best_min_sinr_db"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a.view(np.uint8), b.view(np.uint8)), name
        assert got.best_step == want.best_step
        assert np.array_equal(got.best_phases.theta, want.best_phases.theta)
        assert np.array_equal(got.best_f_hat.f_hat, want.best_f_hat.f_hat)


class TestDdpgAgent:
    def test_create_structure(self):
        agent = DdpgAgent.create(5, 3, small_hyper(), np.random.default_rng(0))
        assert agent.actor.layer_dims == [5, 16, 16, 3]
        assert agent.critic.layer_dims == [8, 16, 16, 1]
        assert agent.actor.layer_dims[-1] == 3

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
            _each_row_its_context(rng.standard_normal((8, 3))),
            rng.standard_normal((8, 2)),
            rng.standard_normal(8),
        )
        first = agent.critic_train_step(batch)
        for _ in range(200):
            last = agent.critic_train_step(batch)
        assert last < first

    def test_actor_objective_increases_on_fixed_batch(self):
        rng = np.random.default_rng(3)
        agent = DdpgAgent.create(3, 2, small_hyper(), rng)
        batch = (_each_row_its_context(rng.standard_normal((8, 3))),)
        first = agent.actor_train_step(batch)
        for _ in range(200):
            last = agent.actor_train_step(batch)
        assert last > first

    def test_actor_step_leaves_critic_unchanged(self):
        rng = np.random.default_rng(4)
        agent = DdpgAgent.create(3, 2, small_hyper(), rng)
        critic_before = agent.critic.flat.copy()
        agent.actor_train_step((_each_row_its_context(rng.standard_normal((8, 3))),))
        np.testing.assert_array_equal(agent.critic.flat, critic_before)

    def test_returned_loss_and_mean_q_are_np_means(self):
        # float32 sums over 24 rows, a count whose quotients round
        agent = _filled_agent(7, 3, small_hyper(batch_size=24), episode=4)
        rng = np.random.default_rng(9)
        for _ in range(20):
            batch = agent.buffer.sample(rng, 24)
            (contexts, index, lasts), actions, rewards = batch
            tail = np.concatenate([lasts[:, np.newaxis], actions], axis=1)
            q = mlp_forward_cached(agent.critic, (contexts, index, tail))[0]
            loss = float(np.mean((q[:, 0] - rewards) ** 2))
            assert agent.critic_train_step(batch) == loss
            lasts = lasts[:, np.newaxis]
            acts = mlp_forward_cached(agent.actor, (contexts, index, lasts))[0]
            x = (contexts, index, np.concatenate([lasts, acts], axis=1))
            mean_q = float(np.mean(mlp_forward_cached(agent.critic, x)[0]))
            assert agent.actor_train_step(batch) == mean_q

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
        # the message names the removed discount > 0 path
        with pytest.raises(ValueError, match="discount must be 0.0.*bootstrapped return"):
            DdpgHyperparams(discount=0.9)
        assert not hasattr(DdpgHyperparams(), "soft_update_tau")

    def test_batch_above_buffer_rejected(self):
        # a buffer that never holds a batch would never let the agent update
        with pytest.raises(ValueError, match="batch_size 64 exceeds buffer_capacity 32"):
            DdpgHyperparams(batch_size=64, buffer_capacity=32)
        assert DdpgHyperparams(batch_size=32, buffer_capacity=32).buffer_capacity == 32

    @pytest.mark.parametrize(
        "field,value",
        [
            ("hidden_dims", (128, 0)),
            ("actor_lr", -1.0),
            ("actor_lr", 0.0),
            ("critic_lr", float("nan")),
            ("critic_lr", float("inf")),
            ("discount", 0.99),
            ("discount", -0.5),
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
        # a batch of 1 fits the smallest buffer
        assert getattr(DdpgHyperparams(**{"batch_size": 1, field: value}), field) == value


def _reference_forward(net, contexts, index, tail):
    """Forward pass as written out, fresh arrays, on the batch whose row i
    is ``contexts[index[i]]`` then ``tail[i]``: the first layer's product
    runs over the contexts, is gathered per row, and the tail's is added."""
    c = contexts.shape[1]
    w = net.weights[0]
    z = (contexts @ w[:, :c].T)[index] + tail @ w[:, c:].T + net.biases[0]
    pre_acts, activations = [z], [(contexts, index, tail)]
    for w, b in zip(net.weights[1:], net.biases[1:]):
        activations.append(np.maximum(z, 0.0))
        z = activations[-1] @ w.T + b
        pre_acts.append(z)
    activations.append(np.tanh(z) if net.output_activation == "tanh" else z)
    return activations[-1], (pre_acts, activations, False)


def _reference_backward(net, cache, g, input_columns=slice(None)):
    """Backward pass as written out, fresh arrays, through
    ``_reference_forward``'s cache: the first layer's weight gradient sums
    the rows of ``g`` per context, a one-hot product, before the contexts'
    product, and takes the tail's product per row.  The first layer's
    input product covers ``input_columns`` only."""
    pre_acts, activations, _ = cache
    parts = []
    for l in range(len(net.weights) - 1, -1, -1):
        if l == len(net.weights) - 1:
            if net.output_activation == "tanh":
                g = g * (1.0 - activations[l + 1] ** 2)
        else:
            g = g * (pre_acts[l] > 0.0)
        if l > 0:
            w_grad = g.T @ activations[l]
        else:
            contexts, index, tail = activations[0]
            onehot = (index == np.arange(len(contexts))[:, np.newaxis]).astype(g.dtype)
            w_grad = np.concatenate([(onehot @ g).T @ contexts, g.T @ tail], axis=1)
        parts[:0] = [w_grad.ravel(), g.sum(axis=0)]
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
    """The allocate-everything DDPG update in the agent's dtype: the
    reward as the critic's target, all gradients, flattened copies and
    out-of-place optimizer updates.  The actor step's critic input
    gradient covers the action columns only."""
    (contexts, index, lasts), actions, rewards = agent.buffer.sample(rng, agent.hyper.batch_size)
    n = len(index)
    dtype = agent.critic.flat.dtype
    lasts = lasts[:, np.newaxis]
    q, cache = _reference_forward(
        agent.critic, contexts, index, np.concatenate([lasts, actions], 1)
    )
    err = q[:, 0] - rewards
    grads, _ = _reference_backward(agent.critic, cache, (2.0 / n) * err[:, np.newaxis])
    _reference_adam(agent.critic_opt, agent.critic.flat, grads)

    actions, actor_cache = _reference_forward(agent.actor, contexts, index, lasts)
    _, critic_cache = _reference_forward(
        agent.critic, contexts, index, np.concatenate([lasts, actions], 1)
    )
    _, action_grad = _reference_backward(
        agent.critic, critic_cache, np.full((n, 1), 1.0 / n, dtype=dtype),
        input_columns=slice(contexts.shape[1] + 1, None),
    )
    grads, _ = _reference_backward(agent.actor, actor_cache, action_grad)
    _reference_adam(agent.actor_opt, agent.actor.flat, -grads)


def _filled_agent(state_dim, action_dim, hyper, seed=0, transitions=128, episode=1):
    """An agent whose buffer holds ``transitions`` random ones.  Each
    ``episode`` consecutive states share their context, as an episode's
    channel features do, and differ in their last entry."""
    rng = np.random.default_rng(seed)
    agent = DdpgAgent.create(state_dim, action_dim, hyper, rng)
    for t in range(transitions):
        state = rng.standard_normal(state_dim)
        if t % episode:
            state[:-1] = context
        context = state[:-1]
        agent.buffer.push(
            state,
            rng.uniform(-1.0, 1.0, action_dim),
            rng.standard_normal(),
            rng.standard_normal(state_dim),
        )
    return agent


class TestUpdateMatchesReference:
    @pytest.mark.parametrize("discount", [0.0])  # the one discount the agent accepts
    @pytest.mark.parametrize(
        "state_dim,action_dim,hidden,batch",
        [
            pytest.param(40, 6, (32, 32), 16, id="small"),
            # the default scene's IC nets (385 -> 128 -> 128 -> 32)
            pytest.param(385, 32, (128, 128), 64, id="ic"),
            # the smoke study's IC nets
            pytest.param(385, 32, (32, 32), 32, id="smoke"),
            # ORESOU's 80-wide action
            pytest.param(385, 80, (128, 128), 64, id="oresou"),
        ],
    )
    def test_bitwise_equal_over_20_updates(
        self, state_dim, action_dim, hidden, batch, discount
    ):
        # 8 contexts of 16 states each, so batches repeat contexts
        hyper = small_hyper(hidden_dims=hidden, batch_size=batch, discount=discount)
        agent = _filled_agent(state_dim, action_dim, hyper, episode=16)
        ref = _filled_agent(state_dim, action_dim, hyper, episode=16)
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(20):
            agent.train_step(rng)
            _reference_train_step(ref, ref_rng)
        for name in ("actor", "critic"):
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
        # The update traced is the 16th, whose Adam steps end in a flush of
        # subnormal first moments.  A bias of -1000 kills the actor's first
        # hidden unit, so that bias gets no gradient, and a subnormal moment
        # planted on it gives the flush work to do.
        hyper = DdpgHyperparams(hidden_dims=(128, 128), batch_size=64, buffer_capacity=256)
        agent = _filled_agent(385, 32, hyper)
        agent.actor.biases[0][0] = -1000.0
        i = agent.actor.weights[0].size  # that bias's index in the flat vector
        rng = np.random.default_rng(0)
        for _ in range(15):
            agent.train_step(rng)
        opt = agent.actor_opt
        opt.m[i] = np.finfo(NET_DTYPE).tiny / 2
        tracemalloc.start()
        try:
            agent.train_step(rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert opt.t == 16 and opt.m[i] == 0.0
        assert peak < 1.0 * 2**20


class TestCopiedAgent:
    @pytest.mark.parametrize(
        "copy_agent",
        [copy.deepcopy, lambda agent: pickle.loads(pickle.dumps(agent))],
        ids=["deepcopy", "pickle"],
    )
    def test_trains_like_the_original(self, copy_agent):
        # a network's weights and biases are views of its parameter vector;
        # a copy whose views look into another vector would forward with
        # the weights it was copied with while Adam steps the vector.  17
        # updates pass Adam's first flush of subnormal moments.
        hyper = small_hyper(hidden_dims=(32, 32), batch_size=16)
        agent = _filled_agent(40, 6, hyper, episode=16)
        agent.train_step(np.random.default_rng(1))  # moments and buffers exist
        copied = copy_agent(agent)
        rng, copied_rng = np.random.default_rng(2), np.random.default_rng(2)
        for _ in range(17):
            agent.train_step(rng)
            copied.train_step(copied_rng)
        for name in ("actor", "critic"):
            assert np.array_equal(getattr(copied, name).flat, getattr(agent, name).flat), name
        for name in ("actor_opt", "critic_opt"):
            opt, copied_opt = getattr(agent, name), getattr(copied, name)
            assert copied_opt.t == opt.t == 18
            assert np.array_equal(copied_opt.m, opt.m) and np.array_equal(copied_opt.v, opt.v)
        state = np.random.default_rng(3).standard_normal(40)
        assert np.array_equal(copied.policy(state), agent.policy(state))

    @pytest.mark.parametrize(
        "copy_agent",
        [copy.deepcopy, lambda agent: pickle.loads(pickle.dumps(agent))],
        ids=["deepcopy", "pickle"],
    )
    def test_keeps_pushing_like_the_original(self, copy_agent):
        # a copy holds a dtype equal to, but not the same object as, the
        # dtype its latest context was pushed with.  A push of that context
        # must reuse its row in the copy as in the original, or the copy's
        # batches hold one context twice and its updates round differently
        hyper = small_hyper(hidden_dims=(32, 32), batch_size=16)
        rng = np.random.default_rng(0)
        agent = DdpgAgent.create(40, 6, hyper, rng)
        context = rng.standard_normal(39)

        def transitions(n):
            for _ in range(n):
                state = np.append(context, rng.standard_normal())
                yield state, rng.uniform(-1.0, 1.0, 6), rng.standard_normal(), state

        for transition in transitions(24):
            agent.buffer.push(*transition)
        agent.train_step(np.random.default_rng(1))
        copied = copy_agent(agent)
        rng_a, copied_rng = np.random.default_rng(2), np.random.default_rng(2)
        for _ in range(17):
            for transition in transitions(3):
                agent.buffer.push(*transition)
                copied.buffer.push(*transition)
            agent.train_step(rng_a)
            copied.train_step(copied_rng)
        sample = agent.buffer.sample(np.random.default_rng(3), 16)
        copied_sample = copied.buffer.sample(np.random.default_rng(3), 16)
        for got, expected in zip((*copied_sample[0], *copied_sample[1:]),
                                 (*sample[0], *sample[1:])):
            assert np.array_equal(got, expected)
        for name in ("actor", "critic"):
            assert np.array_equal(getattr(copied, name).flat, getattr(agent, name).flat), name
        for name in ("actor_opt", "critic_opt"):
            opt, copied_opt = getattr(agent, name), getattr(copied, name)
            assert np.array_equal(copied_opt.m, opt.m) and np.array_equal(copied_opt.v, opt.v)


class TestPerContextUpdateMatchesDense:
    def test_gradients_at_the_default_dims(self):
        # the default scene's IC nets, and a batch of 64 from 1,300
        # transitions in 200-step episodes, so 7 contexts at most
        hyper = DdpgHyperparams(buffer_capacity=1300)
        agent = _filled_agent(385, 32, hyper, transitions=1300, episode=STEPS_PER_EPISODE)
        batch = agent.buffer.sample(np.random.default_rng(0), hyper.batch_size)
        recorded = []
        for opt in (agent.critic_opt, agent.actor_opt):  # record, take no step
            opt.step = lambda params, grads: recorded.append(grads.copy())
        agent.critic_train_step(batch)
        agent.actor_train_step(batch)

        # the same update on the dense batch
        states, actions, rewards = _dense_states(*batch[0]), batch[1], batch[2]
        n = len(states)
        q, cache = mlp_forward_cached(agent.critic, np.concatenate([states, actions], 1))
        upstream = (2.0 / n) * (q[:, 0] - rewards)[:, np.newaxis]
        critic_grads = flatten_gradients(*mlp_gradients(agent.critic, cache, upstream)[:2])
        actions, actor_cache = mlp_forward_cached(agent.actor, states)
        _, cache = mlp_forward_cached(agent.critic, np.concatenate([states, actions], 1))
        _, _, action_grad = mlp_gradients(
            agent.critic, cache, np.full((n, 1), -1.0 / n, dtype=NET_DTYPE), wrt="input",
            input_columns=slice(385, None),
        )
        actor_grads = flatten_gradients(*mlp_gradients(agent.actor, actor_cache, action_grad)[:2])

        assert len(batch[0][0]) < n
        for got, want in zip(recorded, (critic_grads, actor_grads)):
            assert got.dtype == want.dtype == NET_DTYPE
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-5 * np.abs(want).max())
