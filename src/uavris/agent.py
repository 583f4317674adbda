"""DDPG agent for a single-step return: replay buffer, actor and critic
networks, critic regression onto the reward, deterministic policy-gradient
actor updates and Gaussian exploration noise.  With no bootstrapped
return there are no target networks and no soft target updates.

The networks, optimizer state, gradient buffer and replay buffer are
float32 (``NET_DTYPE``); weights are drawn in float64 and rounded, so the
random stream is the one a float64 agent would draw.  The environment
side stays float64: ``policy`` and ``select_action`` return float64
actions, and stored transitions are rounded on ``push``.

Both networks update through one path, a backward pass into one shared
gradient buffer and an Adam step; the actor's pass starts from
d(-mean Q), so Adam's descent ascends the critic's value.

The replay buffer stores the entries of a state but the last once for
all the consecutive transitions that repeat them: the environment's
channel features once per episode (``ReplayBuffer``).  A sampled batch
keeps that form, its distinct contexts and each row's, and both networks
take it as a factored batch (``nets``): their first layers run once per
context.  Next states are not stored: a single-step return never reads
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .nets import Adam, Mlp, mlp_forward, mlp_forward_cached, mlp_gradients

__all__ = ["DdpgHyperparams", "ReplayBuffer", "DdpgAgent", "NET_DTYPE"]

# Precision of everything the agent trains on; float32 halves the memory
# traffic of the update, and the environment stays float64/complex128.
NET_DTYPE = np.float32


@dataclass(frozen=True)
class DdpgHyperparams:
    """Training hyperparameters, one set for every variant.

    An action does not alter the next channel, which is redrawn each
    episode regardless, so the return is single-step, and a small replay
    buffer keeps the critic tracking the current channel realization
    instead of an average over stale ones.  ``discount`` accepts only 0,
    so the agent needs no target networks or soft updates: discount 0
    trained at least as well as 0.9 in every variant.  ``batch_size``
    may not exceed ``buffer_capacity``: a buffer that never holds a
    batch would never let the agent update."""

    hidden_dims: tuple[int, ...] = (128, 128)
    actor_lr: float = 3e-4
    critic_lr: float = 1e-3
    discount: float = 0.0
    batch_size: int = 64
    buffer_capacity: int = 2000
    noise_std: float = 0.2
    noise_decay: float = 0.9999
    warmup_steps: int = 1000

    def __post_init__(self):
        if not all(d >= 1 for d in self.hidden_dims):
            raise ValueError(f"hidden_dims must be >= 1, got {self.hidden_dims}")
        for name in ("actor_lr", "critic_lr"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.discount != 0.0:
            raise ValueError(
                f"discount must be 0.0, got {self.discount}: the bootstrapped "
                "return (target networks, soft updates) was removed"
            )
        for name in ("batch_size", "buffer_capacity"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.batch_size > self.buffer_capacity:
            raise ValueError(
                f"batch_size {self.batch_size} exceeds buffer_capacity {self.buffer_capacity}"
            )
        if not 0.0 <= self.noise_std < math.inf:
            raise ValueError("noise_std must be >= 0 and finite")
        if not 0.0 < self.noise_decay <= 1.0:
            raise ValueError("noise_decay must be in (0, 1]")
        if self.warmup_steps < 0:
            raise ValueError("warmup_steps must be >= 0")


class ReplayBuffer:
    """Fixed-capacity ring buffer of (state, action, reward).

    ``push`` takes a transition's next state too, and ignores it: a
    single-step return never reads it.  Each state is stored in two
    parts: its context, every entry but the last, and its last entry.
    Contexts live in a ring table of rows, and a state whose context is
    bit-equal to the latest stored one (compared by bytes, so -0.0 and
    NaN payloads round-trip) reuses that row.  Per transition the buffer
    keeps the row and last entry of its state, the action and the
    reward.  Rebuilt states equal the float32 rows a dense buffer would
    hold, bit for bit.

    The environment's state is the channel features of the current
    realization plus the previous min-SINR, so a 200-step episode takes
    one row: 2,000 transitions of the default scene (state 385, action 80)
    hold about 0.7 MB instead of 6.8 MB, and a batch of 64 holds at most
    11 contexts.  The table never holds more rows than the ring holds
    transitions, so when every state is distinct it is no larger than a
    dense state array.  ``states`` rebuilds the dense array, zeros past
    ``size``.
    """

    def __init__(self, capacity: int, state_dim: int, action_dim: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if state_dim < 1:
            raise ValueError("state_dim must be >= 1")
        self.capacity = capacity
        self.actions = np.zeros((capacity, action_dim), dtype=NET_DTYPE)
        self.rewards = np.zeros(capacity, dtype=NET_DTYPE)
        self._state_rows = np.zeros(capacity, dtype=np.intp)
        self._state_lasts = np.zeros(capacity, dtype=NET_DTYPE)
        # No row is overwritten while a transition in the ring refers to
        # it.  Rows are allocated in turn, allocation k taking row k mod
        # capacity, and a push refers to the latest allocation, so the
        # last push p referring to allocation k made no allocation after
        # k.  Each push makes at most one, so allocation k + capacity,
        # which overwrites k's row, comes at push p + capacity or later,
        # and push p + capacity drops transition p from the ring.
        self._contexts = np.zeros((min(4, capacity), state_dim - 1), dtype=NET_DTYPE)
        self._row = -1  # the latest allocated row
        self._key = self._dtype = None  # bytes and dtype of its context as pushed
        self.size = 0
        self._head = 0

    def push(self, state, action, reward, next_state) -> None:
        i = self._head
        state = np.asarray(state)
        key = state[:-1].tobytes()
        # by value: a copied or unpickled buffer holds another, equal dtype
        if key != self._key or state.dtype != self._dtype:
            self._allocate(state, key)
        self._state_rows[i] = self._row
        self._state_lasts[i] = state[-1]
        self.actions[i] = action
        self.rewards[i] = reward
        self._head = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def _allocate(self, state: np.ndarray, key: bytes) -> None:
        """Store the context of ``state`` in the next row of the ring,
        growing the table by doubling up to ``capacity`` rows."""
        row = (self._row + 1) % self.capacity
        if row == len(self._contexts):
            grown = np.zeros((min(2 * row, self.capacity), state.size - 1), dtype=NET_DTYPE)
            grown[:row] = self._contexts
            self._contexts = grown
        self._contexts[row] = state[:-1]
        self._row, self._key, self._dtype = row, key, state.dtype

    @property
    def states(self) -> np.ndarray:
        """The stored states as a dense (capacity, state_dim) copy."""
        n = self.size
        out = np.zeros((self.capacity, self._contexts.shape[1] + 1), dtype=NET_DTYPE)
        out[:n, :-1] = self._contexts[self._state_rows[:n]]
        out[:n, -1] = self._state_lasts[:n]
        return out

    def sample(self, rng: np.random.Generator, batch_size: int):
        """Uniform sample with replacement of ((contexts, index, lasts),
        actions, rewards); errors on an underfilled buffer.  State i of
        the batch is ``contexts[index[i]]`` followed by ``lasts[i]``; the
        contexts are the batch's distinct rows, in order of first
        appearance."""
        if self.size < batch_size:
            raise ValueError(f"buffer holds {self.size} < batch_size {batch_size}")
        idx = rng.integers(0, self.size, size=batch_size)
        first = {}
        index = [first.setdefault(row, len(first)) for row in self._state_rows.take(idx).tolist()]
        contexts = self._contexts.take(list(first), axis=0)
        states = (contexts, np.fromiter(index, np.intp, batch_size), self._state_lasts.take(idx))
        return states, self.actions.take(idx, axis=0), self.rewards.take(idx)


def _mean(x: np.ndarray) -> float:
    """``float(np.mean(x))``, rounded as it rounds, without its wrapper."""
    total = np.add.reduce(x, axis=None)
    return float(total.dtype.type(float(total) / x.size))


@dataclass
class DdpgAgent:
    actor: Mlp
    critic: Mlp
    buffer: ReplayBuffer
    hyper: DdpgHyperparams
    actor_opt: Adam = field(init=False)
    critic_opt: Adam = field(init=False)
    # sized to the larger net and allocated on the first update; both nets
    # backpropagate into it
    _grads: np.ndarray | None = field(init=False, default=None, repr=False)
    # d(-mean Q)/dQ for the latest batch size
    _mean_q_grad: np.ndarray | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        self.actor_opt = Adam(lr=self.hyper.actor_lr)
        self.critic_opt = Adam(lr=self.hyper.critic_lr)

    @classmethod
    def create(
        cls, state_dim: int, action_dim: int, hyper: DdpgHyperparams, rng: np.random.Generator
    ) -> "DdpgAgent":
        hidden = list(hyper.hidden_dims)
        actor = Mlp.create(
            [state_dim] + hidden + [action_dim], rng, output_activation="tanh", dtype=NET_DTYPE
        )
        critic = Mlp.create([state_dim + action_dim] + hidden + [1], rng, dtype=NET_DTYPE)
        return cls(
            actor=actor,
            critic=critic,
            buffer=ReplayBuffer(hyper.buffer_capacity, state_dim, action_dim),
            hyper=hyper,
        )

    def policy(self, state: np.ndarray) -> np.ndarray:
        return mlp_forward(self.actor, state).astype(np.float64)

    def select_action(self, state: np.ndarray, noise_std: float, rng: np.random.Generator):
        """Deterministic policy output plus clipped Gaussian exploration."""
        a = self.policy(state)
        if noise_std > 0.0:
            a = a + noise_std * rng.standard_normal(a.shape)
        return np.clip(a, -1.0, 1.0)

    def critic_train_step(self, batch) -> float:
        """One Adam step on the mean-squared error of Q against the reward,
        the single-step return; returns the pre-step loss."""
        (contexts, index, lasts), actions, rewards = batch
        n = len(index)
        tail = np.concatenate([lasts[:, np.newaxis], actions], axis=1)
        q, cache = mlp_forward_cached(self.critic, (contexts, index, tail))
        err = q[:, 0] - rewards
        loss = _mean(err * err)
        self._update(self.critic, self.critic_opt, cache, (2.0 / n) * err[:, np.newaxis])
        return loss

    def actor_train_step(self, batch) -> float:
        """Ascend the mean critic value of on-policy actions; returns the
        pre-step mean Q."""
        contexts, index, lasts = batch[0]
        n = len(index)
        lasts = lasts[:, np.newaxis]
        actions, actor_cache = mlp_forward_cached(self.actor, (contexts, index, lasts))
        tail = np.concatenate([lasts, actions], axis=1)
        q, critic_cache = mlp_forward_cached(self.critic, (contexts, index, tail))
        objective = _mean(q)

        # d(-mean Q)/d action, chained through the actor
        if self._mean_q_grad is None or len(self._mean_q_grad) != n:
            self._mean_q_grad = np.full((n, 1), -1.0 / n, dtype=NET_DTYPE)
        _, _, action_grad = mlp_gradients(
            self.critic, critic_cache, self._mean_q_grad, wrt="input",
            input_columns=slice(contexts.shape[1] + 1, None),
        )
        self._update(self.actor, self.actor_opt, actor_cache, action_grad)
        return objective

    def _update(self, net: Mlp, opt: Adam, cache, upstream: np.ndarray) -> None:
        """Backpropagate ``upstream`` through ``net``'s cached forward pass
        into the gradient buffer and take ``opt``'s step on ``net``."""
        if self._grads is None:
            size = max(self.actor.flat.size, self.critic.flat.size)
            self._grads = np.zeros(size, dtype=NET_DTYPE)
        mlp_gradients(net, cache, upstream, out=self._grads, wrt="params")
        opt.step(net.flat, self._grads[: net.flat.size])

    def train_step(self, rng: np.random.Generator) -> tuple[float, float]:
        """Sample a batch and update the critic, then the actor; returns
        the critic's pre-step loss and the actor's pre-step mean Q."""
        batch = self.buffer.sample(rng, self.hyper.batch_size)
        return self.critic_train_step(batch), self.actor_train_step(batch)
