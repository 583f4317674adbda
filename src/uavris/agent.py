"""DDPG agent: replay buffer, actor/critic networks with target copies,
temporal-difference critic updates and deterministic policy-gradient
actor updates, soft target blending and Gaussian exploration noise.

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
channel features once per episode (``ReplayBuffer``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .nets import (
    Adam,
    Mlp,
    mlp_forward,
    mlp_forward_cached,
    mlp_gradients,
    soft_update,
)

__all__ = ["DdpgHyperparams", "ReplayBuffer", "DdpgAgent", "NET_DTYPE"]

# Precision of everything the agent trains on; float32 halves the memory
# traffic of the update, and the environment stays float64/complex128.
NET_DTYPE = np.float32


@dataclass(frozen=True)
class DdpgHyperparams:
    """Training hyperparameters, one set for every variant.

    An action does not alter the next channel, which is redrawn each
    episode regardless, so the return is single-step (discount 0), and a
    small replay buffer keeps the critic tracking the current channel
    realization instead of an average over stale ones.  A discount above
    0 trains through the target networks, as textbook DDPG does."""

    hidden_dims: tuple[int, ...] = (128, 128)
    actor_lr: float = 3e-4
    critic_lr: float = 1e-3
    discount: float = 0.0
    soft_update_tau: float = 0.005
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
        if not 0.0 <= self.discount < 1.0:
            raise ValueError("discount must be in [0, 1)")
        if not 0.0 < self.soft_update_tau <= 1.0:
            raise ValueError("soft_update_tau must be in (0, 1]")
        for name in ("batch_size", "buffer_capacity"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 <= self.noise_std < math.inf:
            raise ValueError("noise_std must be >= 0 and finite")
        if not 0.0 < self.noise_decay <= 1.0:
            raise ValueError("noise_decay must be in (0, 1]")
        if self.warmup_steps < 0:
            raise ValueError("warmup_steps must be >= 0")


class ReplayBuffer:
    """Fixed-capacity ring buffer of (state, action, reward, next_state).

    Each state is stored in two parts: its context, every entry but the
    last, and its last entry.  Contexts live in a ring table of rows, and
    a state whose context is bit-equal to the latest stored one (compared
    by bytes, so -0.0 and NaN payloads round-trip) reuses that row.  Per
    transition the buffer keeps the row and last entry of its state and
    of its next state, the action and the reward.  Rebuilt states equal
    the float32 rows a dense buffer would hold, bit for bit.

    The environment's state is the channel features of the current
    realization plus the previous min-SINR, so a 200-step episode takes
    one row: 2,000 transitions of the default scene (state 385, action 80)
    hold about 0.7 MB instead of 6.8 MB.  When every state is distinct the
    table holds two rows more than dense state arrays would, beside the
    per-transition rows and last entries.  ``states`` and ``next_states``
    rebuild the dense arrays, zeros past ``size``.
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
        self._next_rows = np.zeros(capacity, dtype=np.intp)
        self._next_lasts = np.zeros(capacity, dtype=NET_DTYPE)
        # No row is overwritten while a transition in the ring refers to
        # it.  Rows are allocated in turn, allocation k taking row k mod
        # _max_rows, and only the latest allocation is ever reused.  So a
        # transition referring to allocation k was pushed at a push p that
        # made at most one allocation after k (its next state's).
        # Allocations k + 2 .. k + _max_rows, the last of which overwrites
        # k's row, are 2 * capacity + 1 allocations in later pushes, at most
        # two per push: the last comes at least capacity + 1 pushes after
        # p, and the ring dropped transition p at push p + capacity.
        self._max_rows = 2 * capacity + 2
        # each row is a state with its last entry left at 0, so one gather
        # and one column write rebuild a batch
        self._contexts = np.zeros((min(4, self._max_rows), state_dim), dtype=NET_DTYPE)
        self._row = -1  # the latest allocated row
        self._key = self._dtype = None  # bytes and dtype of its context as pushed
        self.size = 0
        self._head = 0

    def push(self, state, action, reward, next_state) -> None:
        i = self._head
        state, next_state = np.asarray(state), np.asarray(next_state)
        key = state[:-1].tobytes()
        if key != self._key or state.dtype is not self._dtype:
            self._allocate(state, key)
        self._state_rows[i] = self._row
        key = next_state[:-1].tobytes()
        if key != self._key or next_state.dtype is not self._dtype:
            self._allocate(next_state, key)
        self._next_rows[i] = self._row
        self._state_lasts[i] = state[-1]
        self._next_lasts[i] = next_state[-1]
        self.actions[i] = action
        self.rewards[i] = reward
        self._head = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def _allocate(self, state: np.ndarray, key: bytes) -> None:
        """Store the context of ``state`` in the next row of the ring,
        growing the table by doubling up to ``_max_rows`` rows."""
        row = (self._row + 1) % self._max_rows
        if row == len(self._contexts):
            grown = np.zeros((min(2 * row, self._max_rows), state.size), dtype=NET_DTYPE)
            grown[:row] = self._contexts
            self._contexts = grown
        self._contexts[row, :-1] = state[:-1]
        self._row, self._key, self._dtype = row, key, state.dtype

    def _rebuild(self, rows: np.ndarray, lasts: np.ndarray) -> np.ndarray:
        out = self._contexts[rows]
        out[:, -1] = lasts
        return out

    def _dense(self, rows: np.ndarray, lasts: np.ndarray) -> np.ndarray:
        out = np.zeros((self.capacity, self._contexts.shape[1]), dtype=NET_DTYPE)
        out[: self.size] = self._rebuild(rows[: self.size], lasts[: self.size])
        return out

    @property
    def states(self) -> np.ndarray:
        """The stored states as a dense (capacity, state_dim) copy."""
        return self._dense(self._state_rows, self._state_lasts)

    @property
    def next_states(self) -> np.ndarray:
        """The stored next states as a dense (capacity, state_dim) copy."""
        return self._dense(self._next_rows, self._next_lasts)

    def sample(self, rng: np.random.Generator, batch_size: int, next_states: bool = True):
        """Uniform sample with replacement of (states, actions, rewards,
        next_states); errors on an underfilled buffer.  With
        ``next_states=False`` the last item is None and no next state is
        rebuilt; the random draw is the same."""
        if self.size < batch_size:
            raise ValueError(f"buffer holds {self.size} < batch_size {batch_size}")
        idx = rng.integers(0, self.size, size=batch_size)
        return (
            self._rebuild(self._state_rows[idx], self._state_lasts[idx]),
            self.actions[idx],
            self.rewards[idx],
            self._rebuild(self._next_rows[idx], self._next_lasts[idx]) if next_states else None,
        )


@dataclass
class DdpgAgent:
    actor: Mlp
    critic: Mlp
    target_actor: Mlp
    target_critic: Mlp
    buffer: ReplayBuffer
    hyper: DdpgHyperparams
    actor_opt: Adam = field(init=False)
    critic_opt: Adam = field(init=False)
    # sized to the larger net and allocated on the first update; both nets
    # backpropagate into it, and the target blend uses it as scratch
    _grads: np.ndarray | None = field(init=False, default=None, repr=False)

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
            target_actor=actor.copy(),
            target_critic=critic.copy(),
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
        """One Adam step on the mean-squared TD error; returns the pre-step loss."""
        states, actions, rewards, next_states = batch
        n = states.shape[0]
        if self.hyper.discount == 0.0:
            # single-step return: the target networks would only add 0 * next_q
            targets = rewards
        else:
            next_actions = mlp_forward(self.target_actor, next_states)
            next_q = mlp_forward(
                self.target_critic, np.concatenate([next_states, next_actions], axis=1)
            )[:, 0]
            targets = rewards + self.hyper.discount * next_q

        sa = np.concatenate([states, actions], axis=1)
        q, cache = mlp_forward_cached(self.critic, sa)
        err = q[:, 0] - targets
        loss = float(np.mean(err**2))
        self._update(self.critic, self.critic_opt, cache, (2.0 / n) * err[:, np.newaxis])
        return loss

    def actor_train_step(self, batch) -> float:
        """Ascend the mean critic value of on-policy actions; returns the
        pre-step mean Q."""
        states = batch[0]
        n = states.shape[0]
        actions, actor_cache = mlp_forward_cached(self.actor, states)
        sa = np.concatenate([states, actions], axis=1)
        q, critic_cache = mlp_forward_cached(self.critic, sa)
        objective = float(np.mean(q))

        # d(-mean Q)/d action, chained through the actor
        upstream = np.full((n, 1), -1.0 / n, dtype=NET_DTYPE)
        _, _, action_grad = mlp_gradients(
            self.critic, critic_cache, upstream, wrt="input",
            input_columns=slice(states.shape[1], None),
        )
        self._update(self.actor, self.actor_opt, actor_cache, action_grad)
        return objective

    def _update(self, net: Mlp, opt: Adam, cache, upstream: np.ndarray) -> None:
        """Backpropagate ``upstream`` through ``net``'s cached forward pass
        into the gradient buffer and take ``opt``'s step on ``net``."""
        if self._grads is None:
            size = max(self.actor.flat.size, self.critic.flat.size)
            self._grads = np.zeros(size, dtype=NET_DTYPE)
        grads = self._grads[: net.flat.size]
        mlp_gradients(net, cache, upstream, out=grads, wrt="params")
        opt.step(net.flat, grads)

    def update_targets(self) -> None:
        tau = self.hyper.soft_update_tau
        soft_update(self.target_actor, self.actor, tau, self._grads)
        soft_update(self.target_critic, self.critic, tau, self._grads)

    def train_step(self, rng: np.random.Generator) -> tuple[float, float]:
        """Sample a batch, update critic then actor, soft-update targets.
        At discount 0 nothing reads the targets, so they keep their
        initial copies."""
        batch = self.buffer.sample(
            rng, self.hyper.batch_size, next_states=self.hyper.discount != 0.0
        )
        loss = self.critic_train_step(batch)
        objective = self.actor_train_step(batch)
        if self.hyper.discount != 0.0:
            self.update_targets()
        return loss, objective
