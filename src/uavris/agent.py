"""DDPG agent: replay buffer, actor/critic networks with target copies,
temporal-difference critic updates and deterministic policy-gradient
actor updates, soft target blending and Gaussian exploration noise.

The networks, optimizer moments, replay buffer and update scratch are
float32 (``NET_DTYPE``); weights are drawn in float64 and rounded, so the
random stream is the one a float64 agent would draw.  The environment
side stays float64: ``policy`` and ``select_action`` return float64
actions, and stored transitions are rounded on ``push``.
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
    """Training hyperparameters; textbook DDPG values.  Per-variant
    tuned settings live in ``training.default_hyperparams``."""

    hidden_dims: tuple[int, ...] = (128, 128)
    actor_lr: float = 1e-4
    critic_lr: float = 1e-3
    discount: float = 0.99
    soft_update_tau: float = 0.005
    batch_size: int = 64
    buffer_capacity: int = 100_000
    noise_std: float = 0.2
    noise_decay: float = 0.9995
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
    """Fixed-capacity ring buffer of (state, action, reward, next_state)."""

    def __init__(self, capacity: int, state_dim: int, action_dim: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.states = np.zeros((capacity, state_dim), dtype=NET_DTYPE)
        self.actions = np.zeros((capacity, action_dim), dtype=NET_DTYPE)
        self.rewards = np.zeros(capacity, dtype=NET_DTYPE)
        self.next_states = np.zeros((capacity, state_dim), dtype=NET_DTYPE)
        self.size = 0
        self._head = 0

    def push(self, state, action, reward, next_state) -> None:
        i = self._head
        self.states[i] = state
        self.actions[i] = action
        self.rewards[i] = reward
        self.next_states[i] = next_state
        self._head = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, rng: np.random.Generator, batch_size: int):
        """Uniform sample with replacement; errors on an underfilled buffer."""
        if self.size < batch_size:
            raise ValueError(f"buffer holds {self.size} < batch_size {batch_size}")
        idx = rng.integers(0, self.size, size=batch_size)
        return (
            self.states[idx],
            self.actions[idx],
            self.rewards[idx],
            self.next_states[idx],
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
    # one gradient buffer and one scratch vector, sized to the larger net
    # and shared by every update; allocated on the first update
    _grads: np.ndarray | None = field(init=False, default=None, repr=False)
    _work: np.ndarray | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        self.actor_opt = Adam(lr=self.hyper.actor_lr)
        self.critic_opt = Adam(lr=self.hyper.critic_lr)

    def _buffers(self) -> tuple[np.ndarray, np.ndarray]:
        if self._grads is None:
            size = max(self.actor.flat.size, self.critic.flat.size)
            self._grads = np.empty(size, dtype=NET_DTYPE)
            self._work = np.empty(size, dtype=NET_DTYPE)
        return self._grads, self._work

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
        upstream = (2.0 / n) * err[:, np.newaxis]
        grads, work = self._buffers()
        grads = grads[: self.critic.flat.size]
        mlp_gradients(self.critic, cache, upstream, out=grads, wrt="params")
        self.critic_opt.step(self.critic.flat, grads, work)
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

        # d(mean Q)/d action, chained through the actor; negate for ascent
        upstream = np.full((n, 1), 1.0 / n, dtype=NET_DTYPE)
        _, _, action_grad = mlp_gradients(
            self.critic, critic_cache, upstream, wrt="input",
            input_columns=slice(states.shape[1], None),
        )
        grads, work = self._buffers()
        grads = grads[: self.actor.flat.size]
        mlp_gradients(self.actor, actor_cache, action_grad, out=grads, wrt="params")
        self.actor_opt.step(self.actor.flat, np.negative(grads, out=grads), work)
        return objective

    def update_targets(self) -> None:
        _, work = self._buffers()
        soft_update(self.target_actor, self.actor, self.hyper.soft_update_tau, work)
        soft_update(self.target_critic, self.critic, self.hyper.soft_update_tau, work)

    def train_step(self, rng: np.random.Generator) -> tuple[float, float]:
        """Sample a batch, update critic then actor, soft-update targets.
        At discount 0 nothing reads the targets, so they keep their
        initial copies."""
        batch = self.buffer.sample(rng, self.hyper.batch_size)
        loss = self.critic_train_step(batch)
        objective = self.actor_train_step(batch)
        if self.hyper.discount != 0.0:
            self.update_targets()
        return loss, objective
