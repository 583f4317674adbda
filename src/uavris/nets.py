"""Small fully-connected networks with hand-coded reverse-mode gradients,
plus an Adam optimizer, in numpy.  Inputs may be a single vector or a
(batch, features) array.

All parameters of a network live in one flat vector; the per-layer
weight/bias arrays are views into it, so optimizer and target-network
updates are single whole-vector operations.

Precision.  The dtype of a network's ``flat`` vector is the dtype of all
of its arithmetic: inputs and upstream gradients are cast to it, and
gradients, optimizer moments and scratch are allocated in it.
``Mlp.create`` defaults to float64; ``DdpgAgent`` trains in float32.
Scalars that meet these arrays are Python floats, never numpy float64
scalars: under NumPy's promotion rules a float64 scalar would lift every
float32 product to float64 and round it back, which is slower and rounds
differently.  In float64 the two kinds of scalar give the same bits.

Buffers.  The parameter-sized functions take optional caller-owned
buffers so that a training step allocates nothing of parameter size:

* ``mlp_gradients(..., out=g)`` writes the parameter gradients into
  ``g`` in the flat layout (the returned per-layer arrays are views into
  it) and leaves every other argument untouched.
* ``Adam.step(params, grads, work=w)`` uses ``w`` as scratch and also
  overwrites ``grads``, which the step consumes; the optimizer owns its
  moment vectors ``m``/``v``.
* ``soft_update(target, main, tau, work=w)`` uses ``w`` as scratch.

``g`` and ``w`` may be longer than the parameter vector; only the leading
part is used, and they share the parameters' dtype.  Without them each
call allocates what it needs, changes no argument other than the
parameters it updates, and gives the same bits.  ``DdpgAgent`` owns one
gradient buffer and one scratch vector, sized to its larger network and
shared by all of its updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Mlp",
    "mlp_forward",
    "mlp_forward_cached",
    "mlp_gradients",
    "flatten_gradients",
    "Adam",
    "soft_update",
]


def _layer_views(flat: np.ndarray, layer_dims: list[int]):
    weights, biases = [], []
    off = 0
    for d_in, d_out in zip(layer_dims[:-1], layer_dims[1:]):
        weights.append(flat[off : off + d_out * d_in].reshape(d_out, d_in))
        off += d_out * d_in
        biases.append(flat[off : off + d_out])
        off += d_out
    assert off == flat.size
    return weights, biases


def _param_count(layer_dims: list[int]) -> int:
    return sum((d_in + 1) * d_out for d_in, d_out in zip(layer_dims[:-1], layer_dims[1:]))


@dataclass
class Mlp:
    """Multilayer perceptron: ReLU hidden layers, 'tanh' or 'identity' output."""

    flat: np.ndarray
    layer_dims: list[int]
    output_activation: str = "identity"
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        if self.output_activation not in ("identity", "tanh"):
            raise ValueError(f"unknown output activation {self.output_activation!r}")
        if self.flat.size != _param_count(self.layer_dims):
            raise ValueError("flat parameter vector does not match layer dims")
        self.weights, self.biases = _layer_views(self.flat, self.layer_dims)

    @classmethod
    def create(
        cls,
        layer_dims: list[int],
        rng: np.random.Generator,
        output_activation: str = "identity",
        dtype=np.float64,
    ) -> "Mlp":
        """He-initialized network with parameters of ``dtype``.  Weights
        are drawn in float64 whatever the dtype, so the random stream
        does not depend on it."""
        if len(layer_dims) < 2 or any(d < 1 for d in layer_dims):
            raise ValueError(f"bad layer dims {layer_dims}")
        net = cls(
            flat=np.zeros(_param_count(layer_dims), dtype=dtype),
            layer_dims=list(layer_dims),
            output_activation=output_activation,
        )
        for w in net.weights:
            # He-style fan-in scaling keeps activations O(1) through ReLU stacks
            w[:] = rng.standard_normal(w.shape) / np.sqrt(w.shape[1])
        return net

    def copy(self) -> "Mlp":
        return Mlp(
            flat=self.flat.copy(),
            layer_dims=list(self.layer_dims),
            output_activation=self.output_activation,
        )


def _as_batch(x: np.ndarray, net: Mlp) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=net.flat.dtype)
    dim = net.layer_dims[0]
    single = x.ndim == 1
    if single:
        x = x[np.newaxis, :]
    if x.shape[1] != dim:
        raise ValueError(f"input feature size {x.shape[1]} != expected {dim}")
    return x, single


def mlp_forward_cached(net: Mlp, x: np.ndarray):
    """Forward pass returning (output, cache) for use by mlp_gradients."""
    h, single = _as_batch(x, net)
    pre_acts = []
    activations = [h]
    n_layers = len(net.weights)
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = h @ w.T
        z += b
        pre_acts.append(z)
        if l < n_layers - 1:
            h = np.maximum(z, 0.0)
        elif net.output_activation == "tanh":
            h = np.tanh(z)
        else:
            h = z
        activations.append(h)
    out = h[0] if single else h
    return out, (pre_acts, activations, single)


def mlp_forward(net: Mlp, x: np.ndarray) -> np.ndarray:
    return mlp_forward_cached(net, x)[0]


def _backprop(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``g @ w``.  A layer with one output makes it an outer product,
    which a broadcast multiply computes with the same bits as the
    matmul and without its BLAS call."""
    return g * w if g.shape[1] == 1 else g @ w


def mlp_gradients(
    net: Mlp,
    cache,
    upstream: np.ndarray,
    out: np.ndarray | None = None,
    wrt: str = "all",
    input_columns: slice = slice(None),
):
    """Backpropagate ``upstream`` (d loss / d output) through the cached
    forward pass.  Returns (weight_grads, bias_grads, input_grad); batch
    gradients are summed over the batch.

    ``wrt`` limits the work to what the caller uses: "params" skips the
    first layer's input product and returns None for input_grad, "input"
    skips the parameter gradients and returns None for both lists.
    ``input_columns`` restricts input_grad, and the first layer's input
    product, to those input features (default: all of them).  With
    ``out`` (a vector of the net's dtype and at least ``net.flat.size``)
    the parameter gradients are written into it in the flat layout and
    the returned arrays are views into it; the results are identical
    either way."""
    if wrt not in ("all", "params", "input"):
        raise ValueError(f"unknown wrt {wrt!r}")
    pre_acts, activations, single = cache
    g = np.asarray(upstream, dtype=net.flat.dtype)
    if single:
        g = g[np.newaxis, :]
    n_layers = len(net.weights)
    w_grads = b_grads = input_grad = None
    if wrt != "input":
        if out is None:
            out = np.empty_like(net.flat)
        w_grads, b_grads = _layer_views(out[: net.flat.size], net.layer_dims)
    for l in range(n_layers - 1, -1, -1):
        if l == n_layers - 1:
            if net.output_activation == "tanh":
                g = g * (1.0 - activations[l + 1] ** 2)
        else:
            g = g * (pre_acts[l] > 0.0)
        if w_grads is not None:
            np.matmul(g.T, activations[l], out=w_grads[l])
            np.sum(g, axis=0, out=b_grads[l])
        if l > 0:
            g = _backprop(g, net.weights[l])
        elif wrt != "params":
            g = _backprop(g, net.weights[0][:, input_columns])
    if wrt != "params":
        input_grad = g[0] if single else g
    return w_grads, b_grads, input_grad


def flatten_gradients(w_grads, b_grads) -> np.ndarray:
    """Concatenate per-layer gradients in the network's flat layout."""
    parts = []
    for w_g, b_g in zip(w_grads, b_grads):
        parts.append(w_g.ravel())
        parts.append(b_g)
    return np.concatenate(parts)


@dataclass
class Adam:
    """Adaptive-moment optimizer over one flat parameter vector."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None

    def step(self, params: np.ndarray, grads: np.ndarray, work: np.ndarray | None = None) -> None:
        """Update ``params`` in place to descend along ``grads``.

        ``work`` is scratch of at least the parameter size; when it is
        given, ``grads`` is overwritten too.  Without it both are fresh
        arrays and ``grads`` is left intact."""
        if self.m is None:
            self.m = np.zeros_like(params)
            self.v = np.zeros_like(params)
        if params.shape != self.m.shape:
            raise ValueError("parameter size changed under the optimizer")
        if work is None:
            work, grads = np.empty_like(params), np.array(grads, dtype=params.dtype)
        else:
            work = work[: params.size]
        self.t += 1
        # fused bias correction: p -= lr_t * m / (sqrt(v) + eps * sqrt(bc2)),
        # each product rounded in the same order as the unfused form;
        # Python-float scalars keep float32 arithmetic in float32
        bc2_sqrt = math.sqrt(1.0 - self.beta2**self.t)
        lr_t = self.lr * bc2_sqrt / (1.0 - self.beta1**self.t)
        self.m *= self.beta1
        np.multiply(grads, 1.0 - self.beta1, out=work)
        self.m += work
        self.v *= self.beta2
        np.square(grads, out=grads)
        grads *= 1.0 - self.beta2
        self.v += grads
        np.sqrt(self.v, out=work)
        work += self.eps * bc2_sqrt
        np.multiply(self.m, lr_t, out=grads)
        grads /= work
        params -= grads


def soft_update(target: Mlp, main: Mlp, tau: float, work: np.ndarray | None = None) -> None:
    """Blend main parameters into the target network in place; ``work``
    is optional scratch of at least the parameter size."""
    if target.layer_dims != main.layer_dims:
        raise ValueError("target and main networks differ in structure")
    if not 0.0 < tau <= 1.0:
        raise ValueError("tau must be in (0, 1]")
    work = np.empty_like(main.flat) if work is None else work[: main.flat.size]
    target.flat *= 1.0 - tau
    np.multiply(main.flat, tau, out=work)
    target.flat += work
