"""Small fully-connected networks with hand-coded reverse-mode gradients,
plus an Adam optimizer, in numpy.  Inputs may be a single vector, a
(batch, features) array or a factored batch.

A factored batch is a tuple ``(contexts, index, tail)`` standing for the
array whose row i is ``contexts[index[i]]`` followed by ``tail[i]``.  The
first layer's product then runs over the k contexts, not the n rows, and
is gathered per row before the tail's product is added; its weight
gradient sums the upstream rows per context (a one-hot product) before
multiplying by the contexts.  ``DdpgAgent`` trains on replay batches in
this form: a batch of 64 states holds a few episodes' channel features.

All parameters of a network live in one flat vector; the per-layer
weight/bias arrays are views into it (a copied or unpickled network
rebuilds them), so an optimizer step is a few whole-vector operations.

Precision.  The dtype of a network's ``flat`` vector is the dtype of all
of its arithmetic: inputs and upstream gradients are cast to it, and
gradients, optimizer moments and scratch are allocated in it.
``Mlp.create`` defaults to float64; ``DdpgAgent`` trains in float32.
Scalars that meet these arrays are Python floats, or 0-d arrays that
round as they do under NEP 50 and NumPy 1.24's value-based casting alike
(of the arrays' dtype, or float32 holding 0) and cost less per call, never
numpy float64 scalars: under NumPy's promotion rules a float64 scalar
would lift every float32 product to float64 and round it back.

Buffers.  A training step allocates nothing of parameter size:

* ``mlp_gradients(..., out=g)`` writes the parameter gradients into
  ``g`` in the flat layout (the returned per-layer arrays are views into
  it) and leaves every other argument untouched.
* ``Adam.step(params, grads)`` consumes ``grads`` as scratch.  The
  optimizer owns its moments ``m``/``v`` and one more scratch vector,
  all allocated zero-filled on its first step.

``g`` may be longer than the parameter vector; only the leading part is
used, and it shares the parameters' dtype.  Without it the call
allocates what it needs and gives the same bits.  ``DdpgAgent`` owns one
gradient buffer, sized to its larger network, into which both networks
backpropagate; a network keeps the views of the last ``g`` it wrote.
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
]

# Adam flushes subnormal first moments every this many steps
_FLUSH_EVERY = 16
_ZERO = np.zeros((), dtype=np.float32)  # 0 in either dtype, and cheaper than 0.0


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
    _grad_views: tuple = field(init=False, default=(None,), repr=False, compare=False)

    def __post_init__(self):
        if self.output_activation not in ("identity", "tanh"):
            raise ValueError(f"unknown output activation {self.output_activation!r}")
        if self.flat.size != _param_count(self.layer_dims):
            raise ValueError("flat parameter vector does not match layer dims")
        self.weights, self.biases = _layer_views(self.flat, self.layer_dims)

    def __reduce__(self):  # copy and pickle rebuild the views on the copied vector
        return type(self), (self.flat, self.layer_dims, self.output_activation)

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


def _as_batch(x, net: Mlp):
    dtype, single = net.flat.dtype, False
    if isinstance(x, tuple):
        x = (np.asarray(x[0], dtype=dtype), x[1], np.asarray(x[2], dtype=dtype))
        width = x[0].shape[1] + x[2].shape[1]
    else:
        x = np.asarray(x, dtype=dtype)
        if x.ndim == 1:
            x, single = x[np.newaxis, :], True
        width = x.shape[1]
    if width != net.layer_dims[0]:
        raise ValueError(f"input feature size {width} != expected {net.layer_dims[0]}")
    return x, single


def _input_product(x, w: np.ndarray) -> np.ndarray:
    """``x @ w.T``.  For a factored batch, the contexts' product gathered
    per row plus the tail's."""
    if not isinstance(x, tuple):
        return x @ w.T
    contexts, index, tail = x
    c = contexts.shape[1]
    z = (contexts @ w[:, :c].T).take(index, axis=0)
    z += _backprop(tail, w[:, c:].T)
    return z


def _weight_gradient(g: np.ndarray, x, out: np.ndarray) -> None:
    """``out[:] = g.T @ x``.  For a factored batch, the rows of ``g`` are
    summed per context (a one-hot product) before the contexts' product."""
    if not isinstance(x, tuple):
        np.matmul(g.T, x, out=out)
        return
    contexts, index, tail = x
    c = contexts.shape[1]
    onehot = np.eye(len(contexts), dtype=g.dtype).take(index, axis=1)
    np.matmul((onehot @ g).T, contexts, out=out[:, :c])
    np.matmul(g.T, tail, out=out[:, c:])


def mlp_forward_cached(net: Mlp, x):
    """Forward pass returning (output, cache) for use by mlp_gradients."""
    h, single = _as_batch(x, net)
    pre_acts = []
    activations = [h]
    n_layers = len(net.weights)
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = _input_product(h, w)
        z += b
        pre_acts.append(z)
        if l < n_layers - 1:
            h = np.maximum(z, _ZERO)
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
    """``g @ w``.  With one column in ``g`` (a layer with one output, or
    the actor's one-entry tail) it is an outer product, which a broadcast
    multiply computes with the matmul's bits and without its BLAS call."""
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
        if net._grad_views[0] is not out:
            net._grad_views = (out, *_layer_views(out[: net.flat.size], net.layer_dims))
        w_grads, b_grads = net._grad_views[1:]
    for l in range(n_layers - 1, -1, -1):
        if l < n_layers - 1:
            g *= (pre_acts[l] > _ZERO).astype(g.dtype)  # g is _backprop's fresh array
        elif net.output_activation == "tanh":
            g = g * (1.0 - np.square(activations[l + 1]))
        if w_grads is not None:
            _weight_gradient(g, activations[l], w_grads[l])
            np.add.reduce(g, axis=0, out=b_grads[l])
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
    """Adaptive-moment optimizer over one flat parameter vector.

    Every ``_FLUSH_EVERY``-th step ends by setting to 0 the first moments
    below the dtype's smallest normal number (``finfo.tiny``) whose
    parameter is at least a floor.  A dead unit's gradient is exactly 0,
    so its moment decays by ``beta1`` per step through the subnormal
    range, where each pass over it runs many times slower.  From step
    ``_FLUSH_EVERY`` on, such a moment moves its parameter by at most
    S = lr * tiny / (eps * (1 - beta1**_FLUSH_EVERY)) per step.  The floor
    is 2**(nmant + 4) * S, so S is below a quarter of the float spacing
    at the parameter and p - step rounds back to p: the steps the flush
    skips change no bit.  A smaller parameter, 0 included, keeps its
    moment, which may still move it.

    The step count ``t`` and the moments ``m`` and ``v`` are state, not
    settings: the constructor takes only the four hyperparameters, and
    the moments are allocated with the scratch on the first step."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = field(init=False, default=0)
    m: np.ndarray | None = field(init=False, default=None)
    v: np.ndarray | None = field(init=False, default=None)
    _work: np.ndarray | None = field(init=False, default=None, repr=False)
    _betas: tuple = field(init=False, default=(), repr=False)

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        """Update ``params`` in place to descend along ``grads``, which
        the step overwrites."""
        if self.m is None:
            self.m, self.v, self._work = (np.zeros_like(params) for _ in range(3))
        if not self._betas:
            betas = (self.beta1, 1.0 - self.beta1, self.beta2, 1.0 - self.beta2)
            self._betas = tuple(np.array(b, dtype=self.m.dtype) for b in betas)
        if not params.shape == grads.shape == self.m.shape:
            raise ValueError("params and grads must keep the optimizer's parameter shape")
        m, v, work = self.m, self.v, self._work
        beta1, one_minus_beta1, beta2, one_minus_beta2 = self._betas
        self.t += 1
        # fused bias correction: p -= lr_t * m / (sqrt(v) + eps * sqrt(bc2)),
        # each product rounded in the same order as the unfused form;
        # scalars are Python floats or 0-d arrays of the parameters' dtype
        bc2_sqrt = math.sqrt(1.0 - self.beta2**self.t)
        lr_t = self.lr * bc2_sqrt / (1.0 - self.beta1**self.t)
        m *= beta1
        np.multiply(grads, one_minus_beta1, out=work)
        m += work
        v *= beta2
        np.square(grads, out=grads)
        grads *= one_minus_beta2
        v += grads
        np.sqrt(v, out=work)
        work += self.eps * bc2_sqrt
        np.multiply(m, lr_t, out=grads)
        grads /= work
        params -= grads
        if self.t % _FLUSH_EVERY == 0:
            self._flush_subnormal_moments(params)

    def _flush_subnormal_moments(self, params: np.ndarray) -> None:
        info = np.finfo(self.m.dtype)
        small = np.abs(self.m, out=self._work) < info.tiny
        if small.any():
            step_bound = self.lr * float(info.tiny) / (self.eps * (1.0 - self.beta1**_FLUSH_EVERY))
            small &= np.abs(params, out=self._work) >= 2.0 ** (info.nmant + 4) * step_bound
            np.copyto(self.m, 0.0, where=small)

