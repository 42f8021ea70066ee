"""Dense neural-network math for the MLP autoencoder.

Everything operates on float64 numpy arrays: layers, the eval forward
pass, the reconstruction MSE and its reverse-mode gradient (replaying
caller-drawn dropout masks), Adam and a step-decay learning-rate schedule.

A model's parameters live in one flat float64 vector laid out per layer as
row-major weights then bias (`pack` writes it, `unpack` copies it back
into layers). `param_views` builds a `ParameterSet` whose layer weights
and biases are views into such a vector, so training updates the vector
in place with `adam_update` and the layers see the new values without a
rebuild. `loss_and_gradients` can likewise write each layer's gradient
straight into its slice of a caller's flat buffer. Only training keeps
every layer's activations; `feed_forward` (eval mode, no dropout) keeps
the current one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DataError, NumericError, ShapeError


class Activation(str, Enum):
    RELU = "relu"
    TANH = "tanh"
    IDENTITY = "identity"


class LayerSpec(NamedTuple):
    """Shape and metadata of one dense layer, enough to rebuild it."""

    out_dim: int
    in_dim: int
    activation: Activation
    dropout: float = 0.0


def _as_f64(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64)


def derive_seed(*parts: int) -> int:
    """Fold integer components into one reproducible 64-bit seed.

    Uses numpy's SeedSequence hashing, so the result is stable across
    platforms and runs. Distinct component tuples give independent streams;
    the length prefix keeps tuples injective even though SeedSequence
    ignores trailing zero entropy.
    """
    entropy = [len(parts)] + [int(p) & 0x7FFF_FFFF_FFFF_FFFF for p in parts]
    ss = np.random.SeedSequence(entropy)
    return int(ss.generate_state(1, np.uint64)[0])


def derive_rng(*parts: int) -> np.random.Generator:
    return np.random.default_rng(derive_seed(*parts))


@dataclass
class DenseLayer:
    """One dense map: activation(weights @ x + bias).

    `dropout` is the probability applied to this layer's *output* during
    training (0 disables it); it travels with the layer so training code
    needs no separate architecture description.
    """

    weights: np.ndarray
    bias: np.ndarray
    activation: Activation = Activation.IDENTITY
    dropout: float = 0.0

    def __post_init__(self):
        self.weights = _as_f64(self.weights)
        self.bias = _as_f64(self.bias)
        if self.weights.ndim != 2:
            raise ShapeError(
                f"layer weights must be 2-d, got {self.weights.ndim}-d")
        if self.bias.shape != (self.weights.shape[0],):
            raise ShapeError(
                f"bias length {self.bias.shape} does not match "
                f"out size {self.weights.shape[0]}")
        self.activation = Activation(self.activation)
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(
                f"dropout probability must be in [0, 1), got {self.dropout}")

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def n_params(self) -> int:
        return self.weights.size + self.bias.size

    def spec(self) -> LayerSpec:
        return LayerSpec(self.out_dim, self.in_dim, self.activation,
                         self.dropout)


@dataclass
class ParameterSet:
    """Ordered dense layers forming one model."""

    layers: list[DenseLayer] = field(default_factory=list)

    def __post_init__(self):
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.out_dim != nxt.in_dim:
                raise ShapeError(
                    f"layer chain broken: out size {prev.out_dim} feeds "
                    f"in size {nxt.in_dim}")

    @property
    def n_params(self) -> int:
        return sum(layer.n_params for layer in self.layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    def specs(self) -> tuple[LayerSpec, ...]:
        return tuple(layer.spec() for layer in self.layers)


def _activate_inplace(kind: Activation, z: np.ndarray) -> None:
    if kind is Activation.RELU:
        np.maximum(z, 0.0, out=z)
    elif kind is Activation.TANH:
        np.tanh(z, out=z)


def _times_activation_grad(kind: Activation, h: np.ndarray,
                           d: np.ndarray) -> np.ndarray:
    """Multiply `d` in place by the activation's derivative, written in
    terms of the activation's output `h` (ReLU: h > 0; Tanh: 1 - h^2)."""
    if kind is Activation.RELU:
        np.multiply(d, h > 0.0, out=d)
    elif kind is Activation.TANH:
        np.multiply(d, 1.0 - h * h, out=d)
    return d


def feed_forward(params: ParameterSet, x: np.ndarray) -> np.ndarray:
    """Eval-mode pass (no dropout) over a vector or a (batch, in) matrix,
    keeping only the current layer's activation alive."""
    a = _model_input(params, x)
    for layer in params.layers:
        a = a @ layer.weights.T
        a += layer.bias
        _activate_inplace(layer.activation, a)
    return a


def _model_input(params: ParameterSet, x: np.ndarray) -> np.ndarray:
    a = _as_f64(x)
    if a.shape[-1] != params.input_dim:
        raise ShapeError(
            f"input width {a.shape[-1]} does not match model input "
            f"{params.input_dim}")
    return a


def _forward_cached(params: ParameterSet, x: np.ndarray,
                    masks: Sequence[np.ndarray | None] | None = None):
    """Forward pass keeping, per layer, its input and its activation output
    before dropout, for the backward pass."""
    a = _model_input(params, x)
    if masks is not None and len(masks) != len(params.layers):
        raise ShapeError(
            f"got {len(masks)} dropout masks for {len(params.layers)} layers")
    inputs = []    # post-dropout input fed to each layer
    outputs = []   # activation(W @ a + b) per layer, before dropout
    for i, layer in enumerate(params.layers):
        inputs.append(a)
        h = a @ layer.weights.T
        h += layer.bias
        _activate_inplace(layer.activation, h)
        outputs.append(h)
        a = h if masks is None or masks[i] is None else h * masks[i]
    return a, inputs, outputs


def loss_and_gradients(params: ParameterSet, batch: np.ndarray,
                       masks: Sequence[np.ndarray | None] | None = None,
                       out: np.ndarray | None = None
                       ) -> tuple[float, np.ndarray]:
    """Mean reconstruction MSE of a batch and its gradient w.r.t. the
    packed parameters (reverse-mode through the autoencoder graph).

    The gradient is written into `out`, a flat float64 buffer laid out as
    `pack` lays out parameters, and `out` is returned; without one a new
    buffer is allocated.
    """
    batch = _as_f64(batch)
    if batch.ndim == 1:
        batch = batch[None, :]
    if batch.shape[0] == 0:
        raise DataError("cannot compute gradients on an empty batch")
    if out is None:
        out = np.empty(params.n_params)
    grads = _layer_slices(out, [layer.weights.shape
                                for layer in params.layers])
    recon, inputs, outputs = _forward_cached(params, batch, masks)
    diff = recon - batch
    loss = float(np.mean(diff * diff))
    # d(loss)/d(post-dropout output of final layer)
    d_h = (2.0 / diff.size) * diff
    for i in range(len(params.layers) - 1, -1, -1):
        layer = params.layers[i]
        d_z = d_h
        if masks is not None and masks[i] is not None:
            d_z = d_h * masks[i]
        # d_z is a temporary of this pass, so it is scaled in place
        _times_activation_grad(layer.activation, outputs[i], d_z)
        grad_w, grad_b = grads[i]
        np.matmul(d_z.T, inputs[i], out=grad_w)
        np.add.reduce(d_z, axis=0, out=grad_b)
        if i > 0:  # the gradient w.r.t. the model input is never used
            d_h = d_z @ layer.weights
    return loss, out


@dataclass
class AdamState:
    """Adam moment estimates plus the step counter.

    `adam_update` advances a state in place; `copy` gives an independent
    one.
    """

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        self.first_moment = _as_f64(self.first_moment)
        self.second_moment = _as_f64(self.second_moment)
        if self.first_moment.shape != self.second_moment.shape:
            raise ShapeError("Adam moment vectors differ in shape")
        if self.step_count < 0:
            raise ConfigError("Adam step count cannot be negative")

    @classmethod
    def zeros(cls, n: int, beta1: float = 0.9, beta2: float = 0.999,
              epsilon: float = 1e-8) -> "AdamState":
        return cls(np.zeros(n), np.zeros(n), 0, beta1, beta2, epsilon)

    def copy(self) -> "AdamState":
        return replace(self, first_moment=self.first_moment.copy(),
                       second_moment=self.second_moment.copy())


def adam_update(params: np.ndarray, grads: np.ndarray, state: AdamState,
                rate: float, scratch: np.ndarray | None = None) -> None:
    """One bias-corrected Adam update, in place.

    Overwrites `params` and the moments of `state` and advances its step
    counter. `scratch`, if given, is a (2, n) float64 work buffer reused
    across calls; otherwise one is allocated. The arithmetic follows the
    Adam paper's formulas term by term, so results do not depend on which
    buffers hold them.
    """
    m, v = state.first_moment, state.second_moment
    if params.shape != grads.shape or params.shape != m.shape:
        raise ShapeError(
            f"Adam size mismatch: params {params.shape}, grads "
            f"{grads.shape}, moments {m.shape}")
    if rate <= 0.0:
        raise ConfigError(f"learning rate must be positive, got {rate}")
    # A finite sum of squares means every entry is finite; only otherwise
    # (a non-finite entry, or overflow) scan for the first bad coordinate.
    if not math.isfinite(np.vdot(grads, grads)):
        bad = ~np.isfinite(grads)
        if bad.any():
            coord = int(np.flatnonzero(bad)[0])
            raise NumericError(
                f"non-finite gradient at coordinate {coord}: {grads[coord]}")
    if scratch is None:
        scratch = np.empty((2,) + params.shape)
    step, denom = scratch[0], scratch[1]
    t = state.step_count + 1
    b1, b2 = state.beta1, state.beta2
    # m = b1 m + (1 - b1) g
    np.multiply(m, b1, out=m)
    np.multiply(grads, 1.0 - b1, out=step)
    np.add(m, step, out=m)
    # v = b2 v + ((1 - b2) g) g
    np.multiply(v, b2, out=v)
    np.multiply(grads, 1.0 - b2, out=step)
    np.multiply(step, grads, out=step)
    np.add(v, step, out=v)
    # params -= (rate m_hat) / (sqrt(v_hat) + eps)
    np.divide(m, 1.0 - b1 ** t, out=step)
    np.multiply(step, rate, out=step)
    np.divide(v, 1.0 - b2 ** t, out=denom)
    np.sqrt(denom, out=denom)
    np.add(denom, state.epsilon, out=denom)
    np.divide(step, denom, out=step)
    np.subtract(params, step, out=params)
    state.step_count = t


@dataclass(frozen=True)
class LrSchedule:
    """Step-decay schedule: rate(e) = base * gamma ** floor(e / step)."""

    base_rate: float = 0.001
    step_size: int = 1
    gamma: float = 0.9

    def __post_init__(self):
        if self.base_rate <= 0.0:
            raise ConfigError(f"base rate must be positive, got {self.base_rate}")
        if self.step_size < 1:
            raise ConfigError(f"step size must be >= 1, got {self.step_size}")
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigError(f"gamma must be in (0, 1], got {self.gamma}")


def lr_at(schedule: LrSchedule, epoch: int) -> float:
    if epoch < 0:
        raise ConfigError(f"epoch must be nonnegative, got {epoch}")
    return schedule.base_rate * schedule.gamma ** (epoch // schedule.step_size)


def pack(params: ParameterSet) -> np.ndarray:
    """Flatten all layers: per layer, row-major weights then bias."""
    flat = np.empty(params.n_params)
    shapes = [layer.weights.shape for layer in params.layers]
    for (w, b), layer in zip(_layer_slices(flat, shapes), params.layers):
        w[...] = layer.weights
        b[...] = layer.bias
    return flat


def _layer_slices(flat: np.ndarray, shapes: Sequence[tuple[int, int]]
                  ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per layer, (weights, bias) views into `flat` in `pack` layout."""
    if (not isinstance(flat, np.ndarray) or flat.dtype != np.float64
            or not flat.flags.c_contiguous):
        raise ShapeError("parameter views need a contiguous float64 vector")
    expected = sum(o * i + o for o, i in shapes)
    if flat.shape != (expected,):
        raise ShapeError(
            f"flat vector has length {flat.shape}, specs require {expected}")
    views = []
    pos = 0
    for out_dim, in_dim in shapes:
        n_w = out_dim * in_dim
        views.append((flat[pos:pos + n_w].reshape(out_dim, in_dim),
                      flat[pos + n_w:pos + n_w + out_dim]))
        pos += n_w + out_dim
    return views


def param_views(flat: np.ndarray, specs: Sequence[LayerSpec]) -> ParameterSet:
    """A ParameterSet whose layer weights and biases are views into `flat`.

    Nothing is copied: writing to `flat` changes the layers, and the other
    way round. `flat` must be a contiguous 1-d float64 array.
    """
    views = _layer_slices(flat, [(s.out_dim, s.in_dim) for s in specs])
    return ParameterSet([DenseLayer(w, b, s.activation, s.dropout)
                         for (w, b), s in zip(views, specs)])


def unpack(flat: np.ndarray, specs: Sequence[LayerSpec]) -> ParameterSet:
    """Rebuild a ParameterSet from a flat vector and layer specs.

    The layers are views into one private copy of `flat`.
    """
    return param_views(np.array(flat, dtype=np.float64), specs)


def glorot_init(specs: Sequence[LayerSpec], seed: int) -> ParameterSet:
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases."""
    rng = derive_rng(seed)
    layers = []
    for s in specs:
        limit = math.sqrt(6.0 / (s.in_dim + s.out_dim))
        w = rng.uniform(-limit, limit, size=(s.out_dim, s.in_dim))
        layers.append(DenseLayer(w, np.zeros(s.out_dim), s.activation,
                                 s.dropout))
    return ParameterSet(layers)
