"""Dense neural-network math for the MLP autoencoder.

Everything operates on float64 numpy arrays: the eval forward pass, the
reconstruction MSE and its reverse-mode gradient (replaying caller-drawn
dropout masks), Adam and a step-decay learning-rate schedule.

A model is a `ParameterSet`: one flat float64 vector laid out per layer as
row-major weights then bias, with each layer's weights and bias built once
as views into it. Training updates the vector in place with `adam_update`
and the layers see the new values without a rebuild; `loss_and_gradients`
writes each layer's gradient into the views of a gradient set of the same
layout. `pack` and `unpack` copy a vector out of and into a set. Only
training keeps every layer's activations; `feed_forward` (eval mode, no
dropout) keeps the current one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DataError, NumericError, ShapeError


class Activation(str, Enum):
    RELU = "relu"
    TANH = "tanh"
    IDENTITY = "identity"


class LayerSpec(NamedTuple):
    """One dense layer, activation(W @ x + b) with W of shape (out_dim,
    in_dim); `dropout` is the probability applied to its output in
    training (0 disables it)."""

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


class ParameterSet:
    """One model: a contiguous float64 vector `flat` and its layer specs.

    `flat` holds, per layer, the row-major weights then the bias, and
    `weights[i]` and `biases[i]` are views into it, built once: writing to
    `flat` changes the layers, and the other way round. Nothing is copied,
    so `flat` must already be a contiguous 1-d float64 vector of the
    length the specs need.
    """

    def __init__(self, flat: np.ndarray, specs: Sequence[LayerSpec]):
        self.specs = _checked_specs(specs)
        if (not isinstance(flat, np.ndarray) or flat.dtype != np.float64
                or not flat.flags.c_contiguous):
            raise ShapeError("parameters need a contiguous float64 vector")
        expected = _n_params(self.specs)
        if flat.shape != (expected,):
            raise ShapeError(
                f"flat vector has length {flat.shape}, specs require "
                f"{expected}")
        self.flat = flat
        weights, biases = [], []
        pos = 0
        for s in self.specs:
            n_w = s.out_dim * s.in_dim
            weights.append(flat[pos:pos + n_w].reshape(s.out_dim, s.in_dim))
            biases.append(flat[pos + n_w:pos + n_w + s.out_dim])
            pos += n_w + s.out_dim
        self.weights: tuple[np.ndarray, ...] = tuple(weights)
        self.biases: tuple[np.ndarray, ...] = tuple(biases)

    @classmethod
    def zeros(cls, specs: Sequence[LayerSpec]) -> "ParameterSet":
        return cls(np.zeros(_n_params(_checked_specs(specs))), specs)

    @property
    def n_params(self) -> int:
        return self.flat.size

    @property
    def input_dim(self) -> int:
        return self.specs[0].in_dim


def _n_params(specs: Sequence[LayerSpec]) -> int:
    return sum(s.out_dim * s.in_dim + s.out_dim for s in specs)


def _checked_specs(specs: Sequence[LayerSpec]) -> tuple[LayerSpec, ...]:
    """The specs, each activation as an `Activation`, once every layer has
    positive int sizes, takes the previous layer's out size as its in size,
    and has a known activation and a dropout in [0, 1). An error names the
    layer and the field."""
    if not specs:
        raise ShapeError("a model needs at least one layer")
    names = [a.value for a in Activation]
    checked = []
    for i, s in enumerate(specs):
        for field, size in (("out_dim", s.out_dim), ("in_dim", s.in_dim)):
            if (isinstance(size, bool)
                    or not isinstance(size, (int, np.integer)) or size < 1):
                raise ShapeError(
                    f"layer {i}: {field} must be a positive int, got {size!r}")
        if checked and s.in_dim != checked[-1].out_dim:
            raise ShapeError(
                f"layer {i}: in_dim {s.in_dim} does not match layer {i - 1}'s "
                f"out_dim {checked[-1].out_dim}")
        if s.activation not in names:
            raise ConfigError(f"layer {i}: activation must be one of "
                              f"{' | '.join(names)}, got {s.activation!r}")
        if (isinstance(s.dropout, bool)
                or not isinstance(s.dropout, (int, float))
                or not 0.0 <= s.dropout < 1.0):
            raise ConfigError(
                f"layer {i}: dropout must be in [0, 1), got {s.dropout!r}")
        checked.append(LayerSpec(int(s.out_dim), int(s.in_dim),
                                 Activation(s.activation), float(s.dropout)))
    return tuple(checked)


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
    for w, b, s in zip(params.weights, params.biases, params.specs):
        a = a @ w.T
        a += b
        _activate_inplace(s.activation, a)
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
    if masks is not None and len(masks) != len(params.specs):
        raise ShapeError(
            f"got {len(masks)} dropout masks for {len(params.specs)} layers")
    inputs = []    # post-dropout input fed to each layer
    outputs = []   # activation(W @ a + b) per layer, before dropout
    for i, (w, b, s) in enumerate(zip(params.weights, params.biases,
                                      params.specs)):
        inputs.append(a)
        h = a @ w.T
        h += b
        _activate_inplace(s.activation, h)
        outputs.append(h)
        a = h if masks is None or masks[i] is None else h * masks[i]
    return a, inputs, outputs


def loss_and_gradients(params: ParameterSet, batch: np.ndarray,
                       masks: Sequence[np.ndarray | None] | None = None,
                       out: ParameterSet | None = None
                       ) -> tuple[float, np.ndarray]:
    """Mean reconstruction MSE of a batch and its gradient w.r.t. the
    flat parameter vector (reverse-mode through the autoencoder graph).

    Each layer's gradient is written into the matching layer views of
    `out`, a ParameterSet with the same specs as `params`, and `out.flat`
    is returned; without one a new set is allocated.
    """
    batch = _as_f64(batch)
    if batch.ndim == 1:
        batch = batch[None, :]
    if batch.shape[0] == 0:
        raise DataError("cannot compute gradients on an empty batch")
    if out is None:
        out = ParameterSet.zeros(params.specs)
    elif out.specs != params.specs:
        raise ShapeError("gradient buffer specs differ from the model's")
    recon, inputs, outputs = _forward_cached(params, batch, masks)
    diff = recon - batch
    loss = float(np.mean(diff * diff))
    # d(loss)/d(post-dropout output of final layer)
    d_h = (2.0 / diff.size) * diff
    for i in range(len(params.specs) - 1, -1, -1):
        d_z = d_h
        if masks is not None and masks[i] is not None:
            d_z = d_h * masks[i]
        # d_z is a temporary of this pass, so it is scaled in place
        _times_activation_grad(params.specs[i].activation, outputs[i], d_z)
        np.matmul(d_z.T, inputs[i], out=out.weights[i])
        np.add.reduce(d_z, axis=0, out=out.biases[i])
        if i > 0:  # the gradient w.r.t. the model input is never used
            d_h = d_z @ params.weights[i]
    return loss, out.flat


@dataclass
class AdamState:
    """Adam moment estimates plus the step counter; `adam_update` advances
    a state in place."""

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


def lr_at(schedule: LrSchedule, epoch: int) -> float:
    return schedule.base_rate * schedule.gamma ** (epoch // schedule.step_size)


def pack(params: ParameterSet) -> np.ndarray:
    """A copy of the model's flat vector: per layer, row-major weights
    then bias."""
    return params.flat.copy()


def unpack(flat: np.ndarray, specs: Sequence[LayerSpec]) -> ParameterSet:
    """A ParameterSet over a private float64 copy of `flat`."""
    return ParameterSet(np.array(flat, dtype=np.float64), specs)


def glorot_init(specs: Sequence[LayerSpec], seed: int) -> ParameterSet:
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases."""
    params = ParameterSet.zeros(specs)
    rng = derive_rng(seed)
    for w, s in zip(params.weights, params.specs):
        limit = math.sqrt(6.0 / (s.in_dim + s.out_dim))
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    return params
