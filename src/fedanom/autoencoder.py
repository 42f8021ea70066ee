"""Build, train and evaluate the dense autoencoder.

The default architecture is 66 -> 128 -> 64 -> 32 -> 16 -> 32 -> 64 -> 128
-> 66 with ReLU hidden activations, a Tanh output head and dropout 0.2
after each hidden layer. Inputs are expected pre-scaled to [-1, 1] so the
Tanh head can actually reach them.

`reconstruction_errors` scores rows in blocks of 2048, so scoring memory
is bounded by the block, not the input. A short last block merges into
the one before it: a forward pass over only a few rows can take another
BLAS kernel that rounds differently, and scores must stay bit-identical
to a single pass over the whole input. A model with a one-unit layer
scores in one pass, since numpy runs that layer through BLAS gemv, whose
threaded rounding of a row moves with the row count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DivergenceError
from .numerics import (
    Activation,
    AdamState,
    LayerSpec,
    LrSchedule,
    ParameterSet,
    adam_update,
    derive_rng,
    feed_forward,
    glorot_init,
    loss_and_gradients,
    lr_at,
)


@dataclass(frozen=True)
class AutoencoderConfig:
    """Mirror-symmetric encoder/decoder stack.

    `mirror_dropout` also applies dropout at the decoder positions that
    mirror the encoder hidden layers; turn it off to restrict dropout to
    the encoder side only.
    """

    input_dim: int = 66
    hidden_dims: tuple[int, ...] = (128, 64, 32)
    bottleneck_dim: int = 16
    dropout_p: float = 0.2
    seed: int = 0
    mirror_dropout: bool = True

    def __post_init__(self):
        dims = (self.input_dim, *self.hidden_dims, self.bottleneck_dim)
        if any(int(d) < 1 for d in dims):
            raise ConfigError(f"all layer dims must be >= 1, got {dims}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError(
                f"dropout probability must be in [0, 1), got {self.dropout_p}")
        object.__setattr__(self, "hidden_dims", tuple(int(d) for d in self.hidden_dims))

    def layer_specs(self) -> tuple[LayerSpec, ...]:
        """Encoder then decoder specs; decoder mirrors the encoder."""
        enc_dims = (self.input_dim, *self.hidden_dims, self.bottleneck_dim)
        dec_dims = tuple(reversed(enc_dims))
        specs = []
        # encoder: hidden layers carry dropout, the bottleneck does not
        for i in range(len(enc_dims) - 1):
            is_bottleneck = i == len(enc_dims) - 2
            specs.append(LayerSpec(
                out_dim=enc_dims[i + 1],
                in_dim=enc_dims[i],
                activation=Activation.RELU,
                dropout=0.0 if is_bottleneck else self.dropout_p,
            ))
        # decoder: mirror positions optionally carry dropout, output is Tanh
        for i in range(len(dec_dims) - 1):
            is_output = i == len(dec_dims) - 2
            p = self.dropout_p if (self.mirror_dropout and not is_output) else 0.0
            specs.append(LayerSpec(
                out_dim=dec_dims[i + 1],
                in_dim=dec_dims[i],
                activation=Activation.TANH if is_output else Activation.RELU,
                dropout=p,
            ))
        return tuple(specs)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int = 32
    schedule: LrSchedule = LrSchedule(0.001, 1, 0.9)
    shuffle_seed: int = 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8


def build(config: AutoencoderConfig) -> ParameterSet:
    """Initialize the autoencoder parameters; deterministic per seed."""
    return glorot_init(config.layer_specs(), config.seed)


# Rows per forward pass when scoring. The widest default layer's block of
# activations is then 2 MiB, which stays in cache, and every pass is large
# enough to use the BLAS kernels one pass over all rows would.
_SCORE_ROWS = 2048


def reconstruction_errors(params: ParameterSet, data: np.ndarray) -> np.ndarray:
    """Per-sample MSE between each row and its reconstruction.

    Each forward pass takes _SCORE_ROWS rows, the last one also the short
    tail, so every pass gets at least _SCORE_ROWS rows or the whole input
    and rounds each row as one pass over all rows does (a pass over a few
    rows can take another BLAS kernel, gemv for one row).

    A layer with one output unit also goes through gemv, for any row
    count. Threaded gemv splits the rows between threads and rounds a row
    by where it falls in its thread's share, so the same row can round
    differently in a block than in the whole input: such a model scores
    the whole input in one pass.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim == 1:
        data = data[None, :]
    n = data.shape[0]
    errors = np.empty(n)
    n_blocks = max(n // _SCORE_ROWS, 1)
    if any(s.out_dim == 1 for s in params.specs):
        n_blocks = 1
    bounds = [k * _SCORE_ROWS for k in range(n_blocks)] + [n]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        block = data[lo:hi]
        diff = feed_forward(params, block)
        np.subtract(block, diff, out=diff)
        diff *= diff
        np.mean(diff, axis=1, out=errors[lo:hi])
    return errors


def _batch_masks(specs, batch_size: int, rng: np.random.Generator):
    """Fresh dropout masks for one training batch (None where p = 0).

    One uniform draw covers every layer. `Generator.random` fills doubles
    one stream output at a time, so its slices hold the same values that
    one draw per layer, in layer order, would give.
    """
    widths = [s.out_dim if s.dropout > 0.0 else 0 for s in specs]
    total = batch_size * sum(widths)
    uniform = rng.random(total) if total else None
    masks = []
    pos = 0
    for s, width in zip(specs, widths):
        if not width:
            masks.append(None)
            continue
        n = batch_size * width
        keep = uniform[pos:pos + n].reshape(batch_size, width) >= s.dropout
        masks.append(keep / (1.0 - s.dropout))
        pos += n
    return masks


def train_epochs(params: ParameterSet, data: np.ndarray, tc: TrainConfig
                 ) -> tuple[ParameterSet, list[float]]:
    """Mini-batch Adam training for `tc.epochs` epochs, from zero moments
    with `tc`'s Adam constants.

    Each epoch shuffles rows with the seeded stream, draws fresh dropout
    masks per batch, and records the mean training loss over its batches.
    Fully deterministic given (params, data, tc). `params` is left as it
    is: training works on, and returns, one copy of it.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim == 1:
        data = data[None, :]
    if data.shape[0] == 0:
        raise DataError("cannot train on an empty dataset")
    rng = derive_rng(tc.shuffle_seed)
    specs = params.specs
    current = ParameterSet(params.flat.copy(), specs)
    state = AdamState.zeros(current.n_params, tc.adam_beta1, tc.adam_beta2,
                            tc.adam_epsilon)
    grads = ParameterSet.zeros(specs)
    scratch = np.empty((2, current.n_params))
    trace: list[float] = []
    n = data.shape[0]
    for epoch in range(tc.epochs):
        order = rng.permutation(n)
        rate = lr_at(tc.schedule, epoch)
        batch_losses = []
        for start in range(0, n, tc.batch_size):
            idx = order[start:start + tc.batch_size]
            batch = data[idx]
            masks = _batch_masks(specs, len(idx), rng)
            loss, _ = loss_and_gradients(current, batch, masks, out=grads)
            if not math.isfinite(loss):
                raise DivergenceError(
                    f"non-finite training loss {loss} at epoch {epoch}, "
                    f"batch {start // tc.batch_size}",
                    epoch=epoch, batch=start // tc.batch_size)
            adam_update(current.flat, grads.flat, state, rate, scratch)
            batch_losses.append(loss)
        trace.append(float(np.mean(batch_losses)))
    return current, trace
