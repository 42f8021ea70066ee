"""Round-based federated orchestration.

`local_round` trains and calibrates one client from given parameters, the
one training path of both modes: a centralized run is one local round.
Each round of `run_federated` samples `clients_per_round` clients, has
each arrived one run a local round from the global parameters with the
per-round `TrainConfig`, and passes the updates (a deterministic latency
model can drop stragglers) to `aggregate`, the one server step of all
three strategies. It works in this order:

1. Sort the updates by client id, so floating-point summation does not
   depend on arrival order, and check that each has the global model's
   length.
2. Carry the global model forward when fewer than `min_participation`
   updates arrived (default two; one when each round samples a single
   client, so a single-client federation stays equivalent to centralized
   training).
3. Take the strategy step: fedavg is the plain (optionally n_k-weighted)
   mean of the client vectors; qffl and fairfedavg apply the q-FFL
   reweighted step driven by each client's local loss to the power q and
   the strategy's Lipschitz estimate L, which must be set.
4. For fairfedavg only, when participation shrank, damp the new global
   model by its relevance score against the previous round's RMS update
   summaries, the last `relevance_window` of them; then keep this round's
   in their place.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .autoencoder import (
    AutoencoderConfig,
    TrainConfig,
    build,
    reconstruction_errors,
    train_epochs,
)
from .detector import (
    SOURCE_ROUND_MIN,
    ConfusionMatrix,
    ThresholdDetector,
    classify,
    compute_threshold,
    confusion,
)
from .errors import (
    ConfigError,
    DataError,
    DegenerateAggregationError,
    DegenerateLossError,
    NumericError,
    ShapeError,
)
from .numerics import (
    LayerSpec,
    ParameterSet,
    derive_rng,
    derive_seed,
)

_STREAM_SAMPLE = 101
_STREAM_LATENCY = 102


class StrategyKind(str, Enum):
    FEDAVG = "fedavg"
    QFFL = "qffl"
    FAIR_FEDAVG = "fairfedavg"


@dataclass(frozen=True)
class StrategyConfig:
    """Aggregation strategy selector plus fairness knobs."""

    kind: StrategyKind = StrategyKind.FEDAVG
    q: float = 0.0
    lipschitz: float | None = None  # required by qffl and fairfedavg
    sample_fraction: float = 1.0
    weighted_mean: bool = False
    relevance_window: int = 64


@dataclass
class ClientState:
    """One simulated device: its local data slices and RNG identity.

    `train` holds the scaled normal rows used for local optimization;
    `val`/`attack` are the local evaluation slices (either may be empty).
    """

    client_id: int
    train: np.ndarray
    val: np.ndarray
    attack: np.ndarray
    rng_seed: int = 0

    def __post_init__(self):
        self.train = np.asarray(self.train, dtype=np.float64)
        self.val = np.asarray(self.val, dtype=np.float64)
        self.attack = np.asarray(self.attack, dtype=np.float64)
        if self.train.ndim != 2 or self.train.shape[0] == 0:
            raise DataError(
                f"client {self.client_id} has no training rows")

    @property
    def n_samples(self) -> int:
        return self.train.shape[0]


@dataclass(frozen=True)
class ClientUpdate:
    """What a client sends back after one local round."""

    client_id: int
    params: np.ndarray
    epoch_losses: tuple[float, ...]
    n_samples: int
    local_threshold: float

    @property
    def local_loss(self) -> float:
        """The last epoch's mean training loss."""
        return self.epoch_losses[-1]


@dataclass
class ServerState:
    """Global model plus the FairFedAvg bookkeeping carried across rounds.

    `prev_summaries` are the RMS summaries of the last round's q-FFL steps,
    in client-id order, cut to their last `relevance_window`.
    """

    global_params: np.ndarray
    round_index: int = 0
    prev_summaries: tuple[float, ...] = ()
    prev_participants: int = 0
    last_alpha: float = 1.0
    last_carried: bool = False


@dataclass(frozen=True)
class LatencyModel:
    """Deterministic virtual arrival delays, with an optional drop deadline.

    `delays` is the base per-client delay; `per_round` overrides it for
    specific (round, client) pairs; `jitter` adds a seeded uniform draw on
    top. Updates arriving after `drop_after` are excluded from that round's
    aggregation.
    """

    delays: dict[int, float] = field(default_factory=dict)
    per_round: dict[int, dict[int, float]] = field(default_factory=dict)
    jitter: float = 0.0
    drop_after: float | None = None


def clients_per_round(fraction: float, n_clients: int) -> int:
    """How many of `n_clients` clients each round samples."""
    return math.ceil(fraction * n_clients)


def sample_clients(all_ids: Sequence[int], fraction: float,
                   rng: np.random.Generator) -> list[int]:
    """`clients_per_round` distinct ids, uniform without replacement,
    sorted ascending."""
    ids = sorted(all_ids)
    k = clients_per_round(fraction, len(ids))
    chosen = rng.choice(len(ids), size=k, replace=False)
    return sorted(ids[int(i)] for i in chosen)


def assign_latencies(model: LatencyModel | None, client_ids: Sequence[int],
                     round_index: int, seed: int
                     ) -> tuple[list[tuple[int, float]], list[int]]:
    """Virtual arrival times for one round.

    Returns (arrival order as (client, time) pairs, active ids). All
    randomness comes from (seed, round), so replays are identical.
    """
    if model is None:
        model = LatencyModel()
    overrides = model.per_round.get(round_index, {})
    jit_rng = (derive_rng(seed, _STREAM_LATENCY, round_index)
               if model.jitter > 0.0 else None)
    times = []
    for cid in sorted(client_ids):
        t = float(overrides.get(cid, model.delays.get(cid, 0.0)))
        if jit_rng is not None:
            t += model.jitter * jit_rng.random()
        times.append((cid, t))
    order = sorted(times, key=lambda p: (p[1], p[0]))
    active = sorted(cid for cid, t in order
                    if model.drop_after is None or t <= model.drop_after)
    return order, active


def local_round(client: ClientState, global_params: np.ndarray,
                specs: Sequence[LayerSpec], tc: TrainConfig,
                use_sample_std: bool) -> ClientUpdate:
    """Train from `global_params` on the client's rows, then calibrate.

    Trains `tc.epochs` epochs from a fresh optimizer state and LR schedule
    with `tc`'s shuffle/dropout seed, then sets the local threshold at mean
    + std (sample std if `use_sample_std`) of the errors on those rows.
    Both run with numpy's overflow and invalid-value warnings off, and a
    NumericError from either is raised again prefixed `client {id}: `.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            trained, losses = train_epochs(ParameterSet(global_params, specs),
                                           client.train, tc)
            threshold = compute_threshold(
                reconstruction_errors(trained, client.train), use_sample_std)
    except NumericError as err:
        err.args = (f"client {client.client_id}: {err.args[0]}",)
        raise
    return ClientUpdate(client.client_id, trained.flat, tuple(losses),
                        client.n_samples, threshold)


def fedavg_aggregate(updates: Sequence[ClientUpdate],
                     cfg: StrategyConfig) -> np.ndarray:
    """Plain mean of the client parameter vectors, or the n_k-weighted
    mean when the weighted flag is set, summed in the order given
    (`aggregate` passes them sorted by client id)."""
    stack = np.stack([u.params for u in updates])
    if cfg.weighted_mean:
        weights = np.array([u.n_samples for u in updates], dtype=np.float64)
        weights /= weights.sum()
        return weights @ stack
    return stack.mean(axis=0)


def qffl_deltas(global_params: np.ndarray, update: ClientUpdate, q: float,
                lipschitz: float) -> tuple[np.ndarray, float]:
    """Reweighted step and Lipschitz-bound term for one update:
    dw = L (w - w_k), delta = F^q dw, h = q F^(q-1) |dw|^2 + L F^q.
    The update has the global model's length, which `aggregate` checks."""
    loss = update.local_loss
    if q > 0.0 and loss <= 0.0:
        raise DegenerateLossError(
            f"client {update.client_id} has loss {loss}; q = {q} needs a "
            f"positive local loss")
    dw = lipschitz * (global_params - update.params)
    delta = (loss ** q) * dw
    curvature = q * loss ** (q - 1.0) * float(dw @ dw) if q > 0.0 else 0.0
    h = curvature + lipschitz * loss ** q
    return delta, h


def qffl_aggregate(global_params: np.ndarray,
                   deltas: Sequence[tuple[np.ndarray, float]]) -> np.ndarray:
    """w' = w - sum(delta_k) / sum(h_k). Every delta has the global
    model's length, which `aggregate` checks of the updates."""
    total_delta = np.zeros_like(global_params)
    total_h = 0.0
    for delta, h in deltas:
        total_delta += delta
        total_h += h
    if total_h <= 0.0:
        raise DegenerateAggregationError(
            f"aggregation denominator is {total_h}")
    return global_params - total_delta / total_h


def rms_summary(v: np.ndarray) -> float:
    """Scalar summary of an update vector: ||v||_2 / sqrt(d)."""
    return float(np.linalg.norm(v) / math.sqrt(v.size))


def relevance_score(window: Sequence[float], current: float) -> float:
    """Softmax share of the current summary against the history window."""
    values = [float(s) for s in window] + [float(current)]
    peak = max(values)
    exps = [math.exp(v - peak) for v in values]
    return exps[-1] / sum(exps)


def aggregate(server: ServerState, updates: Sequence[ClientUpdate],
              cfg: StrategyConfig, min_part: int) -> ServerState:
    """One server step for every strategy, in the order the module
    docstring gives. q-FFL deltas are computed only where they are used:
    on every fairfedavg round (carried rounds set its summaries too) and
    on non-carried qffl rounds. A shrunken fairfedavg round compares
    against the previous round's summaries only, the last
    `relevance_window` of them."""
    ordered = sorted(updates, key=lambda u: u.client_id)
    width = server.global_params.shape[0]
    lengths = sorted({u.params.shape[0] for u in ordered} - {width})
    if lengths:
        raise ShapeError(
            f"update lengths {lengths} do not match the global length {width}")
    count = len(ordered)
    carried = count < min_part
    fair = cfg.kind is StrategyKind.FAIR_FEDAVG
    if cfg.kind is not StrategyKind.FEDAVG and cfg.lipschitz is None:
        raise ConfigError(
            f"{cfg.kind.value} aggregation needs a concrete Lipschitz estimate")
    deltas = []
    if fair or (cfg.kind is StrategyKind.QFFL and not carried):
        deltas = [qffl_deltas(server.global_params, u, cfg.q, cfg.lipschitz)
                  for u in ordered]
    if carried:
        new_global = server.global_params.copy()
    elif cfg.kind is StrategyKind.FEDAVG:
        new_global = fedavg_aggregate(ordered, cfg)
    else:
        new_global = qffl_aggregate(server.global_params, deltas)
    current_round = server.round_index + 1
    summaries = server.prev_summaries
    alpha = 1.0
    if fair:
        if not carried and count < server.prev_participants:
            alpha = relevance_score(summaries, rms_summary(new_global))
            if not 0.0 < alpha <= 1.0:  # the share underflowed
                raise DegenerateAggregationError(
                    f"round {current_round}: relevance score must be in "
                    f"(0, 1], got {alpha}")
            new_global = alpha * new_global
        summaries = tuple(rms_summary(d)
                          for d, _ in deltas[-cfg.relevance_window:])
    return ServerState(
        global_params=new_global,
        round_index=current_round,
        prev_summaries=summaries,
        prev_participants=count,
        last_alpha=alpha,
        last_carried=carried,
    )


@dataclass(frozen=True)
class ClientRoundRecord:
    client_id: int
    sampled: bool
    participated: bool
    local_loss: float | None
    local_threshold: float | None


@dataclass
class RoundTrace:
    round_index: int
    records: list[ClientRoundRecord]
    alpha: float
    carried_forward: bool
    global_sha256: str  # SHA-256 hex of the global float64 parameter bytes
    global_norm: float
    threshold_running_min: float | None
    pooled_confusion: ConfusionMatrix | None


@dataclass
class FederationResult:
    final_params: np.ndarray
    detector: ThresholdDetector
    rounds: list[RoundTrace]
    collected_thresholds: list[float]
    per_client: dict[int, ConfusionMatrix]  # the final model's counts


def evaluate_clients(
        params: ParameterSet, clients: Sequence[ClientState],
        detector: ThresholdDetector,
) -> tuple[dict[int, ConfusionMatrix], ConfusionMatrix | None]:
    """Score a model on each client's validation normals and attack rows.

    The one scoring path of every run: each federated round, a centralized
    run (one client holding the whole dataset) and a saved model. Returns
    the per-client confusion counts, in client-id order, then the pooled
    (summed) counts. Clients with no such rows are left out; the pooled
    counts are None when no client has any.
    """
    per_client: dict[int, ConfusionMatrix] = {}
    pooled = ConfusionMatrix(0, 0, 0, 0)
    for client in sorted(clients, key=lambda c: c.client_id):
        n_val, n_att = client.val.shape[0], client.attack.shape[0]
        if n_val + n_att == 0:
            continue
        data = np.vstack([client.val, client.attack])
        pred = classify(detector, reconstruction_errors(params, data))
        truth = np.concatenate([np.zeros(n_val, bool), np.ones(n_att, bool)])
        cm = confusion(pred, truth)
        per_client[client.client_id] = cm
        pooled = pooled + cm
    return per_client, pooled if pooled.total else None


def run_federated(clients: Sequence[ClientState],
                  model_cfg: AutoencoderConfig,
                  strategy: StrategyConfig,
                  rounds: int,
                  train: TrainConfig,
                  latency: LatencyModel | None = None,
                  master_seed: int = 0,
                  min_participation: int | None = None,
                  use_sample_std: bool = False) -> FederationResult:
    """Drive T federated rounds and evaluate the global model each round.

    Each arrived client runs `local_round` with `train` (so `train.epochs`
    epochs a round), its shuffle seed derived from (client seed, round).
    `strategy` is used as given. Each round scores with the running minimum
    of the local thresholds so far; the last round's is the returned
    detector, so the run's final evaluation is the last round's: its
    `pooled_confusion` and the result's `per_client`. Everything is
    deterministic given the master seed, the client seeds and the configs.
    `min_participation` defaults to min(2, `clients_per_round`).
    """
    if not clients:
        raise DataError("federation needs at least one client")
    ids = [c.client_id for c in clients]
    if len(set(ids)) != len(ids):
        raise DataError(f"duplicate client ids: {sorted(ids)}")
    by_id = {c.client_id: c for c in clients}
    n_sampled = clients_per_round(strategy.sample_fraction, len(clients))
    min_part = max(1, min(2, n_sampled) if min_participation is None
                   else min_participation)
    specs = model_cfg.layer_specs()
    server = ServerState(global_params=build(model_cfg).flat)
    collected: list[float] = []
    detector: ThresholdDetector | None = None
    traces: list[RoundTrace] = []
    for t in range(1, rounds + 1):
        sample_rng = derive_rng(master_seed, _STREAM_SAMPLE, t)
        sampled = sample_clients(ids, strategy.sample_fraction, sample_rng)
        _, active = assign_latencies(latency, sampled, t, master_seed)
        updates = [local_round(
            by_id[cid], server.global_params, specs,
            replace(train, shuffle_seed=derive_seed(by_id[cid].rng_seed, t)),
            use_sample_std) for cid in active]
        server = aggregate(server, updates, strategy, min_part)
        by_update = {u.client_id: u for u in updates}
        collected.extend(u.local_threshold for u in updates)  # id order
        if collected:
            detector = ThresholdDetector(min(collected), SOURCE_ROUND_MIN)
            per_client, pooled_cm = evaluate_clients(
                ParameterSet(server.global_params, specs), clients, detector)
        else:
            per_client, pooled_cm = {}, None
        records = []
        for cid in sorted(ids):
            upd = by_update.get(cid)
            records.append(ClientRoundRecord(
                client_id=cid,
                sampled=cid in sampled,
                participated=upd is not None,
                local_loss=upd.local_loss if upd else None,
                local_threshold=upd.local_threshold if upd else None,
            ))
        traces.append(RoundTrace(
            round_index=t,
            records=records,
            alpha=server.last_alpha,
            carried_forward=server.last_carried,
            global_sha256=hashlib.sha256(server.global_params).hexdigest(),
            global_norm=float(np.linalg.norm(server.global_params)),
            threshold_running_min=(detector.threshold if detector else None),
            pooled_confusion=pooled_cm,
        ))
    if detector is None:
        raise DataError(
            "no client update ever arrived; cannot calibrate a detector")
    return FederationResult(
        final_params=server.global_params,
        detector=detector,
        rounds=traces,
        collected_thresholds=collected,
        per_client=per_client,
    )
