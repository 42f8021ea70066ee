"""Experiment pipelines and report emission.

Centralized mode: the whole dataset is one client. Separate normals from
attacks, 80/20 split the normals, draw a seeded attack sample of the
validation size (capped), all as row indices, fit the scaler on training
normals only, run one local round of `train.epochs` epochs (train, then
calibrate on the training reconstruction errors), then test on the
validation normals plus the attack sample.

Federated mode: Dirichlet-partition the records across clients, run the
round loop, fix the detector at the least local threshold over all
(round, client) pairs, and evaluate per client and pooled.

Every split leaves at least one training row, or preparation raises a
DataError. Both modes train through `federation.local_round`, and both,
like a saved model's re-evaluation, are scored by
`federation.evaluate_clients`; a federated run's result is its last
round's evaluation, so no row is scored twice.

All emitted artifacts are deterministic for a given config: no timestamps,
seeded streams everywhere, and every file carries the master seed and the
config fingerprint.
"""
from __future__ import annotations

import csv
import json
import logging
import math
import os
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .autoencoder import AutoencoderConfig, build
from .config import (
    MODE_CENTRALIZED,
    MODE_FEDERATED,
    STREAM_CLIENT,
    STREAM_PARTITION,
    STREAM_SPLIT,
    STREAM_TEST,
    STREAM_TRAIN,
    ExperimentConfig,
)
from .dataplane import (
    LabeledDataset,
    ScalerParams,
    SchemaConfig,
    apply_scaler,
    dirichlet_partition,
    fit_scaler,
    load_csv,
    load_dataset,
    split_by_label,
    synth_generate,
    train_val_split,
)
from .detector import ConfusionMatrix, MetricsReport, ThresholdDetector
from .errors import DataError
from .federation import (
    ClientState,
    FederationResult,
    RoundTrace,
    evaluate_clients,
    local_round,
    run_federated,
)
from .numerics import LayerSpec, ParameterSet, derive_rng, unpack

log = logging.getLogger("fedanom")

DATA_DIR_ENV = "FEDANOM_DATA_DIR"


def resolve_data_path(path: str | Path) -> Path:
    """Resolve a dataset path, falling back to $FEDANOM_DATA_DIR."""
    p = Path(path)
    if p.exists() or p.is_absolute():
        return p
    base = os.environ.get(DATA_DIR_ENV)
    if base:
        candidate = Path(base) / p
        if candidate.exists():
            return candidate
    return p


def load_experiment_dataset(cfg: ExperimentConfig) -> LabeledDataset:
    ds_cfg = cfg.data["dataset"]
    if ds_cfg["kind"] == "synth":
        return synth_generate(cfg.synth_spec())
    path = resolve_data_path(ds_cfg["path"])
    if ds_cfg["schema"]:
        schema = SchemaConfig.from_file(resolve_data_path(ds_cfg["schema"]))
        ds, skipped = load_csv(path, schema)
    else:
        ds, skipped = load_dataset(path)
    if skipped:
        log.warning("skipped %d rows with unparseable or non-finite "
                    "numerics", skipped)
    return ds


@dataclass
class EvaluationReport:
    """Everything the reporting layer needs about one finished experiment.

    `per_client` is set in federated mode only. `epoch_losses` is set by a
    centralized training run, and `round_traces` and `mean_round_accuracy`
    by a federated one.
    """

    mode: str
    seed: int
    fingerprint: str
    confusion: ConfusionMatrix
    metrics: MetricsReport
    threshold: float
    detector_source: str
    config: dict
    per_client: dict[int, tuple[ConfusionMatrix, MetricsReport]] | None = None
    epoch_losses: list[float] | None = None
    round_traces: list[RoundTrace] | None = None
    mean_round_accuracy: float | None = None


@dataclass
class TrainedModel:
    """A trained detector bundle, enough to re-evaluate later."""

    params: ParameterSet
    detector: ThresholdDetector
    scaler: ScalerParams | None
    fingerprint: str
    seed: int = 0


def _split_normals(cfg: ExperimentConfig, normal: np.ndarray, seed: int,
                   client: int | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Seeded train/validation split of the normal row indices `normal`.

    A split that would leave no training row, floor(split.train_fraction
    * normal rows) < 1, is a DataError naming the client, if any.
    """
    fraction = cfg.data["split"]["train_fraction"]
    if math.floor(fraction * normal.size) < 1:
        owner, hint = ("", "") if client is None else (
            f"client {client}: ", " (try a larger alpha or another seed)")
        raise DataError(
            f"{owner}split.train_fraction {fraction} of {normal.size} normal "
            f"rows leaves no training row{hint}")
    return train_val_split(normal, fraction, seed)


def prepare_centralized(cfg: ExperimentConfig,
                        ds: LabeledDataset | None = None,
                        scaler: ScalerParams | None = None
                        ) -> tuple[ClientState, ScalerParams]:
    """The whole dataset as one client, and the scaler of its slices.

    The client trains on the training normals. Its evaluation rows are the
    validation normals and a seeded sample of min(n_val, n_attack) attack
    rows. The splits and the sample are row indices, so each slice gathers
    its rows from `ds.features` once and is scaled in place; `ds` is never
    written. Without `scaler`, one is fit on the training normals.
    """
    if ds is None:
        ds = load_experiment_dataset(cfg)
    normal, attack = split_by_label(ds)
    train, val = _split_normals(cfg, normal, cfg.derived_seed(STREAM_SPLIT))
    sample = derive_rng(cfg.seed, STREAM_TEST).choice(
        attack.size, size=min(val.size, attack.size), replace=False)
    attack = attack[np.sort(sample)]
    if scaler is None:
        scaler = fit_scaler(ds.features[train])
    client = ClientState(
        client_id=0,
        train=apply_scaler(scaler, ds.features, train),
        val=apply_scaler(scaler, ds.features, val),
        attack=apply_scaler(scaler, ds.features, attack),
        rng_seed=cfg.derived_seed(STREAM_TRAIN),
    )
    return client, scaler


def _model_config(cfg: ExperimentConfig,
                  client: ClientState) -> AutoencoderConfig:
    """The config's model, checked against the width of `client`'s rows."""
    model_cfg = cfg.model_config()
    if model_cfg.input_dim != client.train.shape[1]:
        raise DataError(
            f"model input dim {model_cfg.input_dim} does not match dataset "
            f"width {client.train.shape[1]}")
    return model_cfg


def _report(cfg: ExperimentConfig, mode: str, detector: ThresholdDetector,
            per_client: dict[int, tuple[ConfusionMatrix, MetricsReport]],
            cm: ConfusionMatrix | None, m: MetricsReport | None,
            **extra) -> EvaluationReport:
    """The report of a run scored by `evaluate_clients`."""
    if cm is None:
        raise DataError("nothing to evaluate: no validation or attack rows")
    return EvaluationReport(
        mode=mode, seed=cfg.seed, fingerprint=cfg.fingerprint(),
        confusion=cm, metrics=m, threshold=detector.threshold,
        detector_source=detector.source, config=cfg.canonical_dict(),
        per_client=per_client if mode == MODE_FEDERATED else None, **extra)


def run_centralized(cfg: ExperimentConfig) -> tuple[EvaluationReport, TrainedModel]:
    client, scaler = prepare_centralized(cfg)
    model_cfg = _model_config(cfg, client)
    tc = cfg.train_config(epochs=cfg.data["train"]["epochs"],
                          shuffle_seed=client.rng_seed)
    log.info("centralized: training %d epochs on %d rows",
             tc.epochs, client.n_samples)
    specs = model_cfg.layer_specs()
    update = local_round(client, build(model_cfg).flat, specs, tc,
                         cfg.data["detector"]["use_sample_std"])
    trained = ParameterSet(update.params, specs)
    detector = ThresholdDetector(update.local_threshold)
    report = _report(cfg, MODE_CENTRALIZED, detector,
                     *evaluate_clients(trained, [client], detector),
                     epoch_losses=list(update.epoch_losses))
    model = TrainedModel(trained, detector, scaler, cfg.fingerprint(),
                         cfg.seed)
    return report, model


def prepare_clients(cfg: ExperimentConfig,
                    ds: LabeledDataset | None = None) -> list[ClientState]:
    """Partition the dataset and build per-client scaled data slices.

    Each client fits its own scaler on its local training normals; nothing
    crosses the simulated privacy boundary. A client's partition, label and
    train/validation splits are row indices, so each of its slices is
    gathered from `ds.features` once and scaled in place.
    """
    if ds is None:
        ds = load_experiment_dataset(cfg)
    fed = cfg.data["federation"]
    plan = dirichlet_partition(ds, fed["n_clients"], fed["alpha"],
                               cfg.derived_seed(STREAM_PARTITION))
    clients = []
    for k, indices in enumerate(plan.assignments):
        normal, attack = split_by_label(ds, indices)
        train, val = _split_normals(cfg, normal,
                                    cfg.derived_seed(STREAM_SPLIT, k), k)
        scaler = fit_scaler(ds.features[train])
        clients.append(ClientState(
            client_id=k,
            train=apply_scaler(scaler, ds.features, train),
            val=apply_scaler(scaler, ds.features, val),
            attack=apply_scaler(scaler, ds.features, attack),
            rng_seed=cfg.derived_seed(STREAM_CLIENT, k),
        ))
    return clients


def run_federated_experiment(cfg: ExperimentConfig
                             ) -> tuple[EvaluationReport, TrainedModel, FederationResult]:
    clients = prepare_clients(cfg)
    fed = cfg.data["federation"]
    model_cfg = _model_config(cfg, clients[0])
    log.info("federated: %d clients, %d rounds x %d epochs, strategy %s",
             len(clients), fed["rounds"], fed["epochs_per_round"],
             cfg.data["strategy"]["kind"])
    result = run_federated(
        clients=clients,
        model_cfg=model_cfg,
        strategy=cfg.strategy_config(),
        rounds=fed["rounds"],
        train=cfg.train_config(epochs=fed["epochs_per_round"]),
        latency=cfg.latency_model(),
        master_seed=cfg.seed,
        min_participation=fed["min_participation"],
        use_sample_std=cfg.data["detector"]["use_sample_std"],
    )
    # the last round scored the final model with the final detector
    last = result.rounds[-1]
    report = _report(cfg, MODE_FEDERATED, result.detector,
                     last.per_client_eval, last.pooled_confusion,
                     last.pooled_metrics, round_traces=result.rounds,
                     mean_round_accuracy=result.mean_round_accuracy)
    params = ParameterSet(result.final_params, model_cfg.layer_specs())
    model = TrainedModel(params, result.detector, None, cfg.fingerprint(),
                         cfg.seed)
    return report, model, result


def run_experiment(cfg: ExperimentConfig) -> tuple[EvaluationReport, TrainedModel]:
    if cfg.mode == MODE_FEDERATED:
        report, model, _ = run_federated_experiment(cfg)
        return report, model
    return run_centralized(cfg)


# ---------------------------------------------------------------------------
# artifact emission

def _stamp(report_seed: int, fingerprint: str) -> str:
    return f"# seed={report_seed} fingerprint={fingerprint}"


def _metric_value(v: float | None):
    return None if v is None else float(v)


# the artifact key of each `MetricsReport` field, in field order
METRIC_KEYS = ("accuracy", "precision", "recall", "f_measure", "false_rate")


def metric_values(m: MetricsReport) -> dict[str, float | None]:
    """`m`'s five metrics under their `METRIC_KEYS` names."""
    return {key: _metric_value(value)
            for key, value in zip(METRIC_KEYS, astuple(m), strict=True)}


def metrics_payload(report: EvaluationReport) -> dict:
    return {
        "mode": report.mode,
        "seed": report.seed,
        "fingerprint": report.fingerprint,
        "threshold": float(report.threshold),
        "detector_source": report.detector_source,
        **metric_values(report.metrics),
        # only normal rows make FP and TN counts, so the validation FP rate
        # is the false rate
        "validation_fp_rate": _metric_value(report.metrics.fp_rate),
        "mean_round_accuracy": _metric_value(report.mean_round_accuracy),
    }


def write_manifest(out: Path, seed: int, fingerprint: str, config: dict,
                   **extra) -> Path:
    """Write `out/manifest.json`: the run's seed, fingerprint and config,
    plus `extra`."""
    path = out / "manifest.json"
    manifest = {"seed": seed, "fingerprint": fingerprint, "config": config,
                **extra}
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def emit_report(report: EvaluationReport, out_dir: str | Path) -> list[Path]:
    """Write each artifact the report holds data for, then the manifest.

    CSV files start with a `# seed=... fingerprint=...` comment line; the
    first non-comment line is the header.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stamp = _stamp(report.seed, report.fingerprint)
    written: list[Path] = []

    metrics_path = out / "metrics.json"
    metrics_path.write_text(json.dumps(metrics_payload(report), indent=2,
                                       sort_keys=True) + "\n")
    written.append(metrics_path)

    confusion_path = out / "confusion.csv"
    with confusion_path.open("w", newline="") as fh:
        fh.write(stamp + "\n")
        writer = csv.writer(fh)
        writer.writerow(["tp", "fp", "tn", "fn"])
        cm = report.confusion
        writer.writerow([cm.tp, cm.fp, cm.tn, cm.fn])
    written.append(confusion_path)

    if report.epoch_losses is not None or report.round_traces is not None:
        loss_path = out / "loss_trace.csv"
        with loss_path.open("w", newline="") as fh:
            fh.write(stamp + "\n")
            writer = csv.writer(fh)
            if report.epoch_losses is not None:
                writer.writerow(["epoch", "mean_loss"])
                for epoch, loss in enumerate(report.epoch_losses):
                    writer.writerow([epoch, repr(float(loss))])
            else:
                writer.writerow(["round", "mean_loss"])
                for trace in report.round_traces:
                    losses = [r.local_loss for r in trace.records
                              if r.local_loss is not None]
                    value = repr(float(np.mean(losses))) if losses else ""
                    writer.writerow([trace.round_index, value])
        written.append(loss_path)

    if report.round_traces is not None:
        trace_path = out / "round_trace.csv"
        with trace_path.open("w", newline="") as fh:
            fh.write(stamp + "\n")
            writer = csv.writer(fh)
            writer.writerow(["round", "client_id", "local_loss", "threshold",
                             "participated", "alpha", "global_norm"])
            for trace in report.round_traces:
                for rec in trace.records:
                    writer.writerow([
                        trace.round_index,
                        rec.client_id,
                        "" if rec.local_loss is None else repr(float(rec.local_loss)),
                        "" if rec.local_threshold is None else repr(float(rec.local_threshold)),
                        1 if rec.participated else 0,
                        repr(float(trace.alpha)),
                        repr(float(trace.global_norm)),
                    ])
        written.append(trace_path)

    if report.per_client is not None:
        per_client_path = out / "per_client_metrics.json"
        payload = {"seed": report.seed, "fingerprint": report.fingerprint,
                   "clients": {}}
        for cid, (cm, m) in sorted(report.per_client.items()):
            payload["clients"][str(cid)] = {
                "confusion": {"tp": cm.tp, "fp": cm.fp, "tn": cm.tn, "fn": cm.fn},
                **metric_values(m),
            }
        per_client_path.write_text(json.dumps(payload, indent=2,
                                              sort_keys=True) + "\n")
        written.append(per_client_path)

    written.append(write_manifest(
        out, report.seed, report.fingerprint, report.config, mode=report.mode,
        artifacts=sorted(p.name for p in written)))
    return written


def save_model(model: TrainedModel, out_dir: str | Path) -> Path:
    """Persist trained parameters, detector and scaler for later use."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    arrays = {"flat": model.params.flat}
    if model.scaler is not None:
        arrays["scaler_min"] = model.scaler.minimum
        arrays["scaler_max"] = model.scaler.maximum
    np.savez(out / "model.npz", **arrays)
    meta = {
        "seed": model.seed,
        "fingerprint": model.fingerprint,
        "threshold": model.detector.threshold,
        "per_round_thresholds": (list(model.detector.per_round)
                                 if model.detector.per_round else None),
        "layers": [
            {"out_dim": s.out_dim, "in_dim": s.in_dim,
             "activation": s.activation.value, "dropout": s.dropout}
            for s in model.params.specs
        ],
    }
    (out / "model.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return out


def _is_finite_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def load_model(model_dir: str | Path) -> TrainedModel:
    """Read a bundle written by `save_model`. A missing key, or a value of
    the wrong type (`threshold` not a finite number, `per_round_thresholds`
    not a list of them, `seed` not an int, `layers` not a list of mappings), is
    a `DataError` naming the file and the key; a malformed layer is one
    naming the layer and the field."""
    model_dir = Path(model_dir)
    meta_path = model_dir / "model.json"
    meta = json.loads(meta_path.read_text())
    for key in ("threshold", "fingerprint", "layers"):
        if key not in meta:
            raise DataError(f"{meta_path}: missing key {key!r}")
    threshold, layers = meta["threshold"], meta["layers"]
    per_round = meta.get("per_round_thresholds")
    seed = meta.get("seed", 0)
    for key, ok, expected in (
            ("threshold", _is_finite_number(threshold), "a finite number"),
            ("per_round_thresholds", per_round is None or (
                isinstance(per_round, list)
                and all(map(_is_finite_number, per_round))),
             "a list of finite numbers"),
            ("seed", isinstance(seed, int) and not isinstance(seed, bool),
             "an int"),
            ("layers", isinstance(layers, list)
             and all(isinstance(layer, dict) for layer in layers),
             "a list of mappings")):
        if not ok:
            raise DataError(
                f"{meta_path}: {key}: expected {expected}, got {meta[key]!r}")
    arrays = np.load(model_dir / "model.npz")
    specs = [LayerSpec(*(layer.get(f) for f in LayerSpec._fields))
             for layer in layers]
    params = unpack(arrays["flat"], specs)
    detector = ThresholdDetector(float(threshold),
                                 tuple(per_round) if per_round else None)
    scaler = None
    if "scaler_min" in arrays:
        scaler = ScalerParams(arrays["scaler_min"], arrays["scaler_max"])
    return TrainedModel(params, detector, scaler, meta["fingerprint"], seed)


def evaluate_saved(cfg: ExperimentConfig, model: TrainedModel) -> EvaluationReport:
    """Re-run the evaluation stage of an experiment from a saved model."""
    if cfg.mode == MODE_FEDERATED:
        clients = prepare_clients(cfg)
    else:
        clients = [prepare_centralized(cfg, scaler=model.scaler)[0]]
    return _report(cfg, cfg.mode, model.detector,
                   *evaluate_clients(model.params, clients, model.detector))
