"""Experiment pipelines and report emission.

Centralized mode: separate normals from attacks, 80/20 split the normals,
fit the scaler on training normals only, train the autoencoder, calibrate
the threshold on training reconstruction errors, then test on the
validation normals plus an attack sample of matching size.

Federated mode: Dirichlet-partition the records across clients, run the
round loop, fix the detector at the least local threshold over all
(round, client) pairs, and evaluate per client and pooled.

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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autoencoder import build, reconstruction_errors, train_epochs
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
from .detector import (
    ConfusionMatrix,
    MetricsReport,
    ThresholdDetector,
    classify,
    compute_threshold,
    confusion,
    metrics,
)
from .errors import DataError
from .federation import (
    ClientState,
    FederationResult,
    RoundTrace,
    _evaluate_global,
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
    """Everything the reporting layer needs about one finished experiment."""

    mode: str
    seed: int
    fingerprint: str
    confusion: ConfusionMatrix
    metrics: MetricsReport
    threshold: float
    detector_source: str
    validation_fp_rate: float | None
    epoch_losses: list[float] | None
    round_traces: list[RoundTrace] | None
    per_client: dict[int, tuple[ConfusionMatrix, MetricsReport]] | None
    mean_round_accuracy: float | None
    config: dict


@dataclass
class TrainedModel:
    """A trained detector bundle, enough to re-evaluate later."""

    params: ParameterSet
    detector: ThresholdDetector
    scaler: ScalerParams | None
    fingerprint: str
    seed: int = 0


@dataclass
class CentralizedData:
    train: np.ndarray
    val: np.ndarray
    attack: np.ndarray
    scaler: ScalerParams


def prepare_centralized(cfg: ExperimentConfig,
                        ds: LabeledDataset | None = None,
                        scaler: ScalerParams | None = None) -> CentralizedData:
    """Split the dataset into scaled train/validation normals and attacks.

    The splits are row indices; each output gathers its rows from
    `ds.features` once and is scaled in place, and `ds` is never written.
    """
    if ds is None:
        ds = load_experiment_dataset(cfg)
    normal, attack = split_by_label(ds)
    if normal.size == 0:
        raise DataError("dataset has no normal records to train on")
    train, val = train_val_split(normal, cfg.data["split"]["train_fraction"],
                                 cfg.derived_seed(STREAM_SPLIT))
    if scaler is None:
        scaler = fit_scaler(ds.features[train])
    return CentralizedData(
        train=apply_scaler(scaler, ds.features, train),
        val=apply_scaler(scaler, ds.features, val),
        attack=apply_scaler(scaler, ds.features, attack),
        scaler=scaler,
    )


def _attack_test_sample(cfg: ExperimentConfig, n_val: int,
                        attack: np.ndarray) -> np.ndarray:
    """Seeded attack sample matched to the validation size (capped)."""
    n = min(n_val, attack.shape[0])
    if n == 0:
        return attack[:0]
    idx = derive_rng(cfg.seed, STREAM_TEST).choice(attack.shape[0], size=n,
                                                   replace=False)
    return attack[np.sort(idx)]


def _evaluate_split(params: ParameterSet, detector: ThresholdDetector,
                    val: np.ndarray, attack: np.ndarray
                    ) -> tuple[ConfusionMatrix, MetricsReport, float | None]:
    data = np.vstack([val, attack])
    if data.shape[0] == 0:
        raise DataError("nothing to evaluate: no validation or attack rows")
    pred = classify(detector, reconstruction_errors(params, data))
    truth = np.concatenate([np.zeros(val.shape[0], bool),
                            np.ones(attack.shape[0], bool)])
    cm = confusion(pred, truth)
    # validation FP share: the same classify+confusion path on normals only
    val_fp = None
    if val.shape[0] > 0:
        val_cm = confusion(pred[:val.shape[0]], np.zeros(val.shape[0], bool))
        val_fp = metrics(val_cm).fp_rate
    return cm, metrics(cm), val_fp


def run_centralized(cfg: ExperimentConfig) -> tuple[EvaluationReport, TrainedModel]:
    data = prepare_centralized(cfg)
    model_cfg = cfg.model_config()
    if model_cfg.input_dim != data.train.shape[1]:
        raise DataError(
            f"model input dim {model_cfg.input_dim} does not match dataset "
            f"width {data.train.shape[1]}")
    tc = cfg.train_config(epochs=cfg.data["train"]["epochs"],
                          shuffle_seed=cfg.derived_seed(STREAM_TRAIN))
    params = build(model_cfg)
    state = tc.adam_state(params.n_params)
    log.info("centralized: training %d epochs on %d rows",
             tc.epochs, data.train.shape[0])
    trained, _, losses = train_epochs(params, data.train, tc, state)
    errors = reconstruction_errors(trained, data.train)
    thr = compute_threshold(errors, cfg.data["detector"]["use_sample_std"])
    detector = ThresholdDetector(thr)
    attack_sample = _attack_test_sample(cfg, data.val.shape[0], data.attack)
    cm, report_metrics, val_fp = _evaluate_split(trained, detector,
                                                 data.val, attack_sample)
    report = EvaluationReport(
        mode=MODE_CENTRALIZED,
        seed=cfg.seed,
        fingerprint=cfg.fingerprint(),
        confusion=cm,
        metrics=report_metrics,
        threshold=detector.threshold,
        detector_source=detector.source,
        validation_fp_rate=val_fp,
        epoch_losses=losses,
        round_traces=None,
        per_client=None,
        mean_round_accuracy=None,
        config=cfg.canonical_dict(),
    )
    model = TrainedModel(trained, detector, data.scaler, cfg.fingerprint(),
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
        if normal.size < 2:
            raise DataError(
                f"client {k} received {normal.size} normal records; needs at "
                f"least 2 to split train/validation (try a larger alpha or "
                f"another seed)")
        train, val = train_val_split(normal,
                                     cfg.data["split"]["train_fraction"],
                                     cfg.derived_seed(STREAM_SPLIT, k))
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
    model_cfg = cfg.model_config()
    if model_cfg.input_dim != clients[0].train.shape[1]:
        raise DataError(
            f"model input dim {model_cfg.input_dim} does not match dataset "
            f"width {clients[0].train.shape[1]}")
    base_tc = cfg.train_config(epochs=fed["epochs_per_round"])
    log.info("federated: %d clients, %d rounds x %d epochs, strategy %s",
             len(clients), fed["rounds"], fed["epochs_per_round"],
             cfg.data["strategy"]["kind"])
    result = run_federated(
        clients=clients,
        model_cfg=model_cfg,
        strategy=cfg.strategy_config(),
        rounds=fed["rounds"],
        epochs_per_round=fed["epochs_per_round"],
        base_train=base_tc,
        latency=cfg.latency_model(),
        master_seed=cfg.seed,
        min_participation=fed["min_participation"],
    )
    if result.final_confusion is None or result.final_metrics is None:
        raise DataError("federated run produced no evaluation rows")
    report = EvaluationReport(
        mode=MODE_FEDERATED,
        seed=cfg.seed,
        fingerprint=cfg.fingerprint(),
        confusion=result.final_confusion,
        metrics=result.final_metrics,
        threshold=result.detector.threshold,
        detector_source=result.detector.source,
        validation_fp_rate=result.final_metrics.fp_rate,
        epoch_losses=None,
        round_traces=result.rounds,
        per_client=result.final_per_client,
        mean_round_accuracy=result.mean_round_accuracy,
        config=cfg.canonical_dict(),
    )
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


def metrics_payload(report: EvaluationReport) -> dict:
    return {
        "mode": report.mode,
        "seed": report.seed,
        "fingerprint": report.fingerprint,
        "threshold": float(report.threshold),
        "detector_source": report.detector_source,
        "accuracy": _metric_value(report.metrics.accuracy),
        "precision": _metric_value(report.metrics.precision),
        "recall": _metric_value(report.metrics.recall),
        "f_measure": _metric_value(report.metrics.f_measure),
        "false_rate": _metric_value(report.metrics.fp_rate),
        "validation_fp_rate": _metric_value(report.validation_fp_rate),
        "mean_round_accuracy": _metric_value(report.mean_round_accuracy),
    }


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
                "accuracy": _metric_value(m.accuracy),
                "precision": _metric_value(m.precision),
                "recall": _metric_value(m.recall),
                "f_measure": _metric_value(m.f_measure),
                "false_rate": _metric_value(m.fp_rate),
            }
        per_client_path.write_text(json.dumps(payload, indent=2,
                                              sort_keys=True) + "\n")
        written.append(per_client_path)

    manifest_path = out / "manifest.json"
    manifest = {
        "seed": report.seed,
        "fingerprint": report.fingerprint,
        "mode": report.mode,
        "config": report.config,
        "artifacts": sorted(p.name for p in written),
    }
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    written.append(manifest_path)
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
        per_client, cm, m = _evaluate_global(model.params, prepare_clients(cfg),
                                             model.detector)
        if cm is None:
            raise DataError("nothing to evaluate: no validation or attack rows")
        val_fp = m.fp_rate
    else:
        data = prepare_centralized(cfg, scaler=model.scaler)
        attack_sample = _attack_test_sample(cfg, data.val.shape[0],
                                            data.attack)
        cm, m, val_fp = _evaluate_split(model.params, model.detector,
                                        data.val, attack_sample)
        per_client = None
    return EvaluationReport(
        mode=cfg.mode, seed=cfg.seed, fingerprint=cfg.fingerprint(),
        confusion=cm, metrics=m, threshold=model.detector.threshold,
        detector_source=model.detector.source, validation_fp_rate=val_fp,
        epoch_losses=None, round_traces=None, per_client=per_client,
        mean_round_accuracy=None, config=cfg.canonical_dict(),
    )
