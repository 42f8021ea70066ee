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
config fingerprint. This module owns the run directory's formats: each
JSON file goes through `_write_json`, each CSV file through `_write_csv`,
and `read_report` reads a run back.
"""
from __future__ import annotations

import csv
import json
import logging
import math
import os
import zipfile
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
# the run directory: its one JSON writer, one CSV writer and their readers

CONFUSION_HEADER = ("tp", "fp", "tn", "fn")
ROUND_TRACE_HEADER = ("round", "client_id", "local_loss", "threshold",
                      "participated", "alpha", "global_norm")

# the artifact key of each `MetricsReport` field, in field order
METRIC_KEYS = ("accuracy", "precision", "recall", "f_measure", "false_rate")


def _write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _write_csv(path: Path, report: EvaluationReport, header, rows) -> Path:
    """Write the `# seed=... fingerprint=...` line, `header`, then `rows`."""
    with path.open("w", newline="") as fh:
        fh.write(f"# seed={report.seed} fingerprint={report.fingerprint}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _read_json(path: Path) -> dict:
    """The JSON object in `path`; anything else is a DataError naming it."""
    try:
        payload = json.loads(path.read_text())
    except ValueError:  # not UTF-8, or not JSON
        payload = None
    if not isinstance(payload, dict):
        raise DataError(f"{path}: expected a JSON object")
    return payload


def _metric_value(v: float | None):
    return None if v is None else float(v)


def _cell(v: float | None) -> str:
    return "" if v is None else repr(float(v))


def _round_mean_loss(trace: RoundTrace) -> float | None:
    losses = [r.local_loss for r in trace.records if r.local_loss is not None]
    return np.mean(losses) if losses else None


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
    return _write_json(out / "manifest.json",
                       {"seed": seed, "fingerprint": fingerprint,
                        "config": config, **extra})


def emit_report(report: EvaluationReport, out_dir: str | Path) -> list[Path]:
    """Write each artifact the report holds data for, then the manifest.
    Each CSV file starts with a `# seed=... fingerprint=...` line."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = [
        _write_json(out / "metrics.json", metrics_payload(report)),
        _write_csv(out / "confusion.csv", report, CONFUSION_HEADER,
                   [astuple(report.confusion)]),
    ]
    traces = report.round_traces
    if report.epoch_losses is not None:
        written.append(_write_csv(
            out / "loss_trace.csv", report, ("epoch", "mean_loss"),
            [(epoch, _cell(loss))
             for epoch, loss in enumerate(report.epoch_losses)]))
    elif traces is not None:
        written.append(_write_csv(
            out / "loss_trace.csv", report, ("round", "mean_loss"),
            [(t.round_index, _cell(_round_mean_loss(t))) for t in traces]))
    if traces is not None:
        written.append(_write_csv(
            out / "round_trace.csv", report, ROUND_TRACE_HEADER,
            [(t.round_index, r.client_id, _cell(r.local_loss),
              _cell(r.local_threshold), 1 if r.participated else 0,
              _cell(t.alpha), _cell(t.global_norm))
             for t in traces for r in t.records]))
    if report.per_client is not None:
        written.append(_write_json(out / "per_client_metrics.json", {
            "seed": report.seed, "fingerprint": report.fingerprint,
            "clients": {
                str(cid): {"confusion": dict(zip(CONFUSION_HEADER,
                                                 astuple(cm))),
                           **metric_values(m)}
                for cid, (cm, m) in sorted(report.per_client.items())}}))
    written.append(write_manifest(
        out, report.seed, report.fingerprint, report.config, mode=report.mode,
        artifacts=sorted(p.name for p in written)))
    return written


def read_report(run_dir: str | Path
                ) -> tuple[ConfusionMatrix, dict[str, float | None]]:
    """The confusion matrix and stored `METRIC_KEYS` metrics (None where
    missing) of a run directory written by `emit_report`. A malformed file
    is a DataError naming it and what is wrong."""
    run_dir = Path(run_dir)
    path = run_dir / "confusion.csv"
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(
                line for line in fh if not line.startswith("#"))) or [[]]
    except UnicodeDecodeError:
        raise DataError(f"{path}: expected UTF-8 text") from None
    if tuple(header) != CONFUSION_HEADER:
        raise DataError(f"{path}: expected header "
                        f"{','.join(CONFUSION_HEADER)}, got {header}")
    try:  # exactly one row of integers
        (counts,) = [[int(cell) for cell in row] for row in rows]
    except ValueError:
        counts = []
    if len(counts) != len(CONFUSION_HEADER) or min(counts) < 0:
        raise DataError(f"{path}: expected one row of 4 non-negative "
                        f"integer counts, got {rows}")
    path = run_dir / "metrics.json"
    stored = _read_json(path)
    for key in METRIC_KEYS:
        value = stored.get(key)
        if value is not None and not _is_finite_number(value):
            raise DataError(f"{path}: {key}: expected a finite number or "
                            f"null, got {value!r}")
    return (ConfusionMatrix(*counts),
            {key: stored.get(key) for key in METRIC_KEYS})


def save_model(model: TrainedModel, out_dir: str | Path) -> Path:
    """Persist trained parameters, detector and scaler for later use."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    arrays = {"flat": model.params.flat}
    if model.scaler is not None:
        arrays["scaler_min"] = model.scaler.minimum
        arrays["scaler_max"] = model.scaler.maximum
    np.savez(out / "model.npz", **arrays)
    _write_json(out / "model.json", {
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
    })
    return out


def _is_finite_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _read_arrays(path: Path) -> dict[str, np.ndarray]:
    """`flat`, and `scaler_min` and `scaler_max` if either is there, from
    the `.npz` archive at `path`. A file that is not one, a missing array,
    or an array that is not a 1-d vector of finite numbers, is a DataError
    naming the file and the key."""
    try:
        archive = np.load(path)
    except (ValueError, EOFError, zipfile.BadZipFile):  # e.g. pickled data
        archive = None
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise DataError(f"{path}: expected an .npz archive")
    with archive:
        keys = ["flat"]
        if {"scaler_min", "scaler_max"} & set(archive.files):
            keys += ["scaler_min", "scaler_max"]
        arrays = {}
        for key in keys:
            if key not in archive.files:
                raise DataError(f"{path}: missing key {key!r}")
            try:
                array = archive[key]
            except ValueError:  # object arrays, which would need pickle
                array = None
            if (array is None or array.ndim != 1
                    or array.dtype.kind not in "iuf"
                    or not np.isfinite(array).all()):
                raise DataError(f"{path}: {key}: expected a 1-d array of "
                                f"finite numbers")
            arrays[key] = array
    return arrays


def load_model(model_dir: str | Path) -> TrainedModel:
    """Read a bundle written by `save_model`. A `model.json` that is not a
    JSON object, a missing key, or a value of the wrong type (`threshold`
    not a finite number, `per_round_thresholds` not a list of them, `seed`
    not an int, `layers` not a list of mappings), is a `DataError` naming
    the file and the key; a malformed layer is one naming the layer and
    the field. `model.npz` is checked by `_read_arrays`."""
    model_dir = Path(model_dir)
    meta_path = model_dir / "model.json"
    meta = _read_json(meta_path)
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
    arrays = _read_arrays(model_dir / "model.npz")
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
