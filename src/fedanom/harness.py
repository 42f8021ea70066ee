"""Experiment pipelines, report emission, and the files read back.

`run_experiment` runs the config's mode, and every report records it;
`run_centralized` and `run_federated_experiment` each take only a config
of their own mode. Centralized mode scores the whole dataset as one client
(see `prepare_centralized`). Federated mode Dirichlet-partitions it across
clients (see `prepare_clients`), runs the round loop, and fixes the
threshold at the least local threshold over all (round, client) pairs.
Both modes train through `federation.local_round`, and both, like a
saved model's re-evaluation, are scored by `federation.evaluate_clients`;
a federated run's result is its last round's evaluation, so no row is
scored twice. Scoring yields confusion counts only; every ratio reported
is computed from them here.

All emitted artifacts are deterministic for a given config: no timestamps,
seeded streams everywhere, and every file carries the master seed and the
config fingerprint. This module owns the run directory's formats: each
JSON file goes through `_write_json`, each CSV file through `_write_csv`,
and each file read back is checked by `checks._check` against its one
declared format (`MODEL_JSON`, `MODEL_NPZ`, `CONFUSION_CSV`,
`METRICS_JSON`); `checks` opens every JSON and CSV file read back.
"""
from __future__ import annotations

import csv
import json
import logging
import math
import os
import zipfile
from dataclasses import asdict, astuple, dataclass
from pathlib import Path

import numpy as np

from .autoencoder import AutoencoderConfig, build
from .checks import _check, _csv_text, _read_json
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
    PartitionPlan,
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
    SOURCE_CENTRALIZED,
    SOURCE_ROUND_MIN,
    ConfusionMatrix,
    MetricsReport,
    metrics,
)
from .errors import ConfigError, DataError, ShapeError
from .federation import (
    ClientState,
    FederationResult,
    RoundTrace,
    evaluate_clients,
    local_round,
    run_federated,
)
from .numerics import (
    LayerSpec,
    ParameterSet,
    _checked_specs,
    _n_params,
    derive_rng,
)

log = logging.getLogger("fedanom")

DATA_DIR_ENV = "FEDANOM_DATA_DIR"


def resolve_data_path(path: str | Path) -> Path:
    """Resolve a dataset path, falling back to $FEDANOM_DATA_DIR."""
    p = Path(path)
    if p.exists() or p.is_absolute():
        return p
    candidate = Path(os.environ.get(DATA_DIR_ENV) or ".") / p
    return candidate if candidate.exists() else p


def load_experiment_dataset(cfg: ExperimentConfig) -> LabeledDataset:
    ds_cfg = cfg.data["dataset"]
    if ds_cfg["kind"] == "synth":
        return synth_generate(cfg.synth_spec())
    path = resolve_data_path(ds_cfg["path"])
    if ds_cfg["schema"]:
        ds, skipped = load_csv(path, SchemaConfig.from_file(
            resolve_data_path(ds_cfg["schema"])))
    else:
        ds, skipped = load_dataset(path)
    if skipped:
        log.warning("skipped %d rows with unparseable or non-finite "
                    "numerics", skipped)
    return ds


@dataclass
class EvaluationReport:
    """Everything the reporting layer needs about one finished experiment:
    the config it ran, whose mode, seed and fingerprint every artifact
    records, and what it scored. `per_client` is set in federated mode
    only, `epoch_losses` by a centralized training run, and `round_traces`
    by a federated one."""

    cfg: ExperimentConfig
    confusion: ConfusionMatrix
    metrics: MetricsReport
    threshold: float
    per_client: dict[int, ConfusionMatrix] | None = None
    epoch_losses: list[float] | None = None
    round_traces: list[RoundTrace] | None = None

    @property
    def detector_source(self) -> str:
        """Where the threshold came from, named by the config's mode."""
        return (SOURCE_ROUND_MIN if self.cfg.mode == MODE_FEDERATED
                else SOURCE_CENTRALIZED)


@dataclass
class TrainedModel:
    """A trained bundle, enough to re-evaluate later: the parameters, the
    detector (its threshold), the centralized run's scaler (None in
    federated mode), and the fingerprint, seed and mode of the config that
    trained it."""

    params: ParameterSet
    detector: float
    scaler: ScalerParams | None
    fingerprint: str
    seed: int
    mode: str


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


def _client(k: int, ds: LabeledDataset, scaler: ScalerParams,
            rows: tuple[np.ndarray, ...], rng_seed: int) -> ClientState:
    """Client `k`: its train, validation and attack `rows` of `ds`, scaled."""
    train, val, attack = (apply_scaler(scaler, ds.features, r) for r in rows)
    return ClientState(k, train, val, attack, rng_seed)


def prepare_centralized(cfg: ExperimentConfig,
                        ds: LabeledDataset | None = None,
                        scaler: ScalerParams | None = None
                        ) -> tuple[ClientState, ScalerParams]:
    """The whole dataset as one client, and the scaler of its slices.

    The client trains on the training normals. Its evaluation rows are the
    validation normals and a seeded sample of min(n_val, n_attack) attack
    rows. The splits and the sample are row indices, and `ds` is never
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
    return _client(0, ds, scaler, (train, val, attack),
                   cfg.derived_seed(STREAM_TRAIN)), scaler


def _model_config(cfg: ExperimentConfig,
                  client: ClientState) -> AutoencoderConfig:
    """The config's model, checked against the width of `client`'s rows."""
    model_cfg = cfg.model_config()
    if model_cfg.input_dim != client.train.shape[1]:
        raise DataError(
            f"model.input_dim: model input dim {model_cfg.input_dim} does "
            f"not match dataset width {client.train.shape[1]}")
    return model_cfg


def _report(cfg: ExperimentConfig, threshold: float,
            per_client: dict[int, ConfusionMatrix], cm: ConfusionMatrix,
            **extra) -> EvaluationReport:
    """A config's run report, in its mode, scored by `evaluate_clients`."""
    return EvaluationReport(
        cfg=cfg, confusion=cm, metrics=metrics(cm), threshold=threshold,
        per_client=per_client if cfg.mode == MODE_FEDERATED else None, **extra)


def _require_mode(cfg: ExperimentConfig, mode: str) -> None:
    if cfg.mode != mode:
        raise ConfigError(f"mode: expected {mode}, got {cfg.mode}")


def run_centralized(cfg: ExperimentConfig) -> tuple[EvaluationReport, TrainedModel]:
    _require_mode(cfg, MODE_CENTRALIZED)
    client, scaler = prepare_centralized(cfg)
    model_cfg = _model_config(cfg, client)
    tc = cfg.train_config(shuffle_seed=client.rng_seed)
    log.info("centralized: training %d epochs on %d rows",
             tc.epochs, client.n_samples)
    specs = model_cfg.layer_specs()
    update = local_round(client, build(model_cfg).flat, specs, tc,
                         cfg.data["detector"]["use_sample_std"])
    trained = ParameterSet(update.params, specs)
    threshold = update.local_threshold
    report = _report(cfg, threshold,
                     *evaluate_clients(trained, [client], threshold),
                     epoch_losses=list(update.epoch_losses))
    return report, TrainedModel(trained, threshold, scaler, cfg.fingerprint(),
                                cfg.seed, cfg.mode)


def partition(cfg: ExperimentConfig, ds: LabeledDataset) -> PartitionPlan:
    """The config's Dirichlet partition of `ds`; more clients than records
    is a ConfigError naming federation.n_clients."""
    fed = cfg.data["federation"]
    try:
        return dirichlet_partition(ds, fed["n_clients"], fed["alpha"],
                                   cfg.derived_seed(STREAM_PARTITION))
    except ConfigError as err:
        raise ConfigError(f"federation.n_clients: {err}") from None


def prepare_clients(cfg: ExperimentConfig,
                    ds: LabeledDataset | None = None) -> list[ClientState]:
    """Partition the dataset and build per-client scaled data slices. Each
    client fits its own scaler on its local training normals, so nothing
    crosses the simulated privacy boundary."""
    if ds is None:
        ds = load_experiment_dataset(cfg)
    plan = partition(cfg, ds)
    clients = []
    for k, indices in enumerate(plan.assignments):
        normal, attack = split_by_label(ds, indices)
        train, val = _split_normals(cfg, normal,
                                    cfg.derived_seed(STREAM_SPLIT, k), k)
        clients.append(_client(k, ds, fit_scaler(ds.features[train]),
                               (train, val, attack),
                               cfg.derived_seed(STREAM_CLIENT, k)))
    return clients


def run_federated_experiment(cfg: ExperimentConfig
                             ) -> tuple[EvaluationReport, TrainedModel, FederationResult]:
    _require_mode(cfg, MODE_FEDERATED)
    clients = prepare_clients(cfg)
    fed = cfg.data["federation"]
    model_cfg = _model_config(cfg, clients[0])
    tc = cfg.train_config()
    log.info("federated: %d clients, %d rounds x %d epochs, strategy %s",
             len(clients), fed["rounds"], tc.epochs,
             cfg.data["strategy"]["kind"])
    result = run_federated(
        clients=clients,
        model_cfg=model_cfg,
        strategy=cfg.strategy_config(),
        rounds=fed["rounds"],
        train=tc,
        latency=cfg.latency_model(),
        master_seed=cfg.seed,
        min_participation=fed["min_participation"],
        use_sample_std=cfg.data["detector"]["use_sample_std"],
    )
    # the last round scored the final model with the final threshold
    report = _report(cfg, result.threshold, result.per_client,
                     result.rounds[-1].pooled_confusion,
                     round_traces=result.rounds)
    params = ParameterSet(result.final_params, model_cfg.layer_specs())
    return report, TrainedModel(params, result.threshold, None,
                                cfg.fingerprint(), cfg.seed, cfg.mode), result


def run_experiment(cfg: ExperimentConfig) -> tuple[EvaluationReport, TrainedModel]:
    if cfg.mode == MODE_FEDERATED:
        return run_federated_experiment(cfg)[:2]
    return run_centralized(cfg)


# ---------------------------------------------------------------------------
# the run directory: its one JSON writer, one CSV writer and their readers

ROUND_TRACE_HEADER = ("round", "client_id", "local_loss", "threshold",
                      "participated", "alpha", "global_norm")

# Each file read back: key or column -> (type, required, allowed, expected),
# as `checks._check` reads them.
MODEL_JSON = {
    "threshold": (float, True, "[0, inf)", "a finite number"),
    "mode": (str, True, (MODE_CENTRALIZED, MODE_FEDERATED), "a string"),
    "fingerprint": (str, True, None, "a string"),
    "layers": ([dict], True, None, "a list of mappings"),
    "seed": (int, True, None, "an int"),
}
MODEL_NPZ = {
    key: (np.ndarray, required, None, "a 1-d array of finite numbers")
    for key, required in (("flat", True), ("scaler_min", "scaler_max"),
                          ("scaler_max", "scaler_min"))}
CONFUSION_CSV = {key: (int, True, "[0, inf)", "a count")
                 for key in ("tp", "fp", "tn", "fn")}
# the artifact key of each `MetricsReport` field, in field order
METRICS_JSON = {key: (float, False, None, "a finite number or null")
                for key in ("accuracy", "precision", "recall", "f_measure",
                            "false_rate")}


def _write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _write_csv(path: Path, report: EvaluationReport, header, rows) -> Path:
    """Write the `# seed=... fingerprint=...` line, `header`, then `rows`."""
    with path.open("w", newline="") as fh:
        fh.write(f"# seed={report.cfg.seed} "
                 f"fingerprint={report.cfg.fingerprint()}\n")
        csv.writer(fh).writerows([header, *rows])
    return path


def _metric_value(v: float | None):
    return None if v is None else float(v)


def _cell(v: float | None) -> str:
    return "" if v is None else repr(float(v))


def _round_mean_loss(trace: RoundTrace) -> float | None:
    losses = [r.local_loss for r in trace.records if r.local_loss is not None]
    return np.mean(losses) if losses else None


def metric_values(m: MetricsReport) -> dict[str, float | None]:
    """`m`'s five metrics under their `METRICS_JSON` keys."""
    return {key: _metric_value(value)
            for key, value in zip(METRICS_JSON, astuple(m), strict=True)}


def metrics_payload(report: EvaluationReport) -> dict:
    accuracies = [metrics(tr.pooled_confusion).accuracy
                  for tr in report.round_traces or ()
                  if tr.pooled_confusion is not None]
    return {
        "mode": report.cfg.mode,
        "seed": report.cfg.seed,
        "fingerprint": report.cfg.fingerprint(),
        "threshold": float(report.threshold),
        "detector_source": report.detector_source,
        **metric_values(report.metrics),
        # only normal rows make FP and TN counts, so the validation FP rate
        # is the false rate
        "validation_fp_rate": _metric_value(report.metrics.fp_rate),
        "mean_round_accuracy": (float(np.mean(accuracies)) if accuracies
                                else None),
    }


def write_manifest(out: Path, cfg: ExperimentConfig, **extra) -> Path:
    """Write `out/manifest.json`: `cfg`'s seed, fingerprint and canonical
    form, and `extra`."""
    return _write_json(out / "manifest.json",
                       {"seed": cfg.seed, "fingerprint": cfg.fingerprint(),
                        "config": cfg.canonical_dict(), **extra})


def emit_report(report: EvaluationReport, out_dir: str | Path) -> list[Path]:
    """Write each artifact the report holds data for, then the manifest.
    Each CSV file starts with a `# seed=... fingerprint=...` line."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = [
        _write_json(out / "metrics.json", metrics_payload(report)),
        _write_csv(out / "confusion.csv", report, CONFUSION_CSV,
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
            "seed": report.cfg.seed, "fingerprint": report.cfg.fingerprint(),
            "clients": {
                str(cid): {"confusion": asdict(cm),
                           **metric_values(metrics(cm))}
                for cid, cm in sorted(report.per_client.items())}}))
    written.append(write_manifest(
        out, report.cfg, mode=report.cfg.mode,
        artifacts=sorted(p.name for p in written)))
    return written


def read_report(run_dir: str | Path
                ) -> tuple[ConfusionMatrix, dict[str, float | None]]:
    """The confusion matrix and stored `METRICS_JSON` metrics (None where
    missing) of a run directory written by `emit_report`. A malformed file
    is a DataError naming it and what is wrong."""
    run_dir = Path(run_dir)
    path = run_dir / "confusion.csv"
    with _csv_text(path) as fh:
        header, *rows = list(csv.reader(
            line for line in fh if not line.startswith("#"))) or [[]]
    if tuple(header) != tuple(CONFUSION_CSV):
        raise DataError(f"{path}: expected header "
                        f"{','.join(CONFUSION_CSV)}, got {header}")
    try:  # exactly one row, each cell read as its column's type
        (row,) = rows
        counts = _check(path, CONFUSION_CSV, {
            key: kind(cell) for (key, (kind, *_)), cell
            in zip(CONFUSION_CSV.items(), row, strict=True)})
    except ValueError:  # a DataError is one too
        raise DataError(f"{path}: expected one row of 4 non-negative "
                        f"integer counts, got {rows}") from None
    if not any(counts.values()):
        raise DataError(f"{path}: every count is 0")
    stored = _read_json(run_dir / "metrics.json", METRICS_JSON)
    return (ConfusionMatrix(**counts),
            {key: stored.get(key) for key in METRICS_JSON})


def save_model(model: TrainedModel, out_dir: str | Path) -> Path:
    """Persist trained parameters, threshold and scaler for later use."""
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
        "threshold": model.detector,
        "mode": model.mode,
        "layers": [s._asdict() | {"activation": s.activation.value}
                   for s in model.params.specs],
    })
    return out


def _loaded(archive, key: str) -> np.ndarray | None:
    try:
        return archive[key]
    except ValueError:  # object arrays, which would need pickle
        return None


def _read_arrays(path: Path) -> dict[str, np.ndarray]:
    """The `MODEL_NPZ` arrays of the `.npz` archive at `path`, checked
    against it; any other file is a DataError naming it."""
    try:
        archive = np.load(path)
    except (ValueError, EOFError, zipfile.BadZipFile):  # e.g. pickled data
        archive = None
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise DataError(f"{path}: expected an .npz archive")
    with archive:
        return _check(path, MODEL_NPZ, {key: _loaded(archive, key)
                                        for key in MODEL_NPZ
                                        if key in archive.files})


def load_model(model_dir: str | Path) -> TrainedModel:
    """Read a bundle written by `save_model`: each file checked against its
    format, then the facts across them. A failure is a DataError that
    starts with the path of the file holding the value and names the key,
    or the layer and the field."""
    model_dir = Path(model_dir)
    meta_path, npz_path = model_dir / "model.json", model_dir / "model.npz"
    meta = _read_json(meta_path, MODEL_JSON)
    arrays = _read_arrays(npz_path)
    try:
        specs = _checked_specs([LayerSpec(*map(layer.get, LayerSpec._fields))
                                for layer in meta["layers"]])
    except (ShapeError, ConfigError) as err:
        raise DataError(f"{meta_path}: {err}") from None
    sizes = {"flat": _n_params(specs), "scaler_min": specs[0].in_dim,
             "scaler_max": specs[0].in_dim}
    for key, array in arrays.items():
        if array.size != sizes[key]:
            raise DataError(f"{npz_path}: {key}: expected {sizes[key]} values "
                            f"for the layers in model.json, got {array.size}")
    scaler = None
    if "scaler_min" in arrays:
        below = arrays["scaler_max"] < arrays["scaler_min"]
        if below.any():
            raise DataError(f"{npz_path}: scaler_max: below scaler_min in "
                            f"column {below.argmax()}")
        scaler = ScalerParams(arrays["scaler_min"], arrays["scaler_max"])
    params = ParameterSet(np.array(arrays["flat"], np.float64), specs)
    return TrainedModel(params, float(meta["threshold"]), scaler,
                        meta["fingerprint"], meta["seed"], meta["mode"])


def evaluate_saved(cfg: ExperimentConfig, model: TrainedModel) -> EvaluationReport:
    """Re-run the evaluation stage of an experiment from a saved model. A
    config of another mode than the model was trained in, or a dataset of
    another width than the model's input, is a DataError."""
    if model.mode != cfg.mode:
        raise DataError(f"saved model trained in {model.mode} mode does "
                        f"not match the config's mode {cfg.mode}")
    ds = load_experiment_dataset(cfg)
    if ds.n_features != model.params.input_dim:
        raise DataError(
            f"saved model input width {model.params.input_dim} does not "
            f"match the config's dataset width {ds.n_features}")
    clients = (prepare_clients(cfg, ds) if cfg.mode == MODE_FEDERATED
               else [prepare_centralized(cfg, ds, model.scaler)[0]])
    return _report(cfg, model.detector,
                   *evaluate_clients(model.params, clients, model.detector))
