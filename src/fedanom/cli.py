"""Command-line experiment runner.

Subcommands:
  synth          generate a synthetic dataset CSV + manifest
  partition      emit a Dirichlet partition plan for the configured dataset
  train-central  run the centralized baseline and write the report
  train-fed      run the federated experiment and write report + traces
  evaluate       re-evaluate a saved model under a config
  report         recompute metrics from an emitted confusion.csv and verify

Every subcommand takes --config (YAML; blank file = all defaults), --seed
(overrides the config's master seed) and --out (output directory).
"""
from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from pathlib import Path

from .config import (
    MODE_FEDERATED,
    STREAM_PARTITION,
    ExperimentConfig,
    build_config,
    parse_config,
)
from .dataplane import dirichlet_partition, save_dataset, synth_generate
from .detector import ConfusionMatrix, metrics
from .errors import DataError, FedAnomError
from .harness import (
    emit_report,
    evaluate_saved,
    load_experiment_dataset,
    load_model,
    metric_values,
    run_centralized,
    run_federated_experiment,
    save_model,
    write_manifest,
)

log = logging.getLogger("fedanom")


def _load_config(args) -> ExperimentConfig:
    cfg = parse_config(args.config) if args.config else build_config(None)
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)
    return cfg


def cmd_synth(args) -> int:
    cfg = _load_config(args)
    spec = cfg.synth_spec()
    ds = synth_generate(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_dataset(ds, out / "dataset.csv")
    write_manifest(out, cfg.seed, cfg.fingerprint(), cfg.canonical_dict(),
                   artifacts=["dataset.csv"],
                   n_normal=int((~ds.is_attack).sum()),
                   n_attack=int(ds.is_attack.sum()),
                   dim=ds.n_features, synth_seed=spec.seed)
    print(f"wrote {out / 'dataset.csv'} ({len(ds)} rows)")
    return 0


def cmd_partition(args) -> int:
    cfg = _load_config(args)
    ds = load_experiment_dataset(cfg)
    fed = cfg.data["federation"]
    plan = dirichlet_partition(ds, fed["n_clients"], fed["alpha"],
                               cfg.derived_seed(STREAM_PARTITION))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = plan.to_dict()
    payload["client_sizes"] = [len(a) for a in plan.assignments]
    (out / "partition.json").write_text(
        json.dumps(payload, sort_keys=True) + "\n")
    write_manifest(out, cfg.seed, cfg.fingerprint(), cfg.canonical_dict(),
                   artifacts=["partition.json"], n_records=len(ds),
                   n_clients=plan.n_clients, alpha=plan.alpha)
    print(f"wrote {out / 'partition.json'} "
          f"(sizes {payload['client_sizes']})")
    return 0


def _print_metrics(values: dict) -> None:
    for key, value in values.items():
        print(f"{key}: {'null' if value is None else f'{value:.6f}'}")


def cmd_train_central(args) -> int:
    cfg = _load_config(args)
    report, model = run_centralized(cfg)
    out = Path(args.out)
    emit_report(report, out)
    save_model(model, out / "model")
    _print_metrics(metric_values(report.metrics))
    print(f"report written to {out}")
    return 0


def cmd_train_fed(args) -> int:
    cfg = _load_config(args)
    if cfg.mode != MODE_FEDERATED:
        data = cfg.canonical_dict()
        data["mode"] = MODE_FEDERATED
        cfg = ExperimentConfig(data)
    report, model, _ = run_federated_experiment(cfg)
    out = Path(args.out)
    emit_report(report, out)
    save_model(model, out / "model")
    _print_metrics(metric_values(report.metrics))
    if report.mean_round_accuracy is not None:
        print(f"mean_round_accuracy: {report.mean_round_accuracy:.6f}")
    print(f"report written to {out}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    model = load_model(args.model)
    report = evaluate_saved(cfg, model)
    out = Path(args.out)
    emit_report(report, out)
    _print_metrics(metric_values(report.metrics))
    print(f"report written to {out}")
    return 0


def cmd_report(args) -> int:
    """Recompute metrics from an emitted confusion.csv and cross-check."""
    run_dir = Path(args.dir)
    confusion_path = run_dir / "confusion.csv"
    with confusion_path.open(newline="") as fh:
        reader = csv.reader(row for row in fh if not row.startswith("#"))
        header = next(reader)
        if header != ["tp", "fp", "tn", "fn"]:
            raise DataError(f"{confusion_path} has unexpected header {header}")
        tp, fp, tn, fn = (int(v) for v in next(reader))
    cm = ConfusionMatrix(tp, fp, tn, fn)
    recomputed = metric_values(metrics(cm))
    stored = json.loads((run_dir / "metrics.json").read_text())
    mismatched = []
    for key, value in recomputed.items():
        want = stored.get(key)
        if value is None and want is None:
            continue
        if value is None or want is None or abs(value - want) > 1e-12:
            mismatched.append(key)
    if mismatched:
        print(f"metrics mismatch against confusion matrix: {mismatched}")
        return 1
    _print_metrics(recomputed)
    print("metrics consistent with confusion matrix")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fedanom",
        description="Federated autoencoder anomaly detection experiments")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_out=True):
        p.add_argument("--config", help="YAML config file (blank = defaults)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's master seed")
        if needs_out:
            p.add_argument("--out", default="out",
                           help="output directory (default: ./out)")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("partition", help="emit a Dirichlet partition plan")
    common(p)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("train-central", help="run the centralized baseline")
    common(p)
    p.set_defaults(func=cmd_train_central)

    p = sub.add_parser("train-fed", help="run the federated experiment")
    common(p)
    p.set_defaults(func=cmd_train_fed)

    p = sub.add_parser("evaluate", help="re-evaluate a saved model")
    common(p)
    p.add_argument("--model", required=True,
                   help="model directory written by a train command")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="verify emitted metrics against the "
                                      "confusion matrix")
    p.add_argument("--dir", required=True, help="report directory")
    p.set_defaults(func=cmd_report)

    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    try:
        return args.func(args)
    except FedAnomError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
