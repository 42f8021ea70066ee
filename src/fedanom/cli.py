"""Command-line experiment runner.

Subcommands:
  synth      generate a synthetic dataset CSV + manifest
  partition  emit a Dirichlet partition plan for the configured dataset
  train      run the config's experiment in its `mode`, write the report
  evaluate   re-evaluate a saved model under a config of the same mode
  report     recompute metrics from an emitted confusion.csv and verify

Every subcommand but report takes --config (YAML; blank file = all
defaults), --seed (overrides the config's master seed) and --out (output
directory). `harness` writes and reads the run directory's files and
every `manifest.json`; the two data files are written elsewhere: synth's
`dataset.csv` by `dataplane.save_dataset`, and partition's
`partition.json` by `cmd_partition` itself. An error, OS errors and usage
errors included, is one `error:` line on stderr and exit code 2.
"""
from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .config import ExperimentConfig, build_config, parse_config
from .dataplane import save_dataset, synth_generate
from .detector import metrics
from .errors import FedAnomError
from .harness import (
    emit_report,
    evaluate_saved,
    load_experiment_dataset,
    load_model,
    metric_values,
    metrics_payload,
    partition,
    read_report,
    run_experiment,
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
    write_manifest(out, cfg, artifacts=["dataset.csv"],
                   n_normal=int((~ds.is_attack).sum()),
                   n_attack=int(ds.is_attack.sum()),
                   dim=ds.n_features, synth_seed=spec.seed)
    print(f"wrote {out / 'dataset.csv'} ({len(ds)} rows)")
    return 0


def cmd_partition(args) -> int:
    cfg = _load_config(args)
    ds = load_experiment_dataset(cfg)
    plan = partition(cfg, ds)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = plan.to_dict()
    payload["client_sizes"] = [len(a) for a in plan.assignments]
    (out / "partition.json").write_text(
        json.dumps(payload, sort_keys=True) + "\n")
    write_manifest(out, cfg, artifacts=["partition.json"], n_records=len(ds),
                   n_clients=plan.n_clients, alpha=plan.alpha)
    print(f"wrote {out / 'partition.json'} "
          f"(sizes {payload['client_sizes']})")
    return 0


def _print_metrics(values: dict) -> None:
    for key, value in values.items():
        print(f"{key}: {'null' if value is None else f'{value:.6f}'}")


def _write_run(report, model, out) -> int:
    """Emit `report` to `out`, save `model` there unless it is None, and
    print the metrics."""
    out = Path(out)
    emit_report(report, out)
    if model is not None:
        save_model(model, out / "model")
    _print_metrics(metric_values(report.metrics))
    mean = metrics_payload(report)["mean_round_accuracy"]
    if mean is not None:
        print(f"mean_round_accuracy: {mean:.6f}")
    print(f"report written to {out}")
    return 0


def cmd_train(args) -> int:
    return _write_run(*run_experiment(_load_config(args)), args.out)


def cmd_evaluate(args) -> int:
    report = evaluate_saved(_load_config(args), load_model(args.model))
    return _write_run(report, None, args.out)


def cmd_report(args) -> int:
    """Recompute metrics from an emitted confusion.csv and cross-check."""
    confusion, stored = read_report(args.dir)
    recomputed = metric_values(metrics(confusion))
    # JSON floats round-trip, so an honest file matches exactly
    mismatched = [key for key, value in recomputed.items()
                  if value != stored[key]]
    if mismatched:
        print(f"metrics mismatch against confusion matrix: {mismatched}")
        return 1
    _print_metrics(recomputed)
    print("metrics consistent with confusion matrix")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser, its subcommands' too, whose usage error is one
    `error:` line on stderr and exit code 2."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(
        prog="fedanom",
        description="Federated autoencoder anomaly detection experiments")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="YAML config file (blank = defaults)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's master seed")
        p.add_argument("--out", default="out",
                       help="output directory (default: ./out)")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("partition", help="emit a Dirichlet partition plan")
    common(p)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("train", help="run the config's experiment in its mode")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="re-evaluate a saved model")
    common(p)
    p.add_argument("--model", required=True,
                   help="model directory written by train")
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
    except (FedAnomError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
