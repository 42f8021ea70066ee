"""Command-line experiment runner.

Subcommands:
  synth          generate a synthetic dataset CSV + manifest
  partition      emit a Dirichlet partition plan for the configured dataset
  train-central  run the config's experiment centralized, write the report
  train-fed      run it federated, write the report and traces
  evaluate       re-evaluate a saved model under a config
  report         recompute metrics from an emitted confusion.csv and verify

Every subcommand but report takes --config (YAML; blank file = all
defaults), --seed (overrides the config's master seed) and --out (output
directory). The commands only call `harness`, which writes and reads the
run directory's files.
"""
from __future__ import annotations

import argparse
import json
import logging
import sys
from functools import partial
from pathlib import Path

from .config import (
    MODE_CENTRALIZED,
    MODE_FEDERATED,
    STREAM_PARTITION,
    ExperimentConfig,
    build_config,
    parse_config,
)
from .dataplane import dirichlet_partition, save_dataset, synth_generate
from .detector import metrics
from .errors import FedAnomError
from .harness import (
    emit_report,
    evaluate_saved,
    load_experiment_dataset,
    load_model,
    metric_values,
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


def _write_run(report, model, out) -> int:
    """Emit `report` to `out`, save `model` there unless it is None, and
    print the metrics."""
    out = Path(out)
    emit_report(report, out)
    if model is not None:
        save_model(model, out / "model")
    _print_metrics(metric_values(report.metrics))
    if report.mean_round_accuracy is not None:
        print(f"mean_round_accuracy: {report.mean_round_accuracy:.6f}")
    print(f"report written to {out}")
    return 0


def cmd_train(args, mode: str) -> int:
    """Run the config's experiment in `mode`, which the run's config,
    fingerprint and manifest then name."""
    data = _load_config(args).canonical_dict()
    data["mode"] = mode
    return _write_run(*run_experiment(ExperimentConfig(data)), args.out)


def cmd_evaluate(args) -> int:
    report = evaluate_saved(_load_config(args), load_model(args.model))
    return _write_run(report, None, args.out)


def cmd_report(args) -> int:
    """Recompute metrics from an emitted confusion.csv and cross-check."""
    confusion, stored = read_report(args.dir)
    recomputed = metric_values(metrics(confusion))
    mismatched = [key for key, value in recomputed.items()
                  if (value is None) != (stored[key] is None)
                  or (value is not None and abs(value - stored[key]) > 1e-12)]
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

    for name, mode, help_text in (
            ("train-central", MODE_CENTRALIZED, "run the centralized baseline"),
            ("train-fed", MODE_FEDERATED, "run the federated experiment")):
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.set_defaults(func=partial(cmd_train, mode=mode))

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
    except (FedAnomError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
