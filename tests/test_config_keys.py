"""Every config key takes effect in each mode that reads it, and only there.

Each case changes one leaf key of `DEFAULT_CONFIG` to a second valid value
and runs a tiny experiment in both modes. A mode that reads the key must
give a different final-parameter digest, threshold or metric; a mode that
does not must give the same three. The config fingerprint is not compared:
it covers every key by design.
"""

import copy
import hashlib
import json
from dataclasses import astuple
from typing import NamedTuple

import numpy as np
import pytest

from fedanom.config import DEFAULT_CONFIG, build_config
from fedanom.dataplane import (
    ATTACK_LABEL,
    SynthSpec,
    save_dataset,
    synth_generate,
)
from fedanom.harness import DATA_DIR_ENV, run_experiment

MODES = ("centralized", "federated")

# 400/80 rows at dim 8, model 8 -> 6 -> 4 -> 2; a centralized run trains 2
# epochs, a federated one 3 clients for 2 rounds of 1 epoch
BASE = {
    "seed": 7,
    "dataset": {"synth": {"n_normal": 400, "n_attack": 80, "dim": 8}},
    "model": {"input_dim": 8, "hidden_dims": [6, 4], "bottleneck_dim": 2},
    "train": {"epochs": 2},
    "federation": {"n_clients": 3, "rounds": 2, "epochs_per_round": 1},
}

# files in the data directory that relative dataset paths resolve against
CSV_A, CSV_B, SCHEMA = "a.csv", "b.csv", "attack-is-normal.json"
CSV = {"dataset.kind": "csv", "dataset.path": CSV_A}
SYNTH = {"dataset.kind": "synth"}  # a path alone would imply kind csv
STRAGGLER = {"federation.latency": {"per_round": {1: {0: 5.0}},
                                   "drop_after": 1.0}}
LATE_IN_ROUND_2 = {"federation.latency": {"per_round": {2: {0: 5.0}},
                                          "drop_after": 1.0}}
TWO_EPOCHS_A_ROUND = {"federation.epochs_per_round": 2}


class Case(NamedTuple):
    key: str
    change: dict       # the key's second value, and keys that move with it
    reads: tuple       # the modes that read the key
    setup: dict = {}   # companion settings of both runs
    context: str = ""  # tells apart the cases of one key


BOTH, CENTRAL, FED, NEITHER = MODES, ("centralized",), ("federated",), ()

CASES = [
    Case("seed", {"seed": 8}, BOTH),
    Case("dataset.kind", {"dataset.kind": "csv"}, BOTH,
         {**SYNTH, "dataset.path": CSV_A}),
    Case("dataset.path", {"dataset.path": CSV_B}, BOTH, CSV, "csv"),
    Case("dataset.path", {"dataset.path": CSV_B}, NEITHER, SYNTH, "synth"),
    Case("dataset.schema", {"dataset.schema": SCHEMA}, BOTH, CSV, "csv"),
    Case("dataset.schema", {"dataset.schema": SCHEMA}, NEITHER, SYNTH,
         "synth"),
    *(Case(f"dataset.synth.{k}", {f"dataset.synth.{k}": v}, NEITHER, CSV,
           "csv")
      for k, v in (("n_normal", 300), ("n_attack", 60), ("dim", 6),
                   ("displacement", 3.0), ("seed", 43))),
    *(Case(f"dataset.synth.{k}", {f"dataset.synth.{k}": v}, BOTH)
      for k, v in (("n_normal", 300), ("n_attack", 60),
                   ("displacement", 3.0), ("seed", 43))),
    Case("dataset.synth.dim", {"dataset.synth.dim": 6, "model.input_dim": 6},
         BOTH),
    Case("model.input_dim", {"model.input_dim": 6, "dataset.synth.dim": 6},
         BOTH),
    Case("model.hidden_dims", {"model.hidden_dims": [5]}, BOTH),
    Case("model.bottleneck_dim", {"model.bottleneck_dim": 3}, BOTH),
    Case("model.dropout_p", {"model.dropout_p": 0.0}, BOTH),
    Case("model.mirror_dropout", {"model.mirror_dropout": False}, BOTH),
    Case("split.train_fraction", {"split.train_fraction": 0.7}, BOTH),
    Case("train.epochs", {"train.epochs": 3}, CENTRAL),
    Case("train.batch_size", {"train.batch_size": 16}, BOTH),
    Case("train.learning_rate", {"train.learning_rate": 0.01}, BOTH),
    Case("train.lr_step", {"train.lr_step": 2}, BOTH, TWO_EPOCHS_A_ROUND),
    Case("train.lr_gamma", {"train.lr_gamma": 0.5}, BOTH, TWO_EPOCHS_A_ROUND),
    Case("train.adam_beta1", {"train.adam_beta1": 0.8}, BOTH),
    Case("train.adam_beta2", {"train.adam_beta2": 0.99}, BOTH),
    Case("train.adam_epsilon", {"train.adam_epsilon": 1e-4}, BOTH),
    Case("federation.n_clients", {"federation.n_clients": 2}, FED),
    Case("federation.rounds", {"federation.rounds": 3}, FED),
    Case("federation.epochs_per_round", {"federation.epochs_per_round": 2},
         FED),
    Case("federation.alpha", {"federation.alpha": 1.0}, FED),
    Case("federation.min_participation", {"federation.min_participation": 3},
         FED, STRAGGLER),
    Case("federation.latency", STRAGGLER, FED),
    Case("strategy.kind", {"strategy.kind": "qffl"}, FED,
         {"strategy.q": 0.5, "strategy.lipschitz": 10.0}),
    Case("strategy.q", {"strategy.q": 0.5}, FED,
         {"strategy.kind": "qffl", "strategy.lipschitz": 0.01}),
    Case("strategy.lipschitz", {"strategy.lipschitz": 10.0}, FED,
         {"strategy.kind": "qffl"}),
    Case("strategy.sample_fraction", {"strategy.sample_fraction": 0.5}, FED),
    Case("strategy.weighted_mean", {"strategy.weighted_mean": True}, FED,
         {"federation.alpha": 1.0}),
    Case("strategy.relevance_window", {"strategy.relevance_window": 1}, FED,
         {"strategy.kind": "fairfedavg", **LATE_IN_ROUND_2}),
    # each strategy key is read only by the kinds that use it: q and L by
    # qffl and fairfedavg, the window by fairfedavg, the weighting by fedavg
    Case("strategy.q", {"strategy.q": 0.5}, NEITHER,
         {"strategy.kind": "fedavg", "strategy.lipschitz": 0.01}, "fedavg"),
    Case("strategy.lipschitz", {"strategy.lipschitz": 10.0}, NEITHER,
         {"strategy.kind": "fedavg"}, "fedavg"),
    Case("strategy.relevance_window", {"strategy.relevance_window": 1},
         NEITHER, {"strategy.kind": "fedavg", **LATE_IN_ROUND_2}, "fedavg"),
    Case("strategy.relevance_window", {"strategy.relevance_window": 1},
         NEITHER, {"strategy.kind": "qffl", "strategy.q": 0.5,
                   "strategy.lipschitz": 0.01, **LATE_IN_ROUND_2}, "qffl"),
    *(Case("strategy.weighted_mean", {"strategy.weighted_mean": True},
           NEITHER, {"strategy.kind": kind, "federation.alpha": 1.0}, kind)
      for kind in ("qffl", "fairfedavg")),
    Case("detector.use_sample_std", {"detector.use_sample_std": True}, BOTH),
]


def leaf_keys(tree: dict, prefix: str = "") -> set[str]:
    keys = set()
    for key, value in tree.items():
        if isinstance(value, dict):
            keys |= leaf_keys(value, f"{prefix}{key}.")
        else:
            keys.add(prefix + key)
    return keys


def with_keys(data: dict, dotted: dict) -> dict:
    out = copy.deepcopy(data)
    for key, value in dotted.items():
        *path, last = key.split(".")
        node = out
        for part in path:
            node = node.setdefault(part, {})
        node[last] = copy.deepcopy(value)
    return out


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    for name, seed in ((CSV_A, 1), (CSV_B, 2)):
        save_dataset(synth_generate(SynthSpec(400, 80, dim=8, seed=seed)),
                     root / name)
    (root / SCHEMA).write_text(json.dumps(
        {"label_column": "label", "normal_value": ATTACK_LABEL}))
    return root


@pytest.fixture(scope="module")
def outcome(data_dir):
    """The (parameter digest, threshold, metrics) of a config, run once."""
    seen = {}

    def run(data: dict):
        key = json.dumps(data, sort_keys=True)
        if key not in seen:
            with pytest.MonkeyPatch.context() as mp:
                mp.setenv(DATA_DIR_ENV, str(data_dir))
                report, model = run_experiment(build_config(data))
            seen[key] = (hashlib.sha256(model.params.flat).hexdigest(),
                         report.threshold,
                         astuple(report.metrics))
        return seen[key]
    return run


def test_cases_cover_every_leaf_key():
    # `mode` picks the mode itself, so it has no case of its own
    assert {c.key for c in CASES} == leaf_keys(DEFAULT_CONFIG) - {"mode"}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "case", CASES,
    ids=[f"{c.key}@{c.context}" if c.context else c.key for c in CASES])
def test_key_takes_effect_only_where_read(case, mode, outcome):
    base = with_keys(BASE, {"mode": mode, **case.setup})
    changed = with_keys(base, case.change)
    before, after = outcome(base), outcome(changed)
    if mode in case.reads:
        assert before != after, f"{mode} mode ignores {case.key}"
    else:
        assert before == after, f"{mode} mode reads {case.key}"


@pytest.mark.parametrize("mode", MODES)
def test_sample_std_moves_the_threshold(mode):
    base = with_keys(BASE, {"mode": mode})
    population, sample = (
        run_experiment(build_config(with_keys(
            base, {"detector.use_sample_std": flag})))[0].threshold
        for flag in (False, True))
    assert np.isfinite(population)
    assert sample != population
