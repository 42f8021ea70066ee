"""Experiment configuration: parsing, validation, defaults, fingerprints.

Configs are YAML (JSON works too, YAML being a superset). Every key is
validated against the documented schema; unknown keys are rejected so
typos fail loudly instead of silently training with defaults. An empty
file yields the fully-defaulted centralized experiment: 50 epochs, batch
32, Adam at 0.001 with step-1 gamma-0.9 decay, and for federated mode 2
clients, 5 rounds of 10 epochs, Dirichlet alpha 10.
"""
from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .autoencoder import AutoencoderConfig, TrainConfig
from .dataplane import SynthSpec
from .errors import ConfigError
from .federation import LatencyModel, StrategyConfig, StrategyKind
from .numerics import LrSchedule, derive_seed, lr_at

MODE_CENTRALIZED = "centralized"
MODE_FEDERATED = "federated"

# seed-stream tags so every consumer of the master seed gets its own stream
STREAM_SPLIT = 1
STREAM_PARTITION = 2
STREAM_INIT = 3
STREAM_CLIENT = 4
STREAM_TEST = 5
STREAM_TRAIN = 6

DEFAULT_CONFIG: dict = {
    "mode": MODE_CENTRALIZED,
    "seed": 42,
    "dataset": {
        "kind": "synth",
        "synth": {
            "n_normal": 2000,
            "n_attack": 200,
            "dim": 66,
            "displacement": 2.0,
            "seed": 42,
        },
        "path": None,
        "schema": None,
    },
    "model": {
        "input_dim": 66,
        "hidden_dims": [128, 64, 32],
        "bottleneck_dim": 16,
        "dropout_p": 0.2,
        "mirror_dropout": True,
    },
    "split": {
        "train_fraction": 0.8,
    },
    "train": {
        "epochs": 50,
        "batch_size": 32,
        "learning_rate": 0.001,
        "lr_step": 1,
        "lr_gamma": 0.9,
        "adam_beta1": 0.9,
        "adam_beta2": 0.999,
        "adam_epsilon": 1e-8,
    },
    "federation": {
        "n_clients": 2,
        "rounds": 5,
        "epochs_per_round": 10,
        "alpha": 10.0,
        "min_participation": None,
        "latency": None,
    },
    "strategy": {
        "kind": "fedavg",
        "q": 0.0,
        "lipschitz": None,
        "sample_fraction": 1.0,
        "weighted_mean": False,
        "relevance_window": 64,
    },
    "detector": {
        "use_sample_std": False,
    },
}

_LATENCY_KEYS = {"delays", "per_round", "jitter", "drop_after"}

# Allowed interval per numeric key: "[" and "]" include an end, "(" and ")"
# exclude it. An unset optional key (None) is not checked.
_RANGES = {
    "dataset.synth.n_normal": "[0, inf)",
    "dataset.synth.n_attack": "[0, inf)",
    "dataset.synth.dim": "[1, inf)",
    "model.input_dim": "[1, inf)",
    "model.bottleneck_dim": "[1, inf)",
    "model.dropout_p": "[0, 1)",
    "split.train_fraction": "(0, 1)",
    "train.epochs": "[1, inf)",
    "train.batch_size": "[1, inf)",
    "train.learning_rate": "(0, inf)",
    "train.lr_step": "[1, inf)",
    "train.lr_gamma": "(0, 1]",
    "train.adam_beta1": "[0, 1)",
    "train.adam_beta2": "[0, 1)",
    "train.adam_epsilon": "(0, inf)",
    "federation.n_clients": "[1, inf)",
    "federation.rounds": "[1, inf)",
    "federation.epochs_per_round": "[1, inf)",
    "federation.alpha": "(0, inf)",
    "federation.min_participation": "[0, inf)",
    "strategy.q": "[0, inf)",
    "strategy.lipschitz": "(0, inf)",
    "strategy.sample_fraction": "(0, 1]",
    "strategy.relevance_window": "[1, inf)",
}

# Allowed values of each key that selects a variant.
_CHOICES = {
    "mode": (MODE_CENTRALIZED, MODE_FEDERATED),
    "dataset.kind": ("synth", "csv"),
    "strategy.kind": tuple(k.value for k in StrategyKind),
}


def _in_interval(value: float, interval: str) -> bool:
    low, high = (float(end) for end in interval[1:-1].split(","))
    above = low <= value if interval[0] == "[" else low < value
    below = value <= high if interval[-1] == "]" else value < high
    return above and below


def _check_values(data: dict) -> None:
    """Check every _RANGES and _CHOICES key; an error starts with the key."""
    for key, allowed in (*_RANGES.items(), *_CHOICES.items()):
        section, *rest = key.split(".")
        value = data[section]
        for part in rest:
            value = value[part]
        if isinstance(allowed, tuple):
            if value not in allowed:
                raise ConfigError(f"{key}: expected one of "
                                  f"{' | '.join(allowed)}, got {value!r}")
        elif value is not None and not _in_interval(value, allowed):
            raise ConfigError(f"{key}: expected a value in {allowed}, "
                              f"got {value!r}")


def _type_name(value) -> str:
    return type(value).__name__


def _check_scalar(path: str, value, default) -> object:
    """Coerce a user scalar onto the default's type, or fail naming the key."""
    if default is None or value is None:
        return value
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected bool, got {_type_name(value)}")
        return value
    if isinstance(default, int) and not isinstance(default, bool):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected int, got {_type_name(value)}")
        return value
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected number, got {_type_name(value)}")
        return float(value)
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected string, got {_type_name(value)}")
        return value
    if isinstance(default, list):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected list, got {_type_name(value)}")
        return list(value)
    return value


def _merge(path: str, user: dict, defaults: dict) -> dict:
    merged = {}
    unknown = set(user) - set(defaults)
    if unknown:
        key = sorted(unknown)[0]
        where = f"{path}.{key}" if path else key
        raise ConfigError(f"unknown config key {where!r}")
    for key, default in defaults.items():
        here = f"{path}.{key}" if path else key
        if key not in user or user[key] is None:
            merged[key] = copy.deepcopy(default)
            continue
        value = user[key]
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{here}: expected mapping, got {_type_name(value)}")
            merged[key] = _merge(here, value, default)
        else:
            merged[key] = _check_scalar(here, value, default)
    return merged


def _latency_map(key: str, raw, value) -> dict:
    """`raw` (None for empty) as a dict from int ids, or their decimal text
    as in JSON, to `value(key, v)` of each entry."""
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"federation.latency.{key}: expected mapping, "
                          f"got {_type_name(raw)}")
    out = {}
    for k, v in raw.items():
        if isinstance(k, str) and k.isdecimal():
            k = int(k)
        if isinstance(k, bool) or not isinstance(k, int):
            raise ConfigError(
                f"federation.latency.{key}: expected int ids, got {k!r}")
        out[k] = value(key, v)
    return out


def _latency_time(key: str, value) -> float:
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not 0.0 <= value < math.inf):
        raise ConfigError(f"federation.latency.{key}: expected a finite "
                          f"number >= 0, got {value!r}")
    return float(value)


def _validate_latency(raw) -> dict | None:
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ConfigError("federation.latency: expected mapping")
    unknown = set(raw) - _LATENCY_KEYS
    if unknown:
        raise ConfigError(
            f"unknown config key 'federation.latency.{sorted(unknown)[0]}'")
    jitter, drop_after = raw.get("jitter"), raw.get("drop_after")
    return {
        "delays": _latency_map("delays", raw.get("delays"), _latency_time),
        "per_round": _latency_map("per_round", raw.get("per_round"),
                                  partial(_latency_map, value=_latency_time)),
        "jitter": 0.0 if jitter is None else _latency_time("jitter", jitter),
        "drop_after": (None if drop_after is None
                       else _latency_time("drop_after", drop_after)),
    }


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated, fully-defaulted experiment description."""

    data: dict

    def __post_init__(self):
        _check_values(self.data)
        dataset, fed = self.data["dataset"], self.data["federation"]
        if dataset["kind"] == "csv" and not dataset["path"]:
            raise ConfigError("dataset.kind is 'csv' but dataset.path is unset")
        n_sampled = math.ceil(self.data["strategy"]["sample_fraction"]
                              * fed["n_clients"])
        if (fed["min_participation"] or 0) > n_sampled:
            raise ConfigError(
                f"federation.min_participation is {fed['min_participation']} "
                f"but each round samples only {n_sampled} of "
                f"{fed['n_clients']} clients, so every round would carry the "
                f"initial model forward")
        # the rate decays within each training run: the whole centralized
        # run, or one client's round
        epochs = (fed["epochs_per_round"] if self.mode == MODE_FEDERATED
                  else self.data["train"]["epochs"])
        if lr_at(self.train_config(epochs).schedule, epochs - 1) == 0.0:
            raise ConfigError(f"train.lr_gamma: the learning rate decays to 0 "
                              f"within {epochs} epochs")

    @property
    def mode(self) -> str:
        return self.data["mode"]

    @property
    def seed(self) -> int:
        return int(self.data["seed"])

    def with_seed(self, seed: int) -> "ExperimentConfig":
        data = copy.deepcopy(self.data)
        data["seed"] = int(seed)
        return ExperimentConfig(data)

    def canonical_dict(self) -> dict:
        return copy.deepcopy(self.data)

    def canonical_json(self) -> str:
        return json.dumps(self.data, sort_keys=True, separators=(",", ":"))

    def fingerprint(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def model_config(self) -> AutoencoderConfig:
        m = self.data["model"]
        return AutoencoderConfig(
            input_dim=m["input_dim"],
            hidden_dims=tuple(m["hidden_dims"]),
            bottleneck_dim=m["bottleneck_dim"],
            dropout_p=m["dropout_p"],
            seed=self.derived_seed(STREAM_INIT),
            mirror_dropout=m["mirror_dropout"],
        )

    def train_config(self, epochs: int, shuffle_seed: int = 0) -> TrainConfig:
        t = self.data["train"]
        return TrainConfig(
            epochs=epochs,
            batch_size=t["batch_size"],
            schedule=LrSchedule(t["learning_rate"], t["lr_step"], t["lr_gamma"]),
            shuffle_seed=shuffle_seed,
            adam_beta1=t["adam_beta1"],
            adam_beta2=t["adam_beta2"],
            adam_epsilon=t["adam_epsilon"],
        )

    def strategy_config(self) -> StrategyConfig:
        s = self.data["strategy"]
        return StrategyConfig(
            kind=StrategyKind(s["kind"]),
            q=s["q"],
            lipschitz=s["lipschitz"],
            sample_fraction=s["sample_fraction"],
            weighted_mean=s["weighted_mean"],
            relevance_window=s["relevance_window"],
        )

    def latency_model(self) -> LatencyModel | None:
        raw = self.data["federation"]["latency"]
        return None if raw is None else LatencyModel(**copy.deepcopy(raw))

    def synth_spec(self) -> SynthSpec:
        s = self.data["dataset"]["synth"]
        return SynthSpec(n_normal=s["n_normal"], n_attack=s["n_attack"],
                         dim=s["dim"], displacement=s["displacement"],
                         seed=s["seed"])

    def derived_seed(self, *parts: int) -> int:
        return derive_seed(self.seed, *parts)


def build_config(user: dict | None) -> ExperimentConfig:
    """Validate a raw mapping against the schema and fill defaults."""
    user = user or {}
    if not isinstance(user, dict):
        raise ConfigError(f"config root must be a mapping, got {_type_name(user)}")
    if isinstance(user.get("dataset"), dict):
        dataset = user["dataset"]
        if dataset.get("path") and "kind" not in dataset:
            user = {**user, "dataset": {**dataset, "kind": "csv"}}
    latency_raw = None
    if isinstance(user.get("federation"), dict):
        federation = dict(user["federation"])
        latency_raw = _validate_latency(federation.pop("latency", None))
        user = {**user, "federation": federation}
    merged = _merge("", user, DEFAULT_CONFIG)
    merged["federation"]["latency"] = latency_raw
    hidden = merged["model"]["hidden_dims"]
    if not all(type(d) is int and d > 0 for d in hidden):  # bool is no int
        raise ConfigError(
            f"model.hidden_dims: expected positive ints, got {hidden!r}")
    mp = merged["federation"]["min_participation"]
    if mp is not None and (isinstance(mp, bool) or not isinstance(mp, int)):
        raise ConfigError(
            "federation.min_participation: expected nonnegative int")
    lip = merged["strategy"]["lipschitz"]
    if lip is not None:
        merged["strategy"]["lipschitz"] = float(lip)
    return ExperimentConfig(merged)


def parse_config(path: str | Path) -> ExperimentConfig:
    """Read and validate a config file; blank files mean all defaults."""
    # imported here, the only place that reads YAML: PyYAML compiles its
    # regexes on import, which every `import fedanom` would pay for
    import yaml

    text = Path(path).read_text()
    raw = yaml.safe_load(text) if text.strip() else None
    if raw is not None and not isinstance(raw, dict):
        raise ConfigError(f"config root must be a mapping, got {_type_name(raw)}")
    return build_config(raw)
