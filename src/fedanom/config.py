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
from .federation import (
    LatencyModel,
    StrategyConfig,
    StrategyKind,
    clients_per_round,
)
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

# Each leaf key, in the README's order: (type, default, allowed). `allowed`
# is None, a tuple of choices, or an interval where "[" and "]" include an
# end and "(" and ")" exclude it; an unset optional key (None) is not
# checked. federation.latency is taken out before the merge and checked by
# _validate_latency.
_KEYS = {
    "mode": (str, MODE_CENTRALIZED, (MODE_CENTRALIZED, MODE_FEDERATED)),
    "seed": (int, 42, None),
    "dataset.kind": (str, "synth", ("synth", "csv")),
    "dataset.synth.n_normal": (int, 2000, "[0, inf)"),
    "dataset.synth.n_attack": (int, 200, "[0, inf)"),
    "dataset.synth.dim": (int, 66, "[1, inf)"),
    "dataset.synth.displacement": (float, 2.0, "(-inf, inf)"),
    "dataset.synth.seed": (int, 42, None),
    "dataset.path": (str, None, None),
    "dataset.schema": (str, None, None),
    "model.input_dim": (int, 66, "[1, inf)"),
    "model.hidden_dims": (list, [128, 64, 32], None),
    "model.bottleneck_dim": (int, 16, "[1, inf)"),
    "model.dropout_p": (float, 0.2, "[0, 1)"),
    "model.mirror_dropout": (bool, True, None),
    "split.train_fraction": (float, 0.8, "(0, 1)"),
    "train.epochs": (int, 50, "[1, inf)"),
    "train.batch_size": (int, 32, "[1, inf)"),
    "train.learning_rate": (float, 0.001, "(0, inf)"),
    "train.lr_step": (int, 1, "[1, inf)"),
    "train.lr_gamma": (float, 0.9, "(0, 1]"),
    "train.adam_beta1": (float, 0.9, "[0, 1)"),
    "train.adam_beta2": (float, 0.999, "[0, 1)"),
    "train.adam_epsilon": (float, 1e-8, "(0, inf)"),
    "federation.n_clients": (int, 2, "[1, inf)"),
    "federation.rounds": (int, 5, "[1, inf)"),
    "federation.epochs_per_round": (int, 10, "[1, inf)"),
    "federation.alpha": (float, 10.0, "(0, inf)"),
    "federation.min_participation": (int, None, "[0, inf)"),
    "federation.latency": (dict, None, None),
    "strategy.kind": (str, "fedavg", tuple(k.value for k in StrategyKind)),
    "strategy.q": (float, 0.0, "[0, inf)"),
    "strategy.lipschitz": (float, None, "(0, inf)"),
    "strategy.sample_fraction": (float, 1.0, "(0, 1]"),
    "strategy.weighted_mean": (bool, False, None),
    "strategy.relevance_window": (int, 64, "[1, inf)"),
    "detector.use_sample_std": (bool, False, None),
}

# the types a value of each declared type may have (a bool is no number),
# and the type's name in errors
_ACCEPTS = {
    bool: ((bool,), "bool"),
    int: ((int,), "int"),
    float: ((int, float), "number"),
    str: ((str,), "string"),
    list: ((list, tuple), "list"),
    dict: ((dict,), "mapping"),
}


def _is_a(kind: type, value) -> bool:
    """Whether `value` passes as `kind`, a type of _ACCEPTS (a bool passes
    only as a bool)."""
    return isinstance(value, _ACCEPTS[kind][0]) and (
        kind is bool or not isinstance(value, bool))


def _nested_defaults() -> dict:
    """Each key's default from _KEYS, nested by its dotted sections."""
    out: dict = {}
    for key, (_, default, _) in _KEYS.items():
        *sections, leaf = key.split(".")
        node = out
        for section in sections:
            node = node.setdefault(section, {})
        node[leaf] = default
    return out


DEFAULT_CONFIG: dict = _nested_defaults()

_LATENCY_KEYS = {"delays", "per_round", "jitter", "drop_after"}


def _in_interval(value: float, interval: str) -> bool:
    low, high = (float(end) for end in interval[1:-1].split(","))
    above = low <= value if interval[0] == "[" else low < value
    below = value <= high if interval[-1] == "]" else value < high
    return above and below


def _unallowed(value, allowed) -> str | None:
    """What `value` is expected to be and is not, by `allowed` as in _KEYS,
    or None if it is allowed."""
    if isinstance(allowed, tuple):
        if value not in allowed:
            return f"expected one of {' | '.join(allowed)}, got {value!r}"
    elif (allowed is not None and value is not None
          and not _in_interval(value, allowed)):
        return f"expected a value in {allowed}, got {value!r}"
    return None


def _check_values(data: dict) -> None:
    """Check each value against its key's allowed values in _KEYS; an
    error starts with the key."""
    for key, (_, _, allowed) in _KEYS.items():
        section, *rest = key.split(".")
        value = data[section]
        for part in rest:
            value = value[part]
        problem = _unallowed(value, allowed)
        if problem:
            raise ConfigError(f"{key}: {problem}")


def _type_name(value) -> str:
    return type(value).__name__


def _check_scalar(path: str, value) -> object:
    """`value` as the type of `path`'s row in _KEYS, or fail naming the key."""
    kind = _KEYS[path][0]
    if not _is_a(kind, value):
        raise ConfigError(f"{path}: expected {_ACCEPTS[kind][1]}, "
                          f"got {_type_name(value)}")
    return kind(value)


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
            merged[key] = _check_scalar(here, value)
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
        strategy = self.data["strategy"]
        n_sampled = clients_per_round(strategy["sample_fraction"],
                                      fed["n_clients"])
        if (fed["min_participation"] or 0) > n_sampled:
            raise ConfigError(
                f"federation.min_participation is {fed['min_participation']} "
                f"but each round samples only {n_sampled} of "
                f"{fed['n_clients']} clients, so every round would carry the "
                f"initial model forward")
        if (strategy["kind"] != StrategyKind.FEDAVG.value
                and strategy["q"] > 0 and strategy["lipschitz"] is None):
            raise ConfigError(
                f"strategy.lipschitz: must be set for {strategy['kind']} at "
                f"q = {strategy['q']} > 0; the 1/learning_rate default "
                f"assumes SGD local steps, and local steps use Adam")
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
        """The strategy, an unset `lipschitz` filled in as 1/learning_rate
        (unset is rejected where qffl or fairfedavg would use it at q > 0)."""
        s = self.data["strategy"]
        lipschitz = s["lipschitz"]
        if lipschitz is None:
            lipschitz = 1.0 / self.data["train"]["learning_rate"]
        return StrategyConfig(
            kind=StrategyKind(s["kind"]),
            q=s["q"],
            lipschitz=lipschitz,
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
    return ExperimentConfig(merged)


def parse_config(path: str | Path) -> ExperimentConfig:
    """Read and validate a config file; blank files mean all defaults."""
    # imported here, the only place that reads YAML: PyYAML compiles its
    # regexes on import, which every `import fedanom` would pay for
    import yaml

    try:
        text = Path(path).read_text(encoding="utf-8")
        raw = yaml.safe_load(text) if text.strip() else None
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: expected UTF-8 text") from None
    except yaml.YAMLError as err:
        mark = getattr(err, "problem_mark", None)
        where = "" if mark is None else (
            f" at line {mark.line + 1}, column {mark.column + 1}")
        raise ConfigError(f"{path}: not valid YAML{where}") from None
    if raw is not None and not isinstance(raw, dict):
        raise ConfigError(f"config root must be a mapping, got {_type_name(raw)}")
    return build_config(raw)
