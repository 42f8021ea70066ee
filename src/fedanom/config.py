"""Experiment configuration: parsing, validation, defaults, fingerprints.

Configs are YAML (JSON works too, YAML being a superset). Each key a config
sets is checked once, for its type and then its allowed values in `_KEYS`;
unknown keys are rejected so typos fail loudly instead of silently training
with defaults. An empty file yields the fully-defaulted centralized
experiment: 50 epochs, batch 32, Adam at 0.001 with step-1 gamma-0.9 decay,
and for federated mode 2 clients, 5 rounds of 10 epochs, Dirichlet alpha 10.
Runs take their mode, epochs and latency model from the config alone.
"""
from __future__ import annotations

import copy
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .autoencoder import AutoencoderConfig, TrainConfig
from .checks import _ACCEPTS, _in_interval, _key, _misfit, _unallowed
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

# Each key, in the README's order: (type, default, allowed), as declared in
# `checks`; an unset optional key (None) is not checked. A row of type dict
# declares a section that is null when unset; set, each of its keys takes
# its default. Other sections are made by their keys.
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
    "model.hidden_dims": ([int], [128, 64, 32], "[1, inf)"),
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
    # client id -> delay, and round -> such a mapping
    "federation.latency.delays": ({int: float}, {}, "[0, inf)"),
    "federation.latency.per_round": ({int: {int: float}}, {}, "[0, inf)"),
    "federation.latency.jitter": (float, 0.0, "[0, inf)"),
    "federation.latency.drop_after": (float, None, "[0, inf)"),
    "strategy.kind": (str, "fedavg", tuple(k.value for k in StrategyKind)),
    "strategy.q": (float, 0.0, "[0, inf)"),
    "strategy.lipschitz": (float, None, "(0, inf)"),
    "strategy.sample_fraction": (float, 1.0, "(0, 1]"),
    "strategy.weighted_mean": (bool, False, None),
    "strategy.relevance_window": (int, 64, "[1, inf)"),
    "detector.use_sample_std": (bool, False, None),
}


def _name(kind) -> str:
    """How a config error names the declared type `kind`."""
    if isinstance(kind, list):
        return f"list of {_name(kind[0])}"
    if isinstance(kind, dict):
        ((key, item),) = kind.items()
        return f"mapping of {_name(key)} to {_name(item)}"
    return _ACCEPTS[kind][1]


def _as(kind, value):
    """`value`, which passes as `kind`, as that type: an int as a float, a
    tuple as a list, a mapping key as its type, a null mapping as empty."""
    if isinstance(kind, list):
        return [_as(kind[0], v) for v in value]
    if isinstance(kind, dict):
        ((key, item),) = kind.items()
        return {_key(key, k): _as(item, v) for k, v in (value or {}).items()}
    return kind(value)


def _checked(path: str, kind, allowed, value):
    """`value` as `kind`, the type of `path`, once it is one of the
    `allowed` values; else a ConfigError naming the key."""
    misfit = _misfit(kind, value)
    if misfit:
        part_kind, part = misfit
        got = ("an int that does not fit a float" if part_kind in (int, float)
               and type(part) is int else type(part).__name__)
        raise ConfigError(f"{path}: expected {_name(kind)}, got {got}")
    value = _as(kind, value)
    problem = _unallowed(kind, value, allowed)
    if problem:
        raise ConfigError(f"{path}: {problem}")
    return value


def _merge(path: str, user: dict) -> dict:
    """`user`'s value of each key in section `path` ("" for the root),
    checked by `_checked`, and the default of each key it leaves unset."""
    prefix = f"{path}." if path else ""
    names = dict.fromkeys(key[len(prefix):].split(".")[0] for key in _KEYS
                          if key.startswith(prefix))
    unknown = set(user) - set(names)
    if unknown:
        raise ConfigError(
            f"unknown config key {prefix + sorted(unknown)[0]!r}")
    merged = {}
    for name in names:
        key, value = prefix + name, user.get(name)
        kind, default, allowed = _KEYS.get(key, (dict, {}, None))
        if kind is not dict:
            merged[name] = (copy.deepcopy(default) if value is None
                            else _checked(key, kind, allowed, value))
        elif value is None and default is None:  # null when unset
            merged[name] = None
        else:
            merged[name] = _merge(key, _checked(
                key, dict, None, {} if value is None else value))
    return merged


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated, fully-defaulted experiment description."""

    data: dict

    def __post_init__(self):
        dataset, fed = self.data["dataset"], self.data["federation"]
        if dataset["kind"] == "csv" and not dataset["path"]:
            raise ConfigError("dataset.kind is 'csv' but dataset.path is unset")
        if fed["alpha"] * fed["n_clients"] > sys.float_info.max:
            raise ConfigError(
                f"federation.alpha: {fed['alpha']} times {fed['n_clients']} "
                f"clients is beyond the float range, where the Dirichlet "
                f"partition gives every client a share of 0")
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
        tc = self.train_config()
        if lr_at(tc.schedule, tc.epochs - 1) == 0.0:
            raise ConfigError(f"train.lr_gamma: the learning rate decays to 0 "
                              f"within {tc.epochs} epochs")
        # each latency id names a client or a round
        latency = self.latency_model()
        clients = f"[0, {fed['n_clients']})"
        for key, what, interval, ids in (
                ("delays", "client", clients, latency.delays),
                ("per_round", "round", f"[1, {fed['rounds']}]",
                 latency.per_round),
                *(("per_round", "client", clients, delays)
                  for delays in latency.per_round.values())):
            bad = [i for i in ids if not _in_interval(i, interval)]
            if bad:
                raise ConfigError(f"federation.latency.{key}: expected {what} "
                                  f"ids in {interval}, got {bad[0]}")

    @property
    def mode(self) -> str:
        return self.data["mode"]

    @property
    def seed(self) -> int:
        return int(self.data["seed"])

    def with_seed(self, seed: int) -> "ExperimentConfig":
        """This config at master seed `seed`, checked as a `seed` key is."""
        kind, _, allowed = _KEYS["seed"]
        return ExperimentConfig(self.canonical_dict() | {
            "seed": _checked("seed", kind, allowed, seed)})

    def canonical_dict(self) -> dict:
        return copy.deepcopy(self.data)

    def canonical_json(self) -> str:
        return json.dumps(self.data, sort_keys=True, separators=(",", ":"))

    def fingerprint(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def model_config(self) -> AutoencoderConfig:
        return AutoencoderConfig(**self.data["model"],
                                 seed=self.derived_seed(STREAM_INIT))

    def train_config(self, shuffle_seed: int = 0) -> TrainConfig:
        """One training run of the config's mode: `train.epochs` epochs, or
        a client's federated round of `federation.epochs_per_round`."""
        t = self.data["train"]
        return TrainConfig(
            epochs=(self.data["federation"]["epochs_per_round"]
                    if self.mode == MODE_FEDERATED else t["epochs"]),
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
        return StrategyConfig(**s | {"kind": StrategyKind(s["kind"]),
                                     "lipschitz": lipschitz})

    def latency_model(self) -> LatencyModel:
        """The `federation.latency` model; unset, `LatencyModel()`."""
        raw = self.data["federation"]["latency"] or {}
        return LatencyModel(**copy.deepcopy(raw))

    def synth_spec(self) -> SynthSpec:
        return SynthSpec(**self.data["dataset"]["synth"])

    def derived_seed(self, *parts: int) -> int:
        return derive_seed(self.seed, *parts)


def _root(user) -> dict:
    """`user`, a config root: a mapping, or None for an empty one."""
    if user is None:
        return {}
    if not isinstance(user, dict):
        raise ConfigError(
            f"config root must be a mapping, got {type(user).__name__}")
    return user


def build_config(user: dict | None) -> ExperimentConfig:
    """Validate a raw mapping against the schema and fill defaults."""
    user = _root(user)
    if isinstance(user.get("dataset"), dict):
        dataset = user["dataset"]
        if dataset.get("path") and "kind" not in dataset:
            user = {**user, "dataset": {**dataset, "kind": "csv"}}
    return ExperimentConfig(_merge("", user))


def parse_config(path: str | Path) -> ExperimentConfig:
    """Read and validate a config file; blank files mean all defaults. A
    file that cannot be read as a config root is a ConfigError naming it."""
    # imported here, the only place that reads YAML: PyYAML compiles its
    # regexes on import, which every `import fedanom` would pay for
    import yaml

    try:
        text = Path(path).read_text(encoding="utf-8")
        raw = _root(yaml.safe_load(text) if text.strip() else None)
    except ConfigError as err:
        raise ConfigError(f"{path}: {err}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: expected UTF-8 text") from None
    except yaml.YAMLError as err:
        mark = getattr(err, "problem_mark", None)
        where = "" if mark is None else (
            f" at line {mark.line + 1}, column {mark.column + 1}")
        raise ConfigError(f"{path}: not valid YAML{where}") from None
    return build_config(raw)
