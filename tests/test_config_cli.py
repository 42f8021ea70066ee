"""Tests for config parsing, the experiment harness and the CLI."""

import codecs
import csv
import io
import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedanom.cli import main
from fedanom.config import (
    _KEYS,
    DEFAULT_CONFIG,
    build_config,
    parse_config,
)
from fedanom.autoencoder import build
from fedanom.dataplane import ScalerParams
from fedanom.detector import (
    SOURCE_CENTRALIZED,
    SOURCE_ROUND_MIN,
    ConfusionMatrix,
    ThresholdDetector,
    metrics,
)
from fedanom.errors import (
    ConfigError,
    DataError,
    DegenerateAggregationError,
    FedAnomError,
)
from fedanom.harness import (
    METRICS_JSON,
    TrainedModel,
    emit_report,
    evaluate_saved,
    load_model,
    metric_values,
    run_centralized,
    run_experiment,
    run_federated_experiment,
    save_model,
)
from fedanom.numerics import Activation, LayerSpec, ParameterSet


def tiny_config(**overrides):
    base = {
        "mode": "centralized",
        "seed": 7,
        "dataset": {"synth": {"n_normal": 300, "n_attack": 80, "dim": 8,
                              "displacement": 2.0, "seed": 5}},
        "model": {"input_dim": 8, "hidden_dims": [6, 4],
                  "bottleneck_dim": 2, "dropout_p": 0.1},
        "train": {"epochs": 4},
        "federation": {"n_clients": 2, "rounds": 2, "epochs_per_round": 2},
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and key in base:
            base[key].update(value)
        else:
            base[key] = value
    return build_config(base)


def user_with(key, value):
    """A user config that sets the dotted `key` to `value`."""
    *path, last = key.split(".")
    user = node = {}
    for part in path:
        node = node.setdefault(part, {})
    node[last] = value
    return user


def rows(kinds):
    """`(key, type, allowed)` of each `_KEYS` row whose `allowed` is an
    instance of `kinds` (`object` for every row), as pytest params named by
    key."""
    return [pytest.param(key, kind, allowed, id=key)
            for key, (kind, _, allowed) in _KEYS.items()
            if isinstance(allowed, kinds)]


def entry_type(kind):
    """The declared type of `kind`'s entries, or `kind` if it is neither a
    list nor a mapping."""
    if isinstance(kind, list):
        return entry_type(kind[0])
    if isinstance(kind, dict):
        return entry_type(*kind.values())
    return kind


def as_entry(kind, value):
    """A value of declared type `kind` whose one entry is `value`; id 1
    names a client and a round of the default federation."""
    if isinstance(kind, list):
        return [as_entry(kind[0], value)]
    if isinstance(kind, dict):
        return {1: as_entry(*kind.values(), value)}
    return value


def interval_ends(interval):
    """`(end, included)` for both ends of an interval such as "[0, 1)"."""
    low, high = (float(end) for end in interval[1:-1].split(","))
    return [(low, interval[0] == "["), (high, interval[-1] == "]")]


# values of the wrong type for each declared type (a bool is no number)
WRONG_TYPE = {int: ["7", 1.5, True], float: ["0.5", True], bool: [1, "true"],
              str: [5], list: ["64"], dict: ["fast", []]}


def wrong_types(kind):
    """Values of the wrong type for declared type `kind`: for a list or a
    mapping, also one with an entry of the wrong type."""
    if isinstance(kind, (list, dict)):
        return WRONG_TYPE[type(kind)] + [
            as_entry(kind, v) for v in WRONG_TYPE[entry_type(kind)]]
    return WRONG_TYPE[kind]


BIG_INT = 10 ** 400  # 401 digits, beyond float range
LATENCY_DEFAULTS = ('{"delays":{},"drop_after":null,"jitter":0.0,'
                    '"per_round":{}}')


def ids(low, high):
    """Ids in [low, high], as ints or as their decimal text."""
    return st.integers(low, high).flatmap(
        lambda i: st.sampled_from([i, str(i)]))


@st.composite
def latency_blocks(draw):
    """A `federation.latency` value whose ids name the default federation's
    2 clients and 5 rounds; any key may be absent or null."""
    time = st.none() | st.integers(0, 10 ** 6) | st.floats(0.0, 1e6)
    delays = st.dictionaries(ids(0, 1), time.filter(lambda t: t is not None),
                             max_size=2)
    return draw(st.none() | st.fixed_dictionaries({}, optional={
        "delays": st.none() | delays,
        "per_round": st.none() | st.dictionaries(ids(1, 5),
                                                 st.none() | delays,
                                                 max_size=3),
        "jitter": time, "drop_after": time}))


class TestParseConfig:
    def test_empty_file_gives_stock_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        cfg = parse_config(path)
        assert cfg.mode == "centralized"
        assert cfg.data["train"]["epochs"] == 50
        assert cfg.data["train"]["batch_size"] == 32
        assert cfg.data["train"]["learning_rate"] == 0.001
        assert cfg.data["train"]["lr_step"] == 1
        assert cfg.data["train"]["lr_gamma"] == 0.9
        assert cfg.data["federation"]["n_clients"] == 2
        assert cfg.data["federation"]["rounds"] == 5
        assert cfg.data["federation"]["epochs_per_round"] == 10
        assert cfg.data["federation"]["alpha"] == 10.0
        assert cfg.data["model"]["input_dim"] == 66
        assert cfg.data["model"]["hidden_dims"] == [128, 64, 32]
        assert cfg.data["model"]["bottleneck_dim"] == 16
        assert cfg.data["model"]["dropout_p"] == 0.2

    @pytest.mark.parametrize("text", ["", "null\n"], ids=["blank", "null"])
    def test_blank_or_null_file_gives_default_config(self, tmp_path, text):
        path = tmp_path / "config.yaml"
        path.write_text(text)
        assert parse_config(path).data == DEFAULT_CONFIG

    @pytest.mark.parametrize("root", [[], 0, "", False, [1], "x", 5],
                             ids=["empty-list", "zero", "empty-string",
                                  "false", "list", "string", "int"])
    def test_non_mapping_root_rejected(self, tmp_path, capsys, root):
        problem = f"config root must be a mapping, got {type(root).__name__}"
        with pytest.raises(ConfigError) as info:
            build_config(root)
        assert str(info.value) == problem
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(root))
        assert main(["train-central", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {path}: {problem}\n"

    def test_unknown_key_rejected_with_name(self, tmp_path):
        path = tmp_path / "typo.yaml"
        path.write_text("train:\n  epochz: 10\n")
        with pytest.raises(ConfigError, match="epochz"):
            parse_config(path)

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="bogus"):
            build_config({"bogus": 1})

    @pytest.mark.parametrize("key, value", [
        ("train.epochs", "fifty"),
        # keys unset by default are typed too
        ("dataset.path", 5), ("dataset.schema", 7),
        ("strategy.lipschitz", "abc"), ("strategy.lipschitz", True),
        ("federation.min_participation", 2.5),
    ])
    def test_type_error_names_key(self, key, value):
        section, name = key.split(".")
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: expected "):
            build_config({section: {name: value}})

    @pytest.mark.parametrize("kind", ["qffl", "fairfedavg"])
    def test_positive_q_needs_explicit_lipschitz(self, kind):
        with pytest.raises(ConfigError, match=(
                rf"^strategy\.lipschitz: must be set for {kind} at q = 0\.5 "
                rf"> 0; the 1/learning_rate default assumes SGD local steps")):
            build_config({"strategy": {"kind": kind, "q": 0.5}})
        build_config({"strategy": {"kind": kind, "q": 0.5, "lipschitz": 0.01}})
        build_config({"strategy": {"kind": kind}})
        # fedavg reads neither q nor the estimate
        build_config({"strategy": {"kind": "fedavg", "q": 0.5}})

    @pytest.mark.parametrize("dims", [[64, "x"], [6.7, 4], [True, 4]])
    def test_hidden_dims_entries_must_be_positive_ints(self, dims):
        with pytest.raises(ConfigError, match=r"model\.hidden_dims"):
            build_config({"model": {"hidden_dims": dims}})

    @pytest.mark.parametrize("key, value", [
        ("model.dropout_p", 1.5), ("model.input_dim", 0),
        ("train.batch_size", 0), ("train.epochs", 0),
        ("federation.n_clients", 0), ("federation.rounds", 0),
        ("federation.epochs_per_round", 0), ("federation.alpha", 0.0),
        ("split.train_fraction", 1.5), ("split.train_fraction", 0.0),
        ("strategy.sample_fraction", 0), ("strategy.sample_fraction", 1.5),
        ("dataset.synth.n_normal", -5), ("train.learning_rate", float("nan")),
        ("dataset.synth.displacement", float("nan")),
        ("train.learning_rate", 0.0), ("train.lr_step", 0),
        ("train.lr_gamma", 0.0), ("train.lr_gamma", 1.5),
        ("federation.min_participation", -1), ("strategy.lipschitz", 0),
        ("strategy.lipschitz", -1.0), ("strategy.q", -0.5),
        ("strategy.relevance_window", 0),
        ("dataset.synth.n_attack", -1), ("dataset.synth.dim", 0),
        ("model.bottleneck_dim", 0), ("train.adam_beta1", 1.0),
        ("train.adam_beta2", 1.0), ("train.adam_epsilon", 0.0),
        ("federation.latency.delays", {"a": 1}),
        ("federation.latency.delays", [1, 2]),
        ("federation.latency.delays", {0: float("nan")}),
        ("federation.latency.per_round", {1: {0: -1.0}}),
        ("federation.latency.jitter", "fast"),
        ("federation.latency.jitter", -1.0),
        ("federation.latency.drop_after", -2),
    ])
    def test_out_of_range_value_rejected_with_key(self, key, value):
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: "):
            build_config(user_with(key, value))

    @pytest.mark.parametrize("key, kind, interval", rows(str))
    def test_interval_ends(self, key, kind, interval):
        entry = entry_type(kind)
        for end, included in interval_ends(interval):
            if included:
                build_config(user_with(key, as_entry(kind, entry(end))))
                continue
            if math.isinf(end) and entry is int:
                expected = ("expected int, got float" if kind is int
                            else "expected list of int, got float")
            else:
                end = entry(end)
                expected = f"expected a value in {interval}, got {end!r}"
            with pytest.raises(ConfigError,
                               match=rf"^{re.escape(f'{key}: {expected}')}$"):
                build_config(user_with(key, as_entry(kind, end)))

    @pytest.mark.parametrize("key, kind, choices", rows(tuple))
    def test_choice_rows_reject_unlisted_string(self, key, kind, choices):
        with pytest.raises(ConfigError, match=(
                rf"^{re.escape(key)}: expected one of "
                rf"{re.escape(' | '.join(choices))}, got 'unlisted'$")):
            build_config(user_with(key, "unlisted"))

    @pytest.mark.parametrize("key, kind, allowed", rows(object))
    def test_every_row_rejects_wrong_type(self, key, kind, allowed):
        for value in wrong_types(kind):
            with pytest.raises(ConfigError,
                               match=rf"^{re.escape(key)}: expected "):
                build_config(user_with(key, value))

    @pytest.mark.parametrize("n_clients, fraction, bar, sampled", [
        (3, 1.0, 5, 3), (3, 0.5, 3, 2), (4, 0.5, 3, 2), (2, 0.5, 2, 1)])
    @pytest.mark.parametrize("mode", ["centralized", "federated"])
    def test_unreachable_min_participation_rejected(self, mode, n_clients,
                                                    fraction, bar, sampled):
        with pytest.raises(ConfigError, match=(
                rf"^federation\.min_participation is {bar} but each round "
                rf"samples only {sampled} of {n_clients} clients")):
            build_config({"mode": mode,
                          "federation": {"n_clients": n_clients,
                                         "min_participation": bar},
                          "strategy": {"sample_fraction": fraction}})

    @pytest.mark.parametrize("mode, section, key", [
        ("centralized", "train", "epochs"),
        ("federated", "federation", "epochs_per_round")])
    def test_learning_rate_decaying_to_zero_rejected(self, mode, section, key):
        def three_epochs(gamma):
            user = {"mode": mode, "train": {"lr_gamma": gamma}}
            user.setdefault(section, {})[key] = 3
            return user

        # 1e-3 * (1e-200) ** 2 underflows to 0 at the third epoch
        with pytest.raises(ConfigError, match=r"^train\.lr_gamma: .* 0 "
                                              r"within 3 epochs"):
            build_config(three_epochs(1e-200))
        build_config(three_epochs(1e-150))

    def test_included_range_ends_accepted(self):
        cfg = build_config({
            "dataset": {"synth": {"n_attack": 0}},
            "model": {"dropout_p": 0.0},
            "train": {"lr_gamma": 1.0},
            "federation": {"n_clients": 1, "min_participation": 0},
            "strategy": {"sample_fraction": 1.0, "q": 0.0}})
        assert cfg.data["strategy"]["sample_fraction"] == 1.0

    def test_round_trip_canonical_form(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "canonical.yaml"
        path.write_text(yaml.safe_dump(cfg.canonical_dict(), sort_keys=True))
        again = parse_config(path)
        assert again.canonical_dict() == cfg.canonical_dict()
        assert again.fingerprint() == cfg.fingerprint()

    def test_fingerprint_changes_with_content(self):
        a = tiny_config()
        b = tiny_config(seed=8)
        assert a.fingerprint() != b.fingerprint()

    def test_seed_override(self):
        cfg = tiny_config().with_seed(99)
        assert cfg.seed == 99

    def test_latency_section_parsed(self):
        cfg = tiny_config(federation={"latency": {
            "delays": {0: 1.0}, "per_round": {2: {1: 5.0}},
            "drop_after": 2.0}})
        model = cfg.latency_model()
        assert model.delays == {0: 1.0}
        assert model.per_round == {2: {1: 5.0}}
        assert model.drop_after == 2.0

    def test_unknown_latency_key(self):
        with pytest.raises(ConfigError, match="latency.dealys"):
            build_config({"federation": {"latency": {"dealys": {}}}})

    @pytest.mark.parametrize("key, value", [
        ("train.learning_rate", BIG_INT),
        ("federation.latency.jitter", BIG_INT),
        ("federation.latency.delays", {0: BIG_INT}),
    ], ids=["learning_rate", "jitter", "delays"])
    def test_int_beyond_float_range_names_key(self, key, value):
        with pytest.raises(ConfigError, match=(
                rf"^{re.escape(key)}: expected .*, got an int that does not "
                rf"fit a float$")):
            build_config(user_with(key, value))

    @pytest.mark.parametrize("latency, key, bad", [
        ({"delays": {2: 1.0}}, "delays", 2),
        ({"delays": {-1: 1.0}}, "delays", -1),
        ({"delays": {"99": 1.0}}, "delays", 99),
        ({"per_round": {0: {0: 1.0}}}, "per_round", 0),
        ({"per_round": {6: {}}}, "per_round", 6),
        ({"per_round": {1: {2: 1.0}}}, "per_round", 2),
    ])
    def test_latency_id_naming_no_client_or_round_rejected(self, latency,
                                                           key, bad):
        with pytest.raises(ConfigError, match=(
                rf"^federation\.latency\.{key}: expected .* ids in .*, "
                rf"got {re.escape(str(bad))}$")):
            build_config({"federation": {"n_clients": 2, "rounds": 5,
                                         "latency": latency}})

    def test_latency_ids_of_first_and_last_client_and_round_accepted(self):
        build_config({"federation": {"n_clients": 2, "rounds": 5, "latency": {
            "delays": {0: 1.0, 1: 1.0},
            "per_round": {1: {0: 1.0}, 5: {1: 1.0}}}}})

    @pytest.mark.parametrize("federation, canonical", [
        ({}, "null"),
        ({"latency": None}, "null"),
        ({"latency": {}}, LATENCY_DEFAULTS),
        ({"latency": {"delays": {"0": 1}, "per_round": {"2": {"1": 5}}}},
         '{"delays":{"0":1.0},"drop_after":null,"jitter":0.0,'
         '"per_round":{"2":{"1":5.0}}}'),
        ({"latency": {"per_round": {1: None}}},
         '{"delays":{},"drop_after":null,"jitter":0.0,"per_round":{"1":{}}}'),
        ({"latency": {"jitter": None}}, LATENCY_DEFAULTS),
    ], ids=["unset", "null", "empty", "text-ids", "null-round", "null-jitter"])
    def test_latency_canonical_json(self, federation, canonical):
        cfg = build_config({"federation": federation})
        assert f'"latency":{canonical},' in cfg.canonical_json()

    @settings(max_examples=100, deadline=None)
    @given(latency=latency_blocks(), hidden=st.lists(
        st.integers(1, 512), max_size=4).flatmap(
            lambda h: st.sampled_from([h, tuple(h)])))
    def test_canonical_json_builds_the_same_config(self, latency, hidden):
        cfg = build_config({"model": {"hidden_dims": hidden},
                            "federation": {"latency": latency}})
        again = build_config(json.loads(cfg.canonical_json()))
        assert again.fingerprint() == cfg.fingerprint()

    def test_csv_kind_requires_path(self):
        with pytest.raises(ConfigError, match="dataset.path"):
            build_config({"dataset": {"kind": "csv"}})

    def test_path_implies_csv_kind(self):
        cfg = build_config({"dataset": {"path": "flows.csv"}})
        assert cfg.data["dataset"]["kind"] == "csv"

    def test_defaults_dict_not_mutated(self):
        before = json.dumps(DEFAULT_CONFIG, sort_keys=True)
        tiny_config()
        assert json.dumps(DEFAULT_CONFIG, sort_keys=True) == before

    def test_unknown_strategy_kind_lists_choices(self):
        with pytest.raises(ConfigError, match=r"^strategy\.kind: .*"
                           r"fedavg \| qffl \| fairfedavg.*'fedprox'"):
            build_config({"strategy": {"kind": "fedprox"}})

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError, match="mode"):
            build_config({"mode": "hybrid"})


def drop(key):
    return lambda arrays: {k: v for k, v in arrays.items() if k != key}


def replace(key, make):
    return lambda arrays: {**arrays, key: make(arrays[key])}


def last_is(value):
    return lambda a: np.append(a[:-1], value)


def npy_bytes(arrays):
    buf = io.BytesIO()
    np.save(buf, arrays["flat"])
    return buf.getvalue()


def edit_model_npz(path, edit):
    """Overwrite the archive at `path` with `edit` of its arrays: new
    arrays, or the bytes of the new file."""
    with np.load(path) as archive:
        edited = edit({key: archive[key] for key in archive.files})
    if isinstance(edited, bytes):
        path.write_bytes(edited)
    else:
        np.savez(path, **edited)


def edit_bundle_file(path, edit):
    """Overwrite `model.npz` as `edit_model_npz` does, or `model.json` with
    `edit` of its mapping."""
    if path.suffix == ".npz":
        edit_model_npz(path, edit)
    else:
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))


def scaler_max_below_min_in_column(j):
    def edit(arrays):
        top = arrays["scaler_max"].copy()
        top[j] = arrays["scaler_min"][j] - 1.0
        return {**arrays, "scaler_max": top}
    return edit


def gelu_layer(meta):
    meta["layers"][2]["activation"] = "gelu"
    return meta


def saved_before_detector_source(meta):
    """`meta` as written before model.json named its detector's source."""
    meta = dict(meta, per_round_thresholds=[meta["threshold"]])
    del meta["detector_source"]
    return meta


# a trained tiny model (8 features, 190 parameters) edited so that each of
# its files is well formed alone but a fact across its keys fails
BUNDLE_FACTS = [
    pytest.param("model.npz", replace("flat", lambda a: a[:-1]),
                 "flat: expected 190 values for the layers in model.json, "
                 "got 189", id="flat-one-short"),
    pytest.param("model.npz", lambda arrays: {
        **arrays, "scaler_min": arrays["scaler_min"][:5],
        "scaler_max": arrays["scaler_max"][:5]},
        "scaler_min: expected 8 values for the layers in model.json, got 5",
        id="scaler-width-5"),
    pytest.param("model.npz", replace("scaler_max", lambda a: a[:5]),
                 "scaler_max: expected 8 values for the layers in "
                 "model.json, got 5", id="scaler-widths-differ"),
    pytest.param("model.npz", scaler_max_below_min_in_column(3),
                 "scaler_max: below scaler_min in column 3",
                 id="scaler-max-below-min"),
    pytest.param("model.json", lambda meta: {**meta, "threshold": -0.5},
                 "threshold: expected a value in [0, inf), got -0.5",
                 id="negative-threshold"),
    pytest.param("model.json", lambda meta: {**meta, "fingerprint": 5},
                 "fingerprint: expected a string, got 5",
                 id="int-fingerprint"),
    pytest.param("model.json", lambda meta: {
        **meta, "detector_source": "median"},
        "detector_source: expected one of centralized | round_min, "
        "got 'median'", id="unknown-detector-source"),
    pytest.param("model.json", saved_before_detector_source,
                 "missing key 'detector_source'",
                 id="saved-before-detector-source"),
    pytest.param("model.json", gelu_layer,
                 "layer 2: activation must be one of relu | tanh | "
                 "identity, got 'gelu'", id="unknown-activation"),
]


@st.composite
def bundles(draw):
    """A `TrainedModel` of 1-4 layers of sizes 1-9, with or without a
    scaler, its detector of either source."""
    sizes = draw(st.lists(st.integers(1, 9), min_size=2, max_size=5))
    specs = [LayerSpec(out_dim, in_dim, draw(st.sampled_from(Activation)),
                       draw(st.floats(0.0, 1.0, exclude_max=True)))
             for in_dim, out_dim in zip(sizes, sizes[1:])]
    finite = st.floats(-1e6, 1e6)
    n_params = sum(s.out_dim * (s.in_dim + 1) for s in specs)
    flat = draw(arrays(np.float64, n_params, elements=finite))
    detector = ThresholdDetector(draw(st.floats(0.0, 1e6)), draw(
        st.sampled_from([SOURCE_CENTRALIZED, SOURCE_ROUND_MIN])))
    scaler = None
    if draw(st.booleans()):
        ends = draw(arrays(np.float64, (2, sizes[0]), elements=finite))
        scaler = ScalerParams(ends.min(axis=0), ends.max(axis=0))
    return TrainedModel(ParameterSet(flat, specs),
                        detector, scaler,
                        draw(st.text(max_size=12)),
                        draw(st.integers(-2**63, 2**63)))


NOT_ARCHIVE = "expected an .npz archive"
NOT_FINITE = "expected a 1-d array of finite numbers"


def save_untrained_model(model_dir):
    """Save a freshly built tiny model; return its model.json contents."""
    cfg = tiny_config()
    save_model(TrainedModel(build(cfg.model_config()), ThresholdDetector(0.5),
                            None, cfg.fingerprint()), model_dir)
    return json.loads((model_dir / "model.json").read_text())


class TestCentralizedHarness:
    def test_report_contents(self):
        report, model = run_centralized(tiny_config())
        assert report.mode == "centralized"
        assert report.threshold > 0.0
        assert report.confusion.total > 0
        assert len(report.epoch_losses) == 4
        assert report.metrics.accuracy is not None
        assert model.detector.threshold == report.threshold

    def test_detects_synthetic_attacks(self):
        # stock training settings on the bundled synthetic benchmark
        cfg = build_config({
            "dataset": {"synth": {"n_normal": 2000, "n_attack": 200,
                                  "dim": 66, "displacement": 2.0, "seed": 42}},
        })
        report, _ = run_centralized(cfg)
        assert report.metrics.recall >= 0.95
        assert report.metrics.fp_rate <= 0.05

    @pytest.mark.parametrize("mode", ["centralized", "federated"])
    def test_same_seed_byte_identical_reports(self, tmp_path, mode):
        payloads = []
        for name in ("a", "b"):
            report, _ = run_experiment(tiny_config(mode=mode))
            out = tmp_path / name
            emit_report(report, out)
            payloads.append({p.name: p.read_bytes()
                             for p in sorted(out.iterdir())})
        assert payloads[0] == payloads[1]

    def test_run_experiment_dispatch(self):
        report, _ = run_centralized(tiny_config())
        via_dispatch, _ = run_experiment(tiny_config())
        assert via_dispatch.mode == report.mode
        assert via_dispatch.threshold == report.threshold
        assert via_dispatch.confusion == report.confusion

    def test_model_width_mismatch_rejected(self):
        cfg = tiny_config(model={"input_dim": 12})
        with pytest.raises(DataError, match="12"):
            run_centralized(cfg)

    @pytest.mark.parametrize("mode, run", [
        ("centralized", run_centralized),
        ("federated", run_federated_experiment)])
    def test_model_width_mismatch_names_config_key(self, mode, run):
        cfg = tiny_config(mode=mode, model={"input_dim": 9})
        with pytest.raises(DataError, match=r"^model\.input_dim: model input "
                                            r"dim 9 does not match dataset "
                                            r"width 8$"):
            run(cfg)

    def test_save_load_evaluate_round_trip(self, tmp_path):
        cfg = tiny_config()
        report, model = run_centralized(cfg)
        save_model(model, tmp_path / "model")
        loaded = load_model(tmp_path / "model")
        again = evaluate_saved(cfg, loaded)
        assert again.confusion == report.confusion
        assert again.threshold == report.threshold

    @pytest.mark.parametrize("mode, source", [
        ("centralized", SOURCE_CENTRALIZED), ("federated", SOURCE_ROUND_MIN)])
    def test_saved_model_json_records_detector_source(self, tmp_path, mode,
                                                      source):
        report, model = run_experiment(tiny_config(mode=mode))
        meta = json.loads((save_model(model, tmp_path) / "model.json")
                          .read_text())
        assert meta["detector_source"] == report.detector_source == source


    @pytest.mark.parametrize("layer, field, value", [
        (2, "activation", "gelu"),
        (0, "out_dim", None),
        (3, "in_dim", 5),
    ])
    def test_malformed_model_json_names_layer_and_field(self, tmp_path,
                                                        layer, field, value):
        meta = save_untrained_model(tmp_path)
        if value is None:
            del meta["layers"][layer][field]
        else:
            meta["layers"][layer][field] = value
        (tmp_path / "model.json").write_text(json.dumps(meta))
        with pytest.raises(FedAnomError, match=f"layer {layer}: {field} "):
            load_model(tmp_path)

    @pytest.mark.parametrize("key, value, message", [
        ("threshold", None, "missing key 'threshold'"),
        ("fingerprint", None, "missing key 'fingerprint'"),
        ("layers", 5, "layers: expected a list of mappings, got 5"),
        ("detector_source", None, "missing key 'detector_source'"),
        ("detector_source", "median", "detector_source: expected one of "
                                      "centralized | round_min, got 'median'"),
    ])
    def test_malformed_model_json_names_file_and_key(self, tmp_path, key,
                                                     value, message):
        meta = save_untrained_model(tmp_path)
        if value is None:
            del meta[key]
        else:
            meta[key] = value
        (tmp_path / "model.json").write_text(json.dumps(meta))
        with pytest.raises(FedAnomError) as err:
            load_model(tmp_path)
        assert str(err.value) == f"{tmp_path / 'model.json'}: {message}"

    @pytest.mark.parametrize("key, value, expected", [
        ("threshold", "abc", "a finite number"),
        ("threshold", True, "a finite number"),
        ("threshold", float("nan"), "a finite number"),
        ("seed", 1.5, "an int"),
        ("seed", "7", "an int"),
        ("detector_source", 5, "a string"),
        ("detector_source", None, "a string"),
        ("detector_source", ["round_min"], "a string"),
    ])
    def test_mistyped_model_json_value_names_file_and_key(
            self, tmp_path, key, value, expected):
        meta = save_untrained_model(tmp_path)
        meta[key] = value
        (tmp_path / "model.json").write_text(json.dumps(meta))
        with pytest.raises(DataError) as err:
            load_model(tmp_path)
        assert str(err.value) == (f"{tmp_path / 'model.json'}: {key}: "
                                  f"expected {expected}, got {value!r}")

    @pytest.mark.parametrize("text", ["{not json", "[0.5]", "5"])
    def test_model_json_not_an_object_names_file(self, tmp_path, text):
        save_untrained_model(tmp_path)
        (tmp_path / "model.json").write_text(text)
        with pytest.raises(DataError) as err:
            load_model(tmp_path)
        assert str(err.value) == (f"{tmp_path / 'model.json'}: "
                                  f"expected a JSON object")


    @pytest.mark.parametrize("edit, problem", [
        (drop("flat"), "missing key 'flat'"),
        (drop("scaler_max"), "missing key 'scaler_max'"),
        (drop("scaler_min"), "missing key 'scaler_min'"),
        (replace("flat", lambda a: a.astype(str)), f"flat: {NOT_FINITE}"),
        (replace("flat", lambda a: a.astype(object)), f"flat: {NOT_FINITE}"),
        (replace("flat", lambda a: a > 0), f"flat: {NOT_FINITE}"),
        (replace("flat", lambda a: a.reshape(1, -1)), f"flat: {NOT_FINITE}"),
        (replace("flat", last_is(np.nan)), f"flat: {NOT_FINITE}"),
        (replace("flat", last_is(np.inf)), f"flat: {NOT_FINITE}"),
        (replace("scaler_min", last_is(-np.inf)),
         f"scaler_min: {NOT_FINITE}"),
        (replace("scaler_max", last_is(np.nan)), f"scaler_max: {NOT_FINITE}"),
        (lambda arrays: b"not an archive", NOT_ARCHIVE),
        (lambda arrays: b"", NOT_ARCHIVE),
        (npy_bytes, NOT_ARCHIVE),
    ], ids=["no-flat", "no-scaler-max", "no-scaler-min", "text-flat",
            "object-flat", "bool-flat", "2d-flat", "nan-flat", "inf-flat",
            "inf-scaler-min", "nan-scaler-max", "text-file", "empty-file",
            "npy-file"])
    def test_malformed_model_npz_names_file_and_key(self, tmp_path,
                                                    central_run, edit,
                                                    problem):
        model_dir = tmp_path / "model"
        shutil.copytree(central_run / "model", model_dir)
        edit_model_npz(model_dir / "model.npz", edit)
        with pytest.raises(DataError) as err:
            load_model(model_dir)
        assert str(err.value) == f"{model_dir / 'model.npz'}: {problem}"

    @pytest.mark.parametrize("name, edit, problem", BUNDLE_FACTS)
    def test_bundle_facts_name_file_and_key(self, tmp_path, central_run,
                                            name, edit, problem):
        model_dir = tmp_path / "model"
        shutil.copytree(central_run / "model", model_dir)
        edit_bundle_file(model_dir / name, edit)
        with pytest.raises(DataError) as err:
            load_model(model_dir)
        assert str(err.value) == f"{model_dir / name}: {problem}"

    @pytest.mark.parametrize("key, value, expected", [
        ("threshold", 10 ** 400, "a finite number"),
    ], ids=["threshold"])
    def test_int_beyond_float_range_is_no_finite_number(self, tmp_path, key,
                                                        value, expected):
        meta = save_untrained_model(tmp_path)
        meta[key] = value
        (tmp_path / "model.json").write_text(json.dumps(meta))
        with pytest.raises(DataError) as err:
            load_model(tmp_path)
        assert str(err.value) == (f"{tmp_path / 'model.json'}: {key}: "
                                  f"expected {expected}, got {value!r}")

    def test_loaded_params_share_no_memory_with_the_archive(self, tmp_path,
                                                            monkeypatch):
        import fedanom.harness as harness
        save_untrained_model(tmp_path)
        read_arrays, read = harness._read_arrays, []

        def spy(path):
            read.append(read_arrays(path))
            return read[-1]

        monkeypatch.setattr(harness, "_read_arrays", spy)
        params = load_model(tmp_path).params
        flat = read[0]["flat"]
        assert not np.shares_memory(params.flat, flat)
        before = params.flat.copy()
        flat += 1.0
        assert params.flat.tobytes() == before.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(model=bundles())
    def test_every_saved_bundle_loads_back_unchanged(self, model):
        with tempfile.TemporaryDirectory() as tmp:
            loaded = load_model(save_model(model, Path(tmp)))
        assert loaded.params.flat.tobytes() == model.params.flat.tobytes()
        assert loaded.params.specs == model.params.specs
        assert loaded.detector == model.detector
        assert (loaded.fingerprint, loaded.seed) == (model.fingerprint,
                                                     model.seed)
        if model.scaler is None:
            assert loaded.scaler is None
        else:
            assert loaded.scaler.minimum.tobytes() == (
                model.scaler.minimum.tobytes())
            assert loaded.scaler.maximum.tobytes() == (
                model.scaler.maximum.tobytes())


class TestDataPathResolution:
    def test_env_var_fallback(self, tmp_path, monkeypatch):
        from fedanom.harness import resolve_data_path
        monkeypatch.chdir(tmp_path)
        data_dir = tmp_path / "datasets"
        data_dir.mkdir()
        (data_dir / "flows.csv").write_text("f0,label\n")
        monkeypatch.setenv("FEDANOM_DATA_DIR", str(data_dir))
        assert resolve_data_path("flows.csv") == data_dir / "flows.csv"

    def test_local_file_wins(self, tmp_path, monkeypatch):
        from fedanom.harness import resolve_data_path
        monkeypatch.chdir(tmp_path)
        (tmp_path / "flows.csv").write_text("f0,label\n")
        monkeypatch.setenv("FEDANOM_DATA_DIR", "/nonexistent")
        assert resolve_data_path("flows.csv").exists()

    def test_dataset_loaded_through_env_dir(self, tmp_path, monkeypatch):
        from fedanom.dataplane import save_dataset, synth_generate
        from fedanom.dataplane import SynthSpec
        from fedanom.harness import load_experiment_dataset
        data_dir = tmp_path / "datasets"
        data_dir.mkdir()
        ds = synth_generate(SynthSpec(20, 5, dim=4, seed=1))
        save_dataset(ds, data_dir / "tiny.csv")
        monkeypatch.setenv("FEDANOM_DATA_DIR", str(data_dir))
        monkeypatch.chdir(tmp_path)
        cfg = build_config({"dataset": {"path": "tiny.csv"}})
        loaded = load_experiment_dataset(cfg)
        assert len(loaded) == 25


class TestManifestRerun:
    def test_rerun_from_manifest_reproduces_metrics(self, tmp_path):
        report, _ = run_centralized(tiny_config())
        emit_report(report, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        cfg_again = build_config(manifest["config"])
        assert cfg_again.fingerprint() == manifest["fingerprint"]
        report_again, _ = run_experiment(cfg_again)
        assert report_again.metrics == report.metrics
        assert report_again.confusion == report.confusion
        assert report_again.threshold == report.threshold


class TestStrategyWiring:
    def test_qffl_through_config(self):
        cfg = tiny_config(mode="federated",
                          strategy={"kind": "qffl", "q": 0.5,
                                    "lipschitz": 0.01})
        report, _, result = run_federated_experiment(cfg)
        assert report.metrics.accuracy is not None
        assert result.final_params.size > 0

    def test_fairfedavg_with_latency_through_config(self):
        cfg = tiny_config(
            mode="federated",
            federation={"n_clients": 3, "rounds": 3, "epochs_per_round": 1,
                        "latency": {"per_round": {2: {0: 9.0}},
                                    "drop_after": 1.0}},
            strategy={"kind": "fairfedavg"})
        report, _, result = run_federated_experiment(cfg)
        alphas = [tr.alpha for tr in result.rounds]
        assert alphas[0] == 1.0
        assert 0.0 < alphas[1] < 1.0

    def test_relevance_underflow_is_an_aggregation_error(self, tmp_path,
                                                         capsys):
        # the round-2 softmax share of the late client's round underflows
        # to 0.0; no config value is at fault
        cfg = tiny_config(
            mode="federated",
            dataset={"synth": {"n_normal": 400, "n_attack": 80, "dim": 8,
                               "displacement": 2.0, "seed": 42}},
            model={"dropout_p": 0.2},
            federation={"n_clients": 4, "rounds": 3, "epochs_per_round": 1,
                        "latency": {"per_round": {2: {0: 5.0}},
                                    "drop_after": 1.0}},
            strategy={"kind": "fairfedavg", "lipschitz": 1e7})
        message = r"^round 2: relevance score must be in \(0, 1\], got 0\.0$"
        with pytest.raises(DegenerateAggregationError, match=message):
            run_federated_experiment(cfg)
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(cfg.canonical_dict()))
        code = main(["train-fed", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.splitlines() == [
            "error: round 2: relevance score must be in (0, 1], got 0.0"]

    def test_lipschitz_defaults_to_inverse_lr(self):
        # at q = 0 the config fills the estimate in; the stored config, and
        # with it the fingerprint, keeps it unset
        cfg = tiny_config(mode="federated", train={"learning_rate": 0.004},
                          strategy={"kind": "qffl"})
        assert cfg.strategy_config().lipschitz == 1.0 / 0.004
        assert cfg.data["strategy"]["lipschitz"] is None
        set_cfg = tiny_config(strategy={"kind": "qffl", "lipschitz": 2})
        assert set_cfg.strategy_config().lipschitz == 2.0
        run_federated_experiment(cfg)


class TestFederatedHarness:
    def test_federated_report(self):
        cfg = tiny_config(mode="federated")
        report, model, result = run_federated_experiment(cfg)
        assert report.mode == "federated"
        assert report.detector_source == "round_min"
        assert len(report.round_traces) == 2
        assert report.per_client
        assert report.mean_round_accuracy is not None
        assert model.detector.source == "round_min"

    def test_emitted_files(self, tmp_path):
        cfg = tiny_config(mode="federated")
        report, _, _ = run_federated_experiment(cfg)
        emit_report(report, tmp_path)
        names = {p.name for p in tmp_path.iterdir()}
        assert {"metrics.json", "confusion.csv", "loss_trace.csv",
                "round_trace.csv", "per_client_metrics.json",
                "manifest.json"} <= names
        trace_lines = (tmp_path / "round_trace.csv").read_text().splitlines()
        assert trace_lines[0].startswith("# seed=")
        assert trace_lines[1] == ("round,client_id,local_loss,threshold,"
                                  "participated,alpha,global_norm")
        # 2 rounds x 2 clients
        assert len(trace_lines) == 2 + 4

    def test_fed_model_save_evaluate_round_trip(self, tmp_path):
        cfg = tiny_config(mode="federated")
        report, model, _ = run_federated_experiment(cfg)
        save_model(model, tmp_path / "m")
        loaded = load_model(tmp_path / "m")
        assert loaded.detector.source == "round_min"
        again = evaluate_saved(cfg, loaded)
        assert again.confusion == report.confusion
        assert again.per_client == report.per_client

    def test_unreachable_min_participation_rejected(self):
        with pytest.raises(ConfigError, match=r"federation\.min_participation "
                                              r"is 7 but each round samples "
                                              r"only 2"):
            tiny_config(mode="federated", federation={"min_participation": 7})

    def test_default_min_participation_follows_sampling(self):
        # one of two clients is sampled per round, so the default bar is one
        cfg = tiny_config(mode="federated", strategy={"sample_fraction": 0.5})
        _, _, result = run_federated_experiment(cfg)
        assert not any(tr.carried_forward for tr in result.rounds)
        assert all(sum(r.participated for r in tr.records) == 1
                   for tr in result.rounds)
        with pytest.raises(ConfigError, match=r"federation\.min_participation "
                                              r"is 2 but each round samples "
                                              r"only 1"):
            tiny_config(mode="federated", strategy={"sample_fraction": 0.5},
                        federation={"min_participation": 2})

    def test_reported_ratios_derive_from_stored_counts(self, tmp_path):
        report, _, result = run_federated_experiment(
            tiny_config(mode="federated"))
        assert report.per_client == result.per_client
        assert report.confusion == sum(report.per_client.values(),
                                       ConfusionMatrix(0, 0, 0, 0))
        emit_report(report, tmp_path)
        stored = json.loads((tmp_path / "metrics.json").read_text())
        assert ({key: stored[key] for key in METRICS_JSON}
                == metric_values(metrics(report.confusion)))
        assert stored["validation_fp_rate"] == stored["false_rate"]
        accuracies = [metrics(tr.pooled_confusion).accuracy
                      for tr in result.rounds]
        assert stored["mean_round_accuracy"] == float(np.mean(accuracies))
        clients = json.loads(
            (tmp_path / "per_client_metrics.json").read_text())["clients"]
        assert clients.keys() == {str(cid) for cid in report.per_client}
        for cid, entry in clients.items():
            counts = ConfusionMatrix(**entry.pop("confusion"))
            assert counts == report.per_client[int(cid)]
            assert entry == metric_values(metrics(counts))

    def test_loss_trace_rows_equal_rounds(self, tmp_path):
        cfg = tiny_config(mode="federated")
        report, _, _ = run_federated_experiment(cfg)
        emit_report(report, tmp_path)
        lines = (tmp_path / "loss_trace.csv").read_text().splitlines()
        assert lines[1] == "round,mean_loss"
        assert len(lines) == 2 + cfg.data["federation"]["rounds"]


class TestEmitReport:
    def test_metrics_json_round_trip(self, tmp_path):
        report, _ = run_centralized(tiny_config())
        emit_report(report, tmp_path)
        stored = json.loads((tmp_path / "metrics.json").read_text())
        assert stored["accuracy"] == report.metrics.accuracy
        assert stored["threshold"] == report.threshold
        assert stored["seed"] == report.seed
        assert stored["fingerprint"] == report.fingerprint

    def test_no_nan_text_anywhere(self, tmp_path):
        report, _ = run_centralized(tiny_config())
        emit_report(report, tmp_path)
        for path in tmp_path.iterdir():
            assert "NaN" not in path.read_text()
            assert "nan" not in path.read_text()

    def test_confusion_csv_layout(self, tmp_path):
        report, _ = run_centralized(tiny_config())
        emit_report(report, tmp_path)
        lines = (tmp_path / "confusion.csv").read_text().splitlines()
        assert lines[0].startswith("# seed=7 fingerprint=")
        assert lines[1] == "tp,fp,tn,fn"
        tp, fp, tn, fn = (int(v) for v in lines[2].split(","))
        cm = report.confusion
        assert (tp, fp, tn, fn) == (cm.tp, cm.fp, cm.tn, cm.fn)

    def test_loss_trace_rows_equal_epochs(self, tmp_path):
        report, _ = run_centralized(tiny_config())
        emit_report(report, tmp_path)
        lines = (tmp_path / "loss_trace.csv").read_text().splitlines()
        assert lines[1] == "epoch,mean_loss"
        assert len(lines) == 2 + cfg_epochs(tiny_config())

    def test_manifest_lists_artifacts(self, tmp_path):
        report, _ = run_centralized(tiny_config())
        emit_report(report, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["fingerprint"] == report.fingerprint
        assert "metrics.json" in manifest["artifacts"]
        assert manifest["config"] == report.config


def cfg_epochs(cfg):
    return cfg.data["train"]["epochs"]


def write_tiny_yaml(tmp_path, **overrides):
    cfg = tiny_config(**overrides)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg.canonical_dict()))
    return path


@pytest.fixture(scope="module")
def central_run(tmp_path_factory):
    """A run directory written by `fedanom train-central`."""
    root = tmp_path_factory.mktemp("central")
    assert main(["train-central", "--config", str(write_tiny_yaml(root)),
                 "--out", str(root / "run")]) == 0
    return root / "run"


COUNTS = "expected one row of 4 non-negative integer counts"
FAIR_FED = {"mode": "federated", "strategy": {"kind": "fairfedavg"}}
TRAINING_NAN = "non-finite training loss nan at epoch 0, batch 1"
NON_FINITE_ERRORS = "reconstruction errors contain non-finite values"


class TestCli:
    def test_synth_writes_dataset(self, tmp_path):
        config = write_tiny_yaml(tmp_path)
        out = tmp_path / "data"
        code = main(["synth", "--config", str(config), "--out", str(out)])
        assert code == 0
        assert (out / "dataset.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["n_normal"] == 300
        assert manifest["n_attack"] == 80

    def test_partition_writes_plan(self, tmp_path):
        config = write_tiny_yaml(tmp_path)
        out = tmp_path / "plan"
        code = main(["partition", "--config", str(config), "--out", str(out)])
        assert code == 0
        plan = json.loads((out / "partition.json").read_text())
        assert len(plan["assignments"]) == 2
        assert sum(plan["client_sizes"]) == 380

    def test_train_central_and_report_verify(self, tmp_path, capsys):
        config = write_tiny_yaml(tmp_path)
        out = tmp_path / "run"
        assert main(["train-central", "--config", str(config),
                     "--out", str(out)]) == 0
        assert (out / "metrics.json").exists()
        assert (out / "model" / "model.npz").exists()
        assert main(["report", "--dir", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "consistent" in captured

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, train, overrides, line", [
        ("train-fed", {}, FAIR_FED, TRAINING_NAN),
        ("train-central", {"epochs": 1, "batch_size": 4096}, {},
         NON_FINITE_ERRORS),
        ("train-fed", {"batch_size": 4096},
         {**FAIR_FED, "federation": {"epochs_per_round": 1}},
         NON_FINITE_ERRORS),
    ], ids=["training", "central-calibration", "fed-calibration"])
    def test_diverging_run_is_one_error_line(self, tmp_path, capsys, command,
                                             train, overrides, line):
        # one step at this rate leaves huge but finite weights, so the fault
        # shows when the client calibrates; a second step finds it in training
        config = write_tiny_yaml(
            tmp_path, train={"learning_rate": 1.0e300, **train}, **overrides)
        code = main([command, "--config", str(config),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: client 0: {line}"]

    def test_train_fed_smoke(self, tmp_path):
        config = write_tiny_yaml(tmp_path, mode="federated")
        out = tmp_path / "fed"
        assert main(["train-fed", "--config", str(config),
                     "--out", str(out)]) == 0
        assert (out / "round_trace.csv").exists()
        assert (out / "per_client_metrics.json").exists()

    def test_evaluate_saved_model(self, tmp_path):
        config = write_tiny_yaml(tmp_path)
        run_dir = tmp_path / "run"
        main(["train-central", "--config", str(config), "--out", str(run_dir)])
        out = tmp_path / "eval"
        code = main(["evaluate", "--config", str(config),
                     "--model", str(run_dir / "model"), "--out", str(out)])
        assert code == 0
        original = json.loads((run_dir / "metrics.json").read_text())
        again = json.loads((out / "metrics.json").read_text())
        assert again["accuracy"] == original["accuracy"]
        # an evaluation has no loss series to write
        assert not (out / "loss_trace.csv").exists()

    def test_evaluate_saved_federated_model(self, tmp_path):
        config = write_tiny_yaml(tmp_path, mode="federated")
        run_dir = tmp_path / "run"
        main(["train-fed", "--config", str(config), "--out", str(run_dir)])
        out = tmp_path / "eval"
        assert main(["evaluate", "--config", str(config),
                     "--model", str(run_dir / "model"),
                     "--out", str(out)]) == 0
        name = "per_client_metrics.json"
        assert (out / name).read_bytes() == (run_dir / name).read_bytes()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["artifacts"] == ["confusion.csv", "metrics.json", name]
        assert sorted(p.name for p in out.iterdir()) == sorted(
            manifest["artifacts"] + ["manifest.json"])

    @pytest.mark.parametrize("mode, train", [("centralized", "train-central"),
                                             ("federated", "train-fed")])
    def test_evaluate_reproduces_training_scores(self, tmp_path, mode, train):
        config = write_tiny_yaml(tmp_path, mode=mode)
        run_dir, out = tmp_path / "run", tmp_path / "eval"
        assert main([train, "--config", str(config),
                     "--out", str(run_dir)]) == 0
        assert main(["evaluate", "--config", str(config),
                     "--model", str(run_dir / "model"),
                     "--out", str(out)]) == 0
        name = "confusion.csv"
        assert (out / name).read_bytes() == (run_dir / name).read_bytes()
        trained = json.loads((run_dir / "metrics.json").read_text())
        again = json.loads((out / "metrics.json").read_text())
        # only a federated training run has rounds to average over
        assert again.pop("mean_round_accuracy") is None
        assert (trained.pop("mean_round_accuracy") is None) == (
            mode == "centralized")
        assert again == trained

    def test_train_commands_record_the_mode_they_ran(self, tmp_path):
        config = write_tiny_yaml(tmp_path, mode="federated")
        manifests = {}
        for train in ("train-central", "train-fed"):
            out = tmp_path / train
            assert main([train, "--config", str(config),
                         "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            mode = json.loads((out / "metrics.json").read_text())["mode"]
            assert manifest["config"]["mode"] == mode
            manifests[train] = manifest
        assert (manifests["train-central"]["fingerprint"]
                != manifests["train-fed"]["fingerprint"])
        # the config a centralized run records re-evaluates its model
        embedded = tmp_path / "embedded.yaml"
        embedded.write_text(yaml.safe_dump(
            manifests["train-central"]["config"]))
        run_dir, out = tmp_path / "train-central", tmp_path / "eval"
        assert main(["evaluate", "--config", str(embedded),
                     "--model", str(run_dir / "model"),
                     "--out", str(out)]) == 0
        name = "confusion.csv"
        assert (out / name).read_bytes() == (run_dir / name).read_bytes()

    @pytest.mark.parametrize("name, text, problem", [
        ("confusion.csv", "", "expected header tp,fp,tn,fn, got []"),
        ("confusion.csv", "# seed=7 fingerprint=x\ntp,fp,tn,fn\n", COUNTS),
        ("confusion.csv", "tp,fp,tn,fn\n1,2,x,4\n", COUNTS),
        ("confusion.csv", "tp,fp,tn,fn\n1,2,3\n", COUNTS),
        ("confusion.csv", "tp,fp,tn,fn\n1,2,-3,4\n", COUNTS),
        ("confusion.csv", "tp,fp,tn,fn\n1,2,3,4\n1,2,3,4\n", COUNTS),
        ("confusion.csv", "tp,fp,tn,fn\n0,0,0,0\n", "every count is 0"),
        ("confusion.csv", b"tp,fp,tn,fn\n\xff\xfe1,2,3,4\n",
         "expected UTF-8 text"),
        ("confusion.csv",
         "tp,fp,tn,fn\n" + "x" * (csv.field_size_limit() + 1) + "\n",
         "field larger than field limit"),
        ("metrics.json", "{not json", "expected a JSON object"),
        ("metrics.json", "[]", "expected a JSON object"),
        ("metrics.json", '{"accuracy": "high"}',
         "accuracy: expected a finite number or null, got 'high'"),
    ], ids=["empty", "header-only", "text-count", "three-counts",
            "negative-count", "two-rows", "all-zero", "not-utf8",
            "over-long-field", "metrics-not-json", "metrics-not-object",
            "metrics-text-value"])
    def test_report_rejects_malformed_run_dir(self, tmp_path, capsys,
                                              central_run, name, text,
                                              problem):
        run_dir = tmp_path / "run"
        shutil.copytree(central_run, run_dir)
        (run_dir / name).write_bytes(
            text if isinstance(text, bytes) else text.encode())
        capsys.readouterr()
        assert main(["report", "--dir", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {run_dir / name}: {problem}")
        assert err.count("\n") == 1

    def test_report_skips_a_byte_order_mark(self, tmp_path, capsys,
                                            central_run):
        run_dir = tmp_path / "run"
        shutil.copytree(central_run, run_dir)
        path = run_dir / "confusion.csv"
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        capsys.readouterr()
        assert main(["report", "--dir", str(central_run)]) == 0
        unmarked = capsys.readouterr().out
        assert main(["report", "--dir", str(run_dir)]) == 0
        assert capsys.readouterr().out == unmarked

    def test_report_flags_metrics_that_disagree(self, tmp_path, capsys,
                                                central_run):
        run_dir = tmp_path / "run"
        shutil.copytree(central_run, run_dir)
        path = run_dir / "metrics.json"
        stored = json.loads(path.read_text())
        stored["accuracy"] += 1e-9
        del stored["recall"]
        path.write_text(json.dumps(stored))
        capsys.readouterr()
        assert main(["report", "--dir", str(run_dir)]) == 1
        assert "['accuracy', 'recall']" in capsys.readouterr().out

    @pytest.mark.parametrize("edit, problem", [
        (lambda arrays: b"not an archive", NOT_ARCHIVE),
        (replace("flat", last_is(np.nan)), f"flat: {NOT_FINITE}"),
    ], ids=["text-file", "nan-flat"])
    def test_evaluate_rejects_malformed_model_npz(self, tmp_path, capsys,
                                                  central_run, edit, problem):
        model_dir = tmp_path / "model"
        shutil.copytree(central_run / "model", model_dir)
        edit_model_npz(model_dir / "model.npz", edit)
        capsys.readouterr()
        assert main(["evaluate", "--config", str(write_tiny_yaml(tmp_path)),
                     "--model", str(model_dir),
                     "--out", str(tmp_path / "eval")]) == 2
        assert capsys.readouterr().err == (
            f"error: {model_dir / 'model.npz'}: {problem}\n")

    @pytest.mark.parametrize("name, edit, problem", BUNDLE_FACTS)
    def test_evaluate_names_bundle_file_and_key(self, tmp_path, capsys,
                                                central_run, name, edit,
                                                problem):
        model_dir = tmp_path / "model"
        shutil.copytree(central_run / "model", model_dir)
        edit_bundle_file(model_dir / name, edit)
        capsys.readouterr()
        assert main(["evaluate", "--config", str(write_tiny_yaml(tmp_path)),
                     "--model", str(model_dir),
                     "--out", str(tmp_path / "eval")]) == 2
        assert capsys.readouterr().err == (
            f"error: {model_dir / name}: {problem}\n")

    def test_seed_flag_overrides(self, tmp_path):
        config = write_tiny_yaml(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["train-central", "--config", str(config), "--out", str(out_a)])
        main(["train-central", "--config", str(config), "--seed", "123",
              "--out", str(out_b)])
        seed_a = json.loads((out_a / "metrics.json").read_text())["seed"]
        seed_b = json.loads((out_b / "metrics.json").read_text())["seed"]
        assert (seed_a, seed_b) == (7, 123)

    @pytest.mark.parametrize("text, key", [
        ("train:\n  epochz: 3\n", "epochz"),
        ("strategy: {lipschitz: abc}\n", "strategy.lipschitz"),
        ("dataset: {path: 5}\n", "dataset.path"),
        ("strategy: {kind: qffl, q: 0.5}\n", "strategy.lipschitz")])
    def test_error_exit_code(self, tmp_path, capsys, text, key):
        bad = tmp_path / "bad.yaml"
        bad.write_text(text)
        code = main(["train-central", "--config", str(bad),
                     "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, problem", [
        (b"train: {epochs: [1\n", "not valid YAML at line 2, column 1"),
        (b"seed: 7 # \xff\n", "expected UTF-8 text"),
    ], ids=["malformed-yaml", "not-utf8"])
    def test_unreadable_config_file_exits_2_naming_it(self, tmp_path, capsys,
                                                      text, problem):
        bad = tmp_path / "bad.yaml"
        bad.write_bytes(text)
        assert main(["train-central", "--config", str(bad),
                     "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"error: {bad}: {problem}\n"

    @pytest.mark.parametrize("key", ["train.learning_rate",
                                     "federation.latency.jitter"])
    def test_int_beyond_float_range_exits_2_with_one_line(self, tmp_path,
                                                          capsys, key):
        path = tmp_path / "big.yaml"
        path.write_text(yaml.safe_dump(user_with(key, BIG_INT)))
        capsys.readouterr()
        assert main(["train-central", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: ") and err.count("\n") == 1
        assert err.endswith("got an int that does not fit a float\n")

    @pytest.mark.parametrize("case", [
        "config-is-a-directory", "dataset-path-is-a-directory",
        "model-is-a-file", "report-dir-is-a-file", "synth-out-is-a-file"])
    def test_os_error_exits_2_with_one_line(self, tmp_path, capsys, case):
        folder, plain = tmp_path / "folder", tmp_path / "plain.txt"
        folder.mkdir()
        plain.write_text("x\n")
        config = write_tiny_yaml(tmp_path)
        folder_data = tmp_path / "folder-data.yaml"
        folder_data.write_text(yaml.safe_dump(
            {"dataset": {"path": str(folder)}}))
        out = ["--out", str(tmp_path / "out")]
        argv, named = {
            "config-is-a-directory": (
                ["train-central", "--config", str(folder), *out], folder),
            "dataset-path-is-a-directory": (
                ["train-central", "--config", str(folder_data), *out], folder),
            "model-is-a-file": (["evaluate", "--config", str(config),
                                 "--model", str(plain), *out], plain),
            "report-dir-is-a-file": (["report", "--dir", str(plain)], plain),
            "synth-out-is-a-file": (
                ["synth", "--config", str(config), "--out", str(plain)],
                plain),
        }[case]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(named) in err

    @pytest.mark.parametrize("mode, train", [("centralized", "train-central"),
                                             ("federated", "train-fed")])
    def test_evaluate_names_saved_model_on_other_width(self, tmp_path, capsys,
                                                       mode, train):
        run_dir = tmp_path / "run"
        assert main([train, "--config", str(write_tiny_yaml(tmp_path,
                                                            mode=mode)),
                     "--out", str(run_dir)]) == 0
        wide = tmp_path / "wide"
        wide.mkdir()
        config = write_tiny_yaml(wide, mode=mode, dataset={"synth": {
            "n_normal": 300, "n_attack": 80, "dim": 9, "displacement": 2.0,
            "seed": 5}}, model={"input_dim": 9})
        capsys.readouterr()
        assert main(["evaluate", "--config", str(config),
                     "--model", str(run_dir / "model"),
                     "--out", str(tmp_path / "eval")]) == 2
        assert capsys.readouterr().err == (
            "error: saved model input width 8 does not match the config's "
            "dataset width 9\n")

    @pytest.mark.parametrize("command", ["train-fed", "partition"])
    def test_too_many_clients_names_config_key(self, tmp_path, capsys,
                                               command):
        config = write_tiny_yaml(tmp_path, mode="federated",
                                 federation={"n_clients": 1000})
        capsys.readouterr()
        assert main([command, "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: federation.n_clients: 1000 clients cannot split 380 "
            "records\n")

    def test_console_entry_point(self, tmp_path):
        config = write_tiny_yaml(tmp_path)
        out = tmp_path / "sub"
        proc = subprocess.run(
            [sys.executable, "-m", "fedanom.cli", "synth",
             "--config", str(config), "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (out / "dataset.csv").exists()
