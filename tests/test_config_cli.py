"""Tests for config parsing, the experiment harness and the CLI."""

import codecs
import io
import json
import math
import re
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import cli_cases
import fedanom
from cli_cases import (
    BIG_INT,
    BUNDLE_FACTS,
    CASES,
    COMMANDS,
    DROP,
    NOT_ARCHIVE,
    NOT_FINITE,
    RELEVANCE_UNDERFLOW,
    ROOTS,
    edit_bundle_file,
    keys,
    last_is,
    replace,
    tiny,
)
from fedanom import harness
from fedanom.cli import main
from fedanom.checks import _is, _unallowed
from fedanom.config import (
    _KEYS,
    build_config,
    parse_config,
)
from fedanom.autoencoder import build
from fedanom.dataplane import ScalerParams
from fedanom.detector import (
    SOURCE_CENTRALIZED,
    SOURCE_ROUND_MIN,
    ConfusionMatrix,
    metrics,
)
from fedanom.errors import (
    ConfigError,
    DataError,
    DegenerateAggregationError,
    FedAnomError,
)
from fedanom.federation import LatencyModel
from fedanom.harness import (
    METRICS_JSON,
    TrainedModel,
    emit_report,
    evaluate_saved,
    load_model,
    metric_values,
    metrics_payload,
    run_centralized,
    run_experiment,
    run_federated_experiment,
    save_model,
)
from fedanom.numerics import Activation, LayerSpec, ParameterSet


def tiny_config(**overrides):
    """`cli_cases.tiny(**overrides)`, built."""
    return build_config(yaml.safe_load(tiny(**overrides)))


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
        assert parse_config(path).data == build_config(None).data

    @pytest.mark.parametrize("root", ROOTS.values(), ids=ROOTS.keys())
    def test_non_mapping_root_rejected(self, root):
        with pytest.raises(ConfigError) as info:
            build_config(root)
        assert str(info.value) == (
            f"config root must be a mapping, got {type(root).__name__}")

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

    @pytest.mark.parametrize("key, kind, allowed", rows(object))
    def test_every_default_passes_its_own_row(self, key, kind, allowed):
        # a config checks only the keys it sets, never a default
        default = _KEYS[key][1]
        if default is not None:
            assert _is(kind, default)
            assert _unallowed(kind, default, allowed) is None

    @pytest.mark.parametrize("n_clients, works, fails", [
        (2, 8.9e307, 9.0e307), (4, 4.4e307, 4.6e307), (8, 2.0e307, 2.3e307)])
    def test_alpha_times_clients_beyond_float_range_rejected(
            self, n_clients, works, fails):
        # numpy's Dirichlet draw gives all zeros once the sum overflows
        def federation(alpha):
            return {"federation": {"n_clients": n_clients, "alpha": alpha}}

        with pytest.raises(ConfigError, match=(
                rf"^federation\.alpha: {re.escape(str(fails))} times "
                rf"{n_clients} clients is beyond the float range")):
            build_config(federation(fails))
        assert build_config(federation(works)).data["federation"][
            "alpha"] == works

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

    def test_unset_latency_is_the_model_of_no_delay(self):
        assert tiny_config().latency_model() == LatencyModel()

    @pytest.mark.parametrize("mode, epochs", [("centralized", 4),
                                              ("federated", 2)])
    def test_train_config_trains_the_modes_epochs(self, mode, epochs):
        # train.epochs is 4 and federation.epochs_per_round 2
        assert tiny_config(mode=mode).train_config().epochs == epochs

    def test_unknown_latency_key(self):
        with pytest.raises(ConfigError, match="latency.dealys"):
            build_config({"federation": {"latency": {"dealys": {}}}})

    @pytest.mark.parametrize("key, value", [
        ("train.learning_rate", BIG_INT),
        ("federation.latency.jitter", BIG_INT),
        ("federation.latency.delays", {0: BIG_INT}),
        ("federation.n_clients", BIG_INT),
    ], ids=["learning_rate", "jitter", "delays", "n_clients"])
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

    def test_built_configs_share_no_default(self):
        defaults = build_config(None).data
        before = json.dumps(defaults, sort_keys=True)
        defaults["model"]["hidden_dims"].append(8)
        defaults["federation"]["n_clients"] = 9
        tiny_config()
        assert json.dumps(build_config(None).data, sort_keys=True) == before

    def test_unknown_strategy_kind_lists_choices(self):
        with pytest.raises(ConfigError, match=r"^strategy\.kind: .*"
                           r"fedavg \| qffl \| fairfedavg.*'fedprox'"):
            build_config({"strategy": {"kind": "fedprox"}})

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError, match="mode"):
            build_config({"mode": "hybrid"})


def npy_bytes(arrays):
    buf = io.BytesIO()
    np.save(buf, arrays["flat"])
    return buf.getvalue()


@st.composite
def bundles(draw):
    """A `TrainedModel` of 1-4 layers of sizes 1-9, with or without a
    scaler, trained in either mode."""
    sizes = draw(st.lists(st.integers(1, 9), min_size=2, max_size=5))
    specs = [LayerSpec(out_dim, in_dim, draw(st.sampled_from(Activation)),
                       draw(st.floats(0.0, 1.0, exclude_max=True)))
             for in_dim, out_dim in zip(sizes, sizes[1:])]
    finite = st.floats(-1e6, 1e6)
    n_params = sum(s.out_dim * (s.in_dim + 1) for s in specs)
    flat = draw(arrays(np.float64, n_params, elements=finite))
    threshold = draw(st.floats(0.0, 1e6))
    scaler = None
    if draw(st.booleans()):
        ends = draw(arrays(np.float64, (2, sizes[0]), elements=finite))
        scaler = ScalerParams(ends.min(axis=0), ends.max(axis=0))
    return TrainedModel(ParameterSet(flat, specs),
                        threshold, scaler,
                        draw(st.text(max_size=12)),
                        draw(st.integers(-2**63, 2**63)),
                        draw(st.sampled_from(["centralized", "federated"])))



def save_untrained_model(model_dir):
    """Save a freshly built tiny model; return its model.json contents."""
    cfg = tiny_config()
    save_model(TrainedModel(build(cfg.model_config()), 0.5, None,
                            cfg.fingerprint(), cfg.seed, cfg.mode), model_dir)
    return json.loads((model_dir / "model.json").read_text())


class TestCentralizedHarness:
    def test_report_contents(self):
        report, model = run_centralized(tiny_config())
        assert report.cfg.mode == "centralized"
        assert report.threshold > 0.0
        assert report.confusion.total > 0
        assert len(report.epoch_losses) == 4
        assert report.metrics.accuracy is not None
        assert model.detector == report.threshold

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
        assert via_dispatch.cfg.mode == report.cfg.mode
        assert via_dispatch.threshold == report.threshold
        assert via_dispatch.confusion == report.confusion

    @pytest.mark.parametrize("run, mode, other", [
        (run_centralized, "centralized", "federated"),
        (run_federated_experiment, "federated", "centralized")])
    def test_run_rejects_config_of_other_mode_before_reading_data(
            self, monkeypatch, run, mode, other):
        def no_read(cfg):
            raise AssertionError("the dataset was read")

        monkeypatch.setattr(harness, "load_experiment_dataset", no_read)
        with pytest.raises(ConfigError,
                           match=rf"^mode: expected {mode}, got {other}$"):
            run(tiny_config(mode=other))

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
    def test_saved_model_json_records_mode(self, tmp_path, mode, source):
        report, model = run_experiment(tiny_config(mode=mode))
        meta = json.loads((save_model(model, tmp_path) / "model.json")
                          .read_text())
        assert meta["mode"] == model.mode == mode
        assert "detector_source" not in meta
        assert report.detector_source == source


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
        ("mode", None, "missing key 'mode'"),
        ("mode", "median", "mode: expected one of "
                           "centralized | federated, got 'median'"),
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
        ("mode", 5, "a string"),
        ("mode", None, "a string"),
        ("mode", ["federated"], "a string"),
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
        (keys(flat=DROP), "missing key 'flat'"),
        (keys(scaler_max=DROP), "missing key 'scaler_max'"),
        (keys(scaler_min=DROP), "missing key 'scaler_min'"),
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
        edit_bundle_file(model_dir / "model.npz", edit)
        with pytest.raises(DataError) as err:
            load_model(model_dir)
        assert str(err.value) == f"{model_dir / 'model.npz'}: {problem}"

    @pytest.mark.parametrize("name, edit, problem", [
        pytest.param(file, edit, problem, id=name)
        for name, file, edit, problem in BUNDLE_FACTS])
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
        assert (loaded.fingerprint, loaded.seed, loaded.mode) == (
            model.fingerprint, model.seed, model.mode)
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

    def test_relevance_underflow_is_an_aggregation_error(self):
        # no config value is at fault; the CLI's line is the
        # relevance-underflow row of cli_cases
        message = r"^round 2: relevance score must be in \(0, 1\], got 0\.0$"
        with pytest.raises(DegenerateAggregationError, match=message):
            run_federated_experiment(
                build_config(yaml.safe_load(RELEVANCE_UNDERFLOW)))

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
        assert report.cfg.mode == "federated"
        assert report.detector_source == "round_min"
        assert len(report.round_traces) == 2
        assert report.per_client
        assert metrics_payload(report)["mean_round_accuracy"] is not None
        assert model.mode == "federated"

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
        assert loaded.mode == "federated"
        again = evaluate_saved(cfg, loaded)
        assert again.confusion == report.confusion
        assert again.per_client == report.per_client

    def test_saturated_global_model_scores_without_a_warning(self, tmp_path):
        # at this rate the global weights reach about 4e150 and scoring
        # overflows in a matmul, but the Tanh head saturates, so every
        # error stays finite; the suite makes a RuntimeWarning an error
        cfg = tiny_config(mode="federated", train={"learning_rate": 1.0e150},
                          strategy={"kind": "fairfedavg"})
        report, model, _ = run_federated_experiment(cfg)
        assert report.confusion == ConfusionMatrix(tp=38, fp=19, tn=42, fn=42)
        assert report.per_client == {0: ConfusionMatrix(18, 8, 28, 12),
                                     1: ConfusionMatrix(20, 11, 14, 30)}
        save_model(model, tmp_path / "m")
        again = evaluate_saved(cfg, load_model(tmp_path / "m"))
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
        assert stored["seed"] == report.cfg.seed
        assert stored["fingerprint"] == report.cfg.fingerprint()

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
        assert manifest["fingerprint"] == report.cfg.fingerprint()
        assert "metrics.json" in manifest["artifacts"]
        assert manifest["config"] == report.cfg.canonical_dict()


def cfg_epochs(cfg):
    return cfg.data["train"]["epochs"]


def write_tiny_yaml(tmp_path, **overrides):
    cfg = tiny_config(**overrides)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg.canonical_dict()))
    return path


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """The `cli_cases` base run of a mode, trained in-process on first use."""
    return cli_cases.base_runs(tmp_path_factory.mktemp("bases"),
                               cli_cases.in_process)


@pytest.fixture(scope="module")
def central_run(base):
    """A run directory written by `fedanom train` in centralized mode."""
    return base("centralized")


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
        assert main(["train", "--config", str(config),
                     "--out", str(out)]) == 0
        assert (out / "metrics.json").exists()
        assert (out / "model" / "model.npz").exists()
        assert main(["report", "--dir", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "consistent" in captured

    def test_train_fed_smoke(self, tmp_path):
        config = write_tiny_yaml(tmp_path, mode="federated")
        out = tmp_path / "fed"
        assert main(["train", "--config", str(config),
                     "--out", str(out)]) == 0
        assert (out / "round_trace.csv").exists()
        assert (out / "per_client_metrics.json").exists()

    def test_evaluate_saved_model(self, tmp_path):
        config = write_tiny_yaml(tmp_path)
        run_dir = tmp_path / "run"
        main(["train", "--config", str(config), "--out", str(run_dir)])
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
        main(["train", "--config", str(config), "--out", str(run_dir)])
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

    @pytest.mark.parametrize("mode", ["centralized", "federated"])
    def test_evaluate_reproduces_training_scores(self, tmp_path, mode):
        config = write_tiny_yaml(tmp_path, mode=mode)
        run_dir, out = tmp_path / "run", tmp_path / "eval"
        assert main(["train", "--config", str(config),
                     "--out", str(run_dir)]) == 0
        assert main(["evaluate", "--config", str(config),
                     "--model", str(run_dir / "model"),
                     "--out", str(out)]) == 0
        name = "confusion.csv"
        assert (out / name).read_bytes() == (run_dir / name).read_bytes()
        trained = json.loads((run_dir / "metrics.json").read_text())
        again = json.loads((out / "metrics.json").read_text())
        assert trained["mode"] == mode
        # only a federated training run has rounds to average over
        assert again.pop("mean_round_accuracy") is None
        assert (trained.pop("mean_round_accuracy") is None) == (
            mode == "centralized")
        assert again == trained

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

    def test_seed_flag_overrides(self, tmp_path):
        config = write_tiny_yaml(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["train", "--config", str(config), "--out", str(out_a)])
        main(["train", "--config", str(config), "--seed", "123",
              "--out", str(out_b)])
        seed_a = json.loads((out_a / "metrics.json").read_text())["seed"]
        seed_b = json.loads((out_b / "metrics.json").read_text())["seed"]
        assert (seed_a, seed_b) == (7, 123)

    def test_help_lists_the_commands(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        assert ("{" + ",".join(COMMANDS) + "}") in capsys.readouterr().out


class TestCliCases:
    """Each row of `cli_cases.CASES`, run in-process through `cli.main`."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
    def test_case(self, tmp_path, base, case):
        err, problems = cli_cases.run_case(case, tmp_path, base,
                                           cli_cases.in_process)
        assert problems == [], err

    def test_case_names_are_unique(self):
        names = [case.name for case in CASES]
        assert sorted({name for name in names if names.count(name) > 1}) == []

    def test_problems_names_each_broken_rule(self):
        case = cli_cases.Case("c", "report --dir run", "x")
        assert cli_cases.problems(case, 2, "error: x\n", False) == []
        assert cli_cases.problems(case, 1, "Traceback\nerror: y\n", True) == [
            "exit code 1, expected 2", "expected one stderr line, got 2",
            "stderr does not start with 'error: '", "stderr holds a Traceback",
            "stderr line does not match 'x'",
            "the run left its --out directory"]

    def test_script_pass(self, tmp_path, monkeypatch):
        # the pass CI runs with the installed console script, here through
        # the `python -m fedanom.cli` entry point of this source tree; its
        # base run must exit 0
        monkeypatch.setenv("PYTHONPATH",
                           str(Path(fedanom.__file__).parents[1]))
        cases = [case for case in CASES
                 if case.name in ("malformed-yaml", "bundle-null-seed")]
        assert len(cases) == 2
        assert cli_cases.run_script([sys.executable, "-m", "fedanom.cli"],
                                    tmp_path, cases) == []
