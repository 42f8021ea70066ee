"""Tests for config parsing, the experiment harness and the CLI."""

import json
import re
import shutil
import subprocess
import sys

import pytest
import yaml

from fedanom.cli import main
from fedanom.config import (
    DEFAULT_CONFIG,
    build_config,
    parse_config,
)
from fedanom.autoencoder import build
from fedanom.detector import ThresholdDetector
from fedanom.errors import (
    ConfigError,
    DataError,
    DegenerateAggregationError,
    FedAnomError,
)
from fedanom.harness import (
    TrainedModel,
    emit_report,
    evaluate_saved,
    load_model,
    run_centralized,
    run_experiment,
    run_federated_experiment,
    save_model,
)


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
        ("train.learning_rate", 0.0), ("train.lr_step", 0),
        ("train.lr_gamma", 0.0), ("train.lr_gamma", 1.5),
        ("federation.min_participation", -1), ("strategy.lipschitz", 0),
        ("strategy.lipschitz", -1.0), ("strategy.q", -0.5),
        ("strategy.relevance_window", 0),
        ("federation.latency.delays", {"a": 1}),
        ("federation.latency.delays", [1, 2]),
        ("federation.latency.delays", {0: float("nan")}),
        ("federation.latency.per_round", {1: {0: -1.0}}),
        ("federation.latency.jitter", "fast"),
        ("federation.latency.jitter", -1.0),
        ("federation.latency.drop_after", -2),
    ])
    def test_out_of_range_value_rejected_with_key(self, key, value):
        *path, last = key.split(".")
        user = node = {}
        for part in path:
            node = node.setdefault(part, {})
        node[last] = value
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: "):
            build_config(user)

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

    def test_save_load_evaluate_round_trip(self, tmp_path):
        cfg = tiny_config()
        report, model = run_centralized(cfg)
        save_model(model, tmp_path / "model")
        loaded = load_model(tmp_path / "model")
        again = evaluate_saved(cfg, loaded)
        assert again.confusion == report.confusion
        assert again.threshold == report.threshold


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
        ("per_round_thresholds", 0.5, "a list of finite numbers"),
        ("per_round_thresholds", "abc", "a list of finite numbers"),
        ("per_round_thresholds", [0.5, "x"], "a list of finite numbers"),
        ("per_round_thresholds", [0.5, float("inf")],
         "a list of finite numbers"),
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


class TestDataPathResolution:
    def test_env_var_fallback(self, tmp_path, monkeypatch):
        from fedanom.harness import resolve_data_path
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
        assert model.detector.per_round is not None

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
        assert loaded.detector.per_round is not None
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
        ("metrics.json", "{not json", "expected a JSON object"),
        ("metrics.json", "[]", "expected a JSON object"),
        ("metrics.json", '{"accuracy": "high"}',
         "accuracy: expected a finite number or null, got 'high'"),
    ], ids=["empty", "header-only", "text-count", "three-counts",
            "negative-count", "two-rows", "metrics-not-json",
            "metrics-not-object", "metrics-text-value"])
    def test_report_rejects_malformed_run_dir(self, tmp_path, capsys,
                                              central_run, name, text,
                                              problem):
        run_dir = tmp_path / "run"
        shutil.copytree(central_run, run_dir)
        (run_dir / name).write_text(text)
        capsys.readouterr()
        assert main(["report", "--dir", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {run_dir / name}: {problem}")
        assert err.count("\n") == 1

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

    def test_console_entry_point(self, tmp_path):
        config = write_tiny_yaml(tmp_path)
        out = tmp_path / "sub"
        proc = subprocess.run(
            [sys.executable, "-m", "fedanom.cli", "synth",
             "--config", str(config), "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (out / "dataset.csv").exists()
