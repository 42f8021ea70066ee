"""Unit tests for ingestion, scaling, splits and partitioning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedanom.dataplane import (
    NORMAL_LABEL,
    LabeledDataset,
    PartitionPlan,
    SchemaConfig,
    SynthSpec,
    apply_scaler,
    dirichlet_partition,
    fit_scaler,
    load_csv,
    load_dataset,
    save_dataset,
    split_by_label,
    synth_generate,
    train_val_split,
)
from fedanom.errors import ConfigError, DataError, SchemaError, ShapeError


def two_class_dataset(n_normal, n_attack, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n_normal + n_attack, dim))
    labels = np.array([NORMAL_LABEL] * n_normal + ["attack"] * n_attack)
    return LabeledDataset(feats, labels)


RAW_CSV = """flow_id,duration,proto,bytes,Attack_type
a1,1.5,tcp,100,Normal
a2,2.5,udp,200,Normal
a3,0.5,tcp,50,ddos
a4,oops,tcp,75,Normal
a5,3.0,icmp,300,mitm
"""

RAW_SCHEMA = SchemaConfig(
    label_column="Attack_type",
    normal_value="Normal",
    drop_columns=("flow_id",),
    categorical={"proto": ("tcp", "udp")},
    expected_width=4,
)


class TestScaler:
    def test_midpoint_maps_to_zero(self):
        scaler = fit_scaler(np.array([[0.0], [10.0]]))
        assert apply_scaler(scaler, np.array([[5.0]]))[0, 0] == 0.0

    def test_affine_and_clamp(self):
        scaler = fit_scaler(np.array([[0.0], [10.0]]))
        assert apply_scaler(scaler, np.array([[10.0]]))[0, 0] == 1.0
        assert apply_scaler(scaler, np.array([[-3.0]]))[0, 0] == -1.0

    def test_constant_column_maps_to_zero(self):
        scaler = fit_scaler(np.array([[7.0], [7.0], [7.0]]))
        out = apply_scaler(scaler, np.array([[7.0], [100.0]]))
        np.testing.assert_array_equal(out, np.zeros((2, 1)))

    def test_width_mismatch(self):
        scaler = fit_scaler(np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            apply_scaler(scaler, np.zeros((2, 4)))

    def test_empty_fit_rejected(self):
        with pytest.raises(DataError):
            fit_scaler(np.zeros((0, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_fit_rejected(self, bad):
        data = np.zeros((3, 2))
        data[2, 1] = bad
        with pytest.raises(DataError, match="row 2, column 1"):
            fit_scaler(data)

    @given(st.integers(2, 30), st.integers(1, 6), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_fitting_data_lands_in_range(self, n, d, seed):
        data = np.random.default_rng(seed).normal(size=(n, d)) * 10
        out = apply_scaler(fit_scaler(data), data)
        assert np.all(out >= -1.0) and np.all(out <= 1.0)


class TestSplits:
    def test_all_normal_input(self):
        ds = two_class_dataset(5, 0)
        normal, attack = split_by_label(ds)
        assert len(normal) == 5 and len(attack) == 0
        np.testing.assert_array_equal(normal.features, ds.features)

    def test_attack_category_totals(self):
        counts = {"ransomware": 2000, "password": 2000, "scanning": 2000,
                  "injection": 2000, "xss": 2000, "dos": 2000,
                  "backdoor": 2000, "ddos": 2000, "mitm": 1043}
        labels = [NORMAL_LABEL] * 100
        for cat, n in counts.items():
            labels.extend([cat] * n)
        ds = LabeledDataset(np.zeros((len(labels), 1)), np.array(labels))
        _, attack = split_by_label(ds)
        assert len(attack) == 17043

    def test_interleaved_order_stable(self):
        feats = np.arange(6, dtype=float).reshape(6, 1)
        labels = np.array([NORMAL_LABEL, "a", NORMAL_LABEL, "a",
                           NORMAL_LABEL, "a"])
        normal, attack = split_by_label(LabeledDataset(feats, labels))
        np.testing.assert_array_equal(normal.features.ravel(), [0, 2, 4])
        np.testing.assert_array_equal(attack.features.ravel(), [1, 3, 5])

    def test_sizes_sum(self):
        ds = two_class_dataset(13, 7)
        normal, attack = split_by_label(ds)
        assert len(normal) + len(attack) == len(ds)

    def test_train_val_sizes(self):
        ds = two_class_dataset(10, 0)
        train, val = train_val_split(ds, 0.8, seed=1)
        assert (len(train), len(val)) == (8, 2)

    def test_train_val_deterministic(self):
        ds = two_class_dataset(20, 0)
        a_train, a_val = train_val_split(ds, 0.8, seed=5)
        b_train, b_val = train_val_split(ds, 0.8, seed=5)
        np.testing.assert_array_equal(a_train.features, b_train.features)
        np.testing.assert_array_equal(a_val.features, b_val.features)

    def test_train_val_is_partition(self):
        ds = two_class_dataset(17, 0, dim=1, seed=3)
        train, val = train_val_split(ds, 0.8, seed=2)
        combined = sorted(np.concatenate([train.features, val.features]).ravel())
        np.testing.assert_array_equal(combined, sorted(ds.features.ravel()))

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            train_val_split(two_class_dataset(0, 0), 0.8, 0)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ConfigError):
            train_val_split(two_class_dataset(4, 0), 1.0, 0)


class TestDirichletPartition:
    def test_single_client_gets_everything(self):
        ds = two_class_dataset(30, 10)
        plan = dirichlet_partition(ds, 1, 0.1, seed=0)
        assert plan.assignments[0] == tuple(range(40))

    def test_exact_partition_many_settings(self):
        ds = two_class_dataset(101, 53)
        for alpha in (0.1, 1.0, 1000.0):
            for seed in range(5):
                for k in (2, 3, 7):
                    plan = dirichlet_partition(ds, k, alpha, seed)
                    plan.validate(len(ds))

    def test_high_alpha_balanced(self):
        ds = two_class_dataset(5000, 5000)
        hits = 0
        for seed in range(20):
            plan = dirichlet_partition(ds, 2, 1000.0, seed)
            ok = True
            for assignment in plan.assignments:
                labels = ds.labels[np.asarray(assignment)]
                share = np.mean(labels == NORMAL_LABEL)
                ok = ok and abs(share - 0.5) <= 0.05
            hits += ok
        assert hits >= 19

    def test_low_alpha_skewed(self):
        ds = two_class_dataset(5000, 5000)
        hits = 0
        for seed in range(20):
            plan = dirichlet_partition(ds, 2, 0.1, seed)
            skewed = False
            for assignment in plan.assignments:
                labels = ds.labels[np.asarray(assignment)]
                share = np.mean(labels == NORMAL_LABEL)
                skewed = skewed or share > 0.8 or share < 0.2
            hits += skewed
        assert hits >= 18

    def test_more_clients_than_records_rejected(self):
        with pytest.raises(ConfigError):
            dirichlet_partition(two_class_dataset(3, 0), 5, 1.0, 0)

    def test_no_empty_clients(self):
        ds = two_class_dataset(40, 10)
        for seed in range(10):
            plan = dirichlet_partition(ds, 8, 0.05, seed)
            assert all(len(a) >= 1 for a in plan.assignments)

    def test_deterministic(self):
        ds = two_class_dataset(100, 20)
        a = dirichlet_partition(ds, 3, 0.5, seed=9)
        b = dirichlet_partition(ds, 3, 0.5, seed=9)
        assert a.assignments == b.assignments

    def test_plan_round_trip(self):
        ds = two_class_dataset(20, 5)
        plan = dirichlet_partition(ds, 2, 10.0, seed=4)
        again = PartitionPlan.from_dict(plan.to_dict())
        assert again == plan


class TestSynthGenerate:
    def test_no_attacks(self):
        ds = synth_generate(SynthSpec(n_normal=10, n_attack=0, dim=5, seed=1))
        assert np.all(ds.labels == NORMAL_LABEL)

    def test_zero_displacement_indistinguishable(self):
        spec = SynthSpec(n_normal=4000, n_attack=4000, dim=8,
                         displacement=0.0, seed=3)
        ds = synth_generate(spec)
        normal, attack = split_by_label(ds)
        diff = normal.features.mean(axis=0) - attack.features.mean(axis=0)
        assert np.all(np.abs(diff) < 0.05)

    def test_byte_identical_csv(self, tmp_path):
        spec = SynthSpec(2000, 200, 66, 2.0, seed=42)
        paths = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            save_dataset(synth_generate(spec), path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_features_inside_unit_box(self):
        ds = synth_generate(SynthSpec(500, 100, dim=12, seed=7))
        assert np.all(ds.features > -1.0) and np.all(ds.features < 1.0)

    def test_displacement_moves_attacks(self):
        ds = synth_generate(SynthSpec(2000, 500, dim=12, displacement=2.0,
                                      seed=5))
        normal, attack = split_by_label(ds)
        # attacks deviate from the normal manifold: larger mean abs values
        assert np.abs(attack.features).mean() > np.abs(normal.features).mean()

    def test_dataset_round_trip(self, tmp_path):
        ds = synth_generate(SynthSpec(50, 10, dim=6, seed=2))
        save_dataset(ds, tmp_path / "ds.csv")
        again, skipped = load_dataset(tmp_path / "ds.csv")
        assert skipped == 0
        np.testing.assert_array_equal(again.features, ds.features)
        np.testing.assert_array_equal(again.labels, ds.labels)


    def test_dataset_skips_unparseable_and_non_finite_rows(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("f0,f1,label\n0.5,1.0,Normal\nnan,1.0,Normal\n"
                        "0.1,-inf,attack\n0.2,x,attack\n0.3,0.4,attack\n")
        ds, skipped = load_dataset(path)
        assert skipped == 3
        np.testing.assert_array_equal(ds.features, [[0.5, 1.0], [0.3, 0.4]])
        assert list(ds.labels) == [NORMAL_LABEL, "attack"]


class TestLoadCsv:
    def test_schema_ingestion(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(RAW_CSV)
        ds, skipped = load_csv(path, RAW_SCHEMA)
        assert skipped == 1  # the 'oops' row
        assert len(ds) == 4
        assert ds.n_features == 4
        # first row: duration=1.5, proto one-hot (tcp, udp), bytes=100
        np.testing.assert_array_equal(ds.features[0], [1.5, 1.0, 0.0, 100.0])
        assert list(ds.labels) == [NORMAL_LABEL, NORMAL_LABEL, "ddos", "mitm"]

    def test_non_finite_rows_skipped(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(RAW_CSV + "a6,nan,tcp,10,Normal\n"
                        "a7,1.0,udp,inf,ddos\na8,-Infinity,tcp,1,Normal\n")
        ds, skipped = load_csv(path, RAW_SCHEMA)
        assert skipped == 4  # 'oops' plus the three non-finite rows
        assert len(ds) == 4
        assert np.all(np.isfinite(ds.features))
        assert list(ds.labels) == [NORMAL_LABEL, NORMAL_LABEL, "ddos", "mitm"]

    def test_unknown_category_all_zero_block(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(RAW_CSV)
        ds, _ = load_csv(path, RAW_SCHEMA)
        # icmp row is outside the {tcp, udp} vocabulary
        np.testing.assert_array_equal(ds.features[3][1:3], [0.0, 0.0])

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(SchemaError, match="Attack_type"):
            load_csv(path, RAW_SCHEMA)

    def test_width_mismatch_reports_produced_width(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(RAW_CSV)
        schema = SchemaConfig(label_column="Attack_type",
                              drop_columns=("flow_id",),
                              categorical={"proto": ("tcp", "udp")},
                              expected_width=9)
        with pytest.raises(SchemaError, match="width 4"):
            load_csv(path, schema)

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("flow_id,duration,proto,bytes,Attack_type\n")
        ds, skipped = load_csv(path, RAW_SCHEMA)
        assert len(ds) == 0 and skipped == 0
        assert ds.n_features == 4

    def test_identical_bytes_identical_dataset(self, tmp_path):
        p1 = tmp_path / "one.csv"
        p2 = tmp_path / "two.csv"
        p1.write_text(RAW_CSV)
        p2.write_text(RAW_CSV)
        a, _ = load_csv(p1, RAW_SCHEMA)
        b, _ = load_csv(p2, RAW_SCHEMA)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_schema_from_file_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text('{"label_column": "x", "bogus": 1}')
        with pytest.raises(SchemaError, match="bogus"):
            SchemaConfig.from_file(path)

    def test_shipped_edge_iiotset_schema_loads(self):
        from importlib import resources
        with resources.as_file(resources.files("fedanom") / "schemas"
                               / "edge_iiotset.json") as p:
            schema = SchemaConfig.from_file(p)
        assert schema.label_column == "Attack_type"
        assert schema.expected_width == 66


class TestDatasetType:
    def test_record_view(self):
        ds = two_class_dataset(1, 1)
        assert not ds.record(0).is_attack
        assert ds.record(1).is_attack
        assert ds.record(0).category == ""
        assert ds.record(1).category == "attack"

    def test_label_length_checked(self):
        with pytest.raises(ShapeError):
            LabeledDataset(np.zeros((3, 2)), np.array(["Normal"] * 2))
