"""Unit tests for ingestion, scaling, splits and partitioning."""

import codecs
import csv
import io
import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedanom import dataplane
from fedanom.dataplane import (
    NORMAL_LABEL,
    LabeledDataset,
    PartitionPlan,
    ScalerParams,
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

    @given(st.integers(1, 6), st.integers(0, 8), st.floats(-6.0, 6.0),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_old_expression(self, width, rows, log_scale, seed):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** log_scale
        minimum = rng.normal(size=width) * scale
        # about one column in four is constant
        span = rng.exponential(size=width) * scale * (rng.random(width) < 0.75)
        scaler = ScalerParams(minimum, minimum + span)
        x = minimum + (span + scale) * rng.uniform(-0.5, 1.5, (rows, width))
        special = rng.random(x.shape) < 0.1
        x[special] = rng.choice([np.nan, np.inf, -np.inf], special.sum())
        before = x.copy()
        got = apply_scaler(scaler, x)
        assert got.tobytes() == reference_apply_scaler(scaler, x).tobytes()
        assert x.tobytes() == before.tobytes()


def reference_apply_scaler(scaler, data):
    """apply_scaler as one expression, before it worked in one buffer."""
    span = scaler.maximum - scaler.minimum
    safe_span = np.where(span > 0.0, span, 1.0)
    scaled = 2.0 * (data - scaler.minimum) / safe_span - 1.0
    scaled = np.where(span > 0.0, scaled, 0.0)
    return np.clip(scaled, -1.0, 1.0)


class TestSplits:
    def test_all_normal_input(self):
        ds = two_class_dataset(5, 0)
        normal, attack = split_by_label(ds)
        assert normal.tolist() == [0, 1, 2, 3, 4] and attack.size == 0

    def test_attack_category_totals(self):
        counts = {"ransomware": 2000, "password": 2000, "scanning": 2000,
                  "injection": 2000, "xss": 2000, "dos": 2000,
                  "backdoor": 2000, "ddos": 2000, "mitm": 1043}
        labels = [NORMAL_LABEL] * 100
        for cat, n in counts.items():
            labels.extend([cat] * n)
        ds = LabeledDataset(np.zeros((len(labels), 1)), np.array(labels))
        _, attack = split_by_label(ds)
        assert attack.size == 17043

    def test_interleaved_order_stable(self):
        feats = np.arange(6, dtype=float).reshape(6, 1)
        labels = np.array([NORMAL_LABEL, "a", NORMAL_LABEL, "a",
                           NORMAL_LABEL, "a"])
        normal, attack = split_by_label(LabeledDataset(feats, labels))
        assert normal.tolist() == [0, 2, 4]
        assert attack.tolist() == [1, 3, 5]

    def test_rows_keep_their_order(self):
        labels = np.array([NORMAL_LABEL, "a", NORMAL_LABEL, "a",
                           NORMAL_LABEL, "a"])
        ds = LabeledDataset(np.zeros((6, 1)), labels)
        normal, attack = split_by_label(ds, (5, 0, 2, 3))
        assert normal.tolist() == [0, 2]
        assert attack.tolist() == [5, 3]

    def test_sizes_sum(self):
        ds = two_class_dataset(13, 7)
        normal, attack = split_by_label(ds)
        assert normal.size + attack.size == len(ds)

    def test_train_val_sizes(self):
        train, val = train_val_split(np.arange(10), 0.8, seed=1)
        assert (train.size, val.size) == (8, 2)

    def test_train_val_deterministic(self):
        rows = np.arange(100, 120)
        a_train, a_val = train_val_split(rows, 0.8, seed=5)
        b_train, b_val = train_val_split(rows, 0.8, seed=5)
        np.testing.assert_array_equal(a_train, b_train)
        np.testing.assert_array_equal(a_val, b_val)

    def test_train_val_is_partition(self):
        rows = np.array([3, 41, 5, 9, 26, 7, 11, 13, 2, 17, 19, 23, 8, 29,
                         31, 1, 37])
        train, val = train_val_split(rows, 0.8, seed=2)
        assert train.size == 13
        assert sorted(np.concatenate([train, val])) == sorted(rows)

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            train_val_split(np.arange(0), 0.8, 0)


@st.composite
def partition_inputs(draw):
    """(labels, n_clients, alpha, seed): one to many string classes,
    1 to len(labels) clients and alpha in [0.05, 1000]."""
    names = draw(st.lists(st.text(max_size=5), min_size=1, max_size=12,
                          unique=True))
    labels = draw(st.lists(st.sampled_from(names), min_size=1, max_size=120))
    n_clients = draw(st.integers(1, len(labels)))
    alpha = draw(st.floats(0.05, 1000.0))
    seed = draw(st.integers(0, 2**32))
    return labels, n_clients, alpha, seed


# 50 rows over 8 clients at alpha 0.05: the draw leaves a client empty
REPAIRED = ([NORMAL_LABEL] * 40 + ["attack"] * 10, 8, 0.05, 3)


def reference_dirichlet_partition(ds, n_clients, alpha, seed, repairs=None):
    """The partition as it was when it built Python-int tuples."""
    rng = dataplane.derive_rng(seed)
    buckets = [[] for _ in range(n_clients)]
    for label in np.unique(ds.labels):
        idx = np.flatnonzero(ds.labels == label)
        rng.shuffle(idx)
        proportions = rng.dirichlet(np.full(n_clients, alpha))
        scaled = proportions * len(idx)
        counts = np.floor(scaled).astype(int)
        missing = len(idx) - int(counts.sum())
        order = np.lexsort((np.arange(n_clients), -(scaled - counts)))
        counts[order[:missing]] += 1
        pos = 0
        for k in range(n_clients):
            buckets[k].extend(int(i) for i in idx[pos:pos + counts[k]])
            pos += counts[k]
    for k in range(n_clients):
        while not buckets[k]:
            if repairs is not None:
                repairs.append(k)
            donor = max(range(n_clients), key=lambda j: len(buckets[j]))
            buckets[k].append(buckets[donor].pop())
    return tuple(tuple(sorted(b)) for b in buckets)


class TestDirichletPartition:
    def test_single_client_gets_everything(self):
        ds = two_class_dataset(30, 10)
        plan = dirichlet_partition(ds, 1, 0.1, seed=0)
        assert plan.assignments[0].dtype == np.intp
        np.testing.assert_array_equal(plan.assignments[0], np.arange(40))

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
        assert a.to_dict() == b.to_dict()

    def test_plan_round_trip(self):
        ds = two_class_dataset(20, 5)
        plan = dirichlet_partition(ds, 2, 10.0, seed=4)
        d = json.loads(json.dumps(plan.to_dict()))
        again = PartitionPlan(tuple(np.array(a, dtype=np.intp)
                                    for a in d["assignments"]),
                              d["alpha"], d["seed"])
        assert again.to_dict() == plan.to_dict()
        again.validate(len(ds))

    @given(partition_inputs())
    @example(REPAIRED)
    @settings(max_examples=150, deadline=None)
    def test_matches_python_int_reference(self, inputs):
        labels, n_clients, alpha, seed = inputs
        ds = LabeledDataset(np.zeros((len(labels), 1)), np.array(labels))
        plan = dirichlet_partition(ds, n_clients, alpha, seed)
        want = reference_dirichlet_partition(ds, n_clients, alpha, seed)
        assert len(plan.assignments) == len(want)
        for got, expected in zip(plan.assignments, want):
            assert got.dtype == np.intp
            assert got.tobytes() == np.array(expected, np.intp).tobytes()
            assert np.all(got[1:] > got[:-1])
        np.testing.assert_array_equal(
            np.sort(np.concatenate(plan.assignments)), np.arange(len(ds)))
        assert all(a.size for a in plan.assignments)

    def test_repaired_example_leaves_a_client_empty_before_repair(self):
        labels, n_clients, alpha, seed = REPAIRED
        repairs = []
        reference_dirichlet_partition(
            LabeledDataset(np.zeros((len(labels), 1)), np.array(labels)),
            n_clients, alpha, seed, repairs)
        assert repairs


def reference_synth_generate(spec):
    """The generator as it was before it built its matrix in place."""
    rng = dataplane.derive_rng(spec.seed)
    mixing = rng.standard_normal((2, spec.dim)) / np.sqrt(2)
    prototypes = rng.standard_normal((6, 2)) @ mixing

    def raw(n):
        rows = rng.standard_normal((n, 2)) @ mixing
        on_prototype = rng.random(n) < 0.9
        pick = rng.integers(0, 6, size=n)
        rows[on_prototype] = prototypes[pick[on_prototype]]
        scale = np.exp(1.25 * rng.standard_normal(n))
        saturated = rng.random(n) < 0.005
        scale = np.where(saturated, scale * 25.0, scale)
        level = np.where(on_prototype & ~saturated, 0.01, 0.1 * scale)
        return rows + rng.standard_normal((n, spec.dim)) * level[:, None]

    normal = raw(spec.n_normal)
    attack = raw(spec.n_attack)
    if spec.n_attack > 0:
        n_moved = max(1, spec.dim // 4)
        coords = np.argsort(rng.random((spec.n_attack, spec.dim)), axis=1)
        moved = np.zeros((spec.n_attack, spec.dim), dtype=bool)
        np.put_along_axis(moved, coords[:, :n_moved], True, axis=1)
        signs = np.where(rng.random((spec.n_attack, spec.dim)) < 0.5, -1.0, 1.0)
        attack = attack + spec.displacement * signs * moved
    return np.tanh(np.vstack([normal, attack]) / 3.0)


class TestSynthGenerate:
    @given(st.integers(0, 300), st.integers(0, 60), st.integers(1, 70),
           st.sampled_from([0.0, 0.5, 2.0]), st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference(self, n_normal, n_attack, dim, displacement,
                               seed):
        spec = SynthSpec(n_normal, n_attack, dim, displacement, seed)
        got = synth_generate(spec).features
        want = reference_synth_generate(spec)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_no_attacks(self):
        ds = synth_generate(SynthSpec(n_normal=10, n_attack=0, dim=5, seed=1))
        assert np.all(ds.labels == NORMAL_LABEL)

    def test_zero_displacement_indistinguishable(self):
        spec = SynthSpec(n_normal=4000, n_attack=4000, dim=8,
                         displacement=0.0, seed=3)
        ds = synth_generate(spec)
        normal, attack = split_by_label(ds)
        diff = (ds.features[normal].mean(axis=0)
                - ds.features[attack].mean(axis=0))
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
        assert (np.abs(ds.features[attack]).mean()
                > np.abs(ds.features[normal]).mean())

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

    def test_dataset_skips_label_ending_in_nul(self, tmp_path):
        # a numpy string drops trailing NULs, so the label would read as
        # Normal
        path = tmp_path / "ds.csv"
        path.write_text("f0,label\n0.5,Normal\x00\n0.7,Normal\n"
                        "0.9,attack\x00\n")
        ds, skipped = load_dataset(path)
        assert skipped == 2
        np.testing.assert_array_equal(ds.features, [[0.7]])
        assert list(ds.labels) == [NORMAL_LABEL]


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

    def test_non_finite_rows_skipped(self, tmp_path, monkeypatch):
        # blocks of 3 rows: skipped rows land in every block, the last one
        # partial
        monkeypatch.setattr(dataplane, "_BLOCK_ROWS", 3)
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

    @pytest.mark.parametrize("cell, problem", [
        (b"\xff", "expected UTF-8 text"),
        (b"x" * (csv.field_size_limit() + 1),
         "field larger than field limit"),
    ], ids=["not-utf8", "field-over-limit"])
    @pytest.mark.parametrize("load, head", [
        (lambda path: load_csv(path, RAW_SCHEMA),
         RAW_CSV.encode() + b"a6,1.0,tcp,5,"),
        (load_dataset, b"f0,label\n0.5,Normal\n0.7,"),
    ], ids=["load_csv", "load_dataset"])
    def test_undecodable_file_is_a_data_error_naming_it(self, tmp_path, load,
                                                        head, cell, problem):
        # the fault is in a data row's label, after rows that parse
        path = tmp_path / "flows.csv"
        path.write_bytes(head + cell + b"\n")
        with pytest.raises(DataError,
                           match=rf"^{re.escape(str(path))}: {problem}"):
            load(path)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # the schema drops the first column, which the mark would rename
        plain, marked = tmp_path / "raw.csv", tmp_path / "bom.csv"
        plain.write_text(RAW_CSV)
        marked.write_bytes(codecs.BOM_UTF8 + RAW_CSV.encode())
        assert (read_outcome(load_csv, marked, RAW_SCHEMA)
                == read_outcome(load_csv, plain, RAW_SCHEMA))

    def test_identical_bytes_identical_dataset(self, tmp_path):
        p1 = tmp_path / "one.csv"
        p2 = tmp_path / "two.csv"
        p1.write_text(RAW_CSV)
        p2.write_text(RAW_CSV)
        a, _ = load_csv(p1, RAW_SCHEMA)
        b, _ = load_csv(p2, RAW_SCHEMA)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_row_missing_only_its_label_is_skipped(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("id,x,c,y\n1,0.5,a,Normal\n2,0.7,b\n3,0.9,b,ddos\n")
        schema = SchemaConfig(label_column="y", drop_columns=("id",),
                              categorical={"c": ("a", "b")})
        ds, skipped = load_csv(path, schema)
        assert skipped == 1
        np.testing.assert_array_equal(ds.features,
                                      [[0.5, 1.0, 0.0], [0.9, 0.0, 1.0]])
        assert list(ds.labels) == [NORMAL_LABEL, "ddos"]

    def test_label_ending_in_nul_is_skipped(self, tmp_path):
        # `Normal\0` is not the schema's normal value, but a numpy string
        # drops its NUL; the NUL line also sends its block to the row parser
        path = tmp_path / "raw.csv"
        path.write_text("x,y\n1.0,Normal\x00\n2.0,Normal\n3.0,ddos\n"
                        "4.0,\x00\n")
        ds, skipped = load_csv(path, SchemaConfig(label_column="y"))
        assert skipped == 2
        np.testing.assert_array_equal(ds.features, [[2.0], [3.0]])
        assert list(ds.labels) == [NORMAL_LABEL, "ddos"]
        assert list(ds.is_attack) == [False, True]

    def test_repeated_header_column_rejected(self, tmp_path):
        # each repeat of 'x' used to read the last 'x' cell: [[7.0, 7.0]]
        path = tmp_path / "raw.csv"
        path.write_text("id,x,x,y\n1,0.5,7,Normal\n")
        schema = SchemaConfig(label_column="y", drop_columns=("id",))
        with pytest.raises(SchemaError, match=r"\['x'\]"):
            load_csv(path, schema)

    def test_schema_rejects_repeated_vocabulary_entry(self):
        with pytest.raises(SchemaError, match="'proto'.*'tcp'"):
            SchemaConfig(label_column="y",
                         categorical={"proto": ("tcp", "udp", "tcp")})

    def test_schema_rejects_dropped_categorical_column(self):
        with pytest.raises(SchemaError, match="'proto'"):
            SchemaConfig(label_column="y", drop_columns=("proto",),
                         categorical={"proto": ("tcp",)})

    def test_schema_rejects_categorical_label_column(self):
        with pytest.raises(SchemaError, match="'y'"):
            SchemaConfig(label_column="y", categorical={"y": ("a", "b")})

    def test_schema_file_checked_when_read(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text('{"label_column": "y", '
                        '"categorical": {"c": ["a", "a"]}}')
        with pytest.raises(SchemaError, match="'c'"):
            SchemaConfig.from_file(path)

    @pytest.mark.parametrize("text, problem", [
        ('{"label_column": "y",', "expected a JSON object"),
        (b'{"label_column": "\xff"}', "expected a JSON object"),
        ("[1, 2]", "expected a JSON object"),
        ('{"label_column": 5}', "label_column: expected a string, got 5"),
        ('{"label_column": "y", "categorical": ["a"]}',
         "categorical: expected a mapping of columns to lists of strings, "
         "got ['a']"),
        ('{"label_column": "y", "categorical": {"c": "tcp"}}',
         "categorical: expected a mapping of columns to lists of strings, "
         "got {'c': 'tcp'}"),
        ('{"label_column": "y", "drop_columns": "frame.time"}',
         "drop_columns: expected a list of strings, got 'frame.time'"),
        ('{"label_column": "y", "expected_width": "66"}',
         "expected_width: expected a positive int or null, got '66'"),
        ('{"label_column": "y", "expected_width": true}',
         "expected_width: expected a positive int or null, got True"),
        ('{"label_column": "y", "categorical": {"c": ["a", "a"]}}',
         "categorical column 'c' repeats vocabulary entries ['a']"),
    ], ids=["not-json", "not-utf8", "list-root", "int-label",
            "list-categorical", "text-vocabulary", "text-drop-columns",
            "text-width", "bool-width", "repeated-vocabulary"])
    def test_malformed_schema_file_names_file_and_key(self, tmp_path, text,
                                                      problem):
        path = tmp_path / "schema.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(SchemaError) as err:
            SchemaConfig.from_file(path)
        assert str(err.value) == f"{path}: {problem}"

    def test_schema_file_byte_order_mark_is_skipped(self, tmp_path):
        text = ('{"label_column": "y", "drop_columns": ["id"], '
                '"categorical": {"c": ["a", "b"]}, "expected_width": 3}')
        plain, marked = tmp_path / "schema.json", tmp_path / "bom-schema.json"
        plain.write_text(text)
        marked.write_bytes(codecs.BOM_UTF8 + text.encode())
        assert SchemaConfig.from_file(marked) == SchemaConfig.from_file(plain)

    def test_schema_file_null_value_is_unset(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text('{"label_column": "y", "normal_value": null, '
                        '"drop_columns": null, "categorical": null, '
                        '"expected_width": null}')
        assert SchemaConfig.from_file(path) == SchemaConfig(label_column="y")

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
        assert ds.is_attack.tolist() == [False, True]
        assert ds.labels.tolist() == [NORMAL_LABEL, "attack"]

    def test_label_length_checked(self):
        with pytest.raises(ShapeError):
            LabeledDataset(np.zeros((3, 2)), np.array(["Normal"] * 2))


def reference_finite_rows(feats, labels, width, skipped):
    features = np.array(feats, dtype=np.float64).reshape(len(feats), width)
    finite = np.isfinite(features).all(axis=1)
    labels = np.array(labels, dtype=str)
    n_bad = int(finite.size - np.count_nonzero(finite))
    if n_bad:
        features, labels = features[finite], labels[finite]
    return LabeledDataset(features, labels), skipped + n_bad


def reference_load_dataset(path):
    """The per-cell canonical reader the block parser replaced."""
    with open(path, newline="") as fh:
        reader = csv.reader(row for row in fh if not row.startswith("#"))
        header = next(reader, None)
        if header is None or header[-1] != "label":
            raise SchemaError(f"{path} is not a canonical dataset CSV")
        width = len(header) - 1
        feats, labels, skipped = [], [], 0
        for row in reader:
            if len(row) != width + 1:
                raise SchemaError(
                    f"{path}: row has {len(row)} cells, expected {width + 1}")
            try:
                feats.append([float(v) for v in row[:width]])
            except ValueError:
                skipped += 1
                continue
            labels.append(row[width])
    return reference_finite_rows(feats, labels, width, skipped)


def reference_load_csv(path, schema):
    """The per-cell raw-flow reader the block parser replaced, except that
    the label is read inside the `try`: a row missing only its label is
    skipped like any other short row instead of raising IndexError."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        col_index = {name: i for i, name in enumerate(header)}
        dropped = set(schema.drop_columns) | {schema.label_column}
        feature_cols = [c for c in header if c not in dropped]
        width = sum(len(schema.categorical[c]) if c in schema.categorical
                    else 1 for c in feature_cols)
        label_i = col_index[schema.label_column]
        feats, labels, skipped = [], [], 0
        for row in reader:
            if not row:
                continue
            encoded = []
            try:
                for col in feature_cols:
                    cell = row[col_index[col]]
                    if col in schema.categorical:
                        encoded.extend(1.0 if cell == v else 0.0
                                       for v in schema.categorical[col])
                    else:
                        encoded.append(float(cell))
                raw_label = row[label_i]
            except (ValueError, IndexError):
                skipped += 1
                continue
            labels.append(NORMAL_LABEL if raw_label == schema.normal_value
                          else raw_label)
            feats.append(encoded)
    return reference_finite_rows(feats, labels, width, skipped)


def read_outcome(load, *args):
    """Everything a reader returns, bit for bit, or the error it raised."""
    try:
        ds, skipped = load(*args)
    except (SchemaError, csv.Error) as exc:
        return type(exc), str(exc)
    return (ds.features.shape, ds.features.tobytes(), ds.labels.dtype,
            ds.labels.tolist(), skipped)


NUMERIC_CELLS = ("0", "1.5", "-2", "-0", "3e2", "12345", "0.1", " 7 ",
                 "\t8", "1_000", "nan", "inf", "-Infinity", "-", "",
                 "#N/A", "1.2.3", "1__0", "4,5", "6\n7")
CATEGORY_CELLS = ("tcp", "udp", "icmp", "", "t,c", "u\np", " tcp")
LABEL_CELLS = ("Normal", "benign", "ddos", "", "a,b", "x\ny")
ROW_SHAPES = ("full", "full", "full", "short", "long", "empty")
CELL_POOLS = {"numeric": NUMERIC_CELLS, "category": CATEGORY_CELLS,
              "label": LABEL_CELLS, "id": ("r1", "#r2", "r,3")}
# Cells that need no quoting. The numeric pool is mostly what np.loadtxt
# takes (the plain cells seven times over), and "\x1e4" and "\t8" send a
# block to csv.reader.
PLAIN_POOLS = {
    "numeric": ("0", "1.5", "-2", "-0", "3e2", "0.1", " 7 ", "1_000", "nan",
                "inf", "-Infinity", "-", "", "#N/A", "1.2.3", "0x1F") * 7
    + ("\x1e4", "\t8"),
    "category": ("tcp", "udp", "icmp", "", " tcp", "tcpx", "tc"),
    "label": ("Normal", "benign", "ddos", "", "Normal ", "a b"),
    "id": ("r1", "#r2", " ")}
LINE_ENDS = ("\n", "\r\n", "\r")


@st.composite
def csv_rows(draw, kinds, ragged=True, pools=CELL_POOLS):
    """Rows of cells, one pool per column kind, some cut short, padded or
    left empty."""
    rows = []
    for _ in range(draw(st.integers(0, 14))):
        row = [draw(st.sampled_from(pools[k])) for k in kinds]
        shape = draw(st.sampled_from(ROW_SHAPES)) if ragged else "full"
        if shape == "short":
            row = row[:draw(st.integers(0, len(row) - 1))]
        elif shape == "long":
            row += draw(st.lists(st.sampled_from(pools["numeric"]),
                                 min_size=1, max_size=2))
        elif shape == "empty":
            row = []
        rows.append(row)
    return rows


def write_csv(path, header, rows, comments=()):
    """csv.writer output, with `#` lines put before the given row numbers."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    for i, row in enumerate(rows):
        if i in comments:
            out.write("# note, with a comma\n")
        writer.writerow(row)
    path.write_text(out.getvalue(), newline="")


def write_plain(path, header, lines, ends):
    """The header and each line, joined by commas if it is a row of cells,
    written with the given line ends; the last line may have none."""
    text = "".join(
        (line if isinstance(line, str) else ",".join(line)) + end
        for line, end in zip([header, *lines], ends))
    path.write_bytes(text.encode())


@st.composite
def plain_lines(draw, rows, blanks=True, comments=False):
    """Quote-free lines for the rows, with a line end per line. With
    `blanks`, some rows become blank or whitespace-only lines; with
    `comments`, `#` lines go before some rows."""
    lines = []
    for row in rows:
        if comments and draw(st.integers(0, 9)) == 0:
            lines.append("# note, with a comma")
        lines.append(draw(st.sampled_from([row] * 8 + ["", "   "]))
                     if blanks else row)
    ends = draw(st.lists(st.sampled_from(LINE_ENDS), min_size=len(lines) + 1,
                         max_size=len(lines) + 1))
    ends[-1] = draw(st.sampled_from(LINE_ENDS + ("",)))
    return lines, ends


@st.composite
def raw_flow_files(draw, pools=CELL_POOLS):
    """A header in random column order, its schema and its rows."""
    n_numeric = draw(st.integers(1, 3))
    vocabs = draw(st.lists(
        st.lists(st.sampled_from(CATEGORY_CELLS[:5]), min_size=1,
                 max_size=3, unique=True), max_size=2))
    columns = ([("id", "id")] + [(f"n{i}", "numeric") for i in range(n_numeric)]
               + [(f"c{i}", "category") for i in range(len(vocabs))]
               + [("y", "label")])
    columns = draw(st.permutations(columns))
    schema = SchemaConfig(
        label_column="y", normal_value=draw(st.sampled_from(LABEL_CELLS)),
        drop_columns=("id",),
        categorical={f"c{i}": tuple(v) for i, v in enumerate(vocabs)})
    rows = draw(csv_rows([kind for _, kind in columns], pools=pools))
    return [name for name, _ in columns], schema, rows


class TestReaderEquivalence:
    """The block parser against the per-cell readers it replaced."""

    @given(raw_flow_files(), st.integers(1, 5))
    @settings(max_examples=150, deadline=None)
    def test_load_csv_matches_reference(self, tmp_path_factory, flow_file,
                                        block_rows):
        header, schema, rows = flow_file
        path = tmp_path_factory.mktemp("raw") / "raw.csv"
        write_csv(path, header, rows)
        with mock.patch.object(dataplane, "_BLOCK_ROWS", block_rows):
            got = read_outcome(load_csv, path, schema)
        assert got == read_outcome(reference_load_csv, path, schema)

    @given(st.integers(0, 3), st.booleans(), st.data(), st.integers(1, 5))
    @settings(max_examples=150, deadline=None)
    def test_load_dataset_matches_reference(self, tmp_path_factory, width,
                                            ragged, data, block_rows):
        rows = data.draw(csv_rows(["numeric"] * width + ["label"], ragged))
        comments = data.draw(st.sets(st.integers(0, len(rows))))
        path = tmp_path_factory.mktemp("ds") / "ds.csv"
        write_csv(path, [f"f{i}" for i in range(width)] + ["label"], rows,
                  comments)
        with mock.patch.object(dataplane, "_BLOCK_ROWS", block_rows):
            got = read_outcome(load_dataset, path)
        assert got == read_outcome(reference_load_dataset, path)

    @pytest.mark.filterwarnings("error")
    @given(raw_flow_files(PLAIN_POOLS), st.data(), st.integers(1, 5),
           st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_quote_free_load_csv_matches_reference(
            self, tmp_path_factory, flow_file, data, block_rows, chunk_rows):
        header, schema, rows = flow_file
        lines, ends = data.draw(plain_lines(rows))
        path = tmp_path_factory.mktemp("plain") / "raw.csv"
        write_plain(path, header, lines, ends)
        with mock.patch.object(dataplane, "_BLOCK_ROWS", block_rows), \
                mock.patch.object(dataplane, "_CHUNK_ROWS", chunk_rows):
            got = read_outcome(load_csv, path, schema)
        assert got == read_outcome(reference_load_csv, path, schema)

    @pytest.mark.filterwarnings("error")
    @given(st.integers(0, 3), st.booleans(), st.data(), st.integers(1, 5),
           st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_quote_free_load_dataset_matches_reference(
            self, tmp_path_factory, width, ragged, data, block_rows,
            chunk_rows):
        rows = data.draw(csv_rows(["numeric"] * width + ["label"], ragged,
                                  PLAIN_POOLS))
        lines, ends = data.draw(plain_lines(rows, blanks=ragged,
                                            comments=True))
        path = tmp_path_factory.mktemp("plain") / "ds.csv"
        write_plain(path, [f"f{i}" for i in range(width)] + ["label"], lines,
                    ends)
        with mock.patch.object(dataplane, "_BLOCK_ROWS", block_rows), \
                mock.patch.object(dataplane, "_CHUNK_ROWS", chunk_rows):
            got = read_outcome(load_dataset, path)
        assert got == read_outcome(reference_load_dataset, path)


PLAIN_SCHEMA = SchemaConfig(label_column="y", drop_columns=("id",),
                            categorical={"c": ("tcp", "udp")})


def read_plain(tmp_path, text, load, *args):
    path = tmp_path / "flows.csv"
    path.write_bytes(text.encode())
    return load(path, *args)


@pytest.mark.filterwarnings("error")
class TestLoadtxtPath:
    """The np.loadtxt path: lines that it alone would read otherwise than
    csv.reader and float(), each case naming the check in the parser that
    it needs, and rejected lines at each place in a chunk."""

    def test_plain_file_is_read_by_loadtxt(self, tmp_path):
        with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as spy:
            ds, skipped = read_plain(tmp_path, RAW_CSV, load_csv, RAW_SCHEMA)
        assert spy.called
        assert skipped == 1 and len(ds) == 4

    def test_control_character_cell_is_skipped(self, tmp_path):
        # _PLAIN leaves out control characters: loadtxt reads "\x1e4" as 4.0
        ds, skipped = read_plain(
            tmp_path, "id,x,c,y\n1,0.5,tcp,Normal\n2,\x1e4,udp,ddos\n",
            load_csv, PLAIN_SCHEMA)
        assert skipped == 1
        np.testing.assert_array_equal(ds.features, [[0.5, 1.0, 0.0]])
        assert ds.labels.tolist() == [NORMAL_LABEL]

    def test_whitespace_only_line_is_short(self, tmp_path, monkeypatch):
        # a chunk with no data goes to the row parser: loadtxt warns on it,
        # and dropping it would drop the whitespace-only line uncounted
        monkeypatch.setattr(dataplane, "_CHUNK_ROWS", 1)
        ds, skipped = read_plain(
            tmp_path, "id,x,c,y\n1,0.5,tcp,Normal\n   \n\n2,0.7,udp,ddos\n",
            load_csv, PLAIN_SCHEMA)
        assert skipped == 1
        np.testing.assert_array_equal(ds.features,
                                      [[0.5, 1.0, 0.0], [0.7, 0.0, 1.0]])

    def test_lone_cr_line_ends(self, tmp_path, monkeypatch):
        # loadtxt skips the blank "\r" line, so the row count check hands
        # that chunk to the row parser, for which it is a row without cells
        monkeypatch.setattr(dataplane, "_CHUNK_ROWS", 2)
        ds, skipped = read_plain(
            tmp_path, "id,x,c,y\r1,0.5,tcp,Normal\r\r2,0.7,udp,ddos\r"
            "3,oops,tcp,x\r4,0.9,icmp,x", load_csv, PLAIN_SCHEMA)
        assert skipped == 1
        np.testing.assert_array_equal(
            ds.features, [[0.5, 1.0, 0.0], [0.7, 0.0, 1.0], [0.9, 0.0, 0.0]])
        assert ds.labels.tolist() == [NORMAL_LABEL, "ddos", "x"]
        with pytest.raises(SchemaError, match="row has 0 cells"):
            read_plain(tmp_path, "f0,label\r0.5,Normal\r\r0.7,ddos\r",
                       load_dataset)

    def test_field_over_size_limit_raises(self, tmp_path):
        # _plain's line length check: loadtxt has no field size limit
        big = "x" * (csv.field_size_limit() + 1)
        path = re.escape(str(tmp_path / "flows.csv"))
        with pytest.raises(DataError,
                           match=rf"^{path}: field larger than field limit"):
            read_plain(tmp_path, f"id,x,c,y\n1,0.5,tcp,{big}\n", load_csv,
                       PLAIN_SCHEMA)

    def test_first_quote_after_block_one(self, tmp_path, monkeypatch):
        # from the first block with a quote csv.reader reads the rest: the
        # quoted label spans the line that starts block 3
        monkeypatch.setattr(dataplane, "_BLOCK_ROWS", 2)
        text = ('id,x,c,y\n1,0.5,tcp,Normal\n2,0.6,udp,Normal\n'
                '3,0.7,tcp,Normal\n4,0.8,udp,"dd,\nos"\n5,0.9,tcp,x\n')
        ds, skipped = read_plain(tmp_path, text, load_csv, PLAIN_SCHEMA)
        assert skipped == 0
        np.testing.assert_array_equal(ds.features[:, 0],
                                      [0.5, 0.6, 0.7, 0.8, 0.9])
        assert ds.labels.tolist() == [NORMAL_LABEL] * 3 + ["dd,\nos", "x"]

    @pytest.mark.parametrize("at", [0, 1, 2], ids=["first", "middle", "last"])
    def test_rejected_lines_at_chunk_edges(self, tmp_path, monkeypatch, at):
        # the line loadtxt rejects is the last one it pulled: the row parser
        # takes it alone, loadtxt re-reads the lines before it and resumes
        # after it
        monkeypatch.setattr(dataplane, "_CHUNK_ROWS", 3)
        lines = [f"{i},{i}.5,{('tcp', 'udp')[i % 2]},y{i}\n" for i in range(9)]
        bad = [i for i in range(9) if i % 3 == at]
        for i in bad:
            lines[i] = f"{i},-,tcp,y{i}\n"
        with mock.patch.object(csv, "reader", wraps=csv.reader) as spy:
            ds, skipped = read_plain(tmp_path, "id,x,c,y\n" + "".join(lines),
                                     load_csv, PLAIN_SCHEMA)
        # the header and the file's rest go to csv.reader as iterators
        taken = [line for call in spy.call_args_list
                 if isinstance(call.args[0], list) for line in call.args[0]]
        assert taken == [lines[i] for i in bad]
        good = [i for i in range(9) if i not in bad]
        assert skipped == len(bad)
        np.testing.assert_array_equal(
            ds.features, [[i + 0.5, i % 2 == 0, i % 2 == 1] for i in good])
        assert ds.labels.tolist() == [f"y{i}" for i in good]
