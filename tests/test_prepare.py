"""Tests for the experiment pipelines' data preparation: the gathered and
scaled splits, and the peak memory of the preparation, the synthetic
generator and the CSV reader."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedanom import dataplane
from fedanom.config import STREAM_CLIENT, STREAM_PARTITION, STREAM_SPLIT, build_config
from fedanom.dataplane import (
    NORMAL_LABEL,
    LabeledDataset,
    SchemaConfig,
    SynthSpec,
    apply_scaler,
    dirichlet_partition,
    fit_scaler,
    load_csv,
    synth_generate,
)
from fedanom.errors import DataError
from fedanom.harness import prepare_centralized, prepare_clients
from fedanom.numerics import derive_rng


# -- the chain the pipelines ran before they gathered by index ---------------

def reference_subset(ds, indices):
    idx = np.asarray(indices, dtype=int)
    return LabeledDataset(ds.features[idx], ds.labels[idx])


def reference_split_by_label(ds):
    attack_mask = ds.is_attack
    return (reference_subset(ds, np.flatnonzero(~attack_mask)),
            reference_subset(ds, np.flatnonzero(attack_mask)))


def reference_train_val_split(ds, fraction, seed):
    if len(ds) == 0:
        raise DataError("cannot split an empty dataset")
    order = derive_rng(seed).permutation(len(ds))
    n_train = int(math.floor(fraction * len(ds)))
    return (reference_subset(ds, order[:n_train]),
            reference_subset(ds, order[n_train:]))


def reference_scaled(scaler, ds):
    if len(ds) == 0:
        return np.zeros((0, ds.n_features))
    return apply_scaler(scaler, ds.features)


def reference_centralized(cfg, ds, scaler=None):
    normal, attack = reference_split_by_label(ds)
    if len(normal) == 0:
        raise DataError("dataset has no normal records to train on")
    train, val = reference_train_val_split(
        normal, cfg.data["split"]["train_fraction"],
        cfg.derived_seed(STREAM_SPLIT))
    if scaler is None:
        scaler = fit_scaler(train.features)
    return (apply_scaler(scaler, train.features),
            apply_scaler(scaler, val.features),
            reference_scaled(scaler, attack), scaler)


def reference_clients(cfg, ds):
    fed = cfg.data["federation"]
    plan = dirichlet_partition(ds, fed["n_clients"], fed["alpha"],
                               cfg.derived_seed(STREAM_PARTITION))
    clients = []
    for k, indices in enumerate(plan.assignments):
        normal, attack = reference_split_by_label(reference_subset(ds, indices))
        if len(normal) < 2:
            raise DataError(f"client {k} received {len(normal)} normals")
        train, val = reference_train_val_split(
            normal, cfg.data["split"]["train_fraction"],
            cfg.derived_seed(STREAM_SPLIT, k))
        scaler = fit_scaler(train.features)
        clients.append((k, apply_scaler(scaler, train.features),
                        apply_scaler(scaler, val.features),
                        reference_scaled(scaler, attack),
                        cfg.derived_seed(STREAM_CLIENT, k)))
    return clients


def same_array(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def shuffled_dataset(n_normal, n_attack, dim, seed):
    """Labels interleaved in a seeded order; some columns constant."""
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n_normal + n_attack, dim)) * 10.0 ** rng.integers(
        -3, 4, size=dim)
    feats[:, rng.random(dim) < 0.25] = 1.5
    labels = np.array([NORMAL_LABEL] * n_normal + ["ddos"] * n_attack)
    order = rng.permutation(labels.size)
    return LabeledDataset(feats[order], labels[order])


def frozen(ds):
    return ds.features.copy(), ds.labels.copy()


def assert_unmodified(ds, before):
    assert same_array(ds.features, before[0])
    assert ds.labels.tolist() == before[1].tolist()


FRACTIONS = (0.8, 0.5, 0.37, 0.9)


class TestGatheredSplits:
    """The pipelines against the chain of copies they replaced."""

    @given(st.integers(1, 60), st.integers(0, 30), st.integers(1, 5),
           st.sampled_from(FRACTIONS), st.integers(0, 2**16))
    @example(n_normal=2, n_attack=0, dim=3, fraction=0.5, seed=1)
    @example(n_normal=1, n_attack=4, dim=2, fraction=0.8, seed=2)
    @settings(max_examples=60, deadline=None)
    def test_centralized_matches_reference(self, n_normal, n_attack, dim,
                                           fraction, seed):
        cfg = build_config({"seed": seed, "split": {"train_fraction": fraction}})
        ds = shuffled_dataset(n_normal, n_attack, dim, seed)
        before = frozen(ds)
        try:
            want = reference_centralized(cfg, ds)
        except DataError:  # e.g. no train row at this fraction
            with pytest.raises(DataError):
                prepare_centralized(cfg, ds)
            return
        got = prepare_centralized(cfg, ds)
        assert_unmodified(ds, before)
        for mine, theirs in zip((got.train, got.val, got.attack), want):
            assert same_array(mine, theirs)
        assert same_array(got.scaler.minimum, want[3].minimum)
        assert same_array(got.scaler.maximum, want[3].maximum)
        # a given scaler, as evaluate_saved passes, is used as it is
        other = fit_scaler(ds.features)
        again = prepare_centralized(cfg, ds, scaler=other)
        want = reference_centralized(cfg, ds, scaler=other)
        assert again.scaler is other
        for mine, theirs in zip((again.train, again.val, again.attack), want):
            assert same_array(mine, theirs)
        assert_unmodified(ds, before)

    @given(st.integers(1, 5), st.integers(0, 40), st.integers(0, 30),
           st.integers(1, 4), st.sampled_from((0.3, 1.0, 1e6)),
           st.sampled_from(FRACTIONS), st.integers(0, 2**16))
    @example(n_clients=3, extra_normal=0, n_attack=5, dim=2, alpha=1e6,
             fraction=0.5, seed=3)
    @settings(max_examples=60, deadline=None)
    def test_clients_match_reference(self, n_clients, extra_normal, n_attack,
                                     dim, alpha, fraction, seed):
        cfg = build_config({
            "mode": "federated", "seed": seed,
            "split": {"train_fraction": fraction},
            "federation": {"n_clients": n_clients, "alpha": alpha}})
        ds = shuffled_dataset(2 * n_clients + extra_normal, n_attack, dim, seed)
        before = frozen(ds)
        try:
            want = reference_clients(cfg, ds)
        except DataError:
            with pytest.raises(DataError):
                prepare_clients(cfg, ds)
            return
        got = prepare_clients(cfg, ds)
        assert_unmodified(ds, before)
        assert len(got) == len(want)
        for client, (k, train, val, attack, seed_k) in zip(got, want):
            assert (client.client_id, client.rng_seed) == (k, seed_k)
            assert same_array(client.train, train)
            assert same_array(client.val, val)
            assert same_array(client.attack, attack)

    def test_client_with_exactly_two_normals(self):
        # an even split of six normals over three clients: two each
        cfg = build_config({"mode": "federated", "seed": 3,
                            "split": {"train_fraction": 0.5},
                            "federation": {"n_clients": 3, "alpha": 1e6}})
        ds = shuffled_dataset(6, 5, 2, 3)
        got = prepare_clients(cfg, ds)
        assert [c.train.shape[0] + c.val.shape[0] for c in got] == [2, 2, 2]
        for client, (_, train, val, attack, _) in zip(
                got, reference_clients(cfg, ds)):
            assert same_array(client.train, train)
            assert same_array(client.val, val)
            assert same_array(client.attack, attack)


# -- memory ---------------------------------------------------------------------

def traced_peak(fn, *args):
    """fn(*args), and the peak of the memory tracemalloc saw it allocate.

    A first untraced call does the lazy imports, which would count too.
    """
    fn(*args)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak


# Edge-IIoTset's feature width, with the default split.
MEMORY_SPEC = SynthSpec(n_normal=6000, n_attack=600, dim=66, seed=3)


class TestPeakMemory:
    """Peaks as a multiple of the bytes the call returns.

    Each split's rows are gathered once and scaled in place, the generator
    builds its matrix in place, and the reader drops non-finite rows block
    by block. With a chain of copies instead, these read 3.02x
    (centralized), 1.81x (clients), 3.20x (generator) and, with one `inf`
    cell, 3.20x (reader).
    """

    def test_centralized_preparation(self):
        ds = synth_generate(MEMORY_SPEC)
        cfg = build_config({"seed": 5})
        data, peak = traced_peak(prepare_centralized, cfg, ds)
        out = data.train.nbytes + data.val.nbytes + data.attack.nbytes
        assert peak <= 1.5 * out

    def test_client_preparation(self):
        ds = synth_generate(MEMORY_SPEC)
        cfg = build_config({"mode": "federated", "seed": 5,
                            "federation": {"n_clients": 8, "alpha": 1.0}})
        clients, peak = traced_peak(prepare_clients, cfg, ds)
        out = sum(c.train.nbytes + c.val.nbytes + c.attack.nbytes
                  for c in clients)
        assert peak <= 1.5 * out

    def test_synth_generate(self):
        ds, peak = traced_peak(synth_generate, MEMORY_SPEC)
        assert peak <= 2.5 * ds.features.nbytes

    @pytest.mark.parametrize("bad_cell", [None, "inf"])
    def test_load_csv(self, tmp_path, monkeypatch, bad_cell):
        # small blocks, so that the parser's per-block staging is small
        # beside the matrix
        monkeypatch.setattr(dataplane, "_BLOCK_ROWS", 256)
        n, width = 6000, 40
        cells = np.random.default_rng(4).normal(size=(n, width)).astype(str)
        if bad_cell is not None:
            cells[n // 2, 7] = bad_cell
        lines = [",".join([f"x{j}" for j in range(width)] + ["y"])]
        lines += [",".join(row) + ",Normal" for row in cells]
        path = tmp_path / "flows.csv"
        path.write_text("\n".join(lines) + "\n")
        (ds, skipped), peak = traced_peak(load_csv, path,
                                          SchemaConfig(label_column="y"))
        assert skipped == (bad_cell is not None)
        assert len(ds) == n - skipped
        assert peak <= 2.3 * ds.features.nbytes


def child_stdout(code):
    """Run `code` in a fresh interpreter on this checkout's sources and
    return what it printed."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_client_preparation_leaves_numpy_ma_unimported():
    # A plain np.unique imports numpy.ma lazily. Imported in the middle of
    # client preparation, its long-lived objects sat above the freed
    # synthetic matrix, and perfbench's fed-rounds peak_rss_mb read 95 MB
    # instead of 88 MB whenever the bytecode was compiled in the benchmark
    # process.
    code = (
        "import sys\n"
        "from fedanom.config import build_config\n"
        "from fedanom.harness import prepare_clients\n"
        "prepare_clients(build_config({'mode': 'federated', 'federation':"
        " {'n_clients': 4, 'alpha': 1.0}, 'dataset': {'synth':"
        " {'n_normal': 400, 'n_attack': 40, 'dim': 8}}}))\n"
        "print('numpy.ma' in sys.modules)\n")
    assert child_stdout(code) == "False"


def test_import_leaves_yaml_unimported():
    # PyYAML compiles its regexes when imported; only config.parse_config
    # reads YAML, and it imports yaml itself
    code = ("import sys\n"
            "import fedanom.harness, fedanom.cli\n"
            "print('yaml' in sys.modules)\n")
    assert child_stdout(code) == "False"
