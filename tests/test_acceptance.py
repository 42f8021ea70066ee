"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail
lines. Criterion 8 needs the real Edge-IIoTset DNN CSV and is skipped
unless EDGE_IIOTSET_CSV points at it.
"""

import contextlib
import math
import os
import time

import numpy as np
import pytest

from fedanom.autoencoder import AutoencoderConfig, TrainConfig, build, train_epochs
from fedanom.config import build_config
from fedanom.dataplane import (
    NORMAL_LABEL,
    LabeledDataset,
    SchemaConfig,
    SynthSpec,
    dirichlet_partition,
    load_csv,
    synth_generate,
)
from fedanom.detector import ConfusionMatrix, compute_threshold, metrics
from fedanom.federation import (
    ClientState,
    ClientUpdate,
    LatencyModel,
    StrategyConfig,
    StrategyKind,
    fedavg_aggregate,
    qffl_aggregate,
    qffl_deltas,
    run_federated,
)
from fedanom.harness import run_centralized, run_federated_experiment
from fedanom.numerics import (
    derive_seed,
    loss_and_gradients,
    pack,
    unpack,
)


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def test_criterion_1_gradient_correctness():
    with criterion(1, "gradients match central finite differences"):
        start = time.monotonic()
        cases = [(7, (3, 2)), (11, (5, 4, 3)), (23, (10, 4, 2))]
        for seed, dims in cases:
            chain = (*dims, *reversed(dims[:-1]))
            specs = []
            for i in range(len(chain) - 1):
                from fedanom.numerics import Activation, LayerSpec
                act = (Activation.TANH if i == len(chain) - 2
                       else Activation.RELU)
                specs.append(LayerSpec(chain[i + 1], chain[i], act))
            n = sum(s.out_dim * s.in_dim + s.out_dim for s in specs)
            assert n <= 200
            rng = np.random.default_rng(seed)
            flat = rng.uniform(-0.5, 0.5, size=n)
            params = unpack(flat, specs)
            batch = rng.normal(size=(6, dims[0])) * 0.8
            _, grad = loss_and_gradients(params, batch)
            h = 1e-5
            for i in range(n):
                up = flat.copy()
                up[i] += h
                down = flat.copy()
                down[i] -= h
                lu, _ = loss_and_gradients(unpack(up, specs), batch)
                ld, _ = loss_and_gradients(unpack(down, specs), batch)
                fd = (lu - ld) / (2.0 * h)
                assert abs(grad[i] - fd) <= 1e-4 * max(abs(fd), 1e-8), (
                    f"model {dims} coordinate {i}: {grad[i]} vs {fd}")
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"gradient check took {elapsed:.1f}s"


def test_criterion_2_qffl_reduces_to_fedavg():
    with criterion(2, "q-FFL with q=0 equals plain-mean FedAvg"):
        start = time.monotonic()
        rng = np.random.default_rng(2024)
        for _ in range(50):
            dim = int(rng.integers(1, 40))
            k = int(rng.integers(1, 8))
            w = rng.normal(size=dim) * rng.uniform(0.1, 5)
            lipschitz = float(rng.uniform(0.01, 1000))
            updates = [
                ClientUpdate(i, rng.normal(size=dim),
                             (float(rng.uniform(1e-3, 10)),),
                             int(rng.integers(1, 100)),
                             float(rng.uniform(0, 1)))
                for i in range(k)
            ]
            deltas = [qffl_deltas(w, u, 0.0, lipschitz) for u in updates]
            got = qffl_aggregate(w, deltas)
            want = fedavg_aggregate(updates)
            rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-12)
            assert rel.max() <= 1e-9
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"reduction check took {elapsed:.2f}s"


def test_criterion_3_single_client_equivalence():
    with criterion(3, "1-client federation equals centralized with "
                      "optimizer reset every 10 epochs"):
        start = time.monotonic()
        data = synth_generate(SynthSpec(500, 0, dim=8, seed=11)).features
        assert data.shape == (500, 8)
        model_cfg = AutoencoderConfig(input_dim=8, hidden_dims=(6, 4),
                                      bottleneck_dim=3, dropout_p=0.2, seed=21)
        client = ClientState(0, data, data[:0], data[:0], rng_seed=77)
        fl = run_federated([client], model_cfg, StrategyConfig(), rounds=5,
                           train=TrainConfig(epochs=10), master_seed=5)
        params = build(model_cfg)
        for round_index in range(1, 6):
            tc = TrainConfig(epochs=10,
                             shuffle_seed=derive_seed(77, round_index))
            params, _ = train_epochs(params, data, tc)
        centralized = pack(params)
        assert np.array_equal(fl.final_params, centralized), (
            f"max abs diff {np.max(np.abs(fl.final_params - centralized))}")
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"equivalence check took {elapsed:.1f}s"


def test_criterion_4_threshold_and_metrics_oracles():
    with criterion(4, "threshold and metrics formulas match hand values"):
        thr = compute_threshold(np.array([1.0, 2.0, 3.0]))
        assert abs(thr - (2.0 + math.sqrt(2.0 / 3.0))) <= 1e-12
        m = metrics(ConfusionMatrix(tp=2, fp=1, tn=3, fn=0))
        assert abs(m.accuracy - 5.0 / 6.0) <= 1e-12
        assert abs(m.precision - 2.0 / 3.0) <= 1e-12
        assert abs(m.recall - 1.0) <= 1e-12
        assert abs(m.f_measure - 0.8) <= 1e-12
        assert abs(m.fp_rate - 0.25) <= 1e-12


def test_criterion_5_dirichlet_partitioner():
    with criterion(5, "Dirichlet partitioner concentration and exactness"):
        start = time.monotonic()
        labels = np.array([NORMAL_LABEL] * 5000 + ["attack"] * 5000)
        ds = LabeledDataset(np.zeros((10000, 1)), labels)

        def majority_share(assignment):
            share = np.mean(ds.labels[np.asarray(assignment)] == NORMAL_LABEL)
            return max(share, 1.0 - share)

        balanced = 0
        for seed in range(100):
            plan = dirichlet_partition(ds, 2, 1000.0, seed)
            plan.validate(10000)
            balanced += all(majority_share(a) <= 0.55
                            for a in plan.assignments)
        skewed = 0
        for seed in range(100):
            plan = dirichlet_partition(ds, 2, 0.1, seed)
            plan.validate(10000)
            skewed += any(majority_share(a) > 0.8 for a in plan.assignments)
        assert balanced >= 95, f"balanced in only {balanced}/100 seeds"
        assert skewed >= 90, f"skew majority in only {skewed}/100 seeds"
        elapsed = time.monotonic() - start
        assert elapsed < 20.0, f"partition check took {elapsed:.1f}s"


def test_criterion_6_synthetic_end_to_end_parity():
    with criterion(6, "synthetic benchmark: centralized quality and "
                      "federated parity"):
        start = time.monotonic()
        base = {
            "dataset": {"synth": {"n_normal": 20000, "n_attack": 1700,
                                  "dim": 66, "displacement": 2.0,
                                  "seed": 42}},
            "federation": {"n_clients": 2, "rounds": 5,
                           "epochs_per_round": 10, "alpha": 10.0},
        }
        central, _ = run_centralized(build_config(dict(base)))
        assert central.metrics.recall >= 0.95, (
            f"centralized recall {central.metrics.recall}")
        assert central.metrics.fp_rate <= 0.05, (
            f"centralized fp-rate {central.metrics.fp_rate}")
        fed, _, _ = run_federated_experiment(
            build_config({**base, "mode": "federated"}))
        assert fed.detector_source == "round_min"
        acc_gap = abs(fed.metrics.accuracy - central.metrics.accuracy)
        assert acc_gap <= 0.02, f"accuracy gap {acc_gap:.4f}"
        assert fed.metrics.fp_rate <= central.metrics.fp_rate + 0.01, (
            f"federated fp {fed.metrics.fp_rate} vs centralized "
            f"{central.metrics.fp_rate}")
        elapsed = time.monotonic() - start
        assert elapsed < 600.0, f"end-to-end took {elapsed:.0f}s"


def test_criterion_2b_qffl_trains_with_documented_lipschitz():
    with criterion("2b", "q-FFL at q=0.5 with the README's Lipschitz "
                         "estimate trains"):
        # the README's L sweep: seed 1, 3000/300 rows, 4 clients at
        # Dirichlet alpha 1.0, 6 rounds of 2 epochs
        base = {"mode": "federated", "seed": 1,
                "dataset": {"synth": {"n_normal": 3000, "n_attack": 300,
                                      "seed": 1}},
                "federation": {"n_clients": 4, "rounds": 6,
                               "epochs_per_round": 2, "alpha": 1.0}}

        def mean_losses(strategy):
            report, _, _ = run_federated_experiment(
                build_config({**base, "strategy": strategy}))
            return [np.mean([r.local_loss for r in tr.records
                             if r.local_loss is not None])
                    for tr in report.round_traces]

        fedavg = mean_losses({"kind": "fedavg"})
        qffl = mean_losses({"kind": "qffl", "q": 0.5, "lipschitz": 0.01})
        halfway = (qffl[0] + fedavg[-1]) / 2.0
        assert qffl[-1] <= halfway, (
            f"q-FFL round-6 loss {qffl[-1]:.4f} above {halfway:.4f}, halfway "
            f"from its round 1 ({qffl[0]:.4f}) to FedAvg's round 6 "
            f"({fedavg[-1]:.4f})")


def _fair_clients():
    rng = np.random.default_rng(31)
    clients = []
    mix = rng.normal(size=(2, 8))
    for k in range(3):
        train = np.tanh(rng.normal(size=(40, 2)) @ mix)
        val = np.tanh(rng.normal(size=(10, 2)) @ mix)
        attack = np.clip(val[:5] + 1.2, -1.0, 1.0)
        clients.append(ClientState(k, train, val, attack, rng_seed=200 + k))
    return clients


def test_criterion_7_fairfedavg_relevance_and_carry_forward():
    with criterion(7, "FairFedAvg relevance damping and carry-forward"):
        model_cfg = AutoencoderConfig(input_dim=8, hidden_dims=(6,),
                                      bottleneck_dim=2, dropout_p=0.0, seed=9)
        strategy = StrategyConfig(kind=StrategyKind.FAIR_FEDAVG, q=0.0,
                                  lipschitz=1000.0)
        # one of three clients drops out on rounds 2 and 4
        latency = LatencyModel(per_round={2: {0: 9.0}, 4: {1: 9.0}},
                               drop_after=1.0)
        runs = [run_federated(_fair_clients(), model_cfg, strategy, rounds=5,
                              train=TrainConfig(epochs=2), latency=latency,
                              master_seed=13) for _ in range(2)]
        for tr_a, tr_b in zip(runs[0].rounds, runs[1].rounds):
            assert tr_a.alpha == tr_b.alpha
            assert tr_a.global_sha256 == tr_b.global_sha256
        alphas = {tr.round_index: tr.alpha for tr in runs[0].rounds}
        assert alphas[1] == 1.0 and alphas[3] == 1.0 and alphas[5] == 1.0
        assert 0.0 < alphas[2] < 1.0 and 0.0 < alphas[4] < 1.0
        # two or more clients always arrived: no carry-forward rows
        assert not any(tr.carried_forward for tr in runs[0].rounds)

        # drop two of three on round 2: fewer than 2 arrive, so the global
        # model is carried forward unchanged
        starve = LatencyModel(per_round={2: {0: 9.0, 1: 9.0}}, drop_after=1.0)
        result = run_federated(_fair_clients(), model_cfg, strategy, rounds=3,
                               train=TrainConfig(epochs=2), latency=starve,
                               master_seed=13)
        flags = {tr.round_index: tr.carried_forward for tr in result.rounds}
        arrivals = {tr.round_index: sum(r.participated for r in tr.records)
                    for tr in result.rounds}
        for rnd, carried in flags.items():
            assert carried == (arrivals[rnd] < 2)
        assert flags[2]
        assert result.rounds[1].global_sha256 == result.rounds[0].global_sha256


EDGE_PATH = os.environ.get("EDGE_IIOTSET_CSV")


@pytest.mark.skipif(not EDGE_PATH, reason="EDGE_IIOTSET_CSV not set; "
                                          "optional real-data criterion")
def test_criterion_8_edge_iiotset_reproduction():
    with criterion(8, "Edge-IIoTset ingestion and headline metrics"):
        from importlib import resources
        schema_path = str(resources.files("fedanom") / "schemas"
                          / "edge_iiotset.json")
        schema = SchemaConfig.from_file(schema_path)
        ds, skipped = load_csv(EDGE_PATH, schema)
        n_normal = int((~ds.is_attack).sum())
        mitm = int((ds.labels == "MITM").sum() + (ds.labels == "mitm").sum())
        assert n_normal == 300000, f"normal records: {n_normal}"
        assert mitm == 1043, f"mitm records: {mitm}"
        base = {"dataset": {"path": EDGE_PATH, "schema": schema_path,
                            "kind": "csv"}}
        central, _ = run_centralized(build_config(dict(base)))
        fed, _, _ = run_federated_experiment(
            build_config({**base, "mode": "federated"}))
        assert abs(central.metrics.accuracy - 0.997) <= 0.010
        assert abs(fed.metrics.accuracy - 0.998) <= 0.010
        assert fed.metrics.fp_rate <= 0.01
