"""The three benchmark workloads: set-up, one job, and the job's checks.

Every job calls fedanom's public API in this process, exactly as a user
script would, and returns its raw outputs; `result` then checks them
against what the inputs imply, outside the timed region, and condenses
them into a `JobResult`. Sizes come from `SCALES`; "full" is the benchmark,
"tiny" is the self-check.

Seeds: `central-train` and `fed-rounds` run the criterion-6 synthetic set
(synthetic seed 42) at the fixed master seed 42, so their inputs are the
same for every --seed. The master seed drives the split, weight init,
shuffle, dropout, partition, client sampling and latency streams, and
their results move with it by more than a relative bound can absorb.
Measured on one 2-core machine with 3 epochs (central) and 20 rounds
(federated): the central FP rate ranged 0.011-0.0155 over seeds 1-6 (a
quartile spread of 0.20 of the median over five seeds); the federated FP
rate ranged 0.046-0.113 and the work per job 5.8-9.5 s.
`ingest-score` draws from --seed which flows of a fixed flow population
are scored, their order, their attack categories and which rows get an
unparseable cell. Its reference model is trained on a disjoint fixed part
of that population, so it fits every seed's flows.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from fedanom import (autoencoder, config, dataplane, detector, federation,
                     harness, numerics)
# Bound here, before any tracing, so fingerprinting is never traced.
from fedanom.numerics import pack

LAYER_MODULES = (numerics, autoencoder, dataplane, detector, federation,
                 harness, config)

CRITERION6 = {"n_normal": 20000, "n_attack": 1700, "dim": 66,
              "displacement": 2.0, "seed": 42}
FIXED_SEED = 42

SCALES = {
    "full": {
        "central_epochs": 3,
        "fed_rounds": 6,
        "synth": CRITERION6,
        "ref_normal": 8000, "ref_attack": 700, "ref_epochs": 3,
        "pool_normal": 45000, "pool_attack": 4500,
        "flows_normal": 36000, "flows_attack": 3600,
    },
    "tiny": {
        "central_epochs": 5,
        "fed_rounds": 2,
        "synth": {**CRITERION6, "n_normal": 1200, "n_attack": 120},
        "ref_normal": 600, "ref_attack": 60, "ref_epochs": 1,
        "pool_normal": 900, "pool_attack": 90,
        "flows_normal": 400, "flows_attack": 40,
    },
}

# Criterion-6 quality gates, applied to every central-train job.
MIN_RECALL = 0.95
MAX_FP_RATE = 0.05

# fed-rounds: 8 clients, 6 sampled per round (fraction 0.75). Clients 0-4
# always arrive (delay + jitter < drop_after); 5-7 arrive about half the
# time, so 3 to 6 updates arrive in every round.
FED_CLIENTS = 8
FED_SAMPLE_FRACTION = 0.75
FED_LATENCY = {"delays": {5: 0.5, 6: 0.5, 7: 0.5}, "jitter": 1.0,
               "drop_after": 1.0}

# ingest-score: raw flow CSV in the shape of schemas/edge_iiotset.json.
N_NUMERIC = 39           # 39 numeric + 27 one-hot columns = width 66
BAD_ROW_SHARE = 0.01     # rows given one unparseable numeric cell
BAD_CELLS = ("-", "", "1.2.3", "#N/A", "0x1F")
ATTACK_TYPES = ("DDoS_UDP", "DDoS_ICMP", "DDoS_TCP", "DDoS_HTTP",
                "SQL_injection", "Password", "Port_Scanning",
                "Vulnerability_scanner", "Backdoor", "XSS", "Uploading",
                "Fingerprinting", "Ransomware", "MITM")


class CheckError(Exception):
    """A job's output disagrees with what its inputs imply."""


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


@dataclass
class JobResult:
    fingerprint: str
    counts: dict
    quality: dict            # f_measure, fp_rate, final_loss
    train_row_epochs: int
    rows_scored: int
    rows_read: int = 0
    ingest_s: float = 0.0    # load_csv time, ingest-score only


def fingerprint(flat: np.ndarray, payload: dict) -> str:
    h = hashlib.sha256(np.ascontiguousarray(flat, dtype=np.float64).tobytes())
    h.update(json.dumps(payload, sort_keys=True).encode())
    return h.hexdigest()


def _check_emitted(report, out: Path) -> None:
    written = json.loads((out / "metrics.json").read_text())
    check(written == json.loads(json.dumps(harness.metrics_payload(report))),
          "emitted metrics.json differs from the report")
    for name in ("confusion.csv", "loss_trace.csv", "manifest.json"):
        check((out / name).stat().st_size > 0, f"emitted {name} is empty")


def _quality(m, final_loss: float) -> dict:
    check(m.f_measure is not None and m.fp_rate is not None,
          f"undefined quality metric: {m}")
    return {"f_measure": float(m.f_measure), "fp_rate": float(m.fp_rate),
            "final_loss": float(final_loss)}


# ---------------------------------------------------------------------------
class CentralTrain:
    name = "central-train"
    # reference.Reference(train_steps, parse_rows, forward_rows): training
    # with a little large-batch scoring, as in the job
    reference = (540, 0, 14000)

    def setup(self, seed: int, work: Path, scale: dict) -> dict:
        cfg = config.build_config({
            "seed": FIXED_SEED,
            "dataset": {"synth": dict(scale["synth"])},
            "train": {"epochs": scale["central_epochs"]},
        })
        ds = dataplane.synth_generate(cfg.synth_spec())
        n_attack = int(ds.is_attack.sum())
        n_normal = len(ds) - n_attack
        check((n_normal, n_attack) == (scale["synth"]["n_normal"],
                                       scale["synth"]["n_attack"]),
              "synthetic set has the wrong label counts")
        frac = cfg.data["split"]["train_fraction"]
        n_train = int(math.floor(frac * n_normal))
        n_val = n_normal - n_train
        batch = cfg.data["train"]["batch_size"]
        epochs = scale["central_epochs"]
        return {"cfg": cfg, "n_train": n_train,
                "n_eval": n_val + min(n_val, n_attack), "epochs": epochs,
                "steps": epochs * math.ceil(n_train / batch)}

    def job(self, st: dict, out: Path) -> JobResult:
        report, model = harness.run_centralized(st["cfg"])
        harness.emit_report(report, out)
        harness.save_model(model, out / "model")
        return report, model

    def result(self, st: dict, raw, out: Path) -> JobResult:
        report, model = raw
        m = report.metrics
        check(len(report.epoch_losses) == st["epochs"],
              f"{len(report.epoch_losses)} epoch losses, expected "
              f"{st['epochs']}")
        check(report.confusion.total == st["n_eval"],
              f"scored {report.confusion.total} evaluation rows, expected "
              f"{st['n_eval']}")
        check(m.recall is not None and m.recall >= MIN_RECALL,
              f"recall {m.recall} below {MIN_RECALL}")
        check(m.fp_rate is not None and m.fp_rate <= MAX_FP_RATE,
              f"FP rate {m.fp_rate} above {MAX_FP_RATE}")
        _check_emitted(report, out)
        check((out / "model" / "model.npz").stat().st_size > 0,
              "saved model is empty")
        counts = {"epochs": len(report.epoch_losses),
                  "rows_scored": st["n_train"] + report.confusion.total}
        flat = pack(model.params)
        return JobResult(
            fingerprint=fingerprint(flat, {
                "metrics": harness.metrics_payload(report),
                "losses": [float(x) for x in report.epoch_losses],
                "counts": counts}),
            counts=counts,
            quality=_quality(m, report.epoch_losses[-1]),
            train_row_epochs=st["epochs"] * st["n_train"],
            rows_scored=counts["rows_scored"])

    def expected_trace(self, st: dict, job: JobResult) -> dict:
        return {"autoencoder.train_steps": st["steps"],
                "autoencoder.reconstruction_errors.rows":
                    st["n_train"] + st["n_eval"]}


# ---------------------------------------------------------------------------
class FedRounds:
    name = "fed-rounds"
    reference = (480, 0, 24000)   # training, more scoring than central

    def setup(self, seed: int, work: Path, scale: dict) -> dict:
        cfg = config.build_config({
            "mode": "federated",
            "seed": FIXED_SEED,
            "dataset": {"synth": dict(scale["synth"])},
            "federation": {"n_clients": FED_CLIENTS,
                           "rounds": scale["fed_rounds"],
                           "epochs_per_round": 1, "alpha": 1.0,
                           "latency": FED_LATENCY},
            "strategy": {"kind": "fedavg",
                         "sample_fraction": FED_SAMPLE_FRACTION},
        })
        clients = harness.prepare_clients(cfg)
        n_params = sum(s.out_dim * s.in_dim + s.out_dim
                       for s in cfg.model_config().layer_specs())
        return {"cfg": cfg,
                "n_train": {c.client_id: c.n_samples for c in clients},
                "n_eval": sum(c.val.shape[0] + c.attack.shape[0]
                              for c in clients),
                "batch": cfg.data["train"]["batch_size"],
                "n_params": n_params,
                "latency": cfg.latency_model(),
                "rounds": scale["fed_rounds"]}

    def job(self, st: dict, out: Path) -> JobResult:
        report, model, result = harness.run_federated_experiment(st["cfg"])
        harness.emit_report(report, out)
        return report, model, result

    def result(self, st: dict, raw, out: Path) -> JobResult:
        report, model, result = raw
        cfg = st["cfg"]
        n_sample = math.ceil(FED_SAMPLE_FRACTION * FED_CLIENTS)
        check(len(result.rounds) == st["rounds"],
              f"{len(result.rounds)} rounds, expected {st['rounds']}")
        sampled = arrived = carried = steps = row_epochs = scored = 0
        for tr in result.rounds:
            check(len(tr.records) == FED_CLIENTS,
                  f"round {tr.round_index} has {len(tr.records)} records")
            ids = [r.client_id for r in tr.records if r.sampled]
            came = [r.client_id for r in tr.records if r.participated]
            check(len(ids) == n_sample,
                  f"round {tr.round_index} sampled {len(ids)} clients, "
                  f"expected {n_sample}")
            _, expect = federation.assign_latencies(
                st["latency"], ids, tr.round_index, cfg.seed)
            check(came == expect,
                  f"round {tr.round_index}: arrived {came}, the latency "
                  f"model admits {expect}")
            check(3 <= len(came) <= n_sample,
                  f"round {tr.round_index}: {len(came)} updates arrived")
            # min_participation is unset, so it is min(2, clients) = 2
            check(tr.carried_forward == (len(came) < 2),
                  f"round {tr.round_index}: carry-forward flag is wrong")
            check(tr.pooled_confusion is not None
                  and tr.pooled_confusion.total == st["n_eval"],
                  f"round {tr.round_index} evaluated "
                  f"{tr.pooled_confusion and tr.pooled_confusion.total} "
                  f"rows, expected {st['n_eval']}")
            sampled += len(ids)
            arrived += len(came)
            carried += int(tr.carried_forward)
            steps += sum(math.ceil(st["n_train"][k] / st["batch"])
                         for k in came)
            trained = sum(st["n_train"][k] for k in came)
            row_epochs += trained
            # calibration on each arrived client's train rows, then the
            # global model's evaluation on every client
            scored += trained + tr.pooled_confusion.total
        check(report.detector_source == detector.SOURCE_ROUND_MIN,
              f"detector source {report.detector_source}")
        check(len(result.collected_thresholds) == arrived,
              f"{len(result.collected_thresholds)} thresholds for "
              f"{arrived} updates")
        _check_emitted(report, out)
        check((out / "round_trace.csv").stat().st_size > 0,
              "emitted round_trace.csv is empty")
        last = [r.local_loss for r in result.rounds[-1].records
                if r.local_loss is not None]
        bytes_per_update = 8 * st["n_params"]
        counts = {
            "updates_sampled": sampled,
            "updates_arrived": arrived,
            "updates_dropped": sampled - arrived,
            "rounds_carried": carried,
            "uplink_bytes": bytes_per_update * arrived,
            "downlink_bytes": bytes_per_update * sampled,
            "train_steps": steps,
            "rows_scored": scored,
        }
        flat = pack(model.params)
        return JobResult(
            fingerprint=fingerprint(flat, {
                "metrics": harness.metrics_payload(report),
                "thresholds": [float(t) for t in result.collected_thresholds],
                "counts": counts}),
            counts=counts,
            quality=_quality(report.metrics, float(np.mean(last))),
            train_row_epochs=row_epochs,
            rows_scored=scored)

    def expected_trace(self, st: dict, job: JobResult) -> dict:
        c = job.counts
        return {"autoencoder.train_steps": c["train_steps"],
                "autoencoder.reconstruction_errors.rows": c["rows_scored"],
                "federation.local_round.calls": c["updates_arrived"],
                "federation.fedavg_aggregate.calls":
                    st["rounds"] - c["rounds_carried"]}


# ---------------------------------------------------------------------------
def _schema_path() -> Path:
    return Path(dataplane.__file__).parent / "schemas" / "edge_iiotset.json"


def write_flows(path: Path, features: np.ndarray, is_attack: np.ndarray,
                schema, rng: np.random.Generator, n_bad: int) -> dict:
    """Write raw flows in the Edge-IIoTset column layout.

    `features` has N_NUMERIC numeric columns followed by one column per
    categorical field, all in (-1, 1); a numeric column is written as a
    scaled integer and a categorical column picks a vocabulary entry by
    value. `n_bad` rows, drawn from `rng`, get one
    unparseable numeric cell. Returns the counts a reader must reproduce.
    """
    n = features.shape[0]
    cats = list(schema.categorical)
    check(features.shape[1] == N_NUMERIC + len(cats),
          "flow generator width does not match the schema")
    # Integer cells (counts, lengths, ports), 200 to 2e6 levels per column.
    scales = 10.0 ** (2 + np.arange(N_NUMERIC) % 5)
    numeric = (np.rint((features[:, :N_NUMERIC] + 1.0) * scales)
               .astype(np.int64).T.tolist())
    bad_rows = np.sort(rng.choice(n, size=n_bad, replace=False))
    bad_cols = rng.integers(0, N_NUMERIC, size=n_bad)
    bad_tokens = rng.integers(0, len(BAD_CELLS), size=n_bad)
    for r, c, t in zip(bad_rows, bad_cols, bad_tokens):
        numeric[c][r] = BAD_CELLS[t]
    categorical = []
    for j, col in enumerate(cats):
        vocab = np.array(schema.categorical[col], dtype=object)
        pick = ((features[:, N_NUMERIC + j] + 1.0) * 0.5 * len(vocab))
        categorical.append(vocab[np.clip(pick.astype(int), 0, len(vocab) - 1)])
    attack_type = np.where(
        is_attack,
        np.array(ATTACK_TYPES, dtype=object)[
            rng.integers(0, len(ATTACK_TYPES), size=n)],
        schema.normal_value)
    idx = np.arange(n)
    drops = {c: np.full(n, "0", dtype=object) for c in schema.drop_columns}
    drops["frame.time"] = np.char.mod("2021 11 22 10:%05d", idx).astype(object)
    drops["ip.src_host"] = np.char.mod("192.168.0.%d",
                                       idx % 250).astype(object)
    drops["ip.dst_host"] = np.char.mod("10.0.0.%d", idx % 97).astype(object)
    drops["Attack_label"] = np.where(is_attack, "1", "0").astype(object)
    header = [*drops, *[f"num{j:02d}" for j in range(N_NUMERIC)], *cats,
              schema.label_column]
    columns = [*drops.values(), *numeric, *categorical, attack_type]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))
    good = np.ones(n, dtype=bool)
    good[bad_rows] = False
    return {"rows": n, "skipped": int(n_bad),
            "rows_read": int(good.sum()),
            "attacks_read": int((is_attack & good).sum())}


class IngestScore:
    name = "ingest-score"
    reference = (0, 20000, 32000)   # CSV parsing, then scoring

    def setup(self, seed: int, work: Path, scale: dict) -> dict:
        schema = dataplane.SchemaConfig.from_file(_schema_path())
        width = N_NUMERIC + len(schema.categorical)
        n_ref_n, n_ref_a = scale["ref_normal"], scale["ref_attack"]
        population = dataplane.synth_generate(dataplane.SynthSpec(
            n_normal=n_ref_n + scale["pool_normal"],
            n_attack=n_ref_a + scale["pool_attack"],
            dim=width, seed=FIXED_SEED))
        attack = population.is_attack
        normal_idx = np.flatnonzero(~attack)
        attack_idx = np.flatnonzero(attack)
        ref = np.concatenate([normal_idx[:n_ref_n], attack_idx[:n_ref_a]])
        rng = numerics.derive_rng(seed)
        flows = np.concatenate([
            rng.choice(normal_idx[n_ref_n:], scale["flows_normal"],
                       replace=False),
            rng.choice(attack_idx[n_ref_a:], scale["flows_attack"],
                       replace=False)])
        flows = flows[rng.permutation(flows.size)]

        ref_csv = work / "reference_flows.csv"
        write_flows(ref_csv, population.features[ref], attack[ref], schema,
                    numerics.derive_rng(FIXED_SEED), 0)
        cfg = config.build_config({
            "seed": FIXED_SEED,
            "dataset": {"kind": "csv", "path": str(ref_csv),
                        "schema": str(_schema_path())},
            "train": {"epochs": scale["ref_epochs"]},
        })
        report, model = harness.run_centralized(cfg)
        model_dir = work / "reference_model"
        harness.save_model(model, model_dir)

        flows_csv = work / "new_flows.csv"
        n_bad = int(round(BAD_ROW_SHARE * flows.size))
        expect = write_flows(flows_csv, population.features[flows],
                             attack[flows], schema, rng, n_bad)
        return {"schema": schema, "model_dir": model_dir, "csv": flows_csv,
                "expect": expect,
                "ref_final_loss": float(report.epoch_losses[-1])}

    def job(self, st: dict, out: Path) -> JobResult:
        model = harness.load_model(st["model_dir"])
        t0 = perf_counter()
        ds, skipped = dataplane.load_csv(st["csv"], st["schema"])
        ingest_s = perf_counter() - t0
        x = dataplane.apply_scaler(model.scaler, ds.features)
        errors = autoencoder.reconstruction_errors(model.params, x)
        pred = detector.classify(model.detector, errors)
        cm = detector.confusion(pred, ds.is_attack)
        m = detector.metrics(cm)
        return model, ds, skipped, errors, cm, m, ingest_s

    def result(self, st: dict, raw, out: Path) -> JobResult:
        model, ds, skipped, errors, cm, m, ingest_s = raw
        e = st["expect"]
        check(skipped == e["skipped"],
              f"skipped {skipped} rows, injected {e['skipped']}")
        check(len(ds) == e["rows_read"],
              f"read {len(ds)} rows, expected {e['rows_read']}")
        check(int(ds.is_attack.sum()) == e["attacks_read"],
              f"read {int(ds.is_attack.sum())} attack rows, expected "
              f"{e['attacks_read']}")
        check(errors.shape == (len(ds),),
              f"scored {errors.shape} rows, expected {len(ds)}")
        check(cm.total == len(ds), f"confusion covers {cm.total} rows")
        counts = {"rows_read": len(ds), "skipped": skipped,
                  "rows_scored": int(errors.shape[0])}
        return JobResult(
            fingerprint=fingerprint(pack(model.params), {
                "metrics": asdict(m), "confusion": asdict(cm),
                "counts": counts}),
            counts=counts,
            quality=_quality(m, st["ref_final_loss"]),
            train_row_epochs=0,
            rows_scored=counts["rows_scored"],
            rows_read=len(ds),
            ingest_s=ingest_s)

    def expected_trace(self, st: dict, job: JobResult) -> dict:
        return {"dataplane.load_csv.rows": st["expect"]["rows_read"],
                "dataplane.load_csv.skipped": st["expect"]["skipped"],
                "autoencoder.reconstruction_errors.rows":
                    st["expect"]["rows_read"],
                "autoencoder.train_steps": 0}


WORKLOADS = {w.name: w for w in (CentralTrain(), FedRounds(), IngestScore())}
