"""Seeded golden cases, run in a child process by test_golden.py.

    python tests/golden_cases.py WORKDIR

Runs six small seeded experiments through the `fedanom` CLI inside WORKDIR
and prints one JSON object: the env line (Python, numpy, BLAS, BLAS
threads, nproc) and one SHA-256 digest per case. A training case's digest
covers the final parameter bytes and the emitted `metrics.json`,
`round_trace.csv` and `per_client_metrics.json` (those the run writes);
the partition case's covers the bytes of `partition.json`.

Every path a config names is relative to WORKDIR, so config fingerprints,
and with them the emitted files, do not depend on where WORKDIR is.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import sys
from pathlib import Path

import numpy as np

from fedanom.cli import main
from fedanom.dataplane import SchemaConfig

HASHED = ("metrics.json", "round_trace.csv", "per_client_metrics.json")

BASE = {
    "seed": 7,
    "dataset": {"synth": {"n_normal": 400, "n_attack": 80, "dim": 8,
                          "displacement": 2.0, "seed": 5}},
    "model": {"input_dim": 8, "hidden_dims": [6, 4], "bottleneck_dim": 2,
              "dropout_p": 0.1},
    "train": {"epochs": 4},
}
FEDERATION = {"n_clients": 4, "rounds": 4, "epochs_per_round": 2}

CASES = {
    "centralized": ("train", BASE),
    # 3 of 4 clients sampled per round; client 1 misses the deadline
    # whenever it is sampled
    "fedavg_sampled_drop": ("train", {
        **BASE, "mode": "federated",
        "federation": {**FEDERATION,
                       "latency": {"delays": {1: 5.0}, "drop_after": 1.0}},
        "strategy": {"kind": "fedavg", "sample_fraction": 0.75}}),
    "qffl_q05": ("train", {
        **BASE, "mode": "federated", "federation": FEDERATION,
        "strategy": {"kind": "qffl", "q": 0.5, "lipschitz": 0.01}}),
    # client 0 misses rounds 2 and 4, so participation shrinks and
    # FairFedAvg damps those rounds
    "fairfedavg_straggler": ("train", {
        **BASE, "mode": "federated",
        "federation": {**FEDERATION,
                       "latency": {"per_round": {2: {0: 9.0}, 4: {0: 9.0}},
                                   "drop_after": 1.0}},
        "strategy": {"kind": "fairfedavg"}}),
}

PARTITION = {**BASE, "mode": "federated",
             "federation": {"n_clients": 6, "alpha": 0.3}}

CSV_CONFIG = {
    "seed": 7,
    "dataset": {"path": "flows.csv", "schema": "schema.json"},
    "model": {"input_dim": 66, "hidden_dims": [16], "bottleneck_dim": 4},
    "train": {"epochs": 3},
}


def env_line() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return (f"python={platform.python_version()} numpy={np.__version__} "
            f"blas={blas_version} "
            f"blas_threads={os.environ.get('OPENBLAS_NUM_THREADS')} "
            f"nproc={len(os.sched_getaffinity(0))}")


def cli(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    if code != 0:
        raise SystemExit(f"fedanom {' '.join(argv)} exited {code}")


def write_config(name: str, data: dict) -> str:
    path = Path(f"{name}.yaml")
    path.write_text(json.dumps(data))  # YAML is a superset of JSON
    return str(path)


def run_digest(run_dir: Path, model_dir: Path) -> str:
    h = hashlib.sha256()
    with np.load(model_dir / "model.npz") as arrays:
        h.update(arrays["flat"].tobytes())
    for name in HASHED:
        path = run_dir / name
        if path.exists():
            h.update(name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def write_flows(path: Path, schema: SchemaConfig, n_normal: int = 300,
                n_attack: int = 60, seed: int = 3) -> None:
    """Raw flows in the shipped schema's layout, with one unparseable
    numeric cell and one categorical value outside its vocabulary."""
    rng = np.random.default_rng(seed)
    cats = list(schema.categorical)
    n_numeric = schema.expected_width - sum(
        len(v) for v in schema.categorical.values())
    header = [*schema.drop_columns, *(f"num{j:02d}" for j in range(n_numeric)),
              *cats, schema.label_column]
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(n_normal + n_attack):
            attack = i >= n_normal
            numeric = rng.normal(size=n_numeric) * (1.0 + (i % 7))
            if attack:
                numeric[: n_numeric // 3] += 6.0
            cells = ["0"] * len(schema.drop_columns)
            cells += [f"{v:.6f}" for v in numeric]
            cells += [schema.categorical[c][int(rng.integers(
                len(schema.categorical[c])))] for c in cats]
            cells.append("DDoS_UDP" if attack else schema.normal_value)
            if i == 5:
                cells[len(schema.drop_columns)] = "oops"
            if i == 9:
                cells[-2] = "unseen"
            fh.write(",".join(cells) + "\n")


def main_cases(workdir: Path) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(workdir)
    digests = {}
    for name, (command, data) in CASES.items():
        cli(command, "--config", write_config(name, data), "--out", name)
        digests[name] = run_digest(Path(name), Path(name) / "model")

    cli("partition", "--config", write_config("partition", PARTITION),
        "--out", "partition")
    digests["partition"] = hashlib.sha256(
        Path("partition/partition.json").read_bytes()).hexdigest()

    shipped = Path(sys.modules["fedanom"].__file__).parent / "schemas"
    shutil.copy(shipped / "edge_iiotset.json", "schema.json")
    write_flows(Path("flows.csv"), SchemaConfig.from_file("schema.json"))
    config = write_config("csv", CSV_CONFIG)
    cli("train", "--config", config, "--out", "csv-train")
    cli("evaluate", "--config", config, "--model", "csv-train/model",
        "--out", "csv-eval")
    digests["csv_evaluate"] = run_digest(Path("csv-eval"),
                                         Path("csv-train/model"))
    return {"env": env_line(), "digests": digests}


if __name__ == "__main__":
    print(json.dumps(main_cases(Path(sys.argv[1]).resolve())))
