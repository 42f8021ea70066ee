"""fedanom benchmark: one workload per invocation, closed loop, one client.

Run from the repository root:

    python3 perfbench/run.py --workload central-train --seed 1 \
        --seconds 20 --trace 0

Workloads (see workloads.py): central-train, fed-rounds, ingest-score.
Each invocation times the fixed reference computation of reference.py (CPU
seconds), then SETUP_REPS times a fresh-interpreter import and a set-up,
each followed by the reference again, then runs whole jobs back to back,
untraced, until --seconds have passed, with the reference timed after each
one. cpu_rel is the median over jobs of a job's CPU time divided by the
mean of the two reference timings around it; setup_s is the same median
over repetitions of the import's and set-up's CPU time, that is set-up time
in reference-seconds (seconds on a machine where the workload's reference
takes one CPU second). CPU time leaves out the time the process waits for a
core, and the ratio cancels a drift in the core's own speed, so neighbours
on a shared host move these two little; raw CPU and wall times are reported
too. Then one more job runs with every public fedanom function wrapped by
the tracer. Every job's outputs are checked, and every job must give the
same result fingerprint. The traced job's counted work is checked against
the inputs.

Output: readable lines, then as the last line one JSON object with the
keys correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end ones (measured untraced); with --trace 1 the per-layer ones
(from the traced job and the traced last set-up). Full results go to
.perfbench-out/<workload>-seed<n>-<scale>/report.json, and with --trace 1
the spans of the traced job and set-up to spans.json beside it.
"""
from __future__ import annotations

import argparse
import collections
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
# One BLAS thread: at two, scoring 52k rows took 0.76 s against 0.41 s.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 5

# name -> (unit, better); mirrors BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "cpu_rel": ("ratio", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "f_measure": ("ratio", "higher"),
    "fp_rate": ("ratio", "lower"),
    "final_loss": ("loss", "lower"),
}

# Per-function figures from the traced job: span name -> fields.
FUNCTION_FIELDS = {
    "numerics.loss_and_gradients": ("s", "calls"),
    "numerics.adam_step": ("s", "calls"),
    "numerics.unpack": ("s", "calls"),
    "numerics.make_dropout_mask": ("s", "calls"),
    "numerics.feed_forward": ("s", "rows"),
    "numerics.pack": ("s", "calls"),
    "autoencoder.train_epochs": ("s", "self_s"),
    "autoencoder.reconstruction_errors": ("s", "rows", "calls"),
    "dataplane.load_csv": ("s", "rows", "skipped"),
    "dataplane.synth_generate": ("s",),
    "dataplane.fit_scaler": ("s",),
    "dataplane.apply_scaler": ("s",),
    "dataplane.split_by_label": ("s",),
    "dataplane.train_val_split": ("s",),
    "dataplane.dirichlet_partition": ("s",),
    "detector.compute_threshold": ("s", "calls"),
    "detector.classify": ("s", "calls"),
    "detector.confusion": ("s", "calls"),
    "detector.metrics": ("s", "calls"),
    "federation.local_round": ("s", "calls"),
    "federation.fedavg_aggregate": ("s", "calls"),
    "harness.prepare_centralized": ("s",),
    "harness.prepare_clients": ("s",),
    "harness.emit_report": ("s",),
    "harness.save_model": ("s",),
    "harness.load_model": ("s",),
}
FEDERATION_COUNTS = ("updates_sampled", "updates_arrived", "updates_dropped",
                     "rounds_carried", "uplink_bytes", "downlink_bytes")


def unit_of(name: str) -> tuple[str, str]:
    """Unit and better-direction of a per-layer metric, from its name."""
    if name.endswith("_bytes"):
        return "bytes_computed", "lower"
    if name.endswith("_per_s"):
        return "rows/s", "higher"
    if name == "federation.arrived_share":
        return "ratio", "higher"
    if name == "federation.updates_arrived":
        return "count", "higher"
    last = name.rsplit(".", 1)[-1]
    if last == "s" or last.startswith("s_") or last.endswith("_s"):
        return "s", "lower"
    return "count", "lower"


def per_layer_names(tracer_mod) -> list[str]:
    names = [f"{fn}.{f}" for fn, fields in FUNCTION_FIELDS.items()
             for f in fields]
    names += ["autoencoder.train_steps", "autoencoder.step_s",
              "federation.local_round.s_p50", "federation.local_round.s_tail"]
    names += [f"federation.{c}" for c in FEDERATION_COUNTS]
    names += ["federation.arrived_share"]
    names += [f"{layer}.self_s" for layer in tracer_mod.LAYERS]
    names += [f"stage.{s}.s" for s in tracer_mod.STAGES]
    names += [f"setup.{s}.s" for s in tracer_mod.STAGES]
    names += ["setup.import_s", "wall_s", "cpu_s", "ref_cpu_s",
              "score_rows_per_s",
              "train_rows_per_s", "ingest_rows_per_s",
              "trace.wall_s", "trace.overhead_s", "trace.spans"]
    return names


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def environment(numpy) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas_version, "blas_threads": BLAS_THREADS,
            "nproc": len(os.sched_getaffinity(0))}


def children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def time_import(src: Path) -> float:
    """CPU seconds a fresh interpreter takes to start and import fedanom."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}
    before = children_cpu()
    subprocess.run([sys.executable, "-c", "import numpy, fedanom.harness"],
                   env=env, check=True, timeout=120)
    return children_cpu() - before


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("central-train", "fed-rounds", "ingest-score"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="input sizes; tiny is for the self-check")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "fedanom" / "__init__.py").is_file():
        print(f"perfbench: fedanom sources not found under {src}",
              file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))

    import numpy
    import reference
    import tracer as tracer_mod
    import workloads
    if not Path(workloads.harness.__file__).resolve().is_relative_to(src):
        print(f"perfbench: imported fedanom from {workloads.harness.__file__}"
              f", not from {src}", file=sys.stderr)
        return 2

    w = workloads.WORKLOADS[args.workload]
    scale = workloads.SCALES[args.scale]
    out = OUT / f"{args.workload}-seed{args.seed}-{args.scale}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    ref = reference.Reference(*w.reference)
    ref.run()  # warm-up

    def time_ref() -> float:
        t = process_time()
        ref.run()
        return process_time() - t

    # -- set-up, SETUP_REPS times, each between two reference timings; ----
    # -- with --trace 1 the last one is traced ----------------------------
    import_times = []
    setup_times = []
    setup_ref_cpus = [time_ref()]
    setup_tracer = None
    for rep in range(SETUP_REPS):
        import_times.append(time_import(src))
        work = out / f"setup{rep}"
        work.mkdir()
        scope = contextlib.nullcontext()
        if args.trace == 1 and rep == SETUP_REPS - 1:
            setup_tracer = tracer_mod.Tracer()
            scope = setup_tracer.session(workloads.LAYER_MODULES,
                                         "bench.setup")
        t = process_time()
        with scope:
            st = w.setup(args.seed, work, scale)
        setup_times.append(process_time() - t)
        setup_ref_cpus.append(time_ref())
        if rep:
            shutil.rmtree(out / f"setup{rep - 1}")
    import_s = statistics.median(import_times)
    # CPU seconds of each set-up over the mean of the reference timings on
    # either side: set-up time in reference-seconds.
    setup_rel = [(imp + cpu) / (0.5 * (before + after))
                 for imp, cpu, before, after in zip(
                     import_times, setup_times, setup_ref_cpus,
                     setup_ref_cpus[1:])]

    # -- closed loop of untraced jobs --------------------------------------
    attempted = failed = 0
    errors: list[str] = []
    walls: list[float] = []
    cpus: list[float] = []
    cpu_rels: list[float] = []
    # Peak RSS after set-up and the first job: later jobs only add
    # allocator noise, which moved it by 6% between identical runs.
    peak_rss_mb = None
    results = []

    def record(res) -> None:
        if results and res.fingerprint != results[0].fingerprint:
            raise workloads.CheckError(
                f"fingerprint {res.fingerprint[:16]} differs from "
                f"{results[0].fingerprint[:16]}")
        results.append(res)

    def fail(err: Exception) -> None:
        nonlocal failed
        failed += 1
        errors.append(f"{type(err).__name__}: {err}")
        if len(errors) == 1:
            traceback.print_exc(file=sys.stderr)

    deadline = perf_counter() + args.seconds
    ref_cpus = [time_ref()]
    while True:
        attempted += 1
        job_cpu = None
        try:
            t, c = perf_counter(), process_time()
            raw = w.job(st, out / "job")
            wall, cpu = perf_counter() - t, process_time() - c
            record(w.result(st, raw, out / "job"))
            walls.append(wall)
            cpus.append(cpu)
            job_cpu = cpu
            if peak_rss_mb is None:
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
        except Exception as err:  # a failed job is counted, not fatal
            fail(err)
        raw = None
        ref_cpus.append(time_ref())
        if job_cpu is not None:
            cpu_rels.append(job_cpu / (0.5 * (ref_cpus[-2] + ref_cpus[-1])))
        if perf_counter() >= deadline:
            break

    # -- one traced job ----------------------------------------------------
    tracer = tracer_mod.Tracer()
    attempted += 1
    root = None
    try:
        with tracer.session(workloads.LAYER_MODULES, "bench.job") as root:
            raw = w.job(st, out / "traced")
        traced_res = w.result(st, raw, out / "traced")
        record(traced_res)
    except Exception as err:  # a failed job is counted, not fatal
        fail(err)
        traced_res = None
    raw = None

    correct = failed == 0 and bool(walls)
    wall = statistics.median(walls) if walls else 0.0
    per_fn = tracer.per_function()
    layer = {}
    if traced_res is not None:
        layer = per_layer(tracer_mod, tracer, root, per_fn, traced_res,
                          setup_tracer, import_s, walls, cpus, ref_cpus,
                          results)
        wrong = [f"traced count {name} = {layer[name]}, expected {want}"
                 for name, want in w.expected_trace(st, traced_res).items()
                 if layer[name] != want]
        if wrong:
            correct = False
            failed += 1
            errors.extend(wrong)

    e2e = {}
    extra = {}
    if walls:
        res = results[0]
        e2e = {
            "setup_s": statistics.median(setup_rel),
            "cpu_rel": statistics.median(cpu_rels),
            "peak_rss_mb": peak_rss_mb,
            **res.quality,
        }
        extra = {
            "setup_cpu_s": import_s + statistics.median(setup_times),
            "wall_s": wall,
            "wall_s_min": min(walls),
            "wall_s_p90": percentile(walls, 0.9),
            "cpu_s": statistics.median(cpus),
            "ref_cpu_s": statistics.median(ref_cpus),
            "score_rows_per_s": res.rows_scored / wall,
            "train_rows_per_s": res.train_row_epochs / wall,
            "ingest_rows_per_s": ingest_rate(results),
            "fail_share": failed / attempted,
        }

    env = environment(numpy)
    report = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "seconds": args.seconds, "env": env,
        "fingerprint": results[0].fingerprint if results else None,
        "counts": results[0].counts if results else None,
        "job_walls_s": walls, "job_cpu_s": cpus, "ref_cpu_s_each": ref_cpus,
        "cpu_rel_each": cpu_rels,
        "setup_s_each": setup_times, "import_s_each": import_times,
        "setup_ref_cpu_s_each": setup_ref_cpus,
        "end_to_end": e2e, "extra": extra, "per_layer": layer,
        "errors": errors,
        "attempted": attempted, "failed": failed,
    }
    (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    if args.trace == 1:
        spans = {"job": tracer.spans(), "setup": setup_tracer.spans()}
        (out / "spans.json").write_text(json.dumps(spans) + "\n")
    shutil.rmtree(out / f"setup{SETUP_REPS - 1}", ignore_errors=True)

    print_report(args, env, report, walls)
    if args.trace == 1:
        metrics = {k: {"value": v, "unit": unit_of(k)[0]}
                   for k, v in layer.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k][0]}
                   for k, v in e2e.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def ingest_rate(results) -> float:
    """Rows read per second of the fastest load_csv call; 0 without one."""
    rates = [r.rows_read / r.ingest_s for r in results if r.ingest_s > 0]
    return max(rates, default=0.0)


def per_layer(tracer_mod, tracer, root, per_fn, res, setup_tracer,
              import_s, walls, cpus, ref_cpus, results) -> dict:
    """Every per-layer metric, from the traced job and traced set-up."""
    out = {}
    for fn, fields in FUNCTION_FIELDS.items():
        row = per_fn.get(fn, {})
        for f in fields:
            out[f"{fn}.{f}"] = row.get(f, 0)
    # one loss_and_gradients call per training batch
    steps = per_fn.get("numerics.loss_and_gradients", {}).get("calls", 0)
    out["autoencoder.train_steps"] = steps
    out["autoencoder.step_s"] = (
        per_fn["autoencoder.train_epochs"]["s"] / steps if steps else 0.0)
    rounds = per_fn.get("federation.local_round", {}).get("durations", [])
    out["federation.local_round.s_p50"] = percentile(rounds, 0.5)
    out["federation.local_round.s_tail"] = percentile(rounds, 0.9)
    for c in FEDERATION_COUNTS:
        out[f"federation.{c}"] = res.counts.get(c, 0)
    sampled = res.counts.get("updates_sampled", 0)
    out["federation.arrived_share"] = (
        res.counts["updates_arrived"] / sampled if sampled else 0.0)
    for name, s in tracer.per_layer_self().items():
        out[f"{name}.self_s"] = s
    for name, s in tracer.stage_seconds(root).items():
        out[f"stage.{name}.s"] = s
    setup_stages = (setup_tracer.stage_seconds(0) if setup_tracer
                    else dict.fromkeys(tracer_mod.STAGES, 0.0))
    for name, s in setup_stages.items():
        out[f"setup.{name}.s"] = s
    out["setup.import_s"] = import_s
    wall = statistics.median(walls) if walls else 0.0
    out["wall_s"] = wall
    out["cpu_s"] = statistics.median(cpus) if cpus else 0.0
    out["ref_cpu_s"] = statistics.median(ref_cpus)
    out["score_rows_per_s"] = res.rows_scored / wall if wall else 0.0
    out["train_rows_per_s"] = res.train_row_epochs / wall if wall else 0.0
    out["ingest_rows_per_s"] = ingest_rate(results)
    traced_wall = tracer.ends[root] - tracer.starts[root]
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - wall
    out["trace.spans"] = len(tracer.names)
    return {name: out[name] for name in per_layer_names(tracer_mod)}


def print_report(args, env, report, walls) -> None:
    print(f"# fedanom benchmark: workload={args.workload} seed={args.seed} "
          f"scale={args.scale} seconds={args.seconds:g} trace={args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# jobs: {len(walls)} untraced + 1 traced, closed loop, one "
          f"client; attempted={report['attempted']} "
          f"failed={report['failed']}; wall_s and cpu_s are medians over "
          f"untraced jobs; cpu_rel is the median job CPU / reference CPU")
    print(f"# fingerprint {report['fingerprint']}")
    print(f"# counts {json.dumps(report['counts'], sort_keys=True)}")
    for err, n in collections.Counter(report["errors"]).items():
        print(f"# FAILED x{n}: {err}")
    for name, value in report["end_to_end"].items():
        unit = END_TO_END[name][0]
        print(f"{name:<24} {value:>16.6g} {unit}")
    for name, value in report["extra"].items():
        unit = {"fail_share": "ratio", "setup_cpu_s": "s",
                "wall_s": "s", "wall_s_min": "s",
                "wall_s_p90": "s", "cpu_s": "s",
                "ref_cpu_s": "s"}.get(name, "rows/s")
        shown = "n/a" if value == 0 and unit == "rows/s" else f"{value:.6g}"
        print(f"{name:<24} {shown:>16} {unit}")
    if args.trace == 1:
        for name, value in report["per_layer"].items():
            print(f"{name:<40} {value:>16.6g} {unit_of(name)[0]}")


if __name__ == "__main__":
    sys.exit(main())
