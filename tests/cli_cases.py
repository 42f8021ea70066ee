"""The CLI's error cases, each declared once, as one row of `CASES`.

    python tests/cli_cases.py COMMAND...

A row is a case's name, its argv, the stderr line it expects after
`error: ` (exact, or a pattern for the rest of the line), and the files it
writes in a fresh directory of its own: text, bytes, or a function of the
path. A row with a `base` mode also gets that mode's base config as
`c.yaml` and a copy of the run `fedanom train` wrote with it as `run/`,
which its functions may edit. Each case must exit 2 with that one stderr
line, no `Traceback`, and no `--out` directory left behind.

tests/test_config_cli.py runs each row in-process through `cli.main`. Run
as a script, this module runs every row with COMMAND (CI passes the
installed `fedanom` console script) under the current directory, prints
each stderr line and exits 1 if any row fails.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np
import yaml

from fedanom.cli import main


class Case(NamedTuple):
    name: str
    argv: str  # split at whitespace
    expect: str | re.Pattern  # the stderr line after "error: "
    files: dict = {}  # path: text, bytes, or a function of the path
    base: str | None = None  # the mode of the base run copied to run/


def tiny(**sections) -> str:
    """YAML of a tiny config (380 synthetic rows of 8 features, a
    190-parameter model, 4 epochs; 2 clients, 2 rounds of 2 epochs), each
    of `sections` updating its section."""
    cfg = {"seed": 7,
           "dataset": {"synth": {"n_normal": 300, "n_attack": 80, "dim": 8,
                                 "displacement": 2.0, "seed": 5}},
           "model": {"input_dim": 8, "hidden_dims": [6, 4],
                     "bottleneck_dim": 2, "dropout_p": 0.1},
           "train": {"epochs": 4},
           "federation": {"n_clients": 2, "rounds": 2, "epochs_per_round": 2}}
    for key, value in sections.items():
        cfg[key] = ({**cfg.get(key, {}), **value} if isinstance(value, dict)
                    else value)
    return yaml.safe_dump(cfg)


FED = {"mode": "federated", "strategy": {"kind": "fairfedavg"}}
BASES = {"centralized": tiny(), "federated": tiny(**FED)}
COMMANDS = ("synth", "partition", "train", "evaluate", "report")
EVALUATE = "evaluate --config c.yaml --model run/model --out out"
BIG_INT = 10 ** 400  # 401 digits, beyond float range
DROP = object()  # a key `keys` sets to DROP is deleted
NO_FLOAT = "got an int that does not fit a float"
COUNTS = "expected one row of 4 non-negative integer counts, got"
NOT_ARCHIVE = "expected an .npz archive"
NOT_FINITE = "expected a 1-d array of finite numbers"
WIDTHS = "expected {} values for the layers in model.json, got {}"
ACTIVATION = ("layer {}: activation must be one of relu | tanh | identity, "
              "got 'gelu'")
NAN_ERRORS = "client 0: reconstruction errors contain non-finite values"
LIPSCHITZ_UNSET = ("strategy.lipschitz: must be set for qffl at q = 0.5 > 0; "
                   "the 1/learning_rate default assumes SGD local steps, and "
                   "local steps use Adam")
TOO_MANY = "federation.n_clients: 1000 clients cannot split 380 records"
OTHER_WIDTH = ("saved model input width 8 does not match the config's "
               "dataset width 9")
FIELD_LIMIT = f"field larger than field limit ({csv.field_size_limit()})"
LONG_FIELD = "x" * (csv.field_size_limit() + 1) + "\n"
# the round-2 softmax share of the late client's round underflows to 0
RELEVANCE_UNDERFLOW = tiny(
    mode="federated", model={"dropout_p": 0.2},
    dataset={"synth": {"n_normal": 400, "n_attack": 80, "dim": 8,
                       "displacement": 2.0, "seed": 42}},
    federation={"n_clients": 4, "rounds": 3, "epochs_per_round": 1,
                "latency": {"per_round": {2: {0: 5.0}}, "drop_after": 1.0}},
    strategy={"kind": "fairfedavg", "lipschitz": 1e7})
WIDE = {"dataset": {"synth": {"n_normal": 300, "n_attack": 80, "dim": 9,
                              "displacement": 2.0, "seed": 5}},
        "model": {"input_dim": 9}}


def invalid_choice(command):
    """The usage error of an unknown `command`, listing every command; the
    quotes around each depend on the Python version."""
    listed = ", ".join(f"'?{name}'?" for name in COMMANDS)
    return re.compile(rf"argument command: invalid choice: '{command}' "
                      rf"\(choose from {listed}\)")


def edit_bundle_file(path, edit):
    """Overwrite `model.json` with `edit` of its mapping, or the archive
    `model.npz` with `edit` of its arrays: new arrays, or the bytes of the
    new file."""
    if path.suffix != ".npz":
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        return
    with np.load(path) as archive:
        edited = edit({key: archive[key] for key in archive.files})
    if isinstance(edited, bytes):
        path.write_bytes(edited)
    else:
        np.savez(path, **edited)


def keys(**changes):
    """The edit of a mapping that sets `changes`, deleting keys set to
    DROP."""
    return lambda mapping: {key: value
                            for key, value in {**mapping, **changes}.items()
                            if value is not DROP}


def replace(key, make):
    return lambda arrays: {**arrays, key: make(arrays[key])}


def last_is(value):
    return lambda a: np.append(a[:-1], value)


def gelu_layer(layer):
    def edit(meta):
        meta["layers"][layer]["activation"] = "gelu"
        return meta
    return edit


def scaler_max_below_min_in_column(j):
    def edit(arrays):
        top = arrays["scaler_max"].copy()
        top[j] = arrays["scaler_min"][j] - 1.0
        return {**arrays, "scaler_max": top}
    return edit


# (id, file, edit) of the base centralized model that leaves each bundle
# file well formed alone but breaks a fact across its keys, and the problem
BUNDLE_FACTS = [
    ("flat-one-short", "model.npz", replace("flat", lambda a: a[:-1]),
     f"flat: {WIDTHS.format(190, 189)}"),
    ("scaler-width-5", "model.npz", lambda arrays: {
        **arrays, "scaler_min": arrays["scaler_min"][:5],
        "scaler_max": arrays["scaler_max"][:5]},
     f"scaler_min: {WIDTHS.format(8, 5)}"),
    ("scaler-widths-differ", "model.npz",
     replace("scaler_max", lambda a: a[:5]),
     f"scaler_max: {WIDTHS.format(8, 5)}"),
    ("scaler-max-below-min", "model.npz", scaler_max_below_min_in_column(3),
     "scaler_max: below scaler_min in column 3"),
    ("negative-threshold", "model.json", keys(threshold=-0.5),
     "threshold: expected a value in [0, inf), got -0.5"),
    ("int-fingerprint", "model.json", keys(fingerprint=5),
     "fingerprint: expected a string, got 5"),
    ("unknown-mode", "model.json", keys(mode="median"),
     "mode: expected one of centralized | federated, got 'median'"),
    # model.json as written before it recorded the mode
    ("saved-before-mode", "model.json",
     keys(mode=DROP, detector_source="round_min"), "missing key 'mode'"),
    ("missing-seed", "model.json", keys(seed=DROP), "missing key 'seed'"),
    ("null-seed", "model.json", keys(seed=None),
     "seed: expected an int, got None"),
    ("unknown-activation", "model.json", gelu_layer(2), ACTIVATION.format(2)),
]

# YAML roots that are not a mapping, by id
ROOTS = {"empty-list": [], "zero": 0, "empty-string": "", "false": False,
         "list": [1], "string": "x", "int": 5}

# (id, file, its new text) of the base centralized run, and the problem
RUN_FILES = [
    ("empty", "confusion.csv", "", "expected header tp,fp,tn,fn, got []"),
    ("header-only", "confusion.csv", "# seed=7 fingerprint=x\ntp,fp,tn,fn\n",
     f"{COUNTS} []"),
    ("text-count", "confusion.csv", "tp,fp,tn,fn\n1,2,x,4\n",
     f"{COUNTS} [['1', '2', 'x', '4']]"),
    ("three-counts", "confusion.csv", "tp,fp,tn,fn\n1,2,3\n",
     f"{COUNTS} [['1', '2', '3']]"),
    ("negative-count", "confusion.csv", "tp,fp,tn,fn\n1,2,-3,4\n",
     f"{COUNTS} [['1', '2', '-3', '4']]"),
    ("two-rows", "confusion.csv", "tp,fp,tn,fn\n1,2,3,4\n1,2,3,4\n",
     f"{COUNTS} [['1', '2', '3', '4'], ['1', '2', '3', '4']]"),
    ("all-zero", "confusion.csv", "tp,fp,tn,fn\n0,0,0,0\n",
     "every count is 0"),
    ("not-utf8", "confusion.csv", b"tp,fp,tn,fn\n\xff\xfe1,2,3,4\n",
     "expected UTF-8 text"),
    ("over-long-field", "confusion.csv", "tp,fp,tn,fn\n" + LONG_FIELD,
     FIELD_LIMIT),
    ("metrics-not-json", "metrics.json", "{not json",
     "expected a JSON object"),
    ("metrics-not-object", "metrics.json", "[]", "expected a JSON object"),
    ("metrics-text-value", "metrics.json", '{"accuracy": "high"}',
     "accuracy: expected a finite number or null, got 'high'"),
]


def config(name, text, expect, command="train"):
    """A case that runs `command` on the config `text`."""
    return Case(name, f"{command} --config c.yaml --out out", expect,
                {"c.yaml": text})


def evaluate(name, base, file, edit, problem):
    """A case that evaluates the `base` model after `edit` of its `file`."""
    return Case(name, EVALUATE, f"run/model/{file}: {problem}", {
        f"run/model/{file}": functools.partial(edit_bundle_file, edit=edit)},
        base)


def report(name, base, file, content, problem):
    """A case that reports on the `base` run with `content` as its `file`."""
    return Case(name, "report --dir run", f"run/{file}: {problem}",
                {f"run/{file}": content}, base)


CASES = [
    # usage errors
    Case("unknown-command", "bogus", invalid_choice("bogus")),
    Case("removed-command", "train-central --config c.yaml --out out",
         invalid_choice("train-central"), {"c.yaml": BASES["federated"]}),
    Case("missing-model-option", "evaluate --out x",
         "the following arguments are required: --model"),
    # numeric faults of a run; one step at a rate of 1e300 leaves huge but
    # finite weights, so the fault shows when the client calibrates, and a
    # second step finds it in training
    config("diverging", tiny(**FED, train={"learning_rate": 1.0e300}),
           "client 0: non-finite training loss nan at epoch 0, batch 1"),
    config("fed-calibration-fault", tiny(
        **FED, train={"learning_rate": 1.0e300, "batch_size": 4096},
        federation={"epochs_per_round": 1}), NAN_ERRORS),
    config("central-calibration-fault", tiny(train={
        "epochs": 1, "batch_size": 4096, "learning_rate": 1.0e300}),
        NAN_ERRORS),
    config("relevance-underflow", RELEVANCE_UNDERFLOW,
           "round 2: relevance score must be in (0, 1], got 0.0"),
    # |dw|^2 overflows; dividing by it would leave the model unchanged
    config("qffl-overflow", tiny(
        mode="federated", model={"dropout_p": 0.2},
        dataset={"synth": {"n_normal": 200, "n_attack": 20, "dim": 8,
                           "displacement": 2.0, "seed": 5}},
        federation={"epochs_per_round": 1},
        strategy={"kind": "qffl", "q": 0.5, "lipschitz": 1.0e300}),
        "round 1: aggregation denominator must be finite and positive, "
        "got inf"),
    # config files and values
    config("unknown-strategy", tiny(mode="federated",
                                    strategy={"kind": "fedprox"}),
           "strategy.kind: expected one of fedavg | qffl | fairfedavg, got "
           "'fedprox'"),
    config("unreachable-min-participation", "mode: federated\nfederation: "
           "{n_clients: 4, min_participation: 3}\nstrategy: "
           "{sample_fraction: 0.5}\n", "federation.min_participation is 3 "
           "but each round samples only 2 of 4 clients, so every round would "
           "carry the initial model forward"),
    config("text-lipschitz", "strategy: {lipschitz: abc}\n",
           "strategy.lipschitz: expected number, got str"),
    config("int-dataset-path", "dataset: {path: 5}\n",
           "dataset.path: expected string, got int"),
    config("qffl-without-lipschitz",
           "mode: federated\nstrategy: {kind: qffl, q: 0.5}\n",
           LIPSCHITZ_UNSET),
    config("central-qffl-without-lipschitz",
           "strategy: {kind: qffl, q: 0.5}\n", LIPSCHITZ_UNSET),
    config("unknown-key", "train:\n  epochz: 3\n",
           "unknown config key 'train.epochz'"),
    config("malformed-yaml", b"train: {epochs: [1\n",
           "c.yaml: not valid YAML at line 2, column 1"),
    config("not-utf8-config", b"seed: 7 # \xff\n",
           "c.yaml: expected UTF-8 text"),
    *(config(f"root-{name}", yaml.safe_dump(root), f"c.yaml: config root "
             f"must be a mapping, got {type(root).__name__}")
      for name, root in ROOTS.items()),
    config("nan-displacement", "dataset: {synth: {displacement: .nan}}\n",
           "dataset.synth.displacement: expected a value in (-inf, inf), "
           "got nan"),
    config("long-int-learning-rate", f"train: {{learning_rate: {'1' * 401}}}",
           f"train.learning_rate: expected number, {NO_FLOAT}"),
    config("big-int-learning-rate", f"train: {{learning_rate: {BIG_INT}}}",
           f"train.learning_rate: expected number, {NO_FLOAT}"),
    config("big-int-jitter", f"federation: {{latency: {{jitter: {BIG_INT}}}}}",
           f"federation.latency.jitter: expected number, {NO_FLOAT}"),
    config("seed-flag-beyond-float", BASES["centralized"],
           f"seed: expected int, {NO_FLOAT}", f"train --seed {BIG_INT}"),
    config("stray-delay", "mode: federated\nfederation: "
           "{n_clients: 2, latency: {delays: {2: 1.0}}}\n",
           "federation.latency.delays: expected client ids in [0, 2), got 2"),
    config("too-many-clients", tiny(**FED, federation={"n_clients": 1000}),
           TOO_MANY),
    config("too-many-clients-partition", tiny(
        **FED, federation={"n_clients": 1000}), TOO_MANY, "partition"),
    config("long-int-clients", f"federation: {{n_clients: {'1' * 401}}}",
           f"federation.n_clients: expected int, {NO_FLOAT}", "partition"),
    config("big-int-clients", f"federation: {{n_clients: {BIG_INT}}}",
           f"federation.n_clients: expected int, {NO_FLOAT}", "partition"),
    config("huge-alpha", "federation: {n_clients: 4, alpha: 1.0e+308}\n",
           "federation.alpha: 1e+308 times 4 clients is beyond the float "
           "range, where the Dirichlet partition gives every client a share "
           "of 0", "partition"),
    # files a config names, and OS errors
    Case("list-categorical-schema", "train --config c.yaml --out out",
         "schema.json: categorical: expected a mapping of columns to lists "
         "of strings, got ['a']",
         {"schema.json": '{"label_column": "label", "categorical": ["a"]}',
          "c.yaml": "dataset: {path: flows.csv, schema: schema.json}\n"}),
    Case("not-utf8-csv", "train --config c.yaml --out out",
         "flows.csv: expected UTF-8 text",
         {"flows.csv": b"x,label\n0.5,Normal\n0.7,\xff\n",
          "schema.json": '{"label_column": "label"}',
          "c.yaml": "dataset: {path: flows.csv, schema: schema.json}\n"}),
    Case("config-is-a-directory", "train --config folder --out out",
         "[Errno 21] Is a directory: 'folder'", {"folder": Path.mkdir}),
    Case("dataset-path-is-a-directory", "train --config c.yaml --out out",
         "[Errno 21] Is a directory: 'folder'",
         {"folder": Path.mkdir, "c.yaml": "dataset: {path: folder}\n"}),
    Case("model-is-a-file", "evaluate --config c.yaml --model c.yaml "
         "--out out", "[Errno 20] Not a directory: 'c.yaml/model.json'",
         {"c.yaml": BASES["centralized"]}),
    Case("report-dir-is-a-file", "report --dir plain.txt",
         "[Errno 20] Not a directory: 'plain.txt/confusion.csv'",
         {"plain.txt": "x\n"}),
    Case("synth-out-is-a-file", "synth --config c.yaml --out c.yaml",
         "[Errno 17] File exists: 'c.yaml'",
         {"c.yaml": BASES["centralized"]}),
    # saved models
    Case("fed-model-central-config", EVALUATE, "saved model trained in "
         "federated mode does not match the config's mode centralized",
         {"c.yaml": BASES["centralized"]}, "federated"),
    Case("central-model-fed-config", EVALUATE, "saved model trained in "
         "centralized mode does not match the config's mode federated",
         {"c.yaml": BASES["federated"]}, "centralized"),
    Case("central-model-wider-data", EVALUATE, OTHER_WIDTH,
         {"c.yaml": tiny(**WIDE)}, "centralized"),
    Case("fed-model-wider-data", EVALUATE, OTHER_WIDTH,
         {"c.yaml": tiny(**FED, **WIDE)}, "federated"),
    evaluate("fed-gelu-first-layer", "federated", "model.json",
             gelu_layer(0), ACTIVATION.format(0)),
    evaluate("fed-no-threshold", "federated", "model.json",
             keys(threshold=DROP), "missing key 'threshold'"),
    evaluate("fed-text-threshold", "federated", "model.json",
             keys(threshold="abc"),
             "threshold: expected a finite number, got 'abc'"),
    evaluate("fed-unknown-mode", "federated", "model.json",
             keys(mode="median"),
             "mode: expected one of centralized | federated, got 'median'"),
    evaluate("fed-saved-before-mode", "federated", "model.json",
             keys(mode=DROP, detector_source="round_min"),
             "missing key 'mode'"),
    evaluate("fed-text-npz", "federated", "model.npz",
             lambda arrays: b"not an archive\n", NOT_ARCHIVE),
    evaluate("fed-nan-first-flat", "federated", "model.npz",
             replace("flat", lambda a: np.append(np.nan, a[1:])),
             f"flat: {NOT_FINITE}"),
    evaluate("fed-flat-one-short", "federated", "model.npz",
             replace("flat", lambda a: a[:-1]),
             f"flat: {WIDTHS.format(190, 189)}"),
    evaluate("fed-scaler-width-5", "federated", "model.npz",
             keys(scaler_min=np.zeros(5), scaler_max=np.ones(5)),
             f"scaler_min: {WIDTHS.format(8, 5)}"),
    evaluate("text-npz", "centralized", "model.npz",
             lambda arrays: b"not an archive", NOT_ARCHIVE),
    evaluate("nan-last-flat", "centralized", "model.npz",
             replace("flat", last_is(np.nan)), f"flat: {NOT_FINITE}"),
    *(evaluate(f"bundle-{name}", "centralized", file, edit, problem)
      for name, file, edit, problem in BUNDLE_FACTS),
    # run directories
    *(report(f"report-{name}", "centralized", file, text, problem)
      for name, file, text, problem in RUN_FILES),
    # the comment and header lines only
    report("fed-report-header-only", "federated", "confusion.csv",
           lambda path: path.write_text(
               "".join(path.read_text().splitlines(True)[:2])),
           f"{COUNTS} []"),
    report("fed-report-long-field", "federated", "confusion.csv",
           lambda path: path.write_text(path.read_text() + LONG_FIELD),
           FIELD_LIMIT),
]


def in_process(argv, cwd):
    """`cli.main(argv)` run in `cwd`: its exit code (a usage error's
    SystemExit code) and its stderr."""
    err, here = io.StringIO(), os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exit_:
        code = exit_.code
    finally:
        os.chdir(here)
    return code, err.getvalue()


def base_runs(root, run):
    """The base run directory of a mode, trained under `root` with `run` on
    first use."""
    @functools.cache
    def base(mode):
        work = root / f"base-{mode}"
        work.mkdir()
        (work / "c.yaml").write_text(BASES[mode])
        code, err = run("train --config c.yaml --out run".split(), work)
        if code != 0:
            raise RuntimeError(f"the {mode} base run failed: {err}")
        return work / "run"
    return base


def problems(case, code, err, made_out):
    """The rules an outcome breaks: exit 2, one stderr line that starts
    with `error: ` and holds no `Traceback`, the expected line, and no
    `--out` directory left behind (`made_out`)."""
    line = err.removesuffix("\n")
    rest, expect = line.removeprefix("error: "), case.expect
    matched = (expect.fullmatch(rest) if isinstance(expect, re.Pattern)
               else rest == expect)
    return [problem for problem, broken in [
        (f"exit code {code}, expected 2", code != 2),
        (f"expected one stderr line, got {len(err.splitlines())}",
         "\n" in line or not err.endswith("\n")),
        ("stderr does not start with 'error: '",
         not err.startswith("error: ")),
        ("stderr holds a Traceback", "Traceback" in err),
        (f"stderr line does not match {getattr(expect, 'pattern', expect)!r}",
         not matched),
        ("the run left its --out directory", made_out),
    ] if broken]


def run_case(case, root, base, run):
    """Write `case`'s files in `root/case.name` and run its argv there with
    `run`; return its stderr and its `problems`."""
    work, files = root / case.name, case.files
    if case.base:
        shutil.copytree(base(case.base), work / "run")
        files = {"c.yaml": BASES[case.base], **files}
    work.mkdir(exist_ok=True)
    for name, content in files.items():
        if callable(content):
            content(work / name)
        elif isinstance(content, bytes):
            (work / name).write_bytes(content)
        else:
            (work / name).write_text(content)
    argv = case.argv.split()
    out = work / argv[argv.index("--out") + 1] if "--out" in argv else None
    kept = out is not None and out.exists()
    code, err = run(argv, work)
    made_out = out is not None and not kept and out.exists()
    return err, problems(case, code, err, made_out)


def run_script(command, root, cases=CASES):
    """Run `cases` with the console `command` under `root`, print each
    one's stderr and problems, and return the names of those that fail."""
    def run(argv, cwd):
        proc = subprocess.run([*command, *argv], cwd=cwd, capture_output=True,
                              text=True)
        return proc.returncode, proc.stderr

    base = base_runs(root, run)
    failed = []
    for case in cases:
        err, found = run_case(case, root, base, run)
        print(f"{case.name}: {err.rstrip()}")
        for problem in found:
            print(f"  FAIL: {problem}")
        if found:
            failed.append(case.name)
    return failed


if __name__ == "__main__":
    failed = run_script(sys.argv[1:],
                        Path(tempfile.mkdtemp(prefix="cli-cases-", dir=".")))
    print(f"{len(CASES) - len(failed)} of {len(CASES)} cases pass")
    sys.exit(1 if failed else 0)
