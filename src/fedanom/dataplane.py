"""Dataset ingestion, scaling, splitting and client partitioning.

Handles Edge-IIoTset-shaped flow CSVs through a declarative schema (label
column, dropped identifier columns, categorical vocabularies for stable
one-hot widths), min-max scaling into [-1, 1] to match the Tanh output
head, normal/attack and train/validation splits, class-conditional
Dirichlet partitioning across clients, and a seeded synthetic generator
used as the desk-scale stand-in for the real dataset.

Both CSV readers (`load_csv` for raw flows, `load_dataset` for the
canonical format) open their file through `checks._csv_text` and share
one parser that encodes a block of lines at a time into float64 arrays.
numpy's compiled `np.loadtxt` reads a block of plain lines (printable
ASCII without a quote, CR/LF line ends, none longer than csv's field size
limit), and the row parser, `csv.reader` with `float()` per numeric cell,
takes each line it rejects and every line from the first block that is
not plain. A row comes out bit for bit as the row parser alone would give
it. Its skip rules: blank rows are ignored; a row
is skipped and counted when it is too short for a feature column or the
label, when a numeric cell does not parse as a float, when its label ends
in a NUL character (`_plain` sends such a line to the row parser), or
when a feature is `nan` or `inf`. `load_dataset` instead rejects a row
whose cell count differs from the header's, blank rows included, and
`load_csv` a header that repeats a column name. A schema is rejected when
it is read if a categorical vocabulary repeats an entry or a categorical
column is also dropped or is the label column.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, islice
from operator import itemgetter, length_hint
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .checks import _csv_text, _read_json
from .errors import ConfigError, DataError, SchemaError, ShapeError
from .numerics import derive_rng

NORMAL_LABEL = "Normal"
ATTACK_LABEL = "attack"  # category used by the synthetic generator


@dataclass
class LabeledDataset:
    """Columnar dataset: feature matrix plus per-row label strings."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ShapeError(
                f"features must be a 2-d matrix, got {self.features.ndim}-d")
        self.labels = np.asarray(self.labels, dtype=str)
        if self.labels.shape != (self.features.shape[0],):
            raise ShapeError(
                f"{self.labels.shape[0]} labels for "
                f"{self.features.shape[0]} rows")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def is_attack(self) -> np.ndarray:
        return self.labels != NORMAL_LABEL


@dataclass(frozen=True)
class ScalerParams:
    """Per-feature min/max fitted on training normals only."""

    minimum: np.ndarray
    maximum: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "minimum", np.asarray(self.minimum, dtype=np.float64))
        object.__setattr__(self, "maximum", np.asarray(self.maximum, dtype=np.float64))
        if self.minimum.shape != self.maximum.shape:
            raise ShapeError("scaler min/max widths differ")
        if np.any(self.minimum > self.maximum):
            raise DataError("scaler has min > max in some column")


def fit_scaler(train: np.ndarray) -> ScalerParams:
    train = np.asarray(train, dtype=np.float64)
    if train.ndim != 2 or train.shape[0] == 0:
        raise DataError("scaler must be fit on a non-empty matrix")
    bad = ~np.isfinite(train)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise DataError(
            f"scaler input has a non-finite value {train[row, col]} at row "
            f"{row}, column {col}")
    return ScalerParams(train.min(axis=0), train.max(axis=0))


def apply_scaler(scaler: ScalerParams, data: np.ndarray,
                 rows: np.ndarray | None = None) -> np.ndarray:
    """Affine map sending [min, max] to [-1, 1], clamped; constant columns
    map to 0.

    With `rows`, only those rows of `data` are scaled. Either way the result
    is one fresh buffer (`data[rows]`, or a copy of `data`) scaled in place,
    and `data` itself is never written.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim == 1:
        data = data[None, :]
    if data.shape[1] != scaler.minimum.shape[0]:
        raise ShapeError(
            f"data width {data.shape[1]} does not match scaler width "
            f"{scaler.minimum.shape[0]}")
    span = scaler.maximum - scaler.minimum
    live = span > 0.0
    # clip(where(live, 2 * (data - min) / safe_span - 1, 0), -1, 1) in one
    # buffer, its operations kept in that order so results match bit for bit
    scaled = data.copy() if rows is None else data[rows]
    scaled -= scaler.minimum
    scaled *= 2.0
    scaled /= np.where(live, span, 1.0)
    scaled -= 1.0
    scaled[:, ~live] = 0.0
    return np.clip(scaled, -1.0, 1.0, out=scaled)


def split_by_label(ds: LabeledDataset, rows: np.ndarray | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Row indices of the (normal, attack) records of `ds`, in row order.

    With `rows`, only those rows are split, and each part keeps their order.
    """
    if rows is None:
        rows = np.arange(len(ds))
        attack = ds.is_attack
    else:
        rows = np.asarray(rows, dtype=np.intp)
        attack = ds.labels[rows] != NORMAL_LABEL
    return rows[~attack], rows[attack]


def train_val_split(rows: np.ndarray, fraction: float = 0.8,
                    seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Seeded shuffle of the row indices `rows`, then split; the train part
    gets floor(fraction * n) of them."""
    rows = np.asarray(rows, dtype=np.intp)
    if rows.size == 0:
        raise DataError("cannot split an empty dataset")
    order = derive_rng(seed).permutation(rows.size)
    n_train = int(math.floor(fraction * rows.size))
    return rows[order[:n_train]], rows[order[n_train:]]


@dataclass(frozen=True)
class PartitionPlan:
    """Per-client record-index assignment: an exact set partition, one
    sorted intp array of row indices per client."""

    assignments: tuple[np.ndarray, ...]
    alpha: float
    seed: int

    @property
    def n_clients(self) -> int:
        return len(self.assignments)

    def validate(self, n_records: int) -> None:
        seen = np.sort(np.concatenate(self.assignments))
        if not np.array_equal(seen, np.arange(n_records)):
            raise DataError(
                f"partition is not exact: {seen.size} assigned indices "
                f"for {n_records} records")
        if (n_records >= self.n_clients
                and any(a.size == 0 for a in self.assignments)):
            raise DataError("partition left a client empty")

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "seed": self.seed,
            "assignments": [a.tolist() for a in self.assignments],
        }


def _largest_remainder(proportions: np.ndarray, total: int) -> np.ndarray:
    """Integer counts summing to `total`; ties broken by lowest client id."""
    scaled = proportions * total
    base = np.floor(scaled).astype(int)
    frac = scaled - base
    missing = total - int(base.sum())
    # sort by descending fraction, then ascending client id
    order = np.lexsort((np.arange(len(base)), -frac))
    base[order[:missing]] += 1
    return base


def dirichlet_partition(ds: LabeledDataset, n_clients: int, alpha: float,
                        seed: int) -> PartitionPlan:
    """Label-skew partition: per class, client shares drawn from
    Dirichlet(alpha * 1).

    Low alpha concentrates each class on few clients; high alpha approaches
    a uniform split. The result is always an exact partition, and no client
    is left empty unless there are fewer records than clients (a record is
    moved from the largest client when the draw leaves one empty).
    """
    if n_clients > len(ds):
        raise ConfigError(
            f"{n_clients} clients cannot split {len(ds)} records")
    rng = derive_rng(seed)
    # return_inverse gives each row its class code; without it np.unique
    # imports numpy.ma
    classes, codes = np.unique(ds.labels, return_inverse=True)
    pieces: list[list[np.ndarray]] = [[] for _ in range(n_clients)]
    for code in range(classes.size):
        idx = np.flatnonzero(codes == code)
        rng.shuffle(idx)
        proportions = rng.dirichlet(np.full(n_clients, alpha))
        counts = _largest_remainder(proportions, len(idx))
        for k, piece in enumerate(np.split(idx, np.cumsum(counts)[:-1])):
            pieces[k].append(piece)
    buckets = [np.concatenate(p) for p in pieces]
    # repair: a skewed draw may leave clients empty; the donor gives up
    # the record it received last
    for k in range(n_clients):
        if buckets[k].size == 0:
            donor = max(range(n_clients), key=lambda j: buckets[j].size)
            buckets[k] = buckets[donor][-1:]
            buckets[donor] = buckets[donor][:-1]
    plan = PartitionPlan(tuple(np.sort(b) for b in buckets),
                         float(alpha), int(seed))
    plan.validate(len(ds))
    return plan


@dataclass(frozen=True)
class SynthSpec:
    """Synthetic flow generator settings.

    Mimics the texture of real flow captures: most normal rows sit on a
    handful of near-duplicate prototypes with tiny jitter, the rest follow
    a low-rank factor model with a wide lognormal per-row noise scale, and
    a rare slice is near-saturated junk. That skew is what keeps the
    mean+std threshold far above the bulk of the reconstruction errors.
    Attack rows come from the same generator displaced along a random
    per-row coordinate subset before squashing into (-1, 1).
    """

    n_normal: int
    n_attack: int
    dim: int = 66
    displacement: float = 2.0
    seed: int = 42

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")
        if self.n_normal < 0 or self.n_attack < 0:
            raise ConfigError("record counts cannot be negative")


_SYNTH_RANK = 2
_SYNTH_PROTOTYPES = 6
_SYNTH_PROTOTYPE_FRACTION = 0.9
_SYNTH_PROTOTYPE_NOISE = 0.01
_SYNTH_NOISE = 0.1
_SYNTH_NOISE_SIGMA = 1.25
_SYNTH_OUTLIER_FRACTION = 0.005
_SYNTH_OUTLIER_BOOST = 25.0
_SYNTH_SQUASH = 3.0


def _synth_raw(rng: np.random.Generator, out: np.ndarray, mixing: np.ndarray,
               prototypes: np.ndarray) -> None:
    """Fill `out` with raw (unsquashed) rows: each row's latent or
    prototype point plus its noise."""
    n = out.shape[0]
    rows = rng.standard_normal((n, mixing.shape[0])) @ mixing
    on_prototype = rng.random(n) < _SYNTH_PROTOTYPE_FRACTION
    pick = rng.integers(0, prototypes.shape[0], size=n)
    # one prototype at a time: gathering every pick at once would stage a
    # second (n, dim) buffer
    for k, prototype in enumerate(prototypes):
        rows[on_prototype & (pick == k)] = prototype
    scale = np.exp(_SYNTH_NOISE_SIGMA * rng.standard_normal(n))
    saturated = rng.random(n) < _SYNTH_OUTLIER_FRACTION
    scale = np.where(saturated, scale * _SYNTH_OUTLIER_BOOST, scale)
    level = np.where(on_prototype & ~saturated, _SYNTH_PROTOTYPE_NOISE,
                     _SYNTH_NOISE * scale)
    # noise * level + rows: IEEE addition commutes, so this is bit for bit
    # rows + noise * level
    rng.standard_normal(out=out)
    out *= level[:, None]
    out += rows


def synth_generate(spec: SynthSpec) -> LabeledDataset:
    """Deterministic synthetic dataset; one seed, one byte-exact result.

    Normal rows, then attack rows, are built in place in the one feature
    matrix the dataset holds.
    """
    rng = derive_rng(spec.seed)
    mixing = rng.standard_normal((_SYNTH_RANK, spec.dim)) / math.sqrt(_SYNTH_RANK)
    prototypes = rng.standard_normal((_SYNTH_PROTOTYPES, _SYNTH_RANK)) @ mixing
    features = np.empty((spec.n_normal + spec.n_attack, spec.dim))
    attack = features[spec.n_normal:]
    _synth_raw(rng, features[:spec.n_normal], mixing, prototypes)
    _synth_raw(rng, attack, mixing, prototypes)
    if spec.n_attack > 0:
        n_moved = max(1, spec.dim // 4)
        # per-row random coordinate subset and signs
        coords = np.argsort(rng.random((spec.n_attack, spec.dim)), axis=1)
        moved = np.zeros((spec.n_attack, spec.dim), dtype=bool)
        np.put_along_axis(moved, coords[:, :n_moved], True, axis=1)
        shift = np.where(rng.random((spec.n_attack, spec.dim)) < 0.5, -1.0, 1.0)
        shift *= spec.displacement
        shift *= moved
        attack += shift
    features /= _SYNTH_SQUASH
    np.tanh(features, out=features)
    labels = np.array([NORMAL_LABEL] * spec.n_normal
                      + [ATTACK_LABEL] * spec.n_attack)
    return LabeledDataset(features, labels)


def save_dataset(ds: LabeledDataset, path: str | Path) -> None:
    """Write the canonical columnar CSV: f0..f{d-1}, label."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(ds.n_features)] + ["label"])
        for row, label in zip(ds.features, ds.labels):
            writer.writerow([repr(float(v)) for v in row] + [str(label)])


# Lines parsed per block; it bounds what a block stages (its lines, their
# records and its feature matrix) before the final join. np.loadtxt reads a
# block whose lines are all `_plain`, and the row parser (csv.reader, then
# float() per numeric cell) takes each line it rejects. From the first block
# that is not plain, csv.reader reads the rest of the file, since a quoted
# cell may span lines. Either way each row comes out bit for bit as the row
# parser alone would give it.
_BLOCK_ROWS = 4096
# Lines per np.loadtxt call. A call costs about as much as three lines, and
# a line it rejects costs a second read of the lines before it in its chunk.
_CHUNK_ROWS = 32

# Characters np.loadtxt splits and converts exactly as csv.reader and
# float() do: printable ASCII but the quote character, and CR/LF line ends.
# It would read a control character such as "\x1e4" as 4.0, which float()
# rejects.
_PLAIN = bytes(range(0x20, 0x7F)).replace(b'"', b"") + b"\r\n"


def _plain(lines: list[str]) -> bool:
    """Whether np.loadtxt may read these lines: only _PLAIN characters, and
    no line longer than csv's field size limit (csv.reader raises on a
    longer field)."""
    text = "".join(lines)
    return (text.isascii()
            and not text.encode("ascii").translate(None, _PLAIN)
            and max(map(len, lines)) <= csv.field_size_limit())


def _cell_picker(cells: Sequence[int]) -> Callable[[list[str]], tuple]:
    """A callable returning the given cells of a row as a tuple (a bare
    itemgetter returns a single cell unwrapped)."""
    if len(cells) == 1:
        only = cells[0]
        return lambda row: (row[only],)
    return itemgetter(*cells) if cells else lambda row: ()


def _parse_rows(lines: Iterable[str], width: int,
                numeric: Sequence[tuple[int, int]],
                categorical: Sequence[tuple[int, int, dict[str, int]]],
                label: int, normal_value: str, strict: Path | None = None
                ) -> tuple[LabeledDataset, int]:
    """Encode csv lines into a dataset, _BLOCK_ROWS lines at a time.

    `numeric` holds a (cell, feature column) pair per numeric feature;
    `categorical` a (cell, first feature column, value -> offset) triple
    per one-hot block, and values outside it leave the block zero. Labels
    equal to `normal_value` become NORMAL_LABEL. Blank rows are ignored.
    A row is skipped and counted when it is too short for a cell read,
    when a numeric cell does not parse as a float, when its label ends in
    a NUL character, or when a feature is not finite. With `strict`, the
    cells read are every cell of a row, in order, and a row with another
    cell count raises SchemaError naming that file. Returns the dataset
    and the skip count.

    Which reader takes which lines is set out at _BLOCK_ROWS; the row
    parser also takes any run of lines that np.loadtxt does not read as one
    row per line, such as one holding a blank line, which it skips.
    """
    cells = [c for c, _ in numeric] + [label] + [c for c, _, _ in categorical]
    need = 1 + max(cells)
    pick_numeric = _cell_picker(cells[:len(numeric)])
    pick_text = _cell_picker(cells[len(numeric):])
    numeric_columns = np.array([j for _, j in numeric], dtype=np.intp)
    # A row's record: its numeric cells as one float64 field, then its label
    # and categorical cells as text. np.loadtxt's record holds a categorical
    # cell in a numpy string one character longer than its longest
    # vocabulary entry, so that a longer cell, cut, still matches none.
    fields = [("numbers", np.float64, (len(numeric),))] if numeric else []
    fields.append(("label", object))
    row_record = np.dtype(fields + [(f"c{k}", object)
                                    for k in range(len(categorical))])
    plain_record = np.dtype(fields + [
        (f"c{k}", f"U{max(map(len, index), default=0) + 1}")
        for k, (_, _, index) in enumerate(categorical)])
    loadtxt = partial(np.loadtxt, dtype=plain_record, delimiter=",",
                      comments=None, quotechar=None, ndmin=1,
                      usecols=None if strict else cells)
    blocks: list[np.ndarray] = []
    finite: list[np.ndarray] = []
    labels: list[str] = []
    skipped = 0

    def parse(rows: Iterable[list[str]], record: np.dtype) -> np.ndarray:
        """The row parser: the kept csv rows as records."""
        nonlocal skipped
        values: list[tuple[float, ...]] = []
        kept: list[tuple[str, ...]] = []
        for row in rows:
            if strict is not None and len(row) != need:
                raise SchemaError(
                    f"{strict}: row has {len(row)} cells, expected {need}")
            if len(row) < need:
                skipped += bool(row)
                continue
            try:
                numbers = tuple(map(float, pick_numeric(row)))
            except ValueError:
                skipped += 1
                continue
            text = pick_text(row)
            # a numpy string drops a label's trailing NULs, so that
            # `Normal\0` would read as `Normal`
            if text[0].endswith("\0"):
                skipped += 1
                continue
            values.append(numbers)
            kept.append(text)
        parsed = np.zeros(len(kept), record)
        if kept:
            if numeric:
                parsed["numbers"] = values
            for name, column in zip(record.names[bool(numeric):],
                                    zip(*kept)):
                parsed[name] = column
        return parsed

    def load(chunk: list[str]) -> Iterator[np.ndarray]:
        """Records of plain lines, in order: np.loadtxt reads them, and the
        row parser takes each line it rejects and any run it does not read
        as one row per line. The lines before a rejected one are re-read the
        same way, so exactness does not rest on where loadtxt stops."""
        while chunk:
            pending = iter(chunk)
            try:
                # loadtxt warns on input with no data
                got = loadtxt(pending) if any(map(str.strip, chunk)) else None
            except ValueError:
                # it pulls lines up to the one it rejects; were it to pull
                # more, the re-read of the lines before would reject again
                stop = max(len(chunk) - length_hint(pending) - 1, 0)
                yield from load(chunk[:stop])
                yield parse(csv.reader(chunk[stop:stop + 1]), plain_record)
                chunk = chunk[stop + 1:]
                continue
            if got is None or got.shape != (len(chunk),):
                got = parse(csv.reader(chunk), plain_record)
            yield got
            return

    def add(parsed: np.ndarray) -> None:
        """Encode records into a feature block, keeping a mask of its finite
        rows."""
        feats = np.zeros((parsed.size, width))
        if numeric:
            feats[:, numeric_columns] = parsed["numbers"]
        for k, (_, first, index) in enumerate(categorical):
            column = parsed[f"c{k}"]
            for value, offset in index.items():
                # the value as the column holds it: a numpy string drops
                # trailing NULs, and a plain cell holds none
                key = np.array(value, dtype=column.dtype)
                if key.item() == value:
                    feats[:, first + offset] = column == key
        # drop non-finite rows block by block, so that the join below is
        # the only full-size copy
        ok = np.isfinite(feats).all(axis=1)
        blocks.append(feats if ok.all() else feats[ok])
        finite.append(ok)
        labels.extend([NORMAL_LABEL if v == normal_value else v
                       for v in parsed["label"].tolist()])

    lines = iter(lines)
    for block in iter(lambda: list(islice(lines, _BLOCK_ROWS)), []):
        if not _plain(block):
            lines = chain(block, lines)
            break
        # one buffer per block: np.concatenate of its many parts, and
        # np.empty's filling of the label field, measured slower
        parsed = np.zeros(len(block), plain_record)
        n = 0
        for start in range(0, len(block), _CHUNK_ROWS):
            for part in load(block[start:start + _CHUNK_ROWS]):
                parsed[n:n + part.size] = part
                n += part.size
        add(parsed[:n])
    rows = csv.reader(lines)
    for first in rows:
        add(parse(chain([first], islice(rows, _BLOCK_ROWS - 1)), row_record))
    features = (np.concatenate(blocks) if blocks
                else np.empty((0, width), dtype=np.float64))
    kept = np.concatenate(finite) if finite else np.ones(0, dtype=bool)
    n_bad = int(kept.size - np.count_nonzero(kept))
    # the labels' string width counts the dropped rows' labels too
    label_array = np.array(labels, dtype=str)
    if n_bad:
        label_array = label_array[kept]
    return LabeledDataset(features, label_array), skipped + n_bad


def load_dataset(path: str | Path) -> tuple[LabeledDataset, int]:
    """Read the canonical columnar CSV written by save_dataset.

    Lines starting with `#` are ignored and every row must have exactly
    one cell per header column. Returns the dataset and the number of rows
    skipped because a feature cell did not parse as a finite number or the
    label ends in a NUL character. A file that is not UTF-8 text, or has a
    field longer than csv's size limit, is a DataError naming it.
    """
    path = Path(path)
    with _csv_text(path) as fh:
        lines = (line for line in fh if not line.startswith("#"))
        reader = csv.reader(lines)
        header = next(reader, None)
        if header is None or header[-1] != "label":
            raise SchemaError(f"{path} is not a canonical dataset CSV")
        width = len(header) - 1
        return _parse_rows(lines, width, [(i, i) for i in range(width)], (),
                           width, NORMAL_LABEL, strict=path)


# the schema file's format, as `checks._check` reads it
SCHEMA_JSON = {
    "label_column": (str, True, None, "a string"),
    "normal_value": (str, False, None, "a string"),
    "drop_columns": ([str], False, None, "a list of strings"),
    "categorical": ({str: [str]}, False, None,
                    "a mapping of columns to lists of strings"),
    "expected_width": (int, False, "[1, inf)", "a positive int or null"),
}


@dataclass(frozen=True)
class SchemaConfig:
    """Declares how a raw flow CSV maps to a fixed-width feature matrix."""

    label_column: str
    normal_value: str = NORMAL_LABEL
    drop_columns: tuple[str, ...] = ()
    categorical: dict[str, tuple[str, ...]] = field(default_factory=dict)
    expected_width: int | None = None

    def __post_init__(self):
        for col, vocab in self.categorical.items():
            if col == self.label_column:
                raise SchemaError(
                    f"categorical column {col!r} is the label column")
            if col in self.drop_columns:
                raise SchemaError(
                    f"categorical column {col!r} is also a dropped column")
            repeated = sorted({v for v in vocab if vocab.count(v) > 1})
            if repeated:
                raise SchemaError(
                    f"categorical column {col!r} repeats vocabulary "
                    f"entries {repeated}")

    @classmethod
    def from_file(cls, path: str | Path) -> "SchemaConfig":
        """The schema in the JSON file at `path`, checked against
        SCHEMA_JSON; a null value is unset. A file that is not a JSON
        object, an unknown or missing key, a value of the wrong type, or a
        schema `__post_init__` rejects, is a SchemaError naming the file."""
        raw = _read_json(Path(path), SCHEMA_JSON, SchemaError)
        unknown = set(raw) - set(SCHEMA_JSON)
        if unknown:
            raise SchemaError(
                f"{path}: unknown schema keys: {sorted(unknown)}")
        raw = {key: value for key, value in raw.items() if value is not None}
        try:
            return cls(**raw | {
                "drop_columns": tuple(raw.get("drop_columns", ())),
                "categorical": {k: tuple(v) for k, v
                                in raw.get("categorical", {}).items()}})
        except SchemaError as err:
            raise SchemaError(f"{path}: {err}") from None


def load_csv(path: str | Path, schema: SchemaConfig
             ) -> tuple[LabeledDataset, int]:
    """Ingest a raw flow CSV through the schema.

    Returns the dataset and the number of rows skipped: rows too short to
    hold every feature column and the label, rows with a numeric cell
    that does not parse as a finite number, and rows whose label ends in a
    NUL character. Blank rows are ignored.
    Categorical values outside the declared vocabulary one-hot to an
    all-zero block, keeping the width stable. A header that repeats a
    column name raises SchemaError. A file that is not UTF-8 text, or has
    a field longer than csv's size limit, is a DataError naming it.
    """
    path = Path(path)
    with _csv_text(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise SchemaError(f"{path} has no header row")
        repeated = sorted({c for c in header if header.count(c) > 1})
        if repeated:
            raise SchemaError(f"{path} repeats header columns {repeated}")
        if schema.label_column not in header:
            raise SchemaError(
                f"label column {schema.label_column!r} not found in {path}")
        for col in (*schema.drop_columns, *schema.categorical):
            if col not in header:
                raise SchemaError(f"schema column {col!r} not found in {path}")
        col_index = {name: i for i, name in enumerate(header)}
        dropped = set(schema.drop_columns) | {schema.label_column}
        numeric: list[tuple[int, int]] = []
        categorical: list[tuple[int, int, dict[str, int]]] = []
        width = 0
        for col in header:
            if col in dropped:
                continue
            vocab = schema.categorical.get(col)
            if vocab is None:
                numeric.append((col_index[col], width))
                width += 1
            else:
                categorical.append((col_index[col], width,
                                    {v: k for k, v in enumerate(vocab)}))
                width += len(vocab)
        if schema.expected_width is not None and width != schema.expected_width:
            raise SchemaError(
                f"schema produces width {width}, expected "
                f"{schema.expected_width}")
        return _parse_rows(fh, width, numeric, categorical,
                           col_index[schema.label_column],
                           schema.normal_value)
