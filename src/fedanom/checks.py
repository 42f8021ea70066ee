"""Declared types, the check of a file read back, and its JSON or CSV opener.

Config keys (`config._KEYS`) and files read back (`harness.MODEL_JSON` and
the others, `dataplane.SCHEMA_JSON`) declare each value's type: one of
_ACCEPTS, np.ndarray (a 1-d array of finite numbers), [type] for a list or
{key type: type} for a mapping. Allowed values are None, a tuple of
choices, or an interval where "[" and "]" include an end and "(" and ")"
exclude it; for a list or a mapping, they hold for each entry. A file
format maps each key to (type, required, allowed, expected): `required` is
True, False (absent and null alike) or the key it comes with, and
`expected` names the type in errors.
"""
from __future__ import annotations

import csv
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

from .errors import DataError, FedAnomError

# the types a value of each declared type may have, and the type's name in
# config errors
_ACCEPTS = {
    bool: ((bool,), "bool"),
    int: ((int,), "int"),
    float: ((int, float), "number"),
    str: ((str,), "string"),
    list: ((list, tuple), "list"),
    dict: ((dict,), "mapping"),
}


def _key(kind, key):
    """A mapping key as `kind`: an int key may be its decimal text, as JSON
    writes it."""
    if kind is int and isinstance(key, str) and key.isdecimal():
        return int(key)
    return key


def _misfit(kind, value, finite: bool = False) -> tuple | None:
    """None if `value` passes as the declared type `kind`, else (type, part)
    of its first part that does not: an entry, a mapping key, or `value`.
    A bool passes only as a bool, an int as an int or a float only within
    float range, a null as an empty mapping, and with `finite` a float only
    if finite."""
    if isinstance(kind, (list, dict)):
        if value is None and isinstance(kind, dict):
            return None
        if not _is(type(kind), value):
            return kind, value
        if isinstance(kind, list):
            parts = [(kind[0], v) for v in value]
        else:
            ((key, item),) = kind.items()
            parts = [part for k, v in value.items()
                     for part in ((key, _key(key, k)), (item, v))]
        return next(filter(None, (_misfit(*part, finite) for part in parts)),
                    None)
    if kind is np.ndarray:
        ok = (isinstance(value, np.ndarray) and value.ndim == 1
              and value.dtype.kind in "iuf" and np.isfinite(value).all())
    else:  # beyond float range: an int too large to convert, inf or nan
        ok = (isinstance(value, _ACCEPTS[kind][0])
              and (kind is bool or not isinstance(value, bool))
              and (kind not in (int, float)
                   or isinstance(value, float) and not finite
                   or abs(value) <= sys.float_info.max))
    return None if ok else (kind, value)


def _is(kind, value, finite: bool = False) -> bool:
    """Whether `value` passes as the declared type `kind` (see _misfit)."""
    return _misfit(kind, value, finite) is None


def _in_interval(value: float, interval: str) -> bool:
    low, high = (float(end) for end in interval[1:-1].split(","))
    above = low <= value if interval[0] == "[" else low < value
    below = value <= high if interval[-1] == "]" else value < high
    return above and below


def _unallowed(kind, value, allowed) -> str | None:
    """What `value` of type `kind`, or an entry of it, is expected to be and
    is not, by `allowed`; None if it is allowed or unset (None)."""
    if isinstance(kind, (list, dict)):
        (item,) = kind if isinstance(kind, list) else kind.values()
        entries = value if isinstance(kind, list) else (value or {}).values()
        return next(filter(None, (_unallowed(item, v, allowed)
                                  for v in entries)), None)
    if isinstance(allowed, tuple):
        if value not in allowed:
            return f"expected one of {' | '.join(allowed)}, got {value!r}"
    elif (allowed is not None and value is not None
          and not _in_interval(value, allowed)):
        return f"expected a value in {allowed}, got {value!r}"
    return None


def _check(path: Path, fmt: dict, payload: dict,
           error: type[FedAnomError] = DataError) -> dict:
    """`payload`, read from `path`, once it meets file format `fmt`, every
    number finite; else an `error` naming the file and the key at fault."""
    for key, (kind, required, allowed, expected) in fmt.items():
        value = payload.get(key)
        if key not in payload:
            if required is True or (required and required in payload):
                raise error(f"{path}: missing key {key!r}")
        elif value is not None or required is not False:
            problem = (_unallowed(kind, value, allowed)
                       if _is(kind, value, finite=True) else
                       f"expected {expected}"
                       + ("" if kind is np.ndarray else f", got {value!r}"))
            if problem:
                raise error(f"{path}: {key}: {problem}")
    return payload


def _read_json(path: Path, fmt: dict,
               error: type[FedAnomError] = DataError) -> dict:
    """The JSON object in `path`, a leading byte-order mark skipped, checked
    against `fmt`; anything else is an `error` naming the file."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8-sig"))
    except ValueError:  # not UTF-8, or not JSON
        payload = None
    if not isinstance(payload, dict):
        raise error(f"{path}: expected a JSON object")
    return _check(path, fmt, payload, error)


@contextmanager
def _csv_text(path: Path) -> Iterator[TextIO]:
    """`path` opened for csv.reader, past any byte-order mark. A byte that
    is not UTF-8, or a field longer than csv's size limit, anywhere in the
    parse under it is a DataError that starts with the path."""
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError:
        raise DataError(f"{path}: expected UTF-8 text") from None
    except csv.Error as err:
        raise DataError(f"{path}: {err}") from None
