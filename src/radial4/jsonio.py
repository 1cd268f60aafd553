"""Deterministic JSON and CSV emission.

Regression suites pin output bytes, so floats are always rendered with 17
significant digits (round-trip exact for doubles), dict fields keep their
construction order, and no whitespace depends on the platform.  CSV uses
LF line endings regardless of platform.
"""

from __future__ import annotations

import io
import json
import math
from typing import Iterable, Sequence

from .errors import ValidationError


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValidationError(f"cannot serialize non-finite float {x}")
    return format(float(x), ".17g")


def _emit(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, dict):
        out.append("{")
        first = True
        for k, v in obj.items():
            if not isinstance(k, str):
                raise ValidationError(f"JSON object keys must be strings, got {k!r}")
            if not first:
                out.append(",")
            first = False
            out.append(json.dumps(k, ensure_ascii=True))
            out.append(":")
            _emit(v, out)
        out.append("}")
    elif type(obj) in (list, tuple):  # not a record: a NamedTuple is a tuple too
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _emit(v, out)
        out.append("]")
    else:
        raise ValidationError(f"cannot serialize object of type {type(obj).__name__}")


def dumps(obj) -> str:
    """Serialize to a deterministic single-line JSON string."""
    out: list = []
    _emit(obj, out)
    return "".join(out)


def csv_cell(value) -> str:
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def write_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render rows to CSV text with LF line endings and 17-digit floats.

    A row of as many floats as the header has names is one %-format of a
    "%.17g" template, the cells csv.writer would write unquoted; every
    other row, and one whose text shows a nan or inf (the only formatted
    floats with an "n"), goes through csv.writer, where csv_cell raises.
    """
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(header))
    width = len(header)
    template = ",".join(["%.17g"] * width) + "\n"
    for row in rows:
        if len(row) == width and all(type(c) is float for c in row):
            line = template % tuple(row)
            if "n" not in line:
                buf.write(line)
                continue
        writer.writerow([csv_cell(c) for c in row])
    return buf.getvalue()
