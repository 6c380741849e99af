"""CSV persistence with lossless float round-trips.

Floats are written with repr, which in Python 3 is the shortest string that
parses back to the same IEEE-754 double, so emitted files re-ingest
bit-exactly.  Files use LF line endings and UTF-8 regardless of platform.
"""

from __future__ import annotations

import csv
import io
from typing import Optional

import numpy as np


def format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def parse_value(text: str):
    """The value format_value wrote as text, read back when re-ingesting
    emitted CSVs.  Text becomes an int or a float only when format_value
    writes that number as exactly that text, so "007", "1_000" or "1e3"
    (which it never writes) stay strings."""
    if text == "":
        return None
    if text == "true":
        return True
    if text == "false":
        return False
    for kind, written in ((int, str), (float, repr)):
        try:
            value = kind(text)
        except ValueError:
            continue
        if written(value) == text:
            return value
    return text


def emit_csv(rows: list[dict], path, columns: Optional[list[str]] = None):
    """Write dict rows with a fixed column order; LF endings, UTF-8."""
    if not rows:
        raise ValueError("refusing to write an empty results CSV")
    if columns is None:
        columns = list(rows[0].keys())
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        extra = set(row) - set(columns)
        if extra:
            raise ValueError(f"row has columns not in the header: {sorted(extra)}")
        writer.writerow([format_value(row.get(c)) for c in columns])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())


def read_csv(path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty CSV") from None
        return [dict(zip(header, map(parse_value, row))) for row in reader]


def emit_metadata(path, lines: list[str]):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
