"""CSV and JSON report helpers.

CSV output follows RFC 4180 (CRLF record separators, UTF-8); floats are
written with shortest round-trip formatting so identical runs produce
identical bytes.
"""

from __future__ import annotations

import csv
import json

import numpy as np

SCHEMA_VERSION = 1


def _fmt(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def write_report(path, payload: dict) -> None:
    body = {"schema_version": SCHEMA_VERSION}
    body.update(_jsonable(payload))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(body, fh, indent=2, sort_keys=True)
        fh.write("\n")
