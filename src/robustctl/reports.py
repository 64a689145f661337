"""Deterministic report files: one summary JSON plus CSV tables.

Output depends only on the results dict: keys are sorted, floats use their
shortest round-trip form, and nothing records wall-clock time or host
details, so two runs with equal inputs produce byte-identical files no
matter how work was chunked or threaded.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

from .errors import ConfigError

__all__ = ["SUMMARY_VERSION", "summary_to_json", "emit_report", "format_cell"]

SUMMARY_VERSION = 1


def summary_to_json(summary: dict) -> str:
    """Canonical JSON text for a summary of plain Python values (sorted keys, no NaN/inf)."""
    try:
        return json.dumps(summary, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ConfigError(f"summary contains a non-finite number: {exc}") from exc


def format_cell(value) -> str:
    """One CSV cell: floats by repr (shortest round-trip), rest by str."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _write_csv(path: str, header: list, rows) -> None:
    """Stream one table to ``path``: the header, then each row as it is read
    from ``rows`` (any iterable of rows), formatted cell by cell.  A rows
    object with a ``formatted()`` method is written from it instead: it
    yields blocks of rows whose cells are already the strings
    :func:`format_cell` makes of them."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        if hasattr(rows, "formatted"):
            for block in rows.formatted():
                writer.writerows(block)
        else:
            writer.writerows([format_cell(c) for c in row] for row in rows)


def emit_report(summary: dict, tables: dict, out_dir: str) -> list:
    """Write summary.json and one CSV per table; returns the paths written.

    ``tables`` maps a base name to (header, rows), ``rows`` any iterable of
    rows (or an object that formats its own, see :func:`_write_csv`); each
    is formatted as it is written.  Table names become
    ``<name>.csv`` inside ``out_dir``; the directory is created if missing.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    summary_path = os.path.join(out_dir, "summary.json")
    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(summary_to_json(summary))
    paths.append(summary_path)
    for name in sorted(tables):
        header, rows = tables[name]
        path = os.path.join(out_dir, f"{name}.csv")
        _write_csv(path, list(header), rows)
        paths.append(path)
    return paths
