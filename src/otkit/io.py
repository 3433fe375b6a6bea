"""CSV, edge-list and report serialization.

Measures are one nonnegative real per line; cost matrices and plans are
dense CSV (n rows of n comma-separated reals); graphs are edge lists with
one 0-indexed "i j" pair per line.  Reports are JSON with a fixed key
order and floats printed with 17 significant digits so identical runs
produce byte-identical files.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from .core import CostMatrix, DiscreteMeasure, DomainError, InputError

#: Deviation of a measure file's sum from 1 above which a warning is issued.
MEASURE_SUM_WARN_TOL = 1e-9


def _parse_float(token: str, path, lineno: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise InputError(f"{path}:{lineno}: not a number: {token!r}") from None


def load_measure(path) -> DiscreteMeasure:
    """Read a measure CSV (one nonnegative real per line), auto-normalizing;
    ``DiscreteMeasure`` names what makes it invalid, after the path."""
    m = load_matrix(path)
    if m.shape[1] != 1:
        raise InputError(f"{path}: expected one value per line, got {m.shape[1]} columns")
    w = m[:, 0]
    if np.any(w < 0):
        bad = int(np.argmin(w)) + 1
        raise InputError(f"{path}:{bad}: negative measure entry")
    try:
        measure = DiscreteMeasure(w)
    except DomainError as exc:
        raise InputError(f"{path}: {exc}") from exc
    total = w.sum()
    if abs(total - 1.0) > MEASURE_SUM_WARN_TOL:
        warnings.warn(f"{path}: weights sum to {total:.12g}; renormalizing to 1", stacklevel=2)
    return measure


def load_matrix(path) -> np.ndarray:
    """Read a dense CSV matrix (rows of comma-separated reals)."""
    path = Path(path)
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            row = [_parse_float(tok, path, lineno) for tok in line.split(",")]
            if rows and len(row) != len(rows[0]):
                raise InputError(
                    f"{path}:{lineno}: expected {len(rows[0])} columns, got {len(row)}"
                )
            rows.append(row)
    if not rows:
        raise InputError(f"{path}: empty matrix file")
    return np.asarray(rows, dtype=float)


def load_cost(path) -> CostMatrix:
    """Read a cost matrix CSV; ``CostMatrix`` names what makes it invalid."""
    m = load_matrix(path)
    try:
        return CostMatrix(m)
    except DomainError as exc:
        raise InputError(f"{path}: {exc}") from exc


def load_edges(path) -> list[tuple[int, int]]:
    """Read an edge list: one '<i> <j>' pair of 0-indexed node ids per line."""
    path = Path(path)
    edges = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise InputError(f"{path}:{lineno}: expected 'i j', got {line!r}")
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError:
                raise InputError(f"{path}:{lineno}: node ids must be integers") from None
            edges.append((i, j))
    if not edges:
        raise InputError(f"{path}: empty edge list")
    return edges


def save_matrix(path, m) -> None:
    """Write a matrix as CSV, 17 significant digits, one format per row."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    row = ",".join(["%.17g"] * m.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.writelines(row % tuple(values) for values in m.tolist())


def save_vector(path, v) -> None:
    v = np.asarray(v, dtype=float)
    with open(path, "w") as fh:
        fh.write(("%.17g\n" * v.size) % tuple(v.tolist()))


def write_trace_csv(path, columns, rows) -> None:
    """Write trace rows (dicts) as CSV in the given column order."""
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt_cell(row.get(c)) for c in columns) + "\n")


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


# --- deterministic JSON ----------------------------------------------------

def _json_value(v, indent: int) -> str:
    pad = " " * indent
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    if isinstance(v, str):
        return '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(v, dict):
        if not v:
            return "{}"
        items = [
            f'{pad}  "{k}": {_json_value(v[k], indent + 2)}' for k in v
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(v, (list, tuple, np.ndarray)):
        seq = list(v)
        if not seq:
            return "[]"
        items = [pad + "  " + _json_value(x, indent + 2) for x in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(v).__name__}")


def dump_report_json(report: dict) -> str:
    """Serialize a report dict preserving insertion order, 17 sig digits."""
    return _json_value(report, 0) + "\n"


def write_report_json(path, report: dict) -> None:
    with open(path, "w") as fh:
        fh.write(dump_report_json(report))
