"""Path CSV exchange format and deterministic JSON/CSV writers.

Paths travel as UTF-8 CSV with header `t,x1,...,xd`, one row per sample,
`.` decimal separator.  Floats are written with repr (shortest
round-trip), which keeps repeated runs byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError
from .paths import SampledPath

_CSV_BLOCK_ROWS = 4096


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def path_to_csv(path: SampledPath, destination) -> None:
    """Write the path as CSV, stacking and formatting one block of
    _CSV_BLOCK_ROWS rows at a time: no whole-path table or list is built."""
    if path.values.ndim != 2:
        raise DataError("only vector-valued paths serialise to CSV")
    header = "t," + ",".join(f"x{i + 1}" for i in range(path.dimension))
    row = ",".join(["%r"] * (path.dimension + 1)) + "\n"
    with Path(destination).open("w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        # one %-format per block, and %r is repr
        for start in range(0, len(path.times), _CSV_BLOCK_ROWS):
            sl = slice(start, start + _CSV_BLOCK_ROWS)
            block = np.column_stack([path.times[sl], path.values[sl]])
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def path_from_csv(source) -> SampledPath:
    """Read a path CSV; a malformed row is a DataError naming its line."""
    text = Path(source).read_text(encoding="utf-8")
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or not lines[0][1].startswith("t,"):
        raise DataError(f"{source}: expected header t,x1,...,xd")
    width = lines[0][1].count(",") + 1
    rows = []
    for no, ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != width:
            raise DataError(f"{source}: line {no}: expected {width} columns, got {len(cells)}")
        try:
            rows.append([float(v) for v in cells])
        except ValueError as exc:
            raise DataError(f"{source}: line {no}: {exc}") from exc
    data = np.array(rows).reshape(len(rows), width)
    return SampledPath(data[:, 0], data[:, 1:])


def write_json(obj, destination) -> None:
    Path(destination).write_text(
        json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def write_csv_table(rows: Iterable[dict], columns: Sequence[str], destination) -> None:
    """Write dict rows under a fixed column order (deterministic bytes)."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(col, "")) for col in columns))
    Path(destination).write_text("\n".join(lines) + "\n", encoding="utf-8")
