"""File encodings: dataset CSV, binary field snapshots, and CSV tables whose
header and columns the runner that writes each table lays out.

All writers are deterministic (repr-exact floats, fixed row order) and go
through an atomic temp-file replace, so a run never leaves partial outputs.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import struct
import tempfile
from typing import Iterable, Sequence

import numpy as np

from .grids import Grid
from .inference import DetectionDataset

SNAPSHOT_MAGIC = b"PLFS1\n"
_DATASET_COLUMNS = "tau,j1,j2,j3,k,count"


class FormatError(ValueError):
    """Raised for malformed files."""


def _header(text, keys: tuple[str, ...]) -> dict:
    """The JSON object ``text`` of a file header, which must hold ``keys``."""
    try:
        header = json.loads(text)
    except ValueError as err:  # bad JSON, or bytes that are not UTF-8
        raise FormatError(f"malformed JSON header: {err}") from None
    missing = [key for key in keys if not isinstance(header, dict) or key not in header]
    if missing:
        raise FormatError(f"the header lacks {', '.join(map(repr, missing))}")
    return header


@contextlib.contextmanager
def _header_parts():
    """Raise the KeyError, TypeError or ValueError of reading a header's
    parts (a grid without extents, a field without a dtype) as FormatError."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as err:
        raise FormatError(f"malformed header part: {type(err).__name__}: {err}") from None


def _read(handle, size: int, what: str) -> bytes:
    data = handle.read(size)
    if len(data) != size:
        raise FormatError(f"truncated {what}: {len(data)} of {size} bytes")
    return data


# ---------------------------------------------------------------------------
# atomic writes
# ---------------------------------------------------------------------------


def atomic_write_chunks(path: str, chunks: Iterable) -> None:
    """Write the bytes-like ``chunks`` one after another to a temp file,
    then replace ``path`` with it."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path: str, data: bytes) -> None:
    atomic_write_chunks(path, (data,))


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def _fmt(value) -> str:
    """Deterministic cell formatting: integers plain, floats via repr."""
    if isinstance(value, str):
        if "," in value or "\n" in value:
            raise FormatError(f"cell text may not contain separators: {value!r}")
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    f = float(value)
    if f.is_integer() and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _fmt_column(cells: tuple) -> list[str]:
    """``_fmt`` of each cell; an all-float column is converted in one call."""
    if not set(map(type, cells)) <= {float, np.float64}:
        return [_fmt(v) for v in cells]
    floats = np.array(cells, dtype=np.float64).tolist()
    return [str(int(f)) if f.is_integer() and abs(f) < 1e15 else repr(f) for f in floats]


def write_table_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Rows of cells under a header line, each column formatted as ``_fmt``
    formats its cells; a row whose width is not the header's raises."""
    rows = list(rows)
    if any(len(row) != len(header) for row in rows):
        raise FormatError(f"every row needs {len(header)} cells, one per header name")
    columns = [_fmt_column(cells) for cells in zip(*rows)]
    lines = list(map(",".join, zip(*columns)))
    atomic_write_text(path, "\n".join([",".join(header)] + lines) + "\n")


# ---------------------------------------------------------------------------
# detection datasets
# ---------------------------------------------------------------------------


def write_dataset_csv(path: str, dataset: DetectionDataset) -> None:
    """Counts as (tau, j1, j2, j3, k, count) rows under a JSON header line.

    Zero-count cells are omitted; the header carries everything needed to
    rebuild the full array, and the round trip is bit-exact.  Rows follow
    the C order of the count array; counts print as ``_fmt`` prints them.
    """
    header = {
        "format": "paulilab-dataset-1",
        "repetitions": dataset.repetitions,
        "seed": dataset.seed,
        "grid": dataset.grid.descriptor(),
        "slices": dataset.slices,
    }
    counts = dataset.counts
    index = np.nonzero(counts)
    values = counts[index]
    rows = np.zeros((values.size, 6), dtype=np.int64)  # tau, j1, j2, j3, k, count
    rows[:, 0] = index[0]
    for ax in range(dataset.grid.dim):
        rows[:, 1 + ax] = index[1 + ax]
    rows[:, 4] = 1 - 2 * index[-1]  # color 0 -> k = 1, color 1 -> k = -1
    if np.all(np.abs(values) < 1e15) and np.all(np.trunc(values) == values):
        rows[:, 5] = values
        body = "%d,%d,%d,%d,%d,%d\n" * values.size % tuple(rows.ravel().tolist())
    else:
        cells = rows[:, :5].tolist()
        for cell, value in zip(cells, values.tolist()):
            cell.append(_fmt(value))
        body = "%d,%d,%d,%d,%d,%s\n" * len(cells) % tuple(itertools.chain(*cells))
    atomic_write_text(path, "# " + json.dumps(header, sort_keys=True) + "\n"
                      + _DATASET_COLUMNS + "\n" + body)


def read_dataset_csv(path: str) -> DetectionDataset:
    """Inverse of ``write_dataset_csv``.

    Raises ``FormatError`` for a malformed header or row: the header must be
    a JSON object with every key the writer writes, its repetitions, seed
    and slices integers and slices at least 1, and a row must have six
    cells, integral indices inside the grid (0 on axes the grid does not
    have), k = 1 or -1, a finite nonnegative count, and a cell no other row
    names.
    """
    with open(path, "r", encoding="utf-8") as handle:
        first = handle.readline()
        if not first.startswith("# "):
            raise FormatError("missing JSON header line")
        header = _header(first[2:], ("format", "repetitions", "seed", "grid", "slices"))
        if header["format"] != "paulilab-dataset-1":
            raise FormatError(f"unknown dataset format {header['format']!r}")
        not_int = [key for key in ("repetitions", "seed", "slices")
                   if not isinstance(header[key], int) or isinstance(header[key], bool)]
        if not_int:
            raise FormatError(f"header values must be integers: {', '.join(map(repr, not_int))}")
        if header["slices"] < 1:
            raise FormatError(f"header slices must be at least 1, got {header['slices']}")
        column_line = handle.readline().strip()
        if column_line != _DATASET_COLUMNS:
            raise FormatError(f"unexpected column header {column_line!r}")
        body = handle.read()
    with _header_parts():
        grid = Grid.from_descriptor(header["grid"])
    shape = (header["slices"],) + grid.shape + (1,) * (3 - grid.dim)
    rows = np.empty((0, 6))
    if body.strip():
        try:
            rows = np.loadtxt(io.StringIO(body), delimiter=",", dtype=np.float64,
                              comments=None, ndmin=2)
        except ValueError as err:
            raise FormatError(f"malformed dataset row: {err}") from None
    if rows.shape[1] != 6:
        raise FormatError(f"dataset rows need 6 cells, got {rows.shape[1]}")
    cell, k, value = rows[:, :4], rows[:, 4], rows[:, 5]
    bad = (cell != np.trunc(cell)) | (cell < 0) | (cell >= shape)
    if np.any(bad):
        row, col = np.argwhere(bad)[0]
        raise FormatError(f"data row {row + 1}: {_DATASET_COLUMNS.split(',')[col]} "
                          f"{cell[row, col]:g} is not an index below {shape[col]}")
    for ok, rule in (((k == 1) | (k == -1), "k must be 1 or -1"),
                     (np.isfinite(value) & (value >= 0), "count must be finite and >= 0")):
        if not np.all(ok):
            raise FormatError(f"data row {np.flatnonzero(~ok)[0] + 1}: {rule}")
    index = tuple(cell[:, : 1 + grid.dim].astype(np.intp).T) + ((k == -1).astype(np.intp),)
    counts = np.zeros((header["slices"],) + grid.shape + (2,))
    flat = np.ravel_multi_index(index, counts.shape)
    if np.bincount(flat, minlength=counts.size).max() > 1:
        raise FormatError("a (tau, j1, j2, j3, k) cell appears in more than one row")
    counts[index] = value
    return DetectionDataset(grid, counts, header["repetitions"], seed=header["seed"])


# ---------------------------------------------------------------------------
# binary field snapshots
# ---------------------------------------------------------------------------


def write_field_snapshots(
    path: str,
    grid: Grid,
    dt: float,
    fields: dict[str, np.ndarray],
    metadata: dict | None = None,
) -> None:
    """Flat binary layout: magic, JSON header, then row-major arrays.

    Each entry of ``fields`` is a stack of snapshots (time axis first); the
    header records grid, dt, dtypes and shapes for exact reconstruction.
    """
    entries = []
    arrays = []
    count = None
    for name, stack in fields.items():
        arr = np.ascontiguousarray(stack)
        if count is None:
            count = arr.shape[0]
        elif arr.shape[0] != count:
            raise FormatError("all field stacks must have the same snapshot count")
        entries.append({"name": name, "dtype": str(arr.dtype), "shape": list(arr.shape)})
        arrays.append(arr)
    header = {
        "format": "paulilab-snapshots-1",
        "grid": grid.descriptor(),
        "dt": dt,
        "snapshots": count or 0,
        "fields": entries,
        "metadata": metadata or {},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    # each body goes to the file straight from the array's buffer, uncopied
    atomic_write_chunks(path, [SNAPSHOT_MAGIC, struct.pack("<Q", len(blob)), blob]
                        + [memoryview(arr) for arr in arrays])


def read_field_snapshots(path: str):
    """Inverse of ``write_field_snapshots``: (grid, dt, fields, metadata).
    Raises ``FormatError`` unless the file is one whole snapshot file."""
    with open(path, "rb") as handle:
        magic = handle.read(len(SNAPSHOT_MAGIC))
        if magic != SNAPSHOT_MAGIC:
            raise FormatError("not a snapshot file")
        (length,) = struct.unpack("<Q", _read(handle, 8, "header length"))
        header = _header(_read(handle, length, "header"),
                         ("format", "grid", "dt", "snapshots", "fields", "metadata"))
        with _header_parts():
            grid = Grid.from_descriptor(header["grid"])
            entries = [(e["name"], np.dtype(e["dtype"]), tuple(e["shape"]))
                       for e in header["fields"]]
        fields = {}
        for name, dtype, shape in entries:
            n_bytes = dtype.itemsize * int(np.prod(shape))
            raw = _read(handle, n_bytes, f"body of field {name!r}")
            fields[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
        if handle.read(1):
            raise FormatError("bytes after the last field")
    return grid, header["dt"], fields, header["metadata"]
