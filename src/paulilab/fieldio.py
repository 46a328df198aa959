"""File encodings: dataset CSV, binary field snapshots, and CSV tables whose
header and columns the runner that writes each table lays out.

All writers are deterministic (repr-exact floats, fixed row order) and go
through an atomic temp-file replace, so a run never leaves partial outputs.
A snapshot file is written one record at a time, straight to its file
(``field_snapshot_stream``), and a dataset or a table a block of rows at a
time, so no writer holds its whole file in memory.
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
# dataset and table rows are formatted and written this many at a time
_BLOCK_ROWS = 4096


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


@contextlib.contextmanager
def _atomic_file(path: str):
    """A binary handle on a temp file beside ``path``, which replaces ``path``
    when the block exits cleanly; on any error the temp file is removed and
    ``path`` keeps what it held."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path: str, data: bytes) -> None:
    with _atomic_file(path) as handle:
        handle.write(data)


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
    formats its cells; a row whose width is not the header's raises.  The
    rows are formatted and written a block at a time, each block's columns
    formatted alike."""
    rows = iter(rows)
    with _atomic_file(path) as handle:
        handle.write((",".join(header) + "\n").encode("utf-8"))
        while block := list(itertools.islice(rows, _BLOCK_ROWS)):
            if any(len(row) != len(header) for row in block):
                raise FormatError(f"every row needs {len(header)} cells, one per header name")
            columns = [_fmt_column(cells) for cells in zip(*block)]
            del block  # each stage's cells go before the next stage's are built
            lines = list(map(",".join, zip(*columns)))
            del columns
            lines.append("")  # the newline after the block's last line
            handle.write("\n".join(lines).encode("utf-8"))


# ---------------------------------------------------------------------------
# detection datasets
# ---------------------------------------------------------------------------


def _dataset_blocks(counts: np.ndarray, dim: int):
    """The encoded rows of the nonzero cells of ``counts``, in C order,
    ``_BLOCK_ROWS`` rows at a time: only the flat indices of the
    nonzero cells are held whole."""
    nonzero = np.flatnonzero(counts)
    for start in range(0, nonzero.size, _BLOCK_ROWS):
        index = np.unravel_index(nonzero[start:start + _BLOCK_ROWS], counts.shape)
        values = counts[index]
        rows = np.zeros((values.size, 6), dtype=np.int64)  # tau, j1, j2, j3, k, count
        rows[:, 0] = index[0]
        for ax in range(dim):
            rows[:, 1 + ax] = index[1 + ax]
        rows[:, 4] = 1 - 2 * index[-1]  # color 0 -> k = 1, color 1 -> k = -1
        # an integral count prints alike either way, so each block picks its own
        if np.all(np.abs(values) < 1e15) and np.all(np.trunc(values) == values):
            rows[:, 5] = values
            body = "%d,%d,%d,%d,%d,%d\n" * values.size % tuple(rows.ravel().tolist())
        else:
            cells = rows[:, :5].tolist()
            for cell, value in zip(cells, values.tolist()):
                cell.append(_fmt(value))
            body = "%d,%d,%d,%d,%d,%s\n" * len(cells) % tuple(itertools.chain(*cells))
        yield body.encode("utf-8")


def write_dataset_csv(path: str, dataset: DetectionDataset) -> None:
    """Counts as (tau, j1, j2, j3, k, count) rows under a JSON header line.

    Zero-count cells are omitted; the header carries everything needed to
    rebuild the full array, and the round trip is bit-exact.  Rows follow
    the C order of the count array; counts print as ``_fmt`` prints them.
    The rows are formatted and written a block at a time.
    """
    header = {
        "format": "paulilab-dataset-1",
        "repetitions": dataset.repetitions,
        "seed": dataset.seed,
        "grid": dataset.grid.descriptor(),
        "slices": dataset.slices,
    }
    head = "# " + json.dumps(header, sort_keys=True) + "\n" + _DATASET_COLUMNS + "\n"
    with _atomic_file(path) as handle:
        handle.write(head.encode("utf-8"))
        for block in _dataset_blocks(dataset.counts, dataset.grid.dim):
            handle.write(block)


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


@contextlib.contextmanager
def field_snapshot_stream(path: str, grid: Grid, dt: float, name: str, shape: tuple,
                          dtype, count: int, metadata: dict):
    """Write a snapshot file of one field, ``count`` records of ``shape`` and
    ``dtype``, one record at a time.  Yields ``write(record)``.

    The file is the magic, the length of the JSON header, the header (grid,
    dt, the record count and the field's dtype and (count,) + shape), then
    the records in C order, one after another.  ``write`` writes its record
    to a temp file, in the file's dtype, and counts it; so the caller may
    overwrite the record once ``write`` returns, and the memory held does not
    grow with ``count``.  The temp file replaces ``path`` when the block
    exits cleanly having written exactly ``count`` records; otherwise it is
    removed, ``path`` keeps what it held, and a wrong count raises
    ``FormatError``.
    """
    shape, dtype = tuple(shape), np.dtype(dtype)
    header = {
        "format": "paulilab-snapshots-1",
        "grid": grid.descriptor(),
        "dt": dt,
        "snapshots": count,
        "fields": [{"name": name, "dtype": str(dtype), "shape": [count, *shape]}],
        "metadata": metadata,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    written = 0
    with _atomic_file(path) as handle:
        handle.write(SNAPSHOT_MAGIC + struct.pack("<Q", len(blob)) + blob)

        def write(record: np.ndarray) -> None:
            nonlocal written
            if record.shape != shape:
                raise FormatError(f"a record of shape {record.shape}, not {shape}")
            handle.write(np.ascontiguousarray(record, dtype))
            written += 1

        yield write
        if written != count:
            raise FormatError(f"{written} records written, not the header's {count}")


def read_field_snapshots(path: str):
    """Inverse of ``field_snapshot_stream``: (grid, dt, fields, metadata),
    ``fields`` a dict of the stacked records of each field in the file.
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
