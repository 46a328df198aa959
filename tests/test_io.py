"""Tests for the file formats."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import whole_array_snapshots
from paulilab import fieldio
from paulilab.grids import DIRICHLET_ZERO, PERIODIC, Grid
from paulilab.inference import IProbTable, expected_counts, sample_dataset
from paulilab.verification import lattice_table


def row_loop_dataset_csv(dataset) -> bytes:
    """The dataset CSV as the one-row-at-a-time writer produced it: the
    byte oracle for ``fieldio.write_dataset_csv``."""
    header = {
        "format": "paulilab-dataset-1",
        "repetitions": dataset.repetitions,
        "seed": dataset.seed,
        "grid": dataset.grid.descriptor(),
        "slices": dataset.slices,
    }
    lines = ["# " + json.dumps(header, sort_keys=True)]
    lines.append("tau,j1,j2,j3,k,count")
    counts = dataset.counts
    dim = dataset.grid.dim
    for index in np.argwhere(counts != 0):
        tau = index[0]
        voxel = [0, 0, 0]
        voxel[:dim] = list(index[1 : 1 + dim])
        k = 1 if index[-1] == 0 else -1
        value = counts[tuple(index)]
        lines.append(f"{tau},{voxel[0]},{voxel[1]},{voxel[2]},{k},{fieldio._fmt(value)}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def test_dataset_csv_round_trip_sampled(tmp_path):
    table = lattice_table(64, 6.0, slices=2, color_angle=0.8)
    data = sample_dataset(table, 5000, seed=3)
    path = str(tmp_path / "data.csv")
    fieldio.write_dataset_csv(path, data)
    back = fieldio.read_dataset_csv(path)
    assert back.grid == data.grid
    assert back.repetitions == data.repetitions
    assert back.seed == data.seed
    np.testing.assert_array_equal(back.counts, data.counts)


def test_dataset_csv_round_trip_real_counts(tmp_path):
    data = expected_counts(lattice_table(32, 4.0), 1000)
    path = str(tmp_path / "ideal.csv")
    fieldio.write_dataset_csv(path, data)
    back = fieldio.read_dataset_csv(path)
    np.testing.assert_array_equal(back.counts, data.counts)  # bit-exact floats


def test_dataset_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("tau,j1\n0,1\n")
    with pytest.raises(fieldio.FormatError):
        fieldio.read_dataset_csv(str(path))


@st.composite
def datasets(draw):
    """Datasets on 1-3-D grids of either boundary: multinomial integer
    counts, or real expected counts N * P (integral ones among them when P
    is dyadic), with empty cells and, at N = 0, all-zero slices."""
    boundary = draw(st.sampled_from([PERIODIC, DIRICHLET_ZERO]))
    low = 2 if boundary == DIRICHLET_ZERO else 1
    cells = draw(st.lists(st.integers(low, 5), min_size=1, max_size=3))
    grid = Grid(tuple(float(n) for n in cells), tuple(cells), boundary)
    slices = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.random((slices,) + grid.shape + (2,))
    raw[rng.random(raw.shape) < draw(st.sampled_from([0.0, 0.5, 0.9]))] = 0.0
    raw[:, (0,) * grid.dim + (0,)] += 1.0  # every slice keeps some support
    if draw(st.booleans()):
        raw = np.round(raw * 4.0)  # dyadic table: N * P integral for N a multiple of its sum
    table = IProbTable(grid, raw / raw.sum(axis=tuple(range(1, raw.ndim)), keepdims=True))
    repetitions = draw(st.sampled_from([0, 1, 7, 4096, 100000, 2**60]))
    if draw(st.booleans()):
        return sample_dataset(table, min(repetitions, 10**6), seed=draw(st.integers(0, 99)))
    return expected_counts(table, repetitions)


@settings(max_examples=120, deadline=None)
@given(data=datasets(), block_rows=st.sampled_from([None, 1, 2, 3, 7]))
def test_dataset_csv_matches_row_loop_writer_and_round_trips(tmp_path_factory, data,
                                                            block_rows):
    # small blocks split the rows, and integral and real counts, across blocks
    path = str(tmp_path_factory.mktemp("csv") / "data.csv")
    with pytest.MonkeyPatch.context() as patch:
        if block_rows is not None:
            patch.setattr(fieldio, "_BLOCK_ROWS", block_rows)
        fieldio.write_dataset_csv(path, data)
    with open(path, "rb") as handle:
        assert handle.read() == row_loop_dataset_csv(data)
    back = fieldio.read_dataset_csv(path)
    assert back.grid == data.grid and back.repetitions == data.repetitions
    assert back.seed == data.seed
    assert back.counts.tobytes() == data.counts.tobytes()


def _dataset_header(**parts):
    header = {"format": "paulilab-dataset-1", "repetitions": 2, "seed": 0,
              "grid": Grid((4.0,), (4,), PERIODIC).descriptor(), "slices": 1, **parts}
    return "# " + json.dumps(header)


def _dataset_file(path, rows, repetitions):
    path.write_text(_dataset_header(repetitions=repetitions) + "\ntau,j1,j2,j3,k,count\n"
                    + "".join(row + "\n" for row in rows))
    return str(path)


def test_dataset_csv_reads_a_well_formed_file(tmp_path):
    back = fieldio.read_dataset_csv(
        _dataset_file(tmp_path / "ok.csv", ["0,3,0,0,-1,1.5", "", "0,0,0,0,1,0.5"], 2))
    expect = np.zeros((1, 4, 2))
    expect[0, 3, 1], expect[0, 0, 0] = 1.5, 0.5
    np.testing.assert_array_equal(back.counts, expect)


@pytest.mark.parametrize("rows,repetitions", [
    (["0,-1,0,0,1,2"], 2),  # negative index
    (["0,1,0,0,0,2"], 2),  # k = 0
    (["0,4,0,0,1,2"], 2),  # j1 past the last cell
    (["1,0,0,0,1,2"], 2),  # tau past the last slice
    (["0,1,1,0,1,2"], 2),  # j2 on a 1-D grid
    (["0,1,0,1,2"], 2),  # five cells
    (["0,1.5,0,0,1,2"], 2),  # fractional index
    (["0,1,0,0,1,3", "0,1,0,0,1,2"], 2),  # one cell twice
    (["0,1,0,0,1,nan"], 2),  # count not finite
    (["0,1,0,0,1,-2", "0,2,0,0,1,4"], 2),  # negative count
], ids=["negative_index", "k_zero", "j1_range", "tau_range", "missing_axis", "five_cells",
        "fractional_index", "duplicate_cell", "nan_count", "negative_count"])
def test_dataset_csv_rejects_malformed_rows(tmp_path, rows, repetitions):
    with pytest.raises(fieldio.FormatError):
        fieldio.read_dataset_csv(_dataset_file(tmp_path / "bad.csv", rows, repetitions))


# (tau, j1, j2, k) on 2 slices of a 3 x 2 grid
_CELLS = st.tuples(st.integers(0, 1), st.integers(0, 2), st.integers(0, 1),
                   st.sampled_from([1, -1]))


@settings(max_examples=80, deadline=None)
@given(rows=st.lists(_CELLS, max_size=10), repeat=st.booleans(), data=st.data())
def test_dataset_csv_rejects_exactly_the_rows_that_repeat_a_cell(tmp_path_factory, rows,
                                                                  repeat, data):
    # np.unique is the oracle for the reader's linear-time duplicate check;
    # zero counts with zero repetitions make any set of distinct cells valid
    if repeat and rows:
        rows = rows + [data.draw(st.sampled_from(rows))]
    header = _dataset_header(grid=Grid((3.0, 2.0), (3, 2), PERIODIC).descriptor(), slices=2,
                             repetitions=0)
    path = tmp_path_factory.mktemp("cells") / "rows.csv"
    path.write_text(header + "\ntau,j1,j2,j3,k,count\n"
                    + "".join(f"{tau},{j1},{j2},0,{k},0\n" for tau, j1, j2, k in rows))
    if len(np.unique(np.reshape(rows, (-1, 4)), axis=0)) != len(rows):
        with pytest.raises(fieldio.FormatError, match="appears in more than one row"):
            fieldio.read_dataset_csv(str(path))
    else:
        assert fieldio.read_dataset_csv(str(path)).counts.shape == (2, 3, 2, 2)


@pytest.mark.parametrize("header_line,message", [
    ('# {"format": "paulilab-dataset-1", "grid": ', "malformed JSON header"),
    ('# {"format": "paulilab-dataset-1", "repetitions": 2, "seed": 0, "slices": 1}',
     "lacks 'grid'"),
    ('# {"format": "paulilab-dataset-1", "grid": {"cells": [4]}, "repetitions": 2, '
     '"seed": 0, "slices": 1}', "malformed header part: KeyError: 'extents'"),
    (_dataset_header(slices="a"), "must be integers: 'slices'"),
    (_dataset_header(slices=1.5), "must be integers: 'slices'"),
    (_dataset_header(slices=True), "must be integers: 'slices'"),
    (_dataset_header(repetitions="a"), "must be integers: 'repetitions'"),
    (_dataset_header(repetitions=100.0), "must be integers: 'repetitions'"),
    (_dataset_header(seed="x"), "must be integers: 'seed'"),
], ids=["bad_json", "missing_key", "grid_without_extents", "slices_string", "slices_float",
        "slices_bool", "repetitions_string", "repetitions_float", "seed_string"])
def test_dataset_csv_rejects_malformed_header(tmp_path, header_line, message):
    path = tmp_path / "bad.csv"
    path.write_text(header_line + "\ntau,j1,j2,j3,k,count\n0,1,0,0,1,2\n")
    with pytest.raises(fieldio.FormatError, match=message):
        fieldio.read_dataset_csv(str(path))


@pytest.mark.parametrize("parts", [{"slices": -1}, {"slices": 0, "repetitions": 0}],
                         ids=["slices_negative", "slices_zero"])
def test_dataset_csv_rejects_slices_below_one_without_rows(tmp_path, parts):
    # with no data row to check against the slice count, the header bound
    # alone stands between the count and numpy's shape errors
    path = tmp_path / "bad.csv"
    path.write_text(_dataset_header(**parts) + "\ntau,j1,j2,j3,k,count\n")
    message = f"slices must be at least 1, got {parts['slices']}"
    with pytest.raises(fieldio.FormatError, match=message):
        fieldio.read_dataset_csv(str(path))


def stream_stack(path, grid, dt, name, stack, metadata=None, count=None):
    """Stream the records of ``stack`` to a snapshot file whose header says
    ``count`` records (default: all of them)."""
    with fieldio.field_snapshot_stream(str(path), grid, dt, name, stack.shape[1:], stack.dtype,
                                       len(stack) if count is None else count,
                                       metadata or {}) as write:
        for record in stack:
            write(record)


def test_snapshot_binary_round_trip(tmp_path):
    grid = Grid((1.0, 2.0), (8, 12), PERIODIC)
    rng = np.random.default_rng(0)
    fields = {
        "density": rng.random((3,) + grid.shape),
        "wavefunction": rng.random((3,) + grid.shape + (2,))
        + 1j * rng.random((3,) + grid.shape + (2,)),
    }
    path = tmp_path / "snap.bin"
    stream_stack(path, grid, 0.25, "wavefunction", fields["wavefunction"], {"note": "test"})
    grid2, dt, back, meta = fieldio.read_field_snapshots(str(path))
    assert grid2 == grid
    assert dt == 0.25
    assert meta == {"note": "test"}
    assert list(back) == ["wavefunction"]
    np.testing.assert_array_equal(back["wavefunction"], fields["wavefunction"])
    # the reader takes a file of several fields, one after another
    path.write_bytes(whole_array_snapshots(grid, 0.25, fields, {}))
    _grid, _dt, back, _meta = fieldio.read_field_snapshots(str(path))
    for name in fields:
        np.testing.assert_array_equal(back[name], fields[name])


def test_snapshot_layout_is_magic_length_header_then_arrays(tmp_path):
    grid = Grid((1.0,), (4,), PERIODIC)
    stack = np.arange(24.0).reshape(3, 4, 2) * (1 + 0.5j)
    path = tmp_path / "snap.bin"
    stream_stack(path, grid, 0.5, "psi", stack[:, :, ::-1])
    raw = path.read_bytes()
    length = int.from_bytes(raw[6:14], "little")
    assert raw[:6] == fieldio.SNAPSHOT_MAGIC
    assert raw[14 + length:] == np.ascontiguousarray(stack[:, :, ::-1]).tobytes()
    assert json.loads(raw[14:14 + length])["fields"] == [
        {"name": "psi", "dtype": "complex128", "shape": [3, 4, 2]}]
    stream_stack(path, grid, 0.5, "empty", np.zeros((3, 0)))
    raw = path.read_bytes()
    length = int.from_bytes(raw[6:14], "little")
    assert len(raw) == 14 + length
    assert json.loads(raw[14:14 + length])["fields"] == [
        {"name": "empty", "dtype": "float64", "shape": [3, 0]}]


@pytest.mark.parametrize("records", [0, 1, 5, 12])
def test_snapshot_stream_is_the_whole_array_encoding(tmp_path, records):
    grid = Grid((1.0,), (3,), PERIODIC)
    rng = np.random.default_rng(records)
    stack = rng.random((records, 2, 3)) + 1j * rng.random((records, 2, 3))
    path = tmp_path / "snap.bin"
    stream_stack(path, grid, 0.1, "psi", np.moveaxis(stack, 1, -1), {"setup": "x"})
    assert path.read_bytes() == whole_array_snapshots(
        grid, 0.1, {"psi": np.moveaxis(stack, 1, -1)}, {"setup": "x"})


@pytest.mark.parametrize("count,message", [
    (4, "3 records written, not the header's 4"),
    (2, "3 records written, not the header's 2"),
])
def test_snapshot_stream_of_the_wrong_count_keeps_the_previous_file(tmp_path, count, message):
    grid = Grid((1.0,), (4,), PERIODIC)
    path = tmp_path / "snap.bin"
    path.write_bytes(b"previous")
    with pytest.raises(fieldio.FormatError, match=message):
        stream_stack(path, grid, 0.5, "psi", np.ones((3, 4)), count=count)
    assert path.read_bytes() == b"previous"
    assert os.listdir(tmp_path) == ["snap.bin"]


def raise_after_the_first_record(path, monkeypatch):  # monkeypatch: the dataset helper's signature
    with fieldio.field_snapshot_stream(path, Grid((1.0,), (4,), PERIODIC), 0.5, "psi", (4,),
                                       np.float64, 3, {}) as write:
        write(np.ones(4))
        raise RuntimeError("mid-stream")


def raise_after_the_first_dataset_block(path, monkeypatch):
    blocks = fieldio._dataset_blocks

    def first_block_then_raise(counts, dim):
        yield next(blocks(counts, dim))
        raise RuntimeError("mid-stream")

    monkeypatch.setattr(fieldio, "_BLOCK_ROWS", 2)
    monkeypatch.setattr(fieldio, "_dataset_blocks", first_block_then_raise)
    fieldio.write_dataset_csv(path, expected_counts(lattice_table(32, 4.0), 1000))


def table_row_of_another_width_in_the_second_block(path, monkeypatch):
    monkeypatch.setattr(fieldio, "_BLOCK_ROWS", 2)
    fieldio.write_table_csv(path, ["a", "b"], [(1, 2.0), (3, 4.0), (5, 6.0, 7.0)])


@pytest.mark.parametrize("write,error,message", [
    (raise_after_the_first_record, RuntimeError, "mid-stream"),
    (raise_after_the_first_dataset_block, RuntimeError, "mid-stream"),
    (table_row_of_another_width_in_the_second_block, fieldio.FormatError,
     "every row needs 2 cells"),
], ids=["snapshots", "dataset", "table"])
def test_writer_that_raises_keeps_the_previous_file(tmp_path, monkeypatch, write, error,
                                                    message):
    # each writer has put its head and a first record or block in the temp file
    path = tmp_path / "out"
    path.write_bytes(b"previous")
    with pytest.raises(error, match=message):
        write(str(path), monkeypatch)
    assert path.read_bytes() == b"previous"
    assert os.listdir(tmp_path) == ["out"]


def test_snapshot_stream_rejects_a_record_of_another_shape(tmp_path):
    path = tmp_path / "snap.bin"
    with pytest.raises(fieldio.FormatError, match=r"a record of shape \(1,\), not \(4,\)"):
        with fieldio.field_snapshot_stream(str(path), Grid((1.0,), (4,), PERIODIC), 0.5, "psi",
                                           (4,), np.float64, 1, {}) as write:
            write(np.ones(1))  # would broadcast into the record
    assert os.listdir(tmp_path) == []


def test_snapshot_rejects_wrong_magic(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"NOTAFILE")
    with pytest.raises(fieldio.FormatError):
        fieldio.read_field_snapshots(str(path))


@pytest.mark.parametrize("cut,message", [
    (lambda raw, length: raw[:10], "truncated header length"),
    (lambda raw, length: raw[:14 + length - 1], "truncated header"),
    (lambda raw, length: raw + b"\0", "bytes after the last field"),
], ids=["length_prefix_cut", "header_cut", "trailing_bytes"])
def test_snapshot_rejects_a_file_that_is_not_whole(tmp_path, cut, message):
    path = tmp_path / "snap.bin"
    stream_stack(path, Grid((1.0,), (4,), PERIODIC), 0.5, "psi", np.ones((2, 4)))
    raw = path.read_bytes()
    path.write_bytes(cut(raw, int.from_bytes(raw[6:14], "little")))
    with pytest.raises(fieldio.FormatError, match=message):
        fieldio.read_field_snapshots(str(path))


def test_snapshot_rejects_a_field_entry_without_dtype(tmp_path):
    path = tmp_path / "snap.bin"
    stream_stack(path, Grid((1.0,), (4,), PERIODIC), 0.5, "psi", np.ones((2, 4)))
    raw = path.read_bytes()
    length = int.from_bytes(raw[6:14], "little")
    header = json.loads(raw[14:14 + length])
    del header["fields"][0]["dtype"]
    blob = json.dumps(header).encode()
    path.write_bytes(raw[:6] + len(blob).to_bytes(8, "little") + blob + raw[14 + length:])
    with pytest.raises(fieldio.FormatError, match="malformed header part: KeyError: 'dtype'"):
        fieldio.read_field_snapshots(str(path))


def test_table_csv_deterministic(tmp_path):
    rows = [(0, 0.1, 3), (1, 0.25, 4)]
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    fieldio.write_table_csv(a, ["i", "x", "n"], rows)
    fieldio.write_table_csv(b, ["i", "x", "n"], rows)
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()
    with open(a) as fa:
        text = fa.read()
    assert text.splitlines()[0] == "i,x,n"
    assert text.splitlines()[1] == "0,0.1,3"


def cell_loop_table_csv(header, rows) -> bytes:
    """The table as the one-cell-at-a-time writer produced it: the byte
    oracle for ``fieldio.write_table_csv``."""
    lines = [",".join(header)] + [",".join(fieldio._fmt(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


_EDGE_FLOATS = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e15, -1e15, 1e15 - 1.0, 1e15 + 2.0,
                999999999999999.9, -999999999999999.0, 2.0**53, 1e300, 5e-324, 0.1, -3.0]
_FLOATS = st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS),
                    st.integers(-2**60, 2**60).map(float))
_INTS = st.integers(-2**62, 2**62)
_CELLS = {
    "float": _FLOATS,
    "float64": _FLOATS.map(np.float64),
    "mixed_floats": st.one_of(_FLOATS, _FLOATS.map(np.float64)),
    "int": st.one_of(_INTS, _INTS.map(np.int64)),
    "text": st.text(st.characters(blacklist_characters=",\n", blacklist_categories=("Cs",)),
                    max_size=6),
    "any": st.one_of(_FLOATS, _FLOATS.map(np.float64), _INTS, st.booleans(),
                     st.sampled_from(["", "x", "nan"])),
}


@st.composite
def tables(draw):
    """A header and its rows, each column drawn from one kind of cell."""
    n_rows = draw(st.integers(0, 10))
    kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1, max_size=4))
    columns = [draw(st.lists(_CELLS[kind], min_size=n_rows, max_size=n_rows)) for kind in kinds]
    return kinds, list(zip(*columns))


@settings(max_examples=300, deadline=None)
@given(table=tables(), block_rows=st.sampled_from([None, 1, 3]))
def test_table_csv_matches_cell_loop_writer(tmp_path_factory, table, block_rows):
    # small blocks split a column, and its kinds of cell, across blocks
    header, rows = table
    path = str(tmp_path_factory.mktemp("table") / "table.csv")
    with pytest.MonkeyPatch.context() as patch:
        if block_rows is not None:
            patch.setattr(fieldio, "_BLOCK_ROWS", block_rows)
        fieldio.write_table_csv(path, header, iter(rows))
    with open(path, "rb") as handle:
        assert handle.read() == cell_loop_table_csv(header, rows)


@pytest.mark.parametrize("rows", [[(1, 2.0), (3,)], [(1, 2.0, 4)], [(0.5, 1.0), (0.5, 1.0, 2.0)]])
def test_table_csv_rejects_rows_of_another_width(tmp_path, rows):
    path = tmp_path / "table.csv"
    with pytest.raises(fieldio.FormatError, match="every row needs 2 cells"):
        fieldio.write_table_csv(str(path), ["a", "b"], rows)
    assert not path.exists()


def test_atomic_write_no_residue(tmp_path):
    target = tmp_path / "file.txt"
    fieldio.atomic_write_text(str(target), "payload")
    assert target.read_text() == "payload"
    assert [n for n in os.listdir(tmp_path) if n.startswith(".tmp")] == []
