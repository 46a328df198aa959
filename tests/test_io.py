"""Tests for the file formats."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulilab import fieldio
from paulilab.grids import DIRICHLET_ZERO, PERIODIC, Grid
from paulilab.inference import IProbTable, expected_counts, gaussian_table, sample_dataset


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
    grid = Grid((63.0,), (64,), DIRICHLET_ZERO)
    table = gaussian_table(grid, 6.0, slices=2, color_angle=0.8)
    data = sample_dataset(table, 5000, seed=3)
    path = str(tmp_path / "data.csv")
    fieldio.write_dataset_csv(path, data)
    back = fieldio.read_dataset_csv(path)
    assert back.grid == data.grid
    assert back.repetitions == data.repetitions
    assert back.seed == data.seed
    np.testing.assert_array_equal(back.counts, data.counts)


def test_dataset_csv_round_trip_real_counts(tmp_path):
    grid = Grid((31.0,), (32,), DIRICHLET_ZERO)
    data = expected_counts(gaussian_table(grid, 4.0), 1000)
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
@given(data=datasets())
def test_dataset_csv_matches_row_loop_writer_and_round_trips(tmp_path_factory, data):
    path = str(tmp_path_factory.mktemp("csv") / "data.csv")
    fieldio.write_dataset_csv(path, data)
    with open(path, "rb") as handle:
        assert handle.read() == row_loop_dataset_csv(data)
    back = fieldio.read_dataset_csv(path)
    assert back.grid == data.grid and back.repetitions == data.repetitions
    assert back.seed == data.seed
    assert back.counts.tobytes() == data.counts.tobytes()


def _dataset_file(path, rows, repetitions):
    header = {"format": "paulilab-dataset-1", "repetitions": repetitions, "seed": 0,
              "grid": Grid((4.0,), (4,), PERIODIC).descriptor(), "slices": 1}
    path.write_text("# " + json.dumps(header) + "\ntau,j1,j2,j3,k,count\n"
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


def test_snapshot_binary_round_trip(tmp_path):
    grid = Grid((1.0, 2.0), (8, 12), PERIODIC)
    rng = np.random.default_rng(0)
    fields = {
        "density": rng.random((3,) + grid.shape),
        "wavefunction": rng.random((3,) + grid.shape + (2,))
        + 1j * rng.random((3,) + grid.shape + (2,)),
    }
    path = str(tmp_path / "snap.bin")
    fieldio.write_field_snapshots(path, grid, 0.25, fields, metadata={"note": "test"})
    grid2, dt, back, meta = fieldio.read_field_snapshots(path)
    assert grid2 == grid
    assert dt == 0.25
    assert meta == {"note": "test"}
    for name in fields:
        np.testing.assert_array_equal(back[name], fields[name])


def test_snapshot_layout_is_magic_length_header_then_arrays(tmp_path):
    grid = Grid((1.0,), (4,), PERIODIC)
    stack = np.arange(24.0).reshape(3, 4, 2) * (1 + 0.5j)
    path = tmp_path / "snap.bin"
    fieldio.write_field_snapshots(str(path), grid, 0.5, {"psi": stack[:, :, ::-1],
                                                        "empty": np.zeros((3, 0))})
    raw = path.read_bytes()
    length = int.from_bytes(raw[6:14], "little")
    assert raw[:6] == fieldio.SNAPSHOT_MAGIC
    assert raw[14 + length:] == np.ascontiguousarray(stack[:, :, ::-1]).tobytes()
    assert json.loads(raw[14:14 + length])["fields"][1] == {
        "name": "empty", "dtype": "float64", "shape": [3, 0]}


def test_snapshot_rejects_wrong_magic(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"NOTAFILE")
    with pytest.raises(fieldio.FormatError):
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


def test_atomic_write_no_residue(tmp_path):
    target = tmp_path / "file.txt"
    fieldio.atomic_write_text(str(target), "payload")
    assert target.read_text() == "payload"
    assert [n for n in os.listdir(tmp_path) if n.startswith(".tmp")] == []
