import numpy as np
import pytest
import scipy.io
import scipy.sparse

from traceinv import InvalidShape, SpdMatrix, grid_points, shifted_operand
from traceinv.io import load_matrix, load_points, save_matrix, save_points


def test_dense_csv_round_trip(tmp_path):
    A = SpdMatrix.from_dense([[2.0, 0.5], [0.5, 1.0]])
    path = tmp_path / "a.csv"
    save_matrix(path, A)
    B = load_matrix(path)
    np.testing.assert_array_equal(B.to_dense(), A.to_dense())


def test_matrix_market_round_trip(tmp_path):
    dense = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]])
    path = tmp_path / "a.mtx"
    save_matrix(path, SpdMatrix.from_dense(dense))
    B = load_matrix(path)
    np.testing.assert_allclose(B.to_dense(), dense)
    header = path.read_text().splitlines()[0]
    assert "symmetric" in header


def test_sparse_matrix_market_round_trip(tmp_path):
    # a coordinate file written from sparse storage loads into packed storage
    dense = np.diag([1.0, 2.0, 3.0])
    dense[0, 2] = dense[2, 0] = 0.1
    path = tmp_path / "s.mtx"
    scipy.io.mmwrite(path, scipy.sparse.csr_matrix(dense), symmetry="symmetric")
    B = load_matrix(path)
    assert B.kind == "packed" and B.data.shape == (6,)
    np.testing.assert_array_equal(B.to_dense(), dense)


@pytest.mark.parametrize("suffix", [".csv", ".mtx"])
def test_shifted_operand_saves_its_entries(tmp_path, suffix):
    # the shift is part of the operand: A + t*I is written, not A
    A = SpdMatrix.from_dense([[2.0, 0.5], [0.5, 1.0]])
    path = tmp_path / f"a{suffix}"
    save_matrix(path, shifted_operand(A, None, 0.25))
    np.testing.assert_array_equal(load_matrix(path).to_dense(), [[2.25, 0.5], [0.5, 1.25]])


def test_point_cloud_round_trip(tmp_path):
    pts = grid_points(3)
    path = tmp_path / "p.csv"
    save_points(path, pts)
    again = load_points(path)
    np.testing.assert_array_equal(again.coords, pts.coords)
    assert path.read_text().splitlines()[0].count(",") == 1


def test_unknown_extension_rejected(tmp_path):
    with pytest.raises(InvalidShape):
        load_matrix(tmp_path / "a.txt")
