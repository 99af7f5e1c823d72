"""Plain-text I/O for matrices and point clouds.

Two matrix formats are supported, chosen by file extension:

* ``.mtx`` — Matrix Market coordinate format with symmetric storage
  (lower triangle only).
* ``.csv`` — dense full matrix, one row per line, comma separated.

Matrices load into packed storage: each file is read into one dense array (a
``.mtx`` file expanded), checked and packed by ``SpdMatrix.from_dense``.

Point clouds are CSV with one ``x,y`` pair per line.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import scipy.io
import scipy.sparse

from .exceptions import InvalidShape
from .matrices import PointCloud, SpdMatrix


def load_matrix(path) -> SpdMatrix:
    path = Path(path)
    if path.suffix == ".mtx":
        mat = scipy.io.mmread(path)
        return SpdMatrix.from_dense(mat.toarray() if scipy.sparse.issparse(mat) else mat)
    if path.suffix == ".csv":
        arr = np.loadtxt(path, delimiter=",", ndmin=2)
        return SpdMatrix.from_dense(arr)
    raise InvalidShape(f"unsupported matrix format: {path.suffix!r} (use .mtx or .csv)")


def save_matrix(path, A: SpdMatrix):
    path = Path(path)
    if path.suffix == ".mtx":
        scipy.io.mmwrite(path, scipy.sparse.coo_matrix(A.to_dense()), symmetry="symmetric")
    elif path.suffix == ".csv":
        np.savetxt(path, A.to_dense(), delimiter=",", fmt="%.17g")
    else:
        raise InvalidShape(f"unsupported matrix format: {path.suffix!r} (use .mtx or .csv)")


def load_points(path) -> PointCloud:
    coords = np.loadtxt(Path(path), delimiter=",", ndmin=2)
    return PointCloud(coords=coords)


def save_points(path, points: PointCloud):
    np.savetxt(Path(path), points.coords, delimiter=",", fmt="%.17g")
