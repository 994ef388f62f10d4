"""Small shared helpers: exact count products, the symmetric-matrix check, the
Pearson correlation of two vectors, number formatting and atomic writes."""

from __future__ import annotations

import math
import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import DataError


_EXACT_ROWS = 1 << 24  # float32 holds every integer up to this


def count_product(a, b, dtype=np.int64) -> np.ndarray:
    """a.T @ b of 0/1 or +/-1 matrices as `dtype`, via one float32 BLAS product.

    numpy's integer matmul bypasses BLAS. Every partial sum is an integer no larger than
    the row count, which float32 adds exactly in any order, and at about twice float64's
    rate, below 2**24 rows; from there on it raises DataError. When b is a, one converted
    array serves both sides, so numpy can use the symmetric kernel.
    """
    if len(a) >= _EXACT_ROWS:
        raise DataError(f"count products need fewer than {_EXACT_ROWS} rows, got {len(a)}")
    fa = np.asarray(a, dtype=np.float32)
    fb = fa if b is a else np.asarray(b, dtype=np.float32)
    return (fa.T @ fb).astype(dtype)


def _check_symmetric(values: np.ndarray, n: int, what: str, diagonal=None) -> None:
    """Raise DataError unless `values` is symmetric n x n with `diagonal` (if given) on its diagonal."""
    if values.shape != (n, n):
        raise DataError(f"{what} must be {n} x {n}")
    if not np.array_equal(values, values.T):
        raise DataError(f"{what} must be exactly symmetric")
    if diagonal is not None and n and not (np.diag(values) == diagonal).all():
        raise DataError(f"{what} diagonal must be exactly {diagonal}")


def _pearson(x, y) -> float:
    """Pearson correlation of two equal-length vectors of at least 2 entries."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise DataError("correlation needs two equal-length vectors (>= 2)")
    xc = x - x.mean()
    yc = y - y.mean()
    nx, ny = np.linalg.norm(xc), np.linalg.norm(yc)
    if nx == 0 or ny == 0:
        raise DataError("correlation undefined for a constant vector")
    return float(xc @ yc / (nx * ny))


def fmt(x) -> str:
    """Format a number with 12 significant digits; None and NaN become "".

    Every numeric CSV cell in the package goes through this so that
    identical runs produce byte-identical output files.
    """
    if x is None:
        return ""
    xf = float(x)
    if math.isnan(xf):
        return ""
    return f"{xf:.12g}"


def atomic_write_text(path, text) -> None:
    """Write `text` (a string, or strings written as they come) to `path` via a temp file in
    the same directory plus rename. The file gets open()'s mode, 0o666 less the umask."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):  # a file stands where a directory must be
        raise NotADirectoryError(f"cannot write {path}: its parent is not a directory") from None
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            os.umask(umask := os.umask(0))  # reading the umask means setting it
            os.fchmod(fd, 0o666 & ~umask)
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
