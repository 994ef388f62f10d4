"""Small shared helpers: exact count products, number formatting and atomic writes."""

from __future__ import annotations

import math
import os
import tempfile
from pathlib import Path

import numpy as np


def count_product(a, b) -> np.ndarray:
    """a.T @ b of 0/1 or +/-1 matrices as int64, via one float64 BLAS product.

    numpy's integer matmul bypasses BLAS. Every partial sum is an integer
    below 2**53, which float64 adds exactly in any order. When b is a, one
    converted array serves both sides, so numpy can use the symmetric kernel.
    """
    fa = np.asarray(a, dtype=np.float64)
    fb = fa if b is a else np.asarray(b, dtype=np.float64)
    return (fa.T @ fb).astype(np.int64)


def fmt(x, na: str = "") -> str:
    """Format a number with 12 significant digits; None/NaN become `na`.

    Every CSV cell in the package goes through this so that identical runs
    produce byte-identical output files.
    """
    if x is None:
        return na
    xf = float(x)
    if math.isnan(xf):
        return na
    return f"{xf:.12g}"


def atomic_write_text(path, text: str) -> None:
    """Write `text` to `path` via a temp file in the same directory plus rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
