import math

import numpy as np
import pytest

from triadnet.correlation import (
    partial_pearson,
    pearson_matrix,
    phi_matrix,
    sign_matrix,
)
from triadnet.errors import DataError

from conftest import make_binary, make_returns, random_binary


def test_phi_identical_and_opposite_columns():
    b = make_binary([[1, 1, -1], [-1, -1, 1], [1, 1, -1], [-1, -1, 1]])
    phi = phi_matrix(b)
    assert phi.values[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert phi.values[0, 2] == pytest.approx(-1.0, abs=1e-12)
    assert (np.diag(phi.values) == 1.0).all()


def test_phi_balanced_contingency_is_zero():
    b = make_binary([[1, 1], [1, -1], [-1, 1], [-1, -1]])
    assert phi_matrix(b).values[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_phi_equals_pearson_on_signs(rng):
    for _ in range(20):
        b = random_binary(rng, t=int(rng.integers(4, 40)), n=int(rng.integers(2, 10)))
        phi = phi_matrix(b)
        pear = pearson_matrix(make_returns(b.values.astype(float)))
        assert np.abs(phi.values - pear.values).max() < 1e-12


def test_phi_is_positive_semidefinite(rng):
    for _ in range(10):
        phi = phi_matrix(random_binary(rng, t=12, n=20))
        assert np.linalg.eigvalsh(phi.values).min() >= -1e-10


def test_eigenvalue_sum_equals_n(rng):
    phi = phi_matrix(random_binary(rng, t=25, n=15))
    assert np.linalg.eigvalsh(phi.values).sum() == pytest.approx(15.0, abs=1e-8)
    pear = pearson_matrix(make_returns(rng.normal(size=(10, 6))))
    assert np.linalg.eigvalsh(pear.values).sum() == pytest.approx(6.0, abs=1e-8)


def test_rank_bounded_by_window_length(rng):
    # with fewer days than assets, eigenvalues ranked beyond T vanish
    t, n = 10, 30
    pear = pearson_matrix(make_returns(rng.normal(size=(t, n))))
    w = np.sort(np.linalg.eigvalsh(pear.values))[::-1]
    assert (np.abs(w[t:]) < 1e-8).all()


def test_pearson_trivials_and_derived_value():
    r = make_returns(np.array([[1.0, -1.0], [2.0, -2.0], [3.0, -3.0]]))
    assert pearson_matrix(r).values[0, 1] == pytest.approx(-1.0, abs=1e-12)
    r2 = make_returns(np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 4.0]]))
    expected = 3.0 * math.sqrt(3.0 / 28.0)  # hand-computed sample correlation
    assert pearson_matrix(r2).values[0, 1] == pytest.approx(expected, abs=1e-12)
    assert np.corrcoef(r2.returns.T)[0, 1] == pytest.approx(expected, abs=1e-12)


def test_pearson_requires_complete_case_and_nonconstant():
    with pytest.raises(DataError, match="complete-case"):
        pearson_matrix(make_returns([[0.1, np.nan], [0.2, 0.3]]))
    with pytest.raises(DataError, match="constant"):
        pearson_matrix(make_returns([[0.1, 1.0], [0.2, 1.0]]))


def test_partial_pearson_2x2_closed_form():
    # for a 2x2 correlation [[1, rho], [rho, 1]] with rho > 0 the eigenpairs
    # are known in closed form; dropping the leading one leaves
    # (1 - rho)/2 * [[1, -1], [-1, 1]]
    x = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 4.0], [0.0, -1.0], [1.5, 1.0]])
    rho = pearson_matrix(make_returns(x)).values[0, 1]
    assert rho > 0
    part = partial_pearson(make_returns(x))
    expected = (1.0 - rho) / 2.0 * np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.abs(part.values - expected).max() < 1e-12


def test_partial_pearson_rank_one_vanishes():
    base = np.array([0.3, -0.1, 0.25, -0.4, 0.2])
    x = np.outer(base, [1.0, 2.0, 0.5])
    part = partial_pearson(make_returns(x))
    assert np.abs(part.values).max() < 1e-10
    assert np.array_equal(part.values, part.values.T)


def test_partial_pearson_degenerate_gap_rejected():
    # two exactly uncorrelated columns give a degenerate leading eigenvalue
    x = np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]])
    with pytest.raises(DataError, match="separated"):
        partial_pearson(make_returns(x))


def test_sign_matrix_rules():
    b = make_binary([[1, 1, -1], [-1, -1, 1], [1, -1, 1], [-1, 1, -1], [1, 1, 1]])
    phi = phi_matrix(b)
    phi.values[0, 1] = phi.values[1, 0] = 0.0
    phi.values[0, 2] = phi.values[2, 0] = -0.3
    s = sign_matrix(phi)
    assert s[0, 1] == 1  # zero counts as positive
    assert s[0, 2] == -1
    assert (np.diag(s) == 0).all()
    assert np.array_equal(s, s.T)
