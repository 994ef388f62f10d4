from itertools import combinations
from math import comb

import numpy as np
import pytest

from triadnet.balance import (
    balance_report,
    eigvec_overlap,
    hamiltonian,
    pair_stability,
    spectral_summary,
)
from triadnet.correlation import CorrMatrix, SignedMatrix, phi_matrix, sign_matrix
from triadnet.errors import DataError

from conftest import random_binary, random_signed


def brute_force_h(s):
    n = s.shape[0]
    total = sum(
        int(s[i, j]) * int(s[i, k]) * int(s[j, k])
        for i, j, k in combinations(range(n), 3)
    )
    return -total / comb(n, 3)


def brute_force_delta(s):
    n = s.shape[0]
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d[i, j] = sum(
                int(s[i, j]) * int(s[i, k]) * int(s[j, k])
                for k in range(n)
                if k not in (i, j)
            ) / (n - 2)
    return d


def all_positive(n):
    s = np.ones((n, n), dtype=np.int8)
    np.fill_diagonal(s, 0)
    return s


def bipolar(n, split, flip_first=False):
    group = np.array([0] * split + [1] * (n - split))
    s = np.where(group[:, None] == group[None, :], 1, -1).astype(np.int8)
    np.fill_diagonal(s, 0)
    return s


def test_paradise_is_exactly_minus_one():
    for n in range(3, 9):
        assert hamiltonian(all_positive(n)) == -1.0


def test_single_negative_link_three_nodes():
    s = all_positive(3)
    s[0, 1] = s[1, 0] = -1
    assert hamiltonian(s) == 1.0


def test_hamiltonian_matches_brute_force(rng):
    for _ in range(50):
        s = random_signed(rng, 7)
        assert hamiltonian(s) == brute_force_h(s)


def test_trace_identity(rng):
    for _ in range(30):
        n = int(rng.integers(3, 10))
        s = random_signed(rng, n)
        h = hamiltonian(s)
        delta_sum = pair_stability(s).sum()
        assert h == pytest.approx(-(n - 2) * delta_sum / (6 * comb(n, 3)), abs=1e-12)


def test_global_sign_flip_negates_h(rng):
    for _ in range(20):
        s = random_signed(rng, 8)
        assert hamiltonian(-s) == -hamiltonian(s)


def test_permutation_invariance(rng):
    s = random_signed(rng, 9)
    h = hamiltonian(s)
    for _ in range(10):
        perm = rng.permutation(9)
        assert hamiltonian(s[np.ix_(perm, perm)]) == h


def test_random_bipolar_splits_are_minus_one(rng):
    for _ in range(10):
        n = int(rng.integers(4, 12))
        split = int(rng.integers(1, n))
        assert hamiltonian(bipolar(n, split)) == -1.0


def test_pair_stability_extremes():
    assert (pair_stability(all_positive(5))[~np.eye(5, dtype=bool)] == 1.0).all()
    s = all_positive(3)
    s[0, 1] = s[1, 0] = -1
    d = pair_stability(s)
    assert (d[~np.eye(3, dtype=bool)] == -1.0).all()
    assert (np.diag(d) == 0).all()


def test_pair_stability_matches_brute_force(rng):
    for _ in range(20):
        s = random_signed(rng, 7)
        assert np.abs(pair_stability(s) - brute_force_delta(s)).max() < 1e-15


def test_small_matrices_rejected():
    with pytest.raises(DataError):
        hamiltonian(all_positive(2))
    with pytest.raises(DataError):
        pair_stability(all_positive(2))
    empty = CorrMatrix((), np.zeros((0, 0)), "phi")
    with pytest.raises(DataError, match="at least 1 asset"):
        spectral_summary(empty)
    with pytest.raises(DataError, match="at least 3 nodes"):
        balance_report(sign_matrix(empty), empty)


def test_accepts_signed_matrix_wrapper(rng):
    b = random_binary(rng, t=20, n=6)
    signed = sign_matrix(phi_matrix(b))
    assert hamiltonian(signed) == hamiltonian(signed.values)


def test_spectral_summary_identity_and_ones():
    n = 5
    eye = CorrMatrix(tuple(f"A{i}" for i in range(n)), np.eye(n), "pearson")
    fracs, v1 = spectral_summary(eye, k=2)
    assert fracs[0] == pytest.approx(1 / n, abs=1e-12)
    assert np.sort(np.abs(v1))[-1] == pytest.approx(1.0, abs=1e-12)
    ones = CorrMatrix(tuple(f"A{i}" for i in range(n)), np.ones((n, n)), "pearson")
    fracs, v1 = spectral_summary(ones, k=3)
    assert fracs[0] == pytest.approx(1.0, abs=1e-12)
    assert abs(fracs[1]) < 1e-12
    assert v1 == pytest.approx(np.full(n, 1 / np.sqrt(n)), abs=1e-12)


def test_spectral_summary_2x2_closed_form():
    corr = CorrMatrix(("A", "B"), np.array([[1.0, 0.5], [0.5, 1.0]]), "pearson")
    fracs, _ = spectral_summary(corr, k=2)
    assert fracs[0] == pytest.approx(0.75, abs=1e-12)
    assert fracs[1] == pytest.approx(0.25, abs=1e-12)


def test_spectral_reconstruction_complete(rng):
    phi = phi_matrix(random_binary(rng, t=40, n=10))
    w, v = np.linalg.eigh(phi.values)
    rebuilt = (v * w) @ v.T
    assert np.abs(rebuilt - phi.values).max() < 1e-10


def test_eigvec_overlap():
    v = np.array([0.2, -0.5, 0.8, 0.1])
    assert eigvec_overlap(v, v) == pytest.approx(1.0, abs=1e-12)
    assert eigvec_overlap(v, -v) == pytest.approx(1.0, abs=1e-12)
    a = np.array([1.0, -1.0, 1.0, -1.0])
    b = np.array([1.0, 1.0, -1.0, -1.0])
    assert eigvec_overlap(a, b) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DataError):
        eigvec_overlap(a, b[:3])
    with pytest.raises(DataError):
        eigvec_overlap(a, np.ones(4))


def test_balance_report_bundle(rng):
    b = random_binary(rng, t=30, n=8)
    corr = phi_matrix(b)
    report = balance_report(sign_matrix(corr), corr)
    assert -1 <= report.h <= 1
    assert report.delta.shape == (8, 8)
    assert 0 <= report.eig_fracs[1] <= report.eig_fracs[0] <= 1
    assert report.v1.shape == (8,)


def test_balance_report_rejects_mismatched_assets(rng):
    c5 = phi_matrix(random_binary(rng, t=30, n=5))
    c3 = phi_matrix(random_binary(rng, t=30, n=3))
    message = r"signed matrix assets \(5\) differ from correlation matrix assets \(3\)"
    with pytest.raises(DataError, match=message):
        balance_report(sign_matrix(c5), c3)
    renamed = CorrMatrix(("X", "Y", "Z", "U", "V"), c5.values, c5.kind)
    with pytest.raises(DataError, match=r"\(5\) differ .* \(5\)"):
        balance_report(sign_matrix(c5), renamed)
