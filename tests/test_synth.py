import numpy as np
import pytest

from triadnet.balance import hamiltonian
from triadnet.correlation import pearson_matrix, phi_matrix, sign_matrix
from triadnet.errors import DataError
from triadnet.preprocess import binarize, complete_case, log_returns
from triadnet.synth import SynthSpec, generate


def implied_correlation(spec):
    """The exact correlation matrix the generator draws from."""
    blocks = np.repeat(np.arange(spec.n_blocks), spec.block_sizes)
    values = np.where(blocks[:, None] == blocks[None, :], spec.rho_in, spec.rho_out).astype(float)
    np.fill_diagonal(values, 1.0)
    return values


def test_same_seed_identical_panels():
    spec = SynthSpec(n_assets=8, n_days=40, model="bipolar", seed=42)
    a, b = generate(spec), generate(spec)
    assert a.dates == b.dates
    assert np.array_equal(a.prices, b.prices)
    c = generate(SynthSpec(n_assets=8, n_days=40, model="bipolar", seed=43))
    assert not np.array_equal(a.prices, c.prices)


def test_panel_shape_and_positivity():
    spec = SynthSpec(n_assets=5, n_days=30, model="sector_block", block_sizes=(2, 3), rho_out=0.05)
    panel = generate(spec)
    assert panel.n_dates == 30
    assert panel.n_assets == 5
    assert panel.present.all()
    assert (panel.prices > 0).all()
    assert panel.sectors["A0000"] == "B00"
    assert panel.sectors["A0004"] == "B01"
    assert log_returns(panel).returns.shape == (29, 5)


def test_paradise_raw_correlation_reaches_minus_one():
    spec = SynthSpec(n_assets=40, n_days=501, model="paradise", rho_in=0.9, rho_out=0.0, seed=2)
    panel = generate(spec)
    corr = pearson_matrix(complete_case(log_returns(panel)))
    assert hamiltonian(sign_matrix(corr)) < -0.9


def test_bipolar_recovers_block_signs():
    spec = SynthSpec(n_assets=30, n_days=501, model="bipolar", rho_in=0.5, rho_out=-0.3, seed=9)
    panel = generate(spec)
    phi = phi_matrix(binarize(log_returns(panel)))
    s = sign_matrix(phi)
    blocks = np.array([0] * 15 + [1] * 15)
    same = blocks[:, None] == blocks[None, :]
    off = ~np.eye(30, dtype=bool)
    assert (s[same & off] == 1).mean() > 0.95
    assert (s[~same] == -1).mean() > 0.95
    assert hamiltonian(s) < -0.9


def test_implied_correlation_block_permutation_equivariant():
    base = SynthSpec(
        n_assets=10, n_days=10, model="sector_block", block_sizes=(3, 7),
        rho_in=0.4, rho_out=-0.2,
    )
    swapped = SynthSpec(
        n_assets=10, n_days=10, model="sector_block", block_sizes=(7, 3),
        rho_in=0.4, rho_out=-0.2,
    )
    perm = list(range(3, 10)) + list(range(3))
    a = implied_correlation(base)
    b = implied_correlation(swapped)
    assert np.array_equal(b, a[np.ix_(perm, perm)])


def test_empirical_correlation_converges():
    spec = SynthSpec(n_assets=10, n_days=2001, model="bipolar", rho_in=0.3, rho_out=-0.1, seed=17)
    panel = generate(spec)
    returns = log_returns(panel).returns
    emp = np.corrcoef(returns.T)
    t = returns.shape[0]
    assert np.abs(emp - implied_correlation(spec)).max() < 3.0 / np.sqrt(t)


def test_psd_validation():
    with pytest.raises(DataError, match="positive semidefinite"):
        SynthSpec(n_assets=8, n_days=10, model="sector_block",
                  block_sizes=(2, 2, 2, 2), rho_in=0.2, rho_out=-0.1)
    with pytest.raises(DataError, match="rho_out"):
        SynthSpec(n_assets=4, n_days=10, model="bipolar", rho_in=0.0, rho_out=-0.1)
    with pytest.raises(DataError, match="rho_in"):
        SynthSpec(n_assets=4, n_days=10, model="bipolar", rho_in=1.0)


def test_spec_validation():
    with pytest.raises(DataError, match="block_sizes"):
        SynthSpec(n_assets=4, n_days=10, model="sector_block")
    with pytest.raises(DataError, match="sum to n_assets"):
        SynthSpec(n_assets=4, n_days=10, model="sector_block", block_sizes=(1, 1))
    with pytest.raises(DataError, match="model"):
        SynthSpec(n_assets=4, n_days=10, model="garch")
    for seed in (-1, 1.5, True, np.float64(2.0), "3"):
        with pytest.raises(DataError, match="seed must be a nonnegative integer"):
            SynthSpec(n_assets=4, n_days=10, seed=seed)
    # numpy integers are integers
    a = generate(SynthSpec(n_assets=4, n_days=10, seed=np.int64(5)))
    assert np.array_equal(a.prices, generate(SynthSpec(n_assets=4, n_days=10, seed=5)).prices)


def test_fully_coupled_blocks_allowed():
    # rho_out == rho_in degenerates to a single shared factor
    spec = SynthSpec(n_assets=6, n_days=50, model="sector_block",
                     block_sizes=(3, 3), rho_in=0.4, rho_out=0.4, seed=1)
    panel = generate(spec)
    assert panel.n_assets == 6
