"""Synthetic market generators with exactly controllable block correlation.

Returns follow one latent Gaussian factor per block plus idiosyncratic noise;
block factors are themselves correlated so that any (intra, inter) correlation
pair inside the positive semidefinite domain can be dialed in. Prices start at
100 and exponentiate cumulated returns, so they stay positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .ingest import PricePanel

MODELS = ("paradise", "bipolar", "sector_block")

_START_DATE = np.datetime64("2000-01-03")  # a Monday


@dataclass
class SynthSpec:
    """Parameters of a synthetic market.

    n_days counts price rows, so a spec with n_days = T+1 yields T returns.
    rho_in is the correlation of two assets in the same block, rho_out the
    correlation across blocks. block_sizes defaults per model: one block for
    paradise, two equal halves for bipolar, and must be given for sector_block.
    """

    n_assets: int
    n_days: int
    model: str = "bipolar"
    block_sizes: tuple = None
    rho_in: float = 0.3
    rho_out: float = -0.1
    noise_scale: float = 0.02
    seed: int = 0

    def __post_init__(self):
        if self.model not in MODELS:
            raise DataError(f"model must be one of {MODELS}")
        if self.n_assets < 1 or self.n_days < 2:
            raise DataError("need at least 1 asset and 2 days")
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise DataError("seed must be a nonnegative integer")
        if not 0 <= self.rho_in < 1:
            raise DataError("rho_in must lie in [0, 1)")
        if not -1 < self.rho_out <= self.rho_in:
            raise DataError("rho_out must lie in (-1, rho_in]")
        if self.noise_scale <= 0:
            raise DataError("noise_scale must be positive")
        if self.block_sizes is None:
            if self.model == "paradise":
                self.block_sizes = (self.n_assets,)
            elif self.model == "bipolar":
                half = self.n_assets // 2
                self.block_sizes = (half, self.n_assets - half)
            else:
                raise DataError("sector_block model needs explicit block_sizes")
        self.block_sizes = tuple(int(s) for s in self.block_sizes)
        if any(s < 1 for s in self.block_sizes) or sum(self.block_sizes) != self.n_assets:
            raise DataError("block sizes must be positive and sum to n_assets")
        if self.model == "paradise" and len(self.block_sizes) != 1:
            raise DataError("paradise model has a single block")
        if self.model == "bipolar" and len(self.block_sizes) != 2:
            raise DataError("bipolar model has exactly two blocks")
        _factor_correlation(self)  # validates positive semidefiniteness

    @property
    def n_blocks(self) -> int:
        return len(self.block_sizes)


def _factor_correlation(spec: SynthSpec) -> float:
    """Correlation psi between block factors implied by (rho_in, rho_out)."""
    k = spec.n_blocks
    if k == 1:
        return 1.0
    if spec.rho_in == 0:
        if spec.rho_out != 0:
            raise DataError("rho_out must be 0 when rho_in is 0")
        return 0.0
    psi = spec.rho_out / spec.rho_in
    if psi <= -1.0 / (k - 1):
        raise DataError(
            f"implied correlation matrix is not positive semidefinite: "
            f"rho_out/rho_in must exceed {-1.0 / (k - 1):.4f} for {k} blocks"
        )
    return psi


def _block_ids(spec: SynthSpec) -> np.ndarray:
    return np.repeat(np.arange(spec.n_blocks), spec.block_sizes)


def _trading_dates(count: int) -> tuple:
    """The first `count` weekdays from _START_DATE, as ISO strings."""
    return tuple(np.busday_offset(_START_DATE, np.arange(count), roll="forward").astype(str).tolist())


def generate(spec: SynthSpec) -> PricePanel:
    """Draw a complete price panel; identical seeds give identical panels."""
    psi = _factor_correlation(spec)
    k = spec.n_blocks
    n_returns = spec.n_days - 1
    rng = np.random.default_rng(spec.seed)
    z = rng.standard_normal((n_returns, k))
    if k == 1 or psi == 1.0:
        factors = np.repeat(z[:, :1], k, axis=1)
    else:
        cov = np.full((k, k), psi)
        np.fill_diagonal(cov, 1.0)
        factors = z @ np.linalg.cholesky(cov).T
    noise = rng.standard_normal((n_returns, spec.n_assets))
    blocks = _block_ids(spec)
    returns = spec.noise_scale * (
        np.sqrt(spec.rho_in) * factors[:, blocks]
        + np.sqrt(1.0 - spec.rho_in) * noise
    )
    log_prices = np.vstack([np.zeros(spec.n_assets), np.cumsum(returns, axis=0)])
    prices = 100.0 * np.exp(log_prices)
    assets = tuple(f"A{i:04d}" for i in range(spec.n_assets))
    sectors = {a: f"B{blocks[i]:02d}" for i, a in enumerate(assets)}
    present = np.ones(prices.shape, dtype=bool)
    return PricePanel(_trading_dates(spec.n_days), assets, prices, present, sectors)
