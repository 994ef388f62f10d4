import numpy as np
import pytest

from triadnet.ingest import PricePanel
from triadnet.preprocess import BinaryPanel, ReturnPanel


def make_panel(prices, dates=None, assets=None, sectors=None, present=None):
    """PricePanel from a plain array; NaN cells count as absent."""
    prices = np.asarray(prices, dtype=float)
    t, n = prices.shape
    dates = tuple(dates) if dates else tuple(f"2020-01-{i + 1:02d}" for i in range(t))
    assets = tuple(assets) if assets else tuple(f"A{i}" for i in range(n))
    if present is None:
        present = np.isfinite(prices)
    if sectors is None:
        sectors = {a: "S0" for a in assets}
    return PricePanel(dates, assets, prices, present, sectors)


def make_returns(returns, present=None):
    returns = np.asarray(returns, dtype=float)
    t, n = returns.shape
    if present is None:
        present = np.isfinite(returns)
    dates = tuple(f"2020-02-{i + 1:02d}" for i in range(t))
    assets = tuple(f"A{i}" for i in range(n))
    return ReturnPanel(dates, assets, np.where(present, returns, np.nan), present)


def make_binary(values):
    values = np.asarray(values, dtype=np.int8)
    t, n = values.shape
    dates = tuple(f"2020-03-{i + 1:02d}" for i in range(t))
    assets = tuple(f"A{i}" for i in range(n))
    return BinaryPanel(dates, assets, values)


def random_binary(rng, t, n):
    """Non-constant random +/-1 panel."""
    vals = rng.choice(np.array([-1, 1], dtype=np.int8), size=(t, n))
    while (vals.max(axis=0) == vals.min(axis=0)).any():
        vals = rng.choice(np.array([-1, 1], dtype=np.int8), size=(t, n))
    return make_binary(vals)


def random_signed(rng, n):
    """Random symmetric +/-1 matrix with zero diagonal."""
    upper = rng.choice([-1, 1], size=(n, n))
    s = np.triu(upper, 1)
    s = s + s.T
    return s.astype(np.int8)


def random_triples(rng, t, size):
    """Counts (c, ki, kj) with c anywhere on the support [max(0, ki+kj-t), min(ki, kj)]."""
    ki = rng.integers(0, t + 1, size)
    kj = rng.integers(0, t + 1, size)
    lower = np.maximum(0, ki + kj - t)
    c = lower + (rng.random(size) * (np.minimum(ki, kj) - lower + 1)).astype(np.int64)
    return c, ki, kj


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# A test that sets the BLAS variable after OpenBLAS started its threads forks a parent
# that still runs them; Python 3.12+ warns about any fork from a multi-threaded process.
forks_blas_threads = pytest.mark.filterwarnings(
    "ignore:This process .* is multi-threaded:DeprecationWarning"
)


@pytest.fixture
def pool_spy(monkeypatch):
    """Make the worker rule give 2 workers (2 usable cores, one BLAS thread each) and record
    the real process pools that start: their max_workers and how many chunks each maps."""
    import os
    from concurrent.futures import ProcessPoolExecutor
    from types import SimpleNamespace

    from triadnet import experiment

    spy = SimpleNamespace(workers=[], chunks=[])

    class Spy(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            spy.workers.append(max_workers)
            super().__init__(max_workers, **kwargs)

        def map(self, fn, chunks, **kwargs):
            chunks = list(chunks)
            spy.chunks.append(len(chunks))
            return super().map(fn, chunks, **kwargs)

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", Spy)
    return spy
