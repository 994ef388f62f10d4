import math

import numpy as np
import pytest

from triadnet.errors import DataError
from triadnet.preprocess import (
    ReturnPanel,
    _universe_mode,
    binarize,
    complete_case,
    log_returns,
    volatility,
)

from conftest import make_panel, make_returns


def test_log_returns_values():
    panel = make_panel([[100.0], [100.0], [100.0 * math.e]])
    r = log_returns(panel)
    assert r.returns[0, 0] == 0.0
    assert r.returns[1, 0] == pytest.approx(1.0, abs=1e-12)
    assert r.dates == panel.dates[1:]


def test_log_returns_masks_gaps():
    panel = make_panel([[100.0, 50.0], [np.nan, 51.0], [102.0, 52.0]])
    r = log_returns(panel)
    assert np.isnan(r.returns[0, 0])  # price missing at t
    assert np.isnan(r.returns[1, 0])  # price missing at t-1
    assert not np.isnan(r.returns[:, 1]).any()


def test_log_returns_diff_of_logs_equals_two_logs_bitwise():
    """Absent cells may hold any number: 0 and a negative price log to -inf and NaN, and the
    mask makes both NaN returns; a finite absent price is masked as well."""
    rng = np.random.default_rng(5)
    prices = np.exp(rng.normal(size=(30, 6)).cumsum(axis=0))
    present = rng.random(prices.shape) > 0.2
    absent = np.flatnonzero(~present)
    prices.flat[absent] = np.resize([0.0, -3.0, 42.0], absent.size)
    panel = make_panel(prices, present=present)
    with np.errstate(invalid="ignore", divide="ignore"):
        two_logs = np.log(prices[1:]) - np.log(prices[:-1])
    expected = np.where(present[1:] & present[:-1], two_logs, np.nan)
    assert log_returns(panel).returns.tobytes() == expected.tobytes()


def test_log_returns_needs_two_dates():
    with pytest.raises(DataError, match="at least 2"):
        log_returns(make_panel([[100.0]]))


def test_universe_mode_odd_even_constant():
    assert _universe_mode(make_returns([[1.0, 2.0, 3.0]]))[0] == 2.0
    assert _universe_mode(make_returns([[1.0, 2.0, 3.0, 10.0]]))[0] == 2.5
    assert _universe_mode(make_returns([[0.7, 0.7, 0.7]]))[0] == pytest.approx(0.7)


def test_universe_mode_ignores_missing_and_is_nan_on_empty_date():
    r = make_returns([[1.0, np.nan, 3.0], [np.nan, np.nan, np.nan]])
    mode = _universe_mode(r)
    assert mode[0] == 2.0 and np.isnan(mode[1])
    assert _universe_mode(make_returns([[1.0, np.nan, 3.0]]))[0] == 2.0


def nanmedian_mode(returns):
    """The universe market mode as one nanmedian over every date with a return."""
    some = ~np.isnan(returns.returns).all(axis=1)
    mode = np.full(len(some), np.nan)
    with np.errstate(invalid="ignore"):
        mode[some] = np.nanmedian(returns.returns[some], axis=1)
    return mode


# nanmedian takes numpy's masked-array path below 600 values per date and a
# per-row np.median path from 600 on; the fast path must match both
@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 50, 599, 600, 601, 700])
def test_universe_mode_matches_nanmedian_bit_for_bit(n):
    """Complete dates take np.median, dates with a gap nanmedian: the bits equal one
    nanmedian over every date, on random panels with gaps, ties, exact zeros, odd and
    even counts, complete dates and a date with no return."""
    rng = np.random.default_rng(n)
    for trial in range(30):
        t = int(rng.integers(1, 25))
        r = rng.normal(scale=0.02, size=(t, n))
        if trial % 3 == 0:
            r = np.round(r, 2)  # many ties
        r[rng.random((t, n)) < 0.1] = 0.0
        present = rng.random((t, n)) >= (0.0, 0.01, 0.3)[trial % 3]
        present[rng.random(t) < 0.3] = True  # complete dates
        if trial % 4 == 0:
            present[rng.integers(t)] = False  # a date with no return
        returns = make_returns(r, present)
        assert _universe_mode(returns).tobytes() == nanmedian_mode(returns).tobytes(), trial


def test_binarize_signs_and_tie_rule():
    # every date's median is 0.0; exact zeros (A0 and A3 on the first date)
    # take the +1 side of the tie rule
    r = make_returns(
        [
            [0.0, 0.2, -0.2, 0.0],
            [0.1, -0.3, 0.3, -0.1],
            [-0.5, 0.5, -0.1, 0.1],
        ]
    )
    b = binarize(r)
    assert b.assets == ("A0", "A1", "A2", "A3")
    assert b.values.tolist() == [[1, 1, -1, 1], [1, -1, 1, -1], [-1, 1, -1, 1]]


def test_binarize_complete_case_drop():
    r = make_returns([[0.1, -0.1, np.nan], [-0.2, 0.2, 0.3], [0.3, -0.3, 0.1]])
    b = binarize(r)
    assert b.assets == ("A0", "A1")


def test_binarize_drops_constant_columns():
    # A2 stays above the median every day, so its sign never changes
    r = make_returns([[0.1, -0.1, 5.0], [-0.1, 0.1, 5.0], [0.2, -0.2, 5.0]])
    b = binarize(r)
    assert "A2" not in b.assets


def test_binarize_errors_when_nothing_survives():
    r = make_returns([[np.nan, np.nan], [0.1, np.nan]])
    with pytest.raises(DataError, match="complete-case"):
        binarize(r)


def test_binarize_median_scope_changes_result():
    # A2 is gappy, so it joins the universe median but not the window one; on
    # the first date that moves A0 from above the window median to exactly at
    # the universe median
    ret = np.array(
        [[0.10, 0.30, -0.50], [-0.10, 0.20, np.nan], [0.30, -0.40, 0.0]]
    )
    r = make_returns(ret)
    b_uni = binarize(r, median_scope="universe")
    b_win = binarize(r, median_scope="window")
    assert b_uni.assets == b_win.assets == ("A0", "A1")
    assert b_uni.values[0].tolist() == [1, 1]
    assert b_win.values[0].tolist() == [-1, 1]
    assert np.array_equal(b_uni.values[1:], b_win.values[1:])


def test_binarize_sign_balance_even_universe(rng):
    # no ties, no missing data, even asset count: +1s and -1s balance per date
    for _ in range(10):
        r = make_returns(rng.normal(size=(7, 8)))
        b = binarize(r)
        assert b.values.shape[1] == 8
        assert (b.values.sum(axis=1) == 0).all()


def test_binarize_invariant_under_increasing_affine_maps(rng):
    ret = rng.normal(size=(9, 6))
    r = make_returns(ret)
    scales = rng.uniform(0.5, 3.0, size=9)[:, None]
    shifts = rng.normal(size=9)[:, None]
    r2 = make_returns(ret * scales + shifts)
    b1, b2 = binarize(r), binarize(r2)
    assert b1.assets == b2.assets
    assert np.array_equal(b1.values, b2.values)


def test_complete_case():
    r = make_returns([[0.1, np.nan], [0.2, 0.3]])
    cc = complete_case(r)
    assert cc.assets == ("A0",)
    assert not np.isnan(cc.returns).any()
    with pytest.raises(DataError):
        complete_case(make_returns([[np.nan], [0.1]]))


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_return_panel_constructor_rejects_a_non_finite_present_return(bad):
    """NaN is the one marker of a missing return; an infinite return is an error."""
    r = ReturnPanel(("d1", "d2"), ("A", "B"), np.array([[0.1, 0.2], [np.nan, 0.3]]))
    assert complete_case(r).assets == ("B",)
    with pytest.raises(DataError, match="returns must be finite"):
        ReturnPanel(("d1", "d2"), ("A", "B"), np.array([[0.1, 0.2], [bad, 0.3]]))


def test_volatility():
    assert volatility(make_returns([[0.0, 0.0]])) == 0.0
    assert volatility(make_returns([[0.02, -0.02]])) == pytest.approx(0.02)
    assert volatility(make_returns([[0.01, 0.03]])) == pytest.approx(0.02)
    with pytest.raises(DataError):
        volatility(make_returns([[np.nan]]))
