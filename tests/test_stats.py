"""Fit statistics: the KS test and the diversity-order slope fit."""

import math

import numpy as np
import pytest

from rislab import numerics as nx
from rislab import stats as st


# ---------------------------------------------------------------------------
# KS test
# ---------------------------------------------------------------------------


def test_ks_accepts_samples_from_their_own_law():
    rng = np.random.default_rng(2020)
    n = 10**4
    samples = rng.random(n)  # exact inverse transform of the uniform law
    rep = st.ks_test(samples, lambda x: np.clip(x, 0.0, 1.0))
    assert rep.statistic < 1.6276 / math.sqrt(n)
    assert rep.passed
    assert rep.p_value > 0.01


def test_ks_rejects_constant_samples():
    rep = st.ks_test(np.full(500, 0.5), lambda x: np.clip(x, 0.0, 1.0))
    assert rep.statistic >= 0.5
    assert not rep.passed
    assert rep.p_value < 1e-10


def test_ks_permutation_invariant():
    rng = np.random.default_rng(3)
    samples = rng.random(1000)
    cdf = lambda x: np.clip(x, 0.0, 1.0)
    a = st.ks_test(samples, cdf)
    b = st.ks_test(samples[::-1].copy(), cdf)
    c = st.ks_test(rng.permutation(samples), cdf)
    assert a.statistic == b.statistic == c.statistic


def test_ks_same_report_for_sorted_and_shuffled_samples_and_leaves_them_as_they_were():
    rng = np.random.default_rng(8)
    shuffled = rng.random(3000)
    before = shuffled.copy()
    ascending = np.sort(shuffled)
    cdf = lambda x: np.clip(x, 0.0, 1.0)
    assert st.ks_test(shuffled, cdf) == st.ks_test(ascending, cdf)
    assert shuffled.tobytes() == before.tobytes()


def test_ks_input_guards():
    cdf = lambda x: np.clip(x, 0.0, 1.0)
    with pytest.raises(nx.DomainError):
        st.ks_test(np.ones(50), cdf)  # too few samples
    for where in (0, 3, -1):  # -1: a NaN after ascending samples
        bad = np.linspace(0.0, 1.0, 200)
        bad[where] = np.nan
        with pytest.raises(nx.DomainError):
            st.ks_test(bad, cdf)
    with pytest.raises(nx.DomainError):
        st.ks_test(np.ones(200), lambda x: x * 5.0)  # not a cdf
    # a threshold that is no positive real used to give passed=False or a TypeError
    for threshold in (0.0, -0.1, math.nan, math.inf, True, "0.05"):
        with pytest.raises(nx.DomainError):
            st.ks_test(np.linspace(0.0, 1.0, 200), cdf, threshold)


@pytest.mark.parametrize("bad", [1.5, -0.5, math.nan])
def test_ks_rejects_a_bad_cdf_value_in_a_later_tile(monkeypatch, bad):
    monkeypatch.setattr(st, "_KS_TILE", 64)
    xs = np.linspace(0.0, 1.0, 1000)

    def cdf(x):
        f = np.clip(x, 0.0, 1.0)
        return np.where(x == 1.0, bad, f)  # the largest sample sits in the last tile

    with pytest.raises(nx.DomainError):
        st.ks_test(xs, cdf)


def test_ks_threshold_gate():
    rng = np.random.default_rng(4)
    samples = rng.random(2000)
    assert st.ks_test(samples, lambda x: np.clip(x, 0.0, 1.0), threshold=0.5).passed
    assert not st.ks_test(samples, lambda x: np.clip(x, 0.0, 1.0), threshold=1e-6).passed


# ---------------------------------------------------------------------------
# slope fit
# ---------------------------------------------------------------------------


def test_slope_fit_exact_power_law():
    for m in (1.0, 3.3, 12.879566079348178):
        gbar = 10.0 ** (np.arange(20.0, 35.1, 0.5) / 10.0)
        ber = (2.7 * gbar) ** (-m)
        assert st.slope_fit(gbar, ber) == pytest.approx(m, abs=1e-10)


def test_slope_fit_scale_invariant():
    gbar = 10.0 ** (np.arange(20.0, 30.1, 1.0) / 10.0)
    ber = (1.1 * gbar) ** (-4.0)
    assert st.slope_fit(gbar, 17.0 * ber) == pytest.approx(
        st.slope_fit(gbar, ber), abs=1e-12
    )


def test_slope_fit_needs_three_points():
    gbar = np.array([1e2, 1e3])
    with pytest.raises(nx.DomainError):
        st.slope_fit(gbar, (2.0 * gbar) ** (-2.5))


def test_slope_fit_exact_ber_curve_deep_in_high_snr():
    from rislab import performance as pf

    m = 3.0
    gbar = 10.0 ** (np.arange(38.0, 44.1, 0.5) / 10.0)
    ber = np.array([pf.ber_bpsk(m, g) for g in gbar])
    assert st.slope_fit(gbar, ber) == pytest.approx(m, rel=0.05)
