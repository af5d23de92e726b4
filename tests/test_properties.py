"""Invariants of the gamma-law kernels over random shapes and mean SNRs,
and of the circular moments over random phase-error models."""

import numpy as np
import pytest

from rislab import equiv_channel as ec
from rislab import performance as pf
from rislab import phase_models as pm

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given = hypothesis.given

PROPERTY = hypothesis.settings(derandomize=True, deadline=None, max_examples=60)

shapes = st.floats(min_value=0.3, max_value=30.0)
mean_snrs = st.floats(min_value=1e-2, max_value=1e3)


@PROPERTY
@given(
    m=shapes,
    gamma_bar=mean_snrs,
    points=st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=2, max_size=20),
)
def test_snr_cdf_is_a_distribution_function(m, gamma_bar, points):
    gs = np.sort(np.array(points))
    vals = ec.snr_cdf(m, gamma_bar, gs)
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    assert np.all(np.diff(vals) >= 0.0)


@PROPERTY
@given(m=shapes, gamma_bar=mean_snrs, factor=st.floats(min_value=1.0, max_value=10.0))
def test_ber_is_bounded_and_falls_in_gamma_bar_and_m(m, gamma_bar, factor):
    ber = pf.ber_bpsk(m, gamma_bar)
    assert 0.0 < ber <= 0.5
    assert pf.ber_bpsk(m, gamma_bar * factor) <= ber
    assert pf.ber_bpsk(min(m * factor, 30.0), gamma_bar) <= ber


@PROPERTY
@given(m=shapes, gamma_bar=mean_snrs)
def test_asymptote_bounds_exact_ber_from_above(m, gamma_bar):
    assert pf.ber_high_snr(m, gamma_bar) >= pf.ber_bpsk(m, gamma_bar)


von_mises = st.floats(min_value=0.0, max_value=1e6).map(pm.VonMises)
quantizers = st.integers(min_value=1, max_value=12).map(pm.Quantizer)
phase_errors = st.one_of(
    von_mises,
    quantizers,
    st.lists(st.one_of(von_mises, quantizers), min_size=1, max_size=3).map(
        lambda comps: pm.Product(tuple(comps))
    ),
)


@PROPERTY
@given(model=phase_errors, p=st.integers(min_value=1, max_value=8))
def test_trig_moments_are_bounded(model, p):
    assert abs(model.trig_moment(p)) <= 1.0


@PROPERTY
@given(model=phase_errors)
def test_second_moment_respects_the_variance_bound(model):
    # E[cos 2T] = 2 E[cos^2 T] - 1 >= 2 E[cos T]^2 - 1 by Jensen
    phi1 = model.trig_moment(1)
    assert model.trig_moment(2) >= 2.0 * phi1 * phi1 - 1.0
