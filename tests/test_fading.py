"""Fading models: mean magnitudes E|h| = magnitude_moment(1), unit power,
sampling laws."""

import math

import numpy as np
import pytest

from rislab import equiv_channel as ec
from rislab import fading as fd
from rislab import montecarlo as mc
from rislab import numerics as nx
from rislab import phase_models as pm


def test_rayleigh_mean_magnitude():
    assert fd.Rayleigh().magnitude_moment(1) == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-14)


def test_rician_zero_k_reduces_to_rayleigh():
    assert fd.Rician(0.0).magnitude_moment(1) == pytest.approx(fd.Rayleigh().magnitude_moment(1), rel=1e-14)


def test_rician_mean_magnitude_vs_sampling_oracle():
    # 1e6 magnitude draws; closed form within 5 standard errors
    for k in (0.5, 1.0, 4.0):
        model = fd.Rician(k)
        rng = np.random.default_rng(808)
        mags = model.sample_magnitude(rng, 10**6)
        se = mags.std(ddof=1) / 1000.0
        assert abs(mags.mean() - model.magnitude_moment(1)) < 5.0 * se


def test_mean_magnitude_strictly_subunit():
    for model in (fd.Rayleigh(), fd.Rician(0.0), fd.Rician(1.0), fd.Rician(25.0), fd.Rician(1e4)):
        a = model.magnitude_moment(1)
        assert 0.0 < a < 1.0
        assert a * a < 1.0


def test_rician_mean_magnitude_increases_with_k():
    ks = [0.0, 0.5, 1.0, 2.0, 8.0, 100.0]
    vals = [fd.Rician(k).magnitude_moment(1) for k in ks]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_unit_power_sampling():
    rng = np.random.default_rng(11)
    for model in (fd.Rayleigh(), fd.Rician(1.0), fd.Rician(10.0)):
        p = model.sample_magnitude(rng, 10**6) ** 2
        se = p.std(ddof=1) / 1000.0
        assert abs(p.mean() - 1.0) < 5.0 * se


def test_rayleigh_empirical_mean_magnitude():
    rng = np.random.default_rng(12)
    mags = fd.Rayleigh().sample_magnitude(rng, 10**6)
    se = mags.std(ddof=1) / 1000.0
    assert abs(mags.mean() - math.sqrt(math.pi) / 2.0) < 5.0 * se


def test_line_of_sight_limit():
    rng = np.random.default_rng(15)
    mags = fd.Rician(1e9).sample_magnitude(rng, 10**4)
    assert np.all(np.abs(mags - 1.0) < 1e-3)


@pytest.mark.parametrize("model", [fd.Rayleigh(), fd.Rician(0.0), fd.Rician(1.0)], ids=lambda m: str(m.to_config()))
def test_magnitudes_split_at_any_boundary(model):
    # the simulator draws a hop's magnitudes row tile by row tile: draws
    # of 1, 6 and a 3 x 5 array read the stream as one draw of 22 does
    rng = np.random.Generator(np.random.Philox(3))
    parts = [model.sample_magnitude(rng, 1), model.sample_magnitude(rng, 6), model.sample_magnitude(rng, (3, 5))]
    whole = np.random.Generator(np.random.Philox(3))
    assert np.concatenate([p.ravel() for p in parts]).tobytes() == model.sample_magnitude(whole, 22).tobytes()
    np.testing.assert_array_equal(rng.random(3), whole.random(3))


def test_negative_k_rejected():
    with pytest.raises(nx.DomainError):
        fd.Rician(-0.1)


@pytest.mark.parametrize("k", [math.inf, math.nan])
def test_rician_rejects_a_factor_that_is_not_finite(k):
    # Rician(inf) used to construct and then sample NaN magnitudes
    with pytest.raises(nx.DomainError):
        fd.Rician(k)


def test_rician_mean_magnitude_stays_below_one_for_huge_factors():
    # from K ~ 4e15 on the Laguerre form rounds to 1.0 or above; then a^4
    # = 1 left no spread in Re(H) and derive, and simulate_ber with it, raised
    assert fd.Rician(1.0).magnitude_moment(1).hex() == "0x1.d01abdf5e3897p-1"
    for k in (4060094842987756.0, 1e100, 1e300):
        assert 0.0 < fd.Rician(k).magnitude_moment(1) < 1.0
    # 4 (K + 1) overflows from K = 4.5e307 on; the mean must not go through it
    for k in (4.5e307, 1e308):
        assert fd.Rician(k).magnitude_moment(1) == math.nextafter(1.0, 0.0)
    assert 1.0 - 1e-15 < fd.Rician(1.7e308).magnitude_moment(1) < 1.0
    sc = ec.LrsScenario(1, 1.0, fd.Rician(1e300), fd.Rician(1e300), pm.NoError())
    assert ec.derive(sc).sigma_u2 > 0.0
    (ber,) = mc.simulate_ber([sc], 100, 1).ber
    assert 0.0 < ber < 0.5


def test_equiv_parameters_depend_only_on_magnitude_product():
    # swapping which hop carries the Rician factor leaves a1*a2 unchanged,
    # so the derived channel must be identical, field by field
    a = ec.LrsScenario(64, 0.5, fd.Rician(3.0), fd.Rayleigh(), pm.VonMises(4.0))
    b = ec.LrsScenario(64, 0.5, fd.Rayleigh(), fd.Rician(3.0), pm.VonMises(4.0))
    ca, cb = ec.derive(a), ec.derive(b)
    assert ca.m == cb.m
    assert ca.mu == cb.mu
    assert ca.gamma_bar == cb.gamma_bar
    assert ca.sigma_u2 == cb.sigma_u2


def test_config_round_trip():
    for model in (fd.Rayleigh(), fd.Rician(2.5)):
        assert fd.from_config(model.to_config()) == model
    assert fd.from_config({"type": "rayleigh"}) == fd.Rayleigh()
    assert fd.from_config({"type": "rician", "k_factor": 1.0}) == fd.Rician(1.0)
    with pytest.raises(nx.DomainError):
        fd.from_config({"type": "nakagami"})


@pytest.mark.parametrize("k_factor", [0.0, 1e-3, 1.0, 4.0, 25.0, 1e3, 1e6])
def test_magnitude_moments_match_the_confluent_hypergeometric_form(k_factor):
    # E|h|^k = Gamma(1 + k/2) 1F1(-k/2; 1; -K) / (K+1)^(k/2) in 40 digits
    mp = pytest.importorskip("mpmath")
    model = fd.Rician(k_factor)
    with mp.workdps(40):
        for k in range(5):
            half = mp.mpf(k) / 2
            want = mp.gamma(1 + half) * mp.hyp1f1(-half, 1, -k_factor) / (k_factor + 1) ** half
            assert abs(model.magnitude_moment(k) - want) <= 4e-16 * want


def test_rayleigh_magnitude_moments_are_gamma_values():
    model = fd.Rayleigh()
    for k in range(5):
        assert model.magnitude_moment(k) == pytest.approx(math.gamma(1.0 + 0.5 * k), rel=1e-15)
    assert model.magnitude_moment(2) == 1.0 == fd.Rician(3.0).magnitude_moment(2)


@pytest.mark.parametrize("k_factor", [1e15, 1e200, 1e300, 1.7e308])
def test_magnitude_moments_of_huge_factors_approach_one(k_factor):
    # no factor of the grouped forms overflows or underflows
    model = fd.Rician(k_factor)
    for k in (3, 4):
        assert abs(model.magnitude_moment(k) - 1.0) <= 1e-14


@pytest.mark.parametrize("k", [-1, 5, 1.5, True])
def test_magnitude_moment_rejects_orders_outside_zero_to_four(k):
    for model in (fd.Rayleigh(), fd.Rician(1.0)):
        with pytest.raises(nx.DomainError):
            model.magnitude_moment(k)
