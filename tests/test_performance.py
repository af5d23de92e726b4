"""BER analytics, high-SNR gains and the reflector planners."""

import math
import re

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special
from _stubs import FixedMeanMagnitude, FixedMoments

from rislab import equiv_channel as ec
from rislab import fading as fd
from rislab import numerics as nx
from rislab import performance as pf
from rislab import phase_models as pm


def ref_scenario(n=32, gamma0=1.0, pe=None):
    return ec.LrsScenario(n, gamma0, fd.Rician(1.0), fd.Rayleigh(), pe or pm.VonMises(8.0))


def coding_gain(n, a_squared, phi1, phi2):
    """G_c at n as the coding-gain planner reads it: of the channel at gamma0 = 1."""
    ch = ec.channel_from_moments(n, 1.0, a_squared, phi1, phi2)
    return pf._coding_gain(ch.m, ch.gamma_bar)


# ---------------------------------------------------------------------------
# exact BER
# ---------------------------------------------------------------------------


def test_ber_at_zero_snr_is_half():
    assert pf.ber_bpsk(3.0, 0.0) == 0.5


def test_ber_rayleigh_closed_form():
    # m = 1 has the closed form (1 - sqrt(g/(1+g)))/2
    for g in (0.5, 10.0, 200.0):
        want = 0.5 * (1.0 - math.sqrt(g / (1.0 + g)))
        assert pf.ber_bpsk(1.0, g) == pytest.approx(want, rel=1e-10)
    assert pf.ber_bpsk(1.0, 10.0) == pytest.approx(0.023268705377203824, rel=1e-10)


def test_ber_matches_conditional_average_oracle():
    # independent route: integrate Q(sqrt(2 g)) against the SNR density,
    # with scipy's integrator rather than the one inside ber_bpsk
    for m, gbar in ((1.7, 8.0), (5.0, 30.0), (14.171, 60.0)):
        hi = gbar * (1.0 + 20.0 / math.sqrt(m))
        oracle = scipy.integrate.quad(
            lambda g: 0.5 * scipy.special.erfc(math.sqrt(g)) * ec.snr_pdf(m, gbar, g),
            1e-13, hi, epsabs=1e-12, epsrel=1e-10, limit=500,
        )[0] + 0.5 * ec.snr_cdf(m, gbar, 1e-13)
        assert pf.ber_bpsk(m, gbar) == pytest.approx(oracle, abs=1e-8)


def test_ber_bounded_and_monotone():
    gbars = [0.0, 0.1, 1.0, 10.0, 100.0, 1000.0]
    for m in (1.0, 2.5, 12.0):
        vals = [pf.ber_bpsk(m, g) for g in gbars]
        assert all(0.0 < v <= 0.5 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))
    # more diversity helps once the average SNR is meaningful
    for g in (5.0, 50.0, 500.0):
        vals = [pf.ber_bpsk(m, g) for m in (0.8, 1.0, 2.0, 6.0, 20.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_error_ordering_across_phase_models():
    # broader phase error means worse BER at every operating point
    grid = [10.0 ** (g / 10.0) for g in np.arange(-22.0, -9.9, 2.0)]
    chains = [
        [pm.VonMises(2.0), pm.VonMises(8.0), pm.NoError()],
        [pm.Quantizer(1), pm.Quantizer(2), pm.Quantizer(3), pm.NoError()],
    ]
    for chain in chains:
        for g0 in grid:
            chs = [ec.derive(ref_scenario(gamma0=g0, pe=pe)) for pe in chain]
            vals = [pf.ber_bpsk(ch.m, ch.gamma_bar) for ch in chs]
            assert all(b < a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# high-SNR asymptote
# ---------------------------------------------------------------------------


def test_asymptote_rayleigh_coefficient():
    # m = 1 collapses to 1/(4 gamma_bar)
    for g in (10.0, 1e3, 1e6):
        assert pf.ber_high_snr(1.0, g) == pytest.approx(1.0 / (4.0 * g), rel=1e-12)


def test_asymptote_log_log_slope_is_m():
    from rislab.stats import slope_fit

    for m in (1.0, 2.0, 12.879566079348178):
        gbar = np.array([10.0 ** (x / 10.0) for x in np.arange(30.0, 45.1, 0.5)])
        table = np.array([pf.ber_high_snr(m, g) for g in gbar])
        assert slope_fit(gbar, table) == pytest.approx(m, abs=1e-10)


def test_asymptote_converges_to_exact():
    # ratio drifts to 1 from above as gamma_bar grows; within 5% deep in
    # the declared high-SNR region gamma_bar/m > 100
    for m in (1.0, 2.0):
        for g in (200.0 * m, 1000.0 * m):
            ratio = pf.ber_high_snr(m, g) / pf.ber_bpsk(m, g)
            assert 0.95 <= ratio <= 1.05
    ratios = [
        pf.ber_high_snr(2.0, g) / pf.ber_bpsk(2.0, g)
        for g in (50.0, 200.0, 1000.0, 5000.0)
    ]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] == pytest.approx(1.0, abs=5e-3)


@pytest.mark.parametrize("m", [12.879566079348178, 1e3, 1e5, 1e7])
def test_asymptote_and_coding_gain_keep_their_digits_at_large_m(m):
    # against 60-digit mpmath at gamma_bar = m + 20; the log-gammas of
    # size m ln m once lost digits in proportion to m (3.2e-8 at m = 1e7)
    mp = mpmath.MPContext()
    mp.dps = 60
    mm, g = mp.mpf(m), mp.mpf(m + 20.0)
    log_bracket = (mm - 1) * mp.log(mm) + mp.loggamma(mm + 0.5) - mp.loggamma(mm) - mp.log(2 * mp.sqrt(mp.pi))
    want = mp.exp(log_bracket - mm * mp.log(g))
    assert abs(pf.ber_high_snr(m, m + 20.0) / want - 1) < 1e-14
    assert abs(pf._coding_gain(m, m + 20.0) / (g * mp.exp(-log_bracket / mm)) - 1) < 1e-15


def test_asymptote_past_the_double_range_is_inf():
    # the power law is an upper bound; at n = 1e5 and gamma0 = -80 dB
    # (m = 44285, gamma_bar = 56.4) it passes 1.8e308 while the exact BER
    # is 1.18e-26
    ch = ec.derive(ref_scenario(n=100000, gamma0=1e-8))
    assert pf.ber_high_snr(ch.m, ch.gamma_bar) == math.inf
    assert pf.ber_bpsk(ch.m, ch.gamma_bar) == pytest.approx(1.18e-26, rel=1e-2, abs=0.0)
    assert pf.ber_high_snr(2.0, 1e300) == 0.0


def test_asymptote_requires_positive_gamma_bar():
    with pytest.raises(nx.DomainError):
        pf.ber_high_snr(2.0, 0.0)


@pytest.mark.parametrize("m", [0.0, -1.0, math.nan], ids=["zero", "negative", "nan"])
@pytest.mark.parametrize(
    "kernel",
    [
        lambda m: pf.ber_high_snr(m, 10.0),
        lambda m: ec.snr_pdf(m, 10.0, 1.0),
        lambda m: ec.nakagami_pdf(m, 1.0, 0.5),
    ],
    ids=["ber_high_snr", "snr_pdf", "nakagami_pdf"],
)
def test_kernels_reject_non_positive_shape(kernel, m):
    with pytest.raises(nx.DomainError):
        kernel(m)


# ---------------------------------------------------------------------------
# gains
# ---------------------------------------------------------------------------


def test_diversity_gain_equals_shape():
    sc = ref_scenario(gamma0=0.01)
    g = pf.gains(sc)
    assert g.diversity_gain == ec.derive(sc).m


def test_gains_reproduce_asymptote():
    # (G_c gamma0)^(-G_d) must equal the high-SNR law at the scenario's
    # average SNR, for a spread of scenarios
    for sc in (
        ref_scenario(n=32, gamma0=0.03),
        ref_scenario(n=64, gamma0=0.004, pe=pm.Quantizer(2)),
        ec.LrsScenario(16, 0.2, fd.Rayleigh(), fd.Rayleigh(), pm.NoError()),
    ):
        g = pf.gains(sc)
        ch = ec.derive(sc)
        law = (g.coding_gain * sc.gamma0) ** (-g.diversity_gain)
        assert law == pytest.approx(pf.ber_high_snr(ch.m, ch.gamma_bar), rel=1e-10)


def test_unit_shape_coding_gain_closed_form():
    # when m = 1 the bracket is 1/4, so G_c = 4 n^2 phi1^2 a^4
    n, phi2 = 4, 0.2
    x = (1.0 + phi2) / 4.0  # forces m = 1
    a = 0.5**0.25  # a^4 = 1/2
    phi1 = math.sqrt(x / math.sqrt(0.5) ** 2)  # phi1^2 a^4 = x
    sc = ec.LrsScenario(
        n, 1.0, FixedMeanMagnitude(a), FixedMeanMagnitude(a), FixedMoments(phi1, phi2)
    )
    ch = ec.derive(sc)
    assert ch.m == pytest.approx(1.0, rel=1e-12)
    g = pf.gains(sc)
    assert g.coding_gain == pytest.approx(4.0 * n**2 * x, rel=1e-10)


def test_gains_and_coding_planner_agree_exactly():
    # one coding-gain formula: the planner's G_c(n) is gains(...) at n
    pe = pm.Quantizer(2)
    phi1, phi2 = pe.trig_moment(1), pe.trig_moment(2)
    for n in (1, 7, 64):
        sc = ref_scenario(n=n, pe=pe)
        want = coding_gain(n, sc.a_squared, phi1, phi2)
        assert pf.gains(sc).coding_gain == want


def test_gains_undefined_without_alignment():
    sc = ec.LrsScenario(16, 1.0, fd.Rayleigh(), fd.Rayleigh(), pm.UniformCircle())
    with pytest.raises(nx.DomainError):
        pf.gains(sc)


# ---------------------------------------------------------------------------
# planners
# ---------------------------------------------------------------------------


def test_diversity_planner_round_trip():
    a2 = (math.sqrt(math.pi) / 2.0) ** 2  # double Rayleigh, each hop mean sqrt(pi)/2
    for n_star in (8, 32, 100, 515):
        target = ec.channel_from_moments(n_star, 1.0, a2, 1.0, 1.0).m
        assert pf.reflectors_for_diversity(target, a2, 1.0, 1.0) == n_star
        assert pf.reflectors_for_diversity(target * (1.0 + 1e-6), a2, 1.0, 1.0) == n_star + 1


def test_diversity_planner_ideal_example():
    # inverse of the ideal 32-reflector derivation: the target is the exact
    # m, 7 ulps above the computed m(32), which the slack absorbs
    a2 = (math.sqrt(math.pi) / 2.0) ** 2
    target = 12.879566079348178
    assert pf.reflectors_for_diversity(target, a2, 1.0, 1.0) == 32
    assert ec.channel_from_moments(32, 1.0, a2, 1.0, 1.0).m == target - 7 * 2.0**-49


def test_diversity_planner_rejects_targets_past_2_53_reflectors():
    a2 = (math.sqrt(math.pi) / 2.0) ** 2
    shape = lambda n: ec.channel_from_moments(n, 1.0, a2, 1.0, 1.0).m
    assert pf.reflectors_for_diversity(shape(2**53), a2, 1.0, 1.0) <= 2**53
    for target in (shape(2**53) * 1.001, 1e300, 1.7e308):
        with pytest.raises(nx.RangeError):
            pf.reflectors_for_diversity(target, a2, 1.0, 1.0)


def test_coding_gain_past_the_double_range_is_a_range_error():
    a2 = (math.sqrt(math.pi) / 2.0) ** 2
    # m ~ 4e-6: exp(-L(m)/m) itself overflows
    with pytest.raises(nx.RangeError):
        coding_gain(1, a2, 0.005, 1.0)
    # m ~ 9.9e-4: exp(-L(m)/m) ~ 2e306 is finite, the prefactor n^2 x ~ 1e3 is not
    with pytest.raises(nx.RangeError):
        coding_gain(10**6, a2, 8.03e-5, 1.0)
    assert math.isfinite(coding_gain(10**6, a2, 8.2e-5, 1.0))


def test_diversity_planner_guards():
    with pytest.raises(nx.DomainError):
        pf.reflectors_for_diversity(5.0, 0.81, 0.0, 0.0)
    with pytest.raises(nx.DomainError):
        pf.reflectors_for_diversity(0.0, 0.81, 0.5, 0.3)


def test_coding_planner_round_trip_and_floor():
    sc_phi = pm.VonMises(8.0)
    phi1, phi2 = sc_phi.trig_moment(1), sc_phi.trig_moment(2)
    a2 = fd.Rician(1.0).magnitude_moment(1) * fd.Rayleigh().magnitude_moment(1)
    for n_star in (3, 48, 270):
        target = coding_gain(n_star, a2, phi1, phi2)
        n = pf.reflectors_for_coding_gain(target, a2, phi1, phi2)
        assert n <= n_star
        assert coding_gain(n, a2, phi1, phi2) >= target
    tiny = coding_gain(1, a2, phi1, phi2) * 0.5
    assert pf.reflectors_for_coding_gain(tiny, a2, phi1, phi2) == 1


def test_coding_planner_matches_exhaustive_scan():
    phi1 = pm.VonMises(8.0).trig_moment(1)
    phi2 = pm.VonMises(8.0).trig_moment(2)
    a2 = fd.Rician(1.0).magnitude_moment(1) * fd.Rayleigh().magnitude_moment(1)
    target = 300.0
    brute = next(
        n for n in range(1, 1025) if coding_gain(n, a2, phi1, phi2) >= target
    )
    assert pf.reflectors_for_coding_gain(target, a2, phi1, phi2) == brute


def test_coding_planner_answers_a_target_past_ten_million_reflectors():
    # G_c(10^7) = 2.07e7 here; the smallest count that meets 1e12 is near 4.8e11
    channel = 0.8 * 0.8, 0.9, 0.7
    assert coding_gain(10**7, *channel) < 1e12
    n = pf.reflectors_for_coding_gain(1e12, *channel)
    assert n == 482416869839
    assert coding_gain(n, *channel) >= 1e12 > coding_gain(n - 1, *channel)


def test_coding_planner_rejects_targets_past_2_53_reflectors():
    channel = 0.8 * 0.8, 0.9, 0.7
    best = coding_gain(ec.MAX_REFLECTORS, *channel)
    assert pf.reflectors_for_coding_gain(best, *channel) <= ec.MAX_REFLECTORS
    for target in (best * 1.001, 1e300, 1.7e308):
        with pytest.raises(nx.RangeError, match=re.escape(f"G_c(2^53) = {best!r}")):
            pf.reflectors_for_coding_gain(target, *channel)


def test_coding_gain_grows_with_n_once_shape_exceeds_one():
    # below m ~ 1 the gain passes through a dip (the asymptote coefficient
    # blows up as the shape vanishes); from there on it grows steadily
    phi1, phi2 = 0.9, 0.7
    vals = [coding_gain(n, 0.85 * 0.85, phi1, phi2) for n in (5, 6, 8, 64, 512, 4096)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_coding_planner_handles_small_shape_dip():
    # G_c here: 83.3 at n=1, dipping to 27.6 at n=4, then growing; a
    # target inside the dip is already met by a single reflector
    phi1, phi2, a2 = 0.9, 0.7, 0.85 * 0.85
    assert pf.reflectors_for_coding_gain(30.0, a2, phi1, phi2) == 1
    # a target above G_c(1) must land past the dip, at the true minimum
    target = 100.0
    brute = next(n for n in range(1, 4097) if coding_gain(n, a2, phi1, phi2) >= target)
    assert pf.reflectors_for_coding_gain(target, a2, phi1, phi2) == brute
