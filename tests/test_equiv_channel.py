"""Equivalent-channel derivation, densities, and the CGF machinery."""

import functools
import math
import warnings

import numpy as np
import pytest
from _stubs import FixedMeanMagnitude, FixedMoments

from rislab import equiv_channel as ec
from rislab import fading as fd
from rislab.config import ConfigError, scenario_from_config
from rislab import numerics as nx
from rislab import phase_models as pm


def scenario_with(n=32, gamma0=1.0, phi1=1.0, phi2=1.0, a=None):
    a = math.sqrt(math.pi) / 2.0 if a is None else a
    return ec.LrsScenario(
        n, gamma0, FixedMeanMagnitude(a), FixedMeanMagnitude(a), FixedMoments(phi1, phi2)
    )


REFERENCE = ec.LrsScenario(256, 1.0, fd.Rician(1.0), fd.Rayleigh(), pm.VonMises(8.0))


# ---------------------------------------------------------------------------
# derivation
# ---------------------------------------------------------------------------


def test_ideal_double_rayleigh_example():
    sc = ec.LrsScenario(32, 1.0, fd.Rayleigh(), fd.Rayleigh(), pm.NoError())
    ch = ec.derive(sc)
    a4 = (math.pi / 4.0) ** 2
    assert ch.mu == pytest.approx(math.pi / 4.0, rel=1e-14)
    assert ch.sigma_v2 == 0.0
    # closed form evaluated independently: 32 * a^4 / (4 (1 - a^4))
    want_m = 32.0 * a4 / (4.0 * (1.0 - a4))
    assert want_m == pytest.approx(12.879566079348178, rel=1e-12)
    assert ch.m == pytest.approx(want_m, rel=1e-12)
    assert ch.omega == pytest.approx(a4, rel=1e-14)


def test_no_error_channel_is_real_gaussian():
    # with exact phases the composite coefficient is a real Gaussian with
    # variance (1 - a^4)/n for any fading pair
    sc = ec.LrsScenario(50, 2.0, fd.Rician(1.0), fd.Rayleigh(), pm.NoError())
    ch = ec.derive(sc)
    a4 = sc.a_squared**2
    assert ch.sigma_v2 == 0.0
    assert ch.sigma_u2 == pytest.approx((1.0 - a4) / 50.0, rel=1e-13)


def test_uniform_errors_give_rayleigh_equivalent():
    n = 64
    sc = ec.LrsScenario(n, 0.5, fd.Rayleigh(), fd.Rayleigh(), pm.UniformCircle())
    ch = ec.derive(sc)
    assert ch.rayleigh_equivalent
    assert ch.mu == 0.0
    assert ch.sigma_u2 == pytest.approx(1.0 / (2.0 * n), rel=1e-14)
    assert ch.sigma_v2 == pytest.approx(1.0 / (2.0 * n), rel=1e-14)
    assert ch.m == 1.0
    assert ch.omega == pytest.approx(1.0 / n, rel=1e-14)
    assert ch.gamma_bar == pytest.approx(n * 0.5, rel=1e-14)


def test_negative_phi1_rejected():
    with pytest.raises(nx.DomainError):
        ec.derive(scenario_with(phi1=-0.2, phi2=0.5))


def test_average_snr_attenuation():
    # gamma_bar / (n^2 gamma0) equals phi1^2 a^4 exactly, subunit when phi1 < 1
    for phi1, phi2 in ((0.9, 0.7), (0.5, 0.3), (0.2, 0.1)):
        sc = scenario_with(n=128, gamma0=0.3, phi1=phi1, phi2=phi2, a=0.8)
        ch = ec.derive(sc)
        x = phi1**2 * sc.a_squared**2
        assert ch.gamma_bar / (128.0**2 * 0.3) == pytest.approx(x, rel=1e-13)
        assert ch.gamma_bar < 128.0**2 * 0.3


def test_shape_two_routes_identity():
    # derive's m = mu^2 / (4 sigma_U^2) is the paper's closed form
    # (n/2) phi_1^2 a^4 / (1 + phi_2 - 2 phi_1^2 a^4), here in 40 digits
    # from the same double inputs
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(606)
    for _ in range(1000):
        n = int(rng.integers(1, 1025))
        a = float(rng.uniform(0.05, 0.999))
        phi1 = float(rng.uniform(1e-3, 1.0))
        x = phi1**2 * a**4
        phi2 = float(rng.uniform(max(-1.0, 2.0 * x - 1.0) + 1e-9, 1.0))
        sc = scenario_with(n=n, phi1=phi1, phi2=phi2, a=a)
        with mp.workdps(40):
            x = mp.mpf(phi1) ** 2 * mp.mpf(sc.a_squared) ** 2
            closed = float(n * x / (2 * (1 + mp.mpf(phi2) - 2 * x)))
        assert ec.derive(sc).m == pytest.approx(closed, rel=1e-12, abs=0.0)


def test_shape_monotone_in_error_concentration():
    # sharper phase knowledge cannot reduce the equivalent diversity
    n = 64
    make = lambda pe: ec.derive(ec.LrsScenario(n, 1.0, fd.Rician(1.0), fd.Rayleigh(), pe)).m
    kappas = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
    ms = [make(pm.VonMises(k)) for k in kappas]
    assert all(b > a for a, b in zip(ms, ms[1:]))
    qs = [make(pm.Quantizer(q)) for q in (1, 2, 3, 4)]
    assert all(b > a for a, b in zip(qs, qs[1:]))


def test_second_moment_of_h_is_exact_at_finite_n():
    # E|H|^2 = omega + sigma_U^2 + sigma_V^2 = 1/n + (1 - 1/n) phi_1^2 a^4
    ch, n = ec.derive(REFERENCE), REFERENCE.n
    x = REFERENCE.phase_error.trig_moment(1) ** 2 * REFERENCE.a_squared**2
    assert ch.sigma_u2 + ch.sigma_v2 == pytest.approx((1.0 - x) / n, rel=1e-12, abs=0.0)
    assert ch.omega + ch.sigma_u2 + ch.sigma_v2 == pytest.approx(1.0 / n + (1.0 - 1.0 / n) * x, rel=1e-14)


def test_scenario_validation():
    with pytest.raises(nx.DomainError):
        ec.LrsScenario(0, 1.0, fd.Rayleigh(), fd.Rayleigh(), pm.NoError())
    with pytest.raises(nx.DomainError):
        ec.LrsScenario(4, 0.0, fd.Rayleigh(), fd.Rayleigh(), pm.NoError())
    with pytest.raises(nx.DomainError):
        ec.LrsScenario(4, math.inf, fd.Rayleigh(), fd.Rayleigh(), pm.NoError())


@pytest.mark.parametrize(
    "field",
    [
        {"n": 32.7},
        {"phase_error": {"type": "quantizer", "bits": 2.9}},
        {"gamma0_db": math.inf},
        {"gamma0_db": 4000.0},
    ],
    ids=["fractional-n", "fractional-bits", "inf-gamma0-db", "overflowing-gamma0-db"],
)
def test_config_rejects_fractional_counts_and_infinite_gamma0(field):
    cfg = {
        "n": 32,
        "gamma0_db": 0.0,
        "fading_sr": {"type": "rician", "k_factor": 1.0},
        "fading_rd": {"type": "rayleigh"},
        "phase_error": {"type": "von_mises", "kappa": 8.0},
    }
    assert scenario_from_config(cfg).n == 32
    with pytest.raises(ConfigError):
        scenario_from_config({**cfg, **field})


# ---------------------------------------------------------------------------
# magnitude density
# ---------------------------------------------------------------------------


def test_nakagami_pdf_normalizes_and_has_spread_omega():
    ch = ec.derive(REFERENCE)
    hi = math.sqrt(ch.omega) * (1.0 + 12.0 / math.sqrt(ch.m))
    total = nx.integrate(lambda x: ec.nakagami_pdf(ch.m, ch.omega, x), 1e-12, hi)
    assert total == pytest.approx(1.0, abs=1e-8)
    second = nx.integrate(lambda x: x * x * ec.nakagami_pdf(ch.m, ch.omega, x), 1e-12, hi)
    assert second == pytest.approx(ch.omega, abs=1e-8)


def test_nakagami_mode_location():
    # derivative changes sign at mu sqrt((2m-1)/(2m)) for m > 1/2
    ch = ec.derive(ec.LrsScenario(16, 1.0, fd.Rayleigh(), fd.Rayleigh(), pm.VonMises(4.0)))
    mode = ch.mu * math.sqrt((2.0 * ch.m - 1.0) / (2.0 * ch.m))
    h = 1e-6
    pdf = functools.partial(ec.nakagami_pdf, ch.m, ch.omega)
    left = pdf(mode - h) - pdf(mode - 2 * h)
    right = pdf(mode + 2 * h) - pdf(mode + h)
    assert left > 0.0 > right


def test_nakagami_pdf_large_shape_stays_finite():
    # log-domain evaluation must survive shapes in the hundreds
    ch = ec.derive(ec.LrsScenario(2048, 1.0, fd.Rayleigh(), fd.Rayleigh(), pm.NoError()))
    assert ch.m > 500.0
    val = ec.nakagami_pdf(ch.m, ch.omega, ch.mu)
    assert np.isfinite(val) and val > 0.0


def test_nakagami_pdf_rejects_negative():
    ch = ec.derive(REFERENCE)
    with pytest.raises(nx.DomainError):
        ec.nakagami_pdf(ch.m, ch.omega, -0.1)


# ---------------------------------------------------------------------------
# SNR density and distribution function
# ---------------------------------------------------------------------------


def test_snr_pdf_moments():
    ch = ec.derive(ec.LrsScenario(64, 0.25, fd.Rician(1.0), fd.Rayleigh(), pm.VonMises(8.0)))
    hi = ch.gamma_bar * (1.0 + 14.0 / math.sqrt(ch.m))
    mean = nx.integrate(lambda g: g * ec.snr_pdf(ch.m, ch.gamma_bar, g), 1e-12, hi)
    assert mean == pytest.approx(ch.gamma_bar, abs=1e-8 * ch.gamma_bar)
    var = nx.integrate(
        lambda g: (g - ch.gamma_bar) ** 2 * ec.snr_pdf(ch.m, ch.gamma_bar, g), 1e-12, hi
    )
    assert var == pytest.approx(ch.gamma_bar**2 / ch.m, rel=1e-6)


def test_snr_cdf_boundaries_and_exponential_case():
    ch = ec.derive(REFERENCE)
    assert ec.snr_cdf(ch.m, ch.gamma_bar, 0.0) == 0.0
    assert ec.snr_cdf(1.0, 1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
    assert ec.snr_cdf(2.0, 1.0, math.inf) == 1.0


@pytest.mark.parametrize(
    "kernel", [ec.snr_cdf, ec.snr_pdf, ec.nakagami_pdf], ids=lambda f: f.__name__
)
def test_density_kernels_reject_nan(kernel):
    with pytest.raises(nx.DomainError):
        kernel(2.0, 1.0, math.nan)
    with pytest.raises(nx.DomainError):
        kernel(2.0, 1.0, np.array([1.0, math.nan]))


@pytest.mark.parametrize(
    "kernel, m",
    [(ec.snr_pdf, 2.0), (ec.snr_pdf, 1.0), (ec.nakagami_pdf, 2.0)],
    ids=["snr_pdf-m2", "snr_pdf-m1", "nakagami_pdf-m2"],
)
def test_densities_vanish_at_infinity(kernel, m):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernel(m, 1.0, math.inf) == 0.0
        np.testing.assert_array_equal(kernel(m, 1.0, np.array([0.0, math.inf]))[1:], [0.0])


@pytest.mark.parametrize("m", [0.3, 0.5, 1.0, 2.0])
def test_densities_match_scipy_at_the_origin_and_on_a_grid(m):
    # the ideal single reflector over two Rayleigh hops has m ~ 0.40; for
    # m < 1 the gamma density diverges at 0, and the Nakagami one for
    # m < 1/2.  x^2 underflows below x ~ 1e-162, so the Nakagami density
    # must not go through it
    stats = pytest.importorskip("scipy.stats")
    points = np.concatenate([[0.0, 1e-300, 1e-200, 1e-160, 3e-162], np.linspace(0.01, 6.0, 40)])
    for ours, law in (
        (ec.snr_pdf(m, 2.5, points), stats.gamma(m, scale=2.5 / m)),
        (ec.nakagami_pdf(m, 2.5, points), stats.nakagami(m, scale=math.sqrt(2.5))),
    ):
        want = law.pdf(points)
        np.testing.assert_array_equal(ours[np.isinf(want)], want[np.isinf(want)])
        np.testing.assert_allclose(ours[np.isfinite(want)], want[np.isfinite(want)], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("m", [1e3, 1e5, 1e7])
def test_densities_keep_their_digits_at_large_shape(m):
    # a log-domain sum with terms of size m loses digits in proportion to
    # m: 3.3e-10 off at m = 1e5 and 4.1e-8 at 1e7 near the mode
    mpmath = pytest.importorskip("mpmath")
    z = np.linspace(-4.0, 4.0, 17)
    gammas = 2.5 * (1.0 + z / math.sqrt(m))
    xs = math.sqrt(2.5) * (1.0 + z / (2.0 * math.sqrt(m)))
    with mpmath.workdps(40):

        def gamma_pdf(g):
            mm, mean = mpmath.mpf(m), mpmath.mpf(2.5)
            return mpmath.exp(mm * mpmath.log(mm * g / mean) - mm * g / mean - mpmath.loggamma(mm)) / g

        want = [float(gamma_pdf(mpmath.mpf(g))) for g in gammas]
        want_nakagami = [float(2 * x * gamma_pdf(mpmath.mpf(x) ** 2)) for x in xs]
    np.testing.assert_allclose(ec.snr_pdf(m, 2.5, gammas), want, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(ec.nakagami_pdf(m, 2.5, xs), want_nakagami, rtol=1e-13, atol=0.0)


def test_nakagami_pdf_is_silent_where_x_squared_overflows():
    # x^2 overflows from ~1.3e154 on; m x^2 inside snr_pdf from ~1e154
    x = np.array([0.0, 0.5, math.inf, 1e200, 1.2e154])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = ec.nakagami_pdf(2.0, 1.0, x)
    np.testing.assert_array_equal(vals, [0.0, ec.nakagami_pdf(2.0, 1.0, 0.5), 0.0, 0.0, 0.0])
    assert vals[1] > 0.0


def test_snr_cdf_median_against_pdf_quadrature():
    ch = ec.derive(ec.LrsScenario(32, 1.0, fd.Rician(1.0), fd.Rayleigh(), pm.VonMises(8.0)))
    lo, hi = 0.0, ch.gamma_bar * 10.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if ec.snr_cdf(ch.m, ch.gamma_bar, mid) < 0.5:
            lo = mid
        else:
            hi = mid
    median = 0.5 * (lo + hi)
    mass = nx.integrate(lambda g: ec.snr_pdf(ch.m, ch.gamma_bar, g), 1e-12, median)
    assert mass == pytest.approx(0.5, abs=1e-8)


def test_snr_cdf_monotone_to_one():
    ch = ec.derive(REFERENCE)
    gs = np.linspace(0.0, ch.gamma_bar * 4.0, 100)
    vals = ec.snr_cdf(ch.m, ch.gamma_bar, gs)
    assert np.all(np.diff(vals) >= -1e-14)
    assert vals[-1] > 0.999


# ---------------------------------------------------------------------------
# cumulant generating function
# ---------------------------------------------------------------------------


def test_cgf_zero_at_origin():
    ch = ec.derive(REFERENCE)
    assert ec.cgf_exact(ch, 0.0) == 0.0
    assert ec.cgf_gamma_approx(ch, 0.0) == 0.0


def test_cgf_first_cumulant_is_second_moment():
    ch = ec.derive(REFERENCE)
    h = 1e-6
    deriv = (ec.cgf_exact(ch, h) - ec.cgf_exact(ch, -h)) / (2.0 * h)
    assert deriv == pytest.approx(ch.mu**2 + ch.sigma_u2 + ch.sigma_v2, rel=1e-6)


def test_cgf_second_cumulant_matches_gaussian_model_sampling():
    ch = ec.derive(ec.LrsScenario(64, 1.0, fd.Rician(1.0), fd.Rayleigh(), pm.VonMises(8.0)))
    h = 1e-4
    second = (ec.cgf_exact(ch, h) - 2.0 * ec.cgf_exact(ch, 0.0) + ec.cgf_exact(ch, -h)) / h**2
    rng = np.random.default_rng(31337)
    u = ch.mu + math.sqrt(ch.sigma_u2) * rng.standard_normal(2 * 10**6)
    v = math.sqrt(ch.sigma_v2) * rng.standard_normal(2 * 10**6)
    power = u * u + v * v
    sample_var = power.var(ddof=1)
    se = power.var(ddof=1) * math.sqrt(2.0 / (2 * 10**6))  # rough, near-normal power
    assert abs(second - sample_var) < 6.0 * se


def test_cgf_gamma_approx_first_cumulant_is_mu_squared():
    ch = ec.derive(REFERENCE)
    h = 1e-7
    deriv = (ec.cgf_gamma_approx(ch, h) - ec.cgf_gamma_approx(ch, -h)) / (2.0 * h)
    assert deriv == pytest.approx(ch.mu**2, rel=1e-6)


def test_cgf_domain_errors():
    ch = ec.derive(REFERENCE)
    with pytest.raises(nx.DomainError):
        ec.cgf_exact(ch, 1.0 / (4.0 * ch.sigma_u2))
    with pytest.raises(nx.DomainError):
        ec.cgf_gamma_approx(ch, 1.0 / (4.0 * ch.sigma_u2) + 1.0)
    uniform = ec.derive(
        ec.LrsScenario(16, 1.0, fd.Rayleigh(), fd.Rayleigh(), pm.UniformCircle())
    )
    with pytest.raises(nx.DomainError):
        ec.cgf_exact(uniform, 0.1)


def test_cgf_error_shrinks_like_one_over_n():
    t = 4.0
    errs = []
    for n in (64, 128, 256):
        ch = ec.derive(ec.LrsScenario(n, 1.0, fd.Rician(1.0), fd.Rayleigh(), pm.VonMises(8.0)))
        errs.append(abs(ec.cgf_exact(ch, t) - ec.cgf_gamma_approx(ch, t)))
    for a, b in zip(errs, errs[1:]):
        assert 1.6 <= a / b <= 2.4


# ---------------------------------------------------------------------------
# exact finite-n means of the simulator's control variates
# ---------------------------------------------------------------------------


@functools.cache
def mp_phi(model, p):
    """phi_p of ``model`` in 60 digits, from its definition."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        if isinstance(model, pm.NoError) or p == 0:
            return mp.mpf(1)
        if isinstance(model, pm.UniformCircle):
            return mp.mpf(0)
        if isinstance(model, pm.VonMises):
            return mp.besseli(p, model.kappa) / mp.besseli(0, model.kappa)
        if isinstance(model, pm.Quantizer):
            x = p * mp.pi / mp.mpf(2) ** model.bits
            return mp.sin(x) / x
        return functools.reduce(lambda acc, c: acc * mp_phi(c, p), model.components, mp.mpf(1))


@functools.cache
def mp_hop_moment(model, k):
    """E|h|^k = Gamma(1 + k/2) 1F1(-k/2; 1; -K) / (K+1)^(k/2) in 60 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        big_k = mp.mpf(getattr(model, "k_factor", 0.0))
        half = mp.mpf(k) / 2
        return mp.gamma(1 + half) * mp.hyp1f1(-half, 1, -big_k) / (big_k + 1) ** half


def mp_control_means(sc):
    """The means of u, u^2, v^2, u^3, u v^2, u^4, u^2 v^2, v^4 in 60
    digits, from the raw moments of (R cos Theta - mu, R sin Theta) as
    E R^(p+q) E[cos^p sin^q], the trigonometric expectations expanded in
    double angles, and the cumulants of a mean of n i.i.d. terms."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        phi = [mp_phi(sc.phase_error, p) for p in range(5)]
        er = [mp_hop_moment(sc.fading_sr, k) * mp_hop_moment(sc.fading_rd, k) for k in range(5)]
        c2, s2 = (1 + phi[2]) / 2, (1 - phi[2]) / 2
        trig = {
            (1, 0): phi[1], (2, 0): c2, (0, 2): s2,
            (3, 0): (3 * phi[1] + phi[3]) / 4, (1, 2): (phi[1] - phi[3]) / 4,
            (4, 0): (3 + 4 * phi[2] + phi[4]) / 8, (2, 2): (1 - phi[4]) / 8, (0, 4): (3 - 4 * phi[2] + phi[4]) / 8,
        }
        m = er[1] * phi[1]
        # raw moments of A = R cos - m and B = R sin by binomial expansion in m
        def raw(p, q):
            return sum(mp.binomial(p, i) * (-m) ** (p - i) * er[i + q] * trig.get((i, q), 1) for i in range(p + 1))
        a2, b2 = raw(2, 0), raw(0, 2)
        k = {
            (3, 0): raw(3, 0), (1, 2): raw(1, 2),
            (4, 0): raw(4, 0) - 3 * a2 * a2, (2, 2): raw(2, 2) - a2 * b2, (0, 4): raw(0, 4) - 3 * b2 * b2,
        }
        n = mp.mpf(sc.n)
        base = {(1, 0): 0, (2, 0): 1, (0, 2): 1, (3, 0): 0, (1, 2): 0, (4, 0): 3, (2, 2): 1, (0, 4): 3}
        out = []
        for p, q in ec.CONTROL_POWERS:
            if q and b2 == 0:
                out.append(0.0)  # v = 0 without phase errors
                continue
            excess = k[p, q] * n ** (1 - p - q) / ((a2 / n) ** (mp.mpf(p) / 2) * (b2 / n) ** (mp.mpf(q) / 2)) if (p, q) in k else 0
            out.append(float(base[p, q] + excess))
        return np.array(out)


def json_id(cfg):
    """A test id from a model's JSON form, e.g. "von_mises-8.0"."""
    return "-".join(str(v) if not isinstance(v, list) else "x".join(json_id(c) for c in v) for v in cfg.values())


MEAN_GRID_PHASES = (
    pm.NoError(),
    pm.UniformCircle(),
    pm.VonMises(0.5),
    pm.VonMises(8.0),
    pm.VonMises(1e4),
    pm.Quantizer(1),
    pm.Quantizer(3),
    pm.Quantizer(10),
    pm.Product((pm.VonMises(8.0), pm.Quantizer(2))),
)
MEAN_GRID_HOPS = (
    (fd.Rayleigh(), fd.Rayleigh()),
    (fd.Rician(1.0), fd.Rayleigh()),
    (fd.Rician(1e3), fd.Rician(1e6)),
    (fd.Rician(1e6), fd.Rician(1e6)),
)


@pytest.mark.parametrize("hops", MEAN_GRID_HOPS, ids=lambda h: "-".join(str(m.to_config().get("k_factor", "rayleigh")) for m in h))
@pytest.mark.parametrize("pe", MEAN_GRID_PHASES, ids=lambda pe: json_id(pe.to_config()))
def test_control_means_match_a_60_digit_evaluation(pe, hops):
    # every finite mean lies within its rounding bound, and so within
    # CONTROL_MEAN_TOL, of the 60-digit value; the bound holds with a
    # factor of 5 to spare everywhere on this grid
    for n in (1, 2, 32):
        sc = ec.LrsScenario(n, 1.0, *hops, pe)
        ch, means, bound = ec._control_means(sc)
        want = mp_control_means(sc)
        assert np.all(np.abs(means - want) <= 0.2 * bound + 1e-15), (n, means - want, bound)
        mu, sigma_u, sigma_v, public = ec.control_moments(sc)
        assert (mu, sigma_u, sigma_v) == (ch.mu, math.sqrt(ch.sigma_u2), math.sqrt(ch.sigma_v2))
        finite = np.isfinite(public)
        np.testing.assert_array_equal(finite, bound <= ec.CONTROL_MEAN_TOL)
        assert np.all(np.abs(public[finite] - want[finite]) <= ec.CONTROL_MEAN_TOL)


def test_well_conditioned_control_means_keep_about_ten_digits():
    # Rayleigh and Rician K = 1 hops, the paper's error models
    for pe in (pm.VonMises(2.0), pm.VonMises(8.0), pm.Quantizer(2), pm.Quantizer(3)):
        for n in (1, 32):
            sc = ec.LrsScenario(n, 1.0, fd.Rician(1.0), fd.Rayleigh(), pe)
            means = ec.control_moments(sc)[3]
            assert np.all(np.isfinite(means))
            np.testing.assert_allclose(means, mp_control_means(sc), rtol=0, atol=1e-10)


def test_ill_conditioned_control_means_are_nan():
    # near-deterministic hops without phase errors: E R^k = 1 - O(1/K),
    # so the third and fourth cumulants of R cos Theta cancel to ~1e-12
    # of the raw moments and lose ~5e-5 and ~2e-3 (n = 1) of their value
    # to rounding; nearly exact phases (1 - phi_2 ~ 6e-6 at 10 bits) do
    # the same to v^4, the 60-digit value being 3 + O(1/n)
    sc = ec.LrsScenario(32, 1.0, fd.Rician(1e6), fd.Rician(1e6), pm.NoError())
    means = ec.control_moments(sc)[3]
    np.testing.assert_array_equal(np.isnan(means), [False, False, False, True, False, True, False, False])
    assert means[[0, 1, 2, 4, 6, 7]].tolist() == [0.0, 1.0, 0.0, 0.0, 0.0, 0.0]
    sc = ec.LrsScenario(1, 1.0, fd.Rician(1.0), fd.Rayleigh(), pm.Quantizer(10))
    means = ec.control_moments(sc)[3]
    np.testing.assert_array_equal(np.isnan(means), [False] * 7 + [True])


def test_control_means_without_phase_errors_leave_v_at_zero():
    sc = ec.LrsScenario(8, 1.0, fd.Rician(1.0), fd.Rayleigh(), pm.NoError())
    mu, sigma_u, sigma_v, means = ec.control_moments(sc)
    assert sigma_v == 0.0 and means[[2, 4, 6, 7]].tolist() == [0.0] * 4
    assert means[1] == 1.0 and means[5] > 3.0
