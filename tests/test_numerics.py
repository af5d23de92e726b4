"""Special-function kernels against independent oracles.

The oracles are mpmath evaluations at 50 significant digits, algebraic
closed forms and identities, coded without reference to the
implementations under test.
"""

import math

import mpmath
import numpy as np
import pytest

from rislab import numerics as nx

mp = mpmath.MPContext()
mp.dps = 50


def bessel_scaled_oracle(p, x):
    """exp(-x) I_p(x) from mpmath's unscaled I_p."""
    return float(mp.besseli(p, x) * mp.exp(-x))


def q_oracle(x):
    return float(mp.erfc(mp.mpf(x) / mp.sqrt(2)) / 2)


# ---------------------------------------------------------------------------
# bessel_i_scaled
# ---------------------------------------------------------------------------


def test_bessel_at_zero():
    assert nx.bessel_i_scaled(0, 0.0) == 1.0
    assert nx.bessel_i_scaled(1, 0.0) == 0.0
    assert nx.bessel_i_scaled(5, 0.0) == 0.0


def test_bessel_small_argument_vs_series_oracle():
    # power-series branch: x < 50, or p*p >= x
    i0_at_1 = 1.2660658777520084
    assert nx.bessel_i_scaled(0, 1.0) == pytest.approx(i0_at_1 * math.exp(-1.0), rel=1e-12)
    for p in (0, 1, 2, 5):
        for x in (0.1, 1.0, 4.0, 10.0, 25.0):
            assert nx.bessel_i_scaled(p, x) == pytest.approx(bessel_scaled_oracle(p, x), rel=1e-12)


def test_bessel_large_argument_recurrence():
    # I_{p-1}(x) - I_{p+1}(x) = (2p/x) I_p(x), scaled by exp(-x) on both sides;
    # x = 50 and up mixes the asymptotic (p*p < x) and series branches
    for x in (0.1, 1.0, 7.0, 50.0, 120.0, 400.0):
        for p in range(1, 11):
            lhs = nx.bessel_i_scaled(p - 1, x) - nx.bessel_i_scaled(p + 1, x)
            rhs = 2.0 * p / x * nx.bessel_i_scaled(p, x)
            assert lhs == pytest.approx(rhs, rel=1e-9)


def test_bessel_scaled_consistent_with_plain():
    # the unscaled I_p times exp(-x), across the series and asymptotic branches
    for p in (0, 1, 3):
        for x in (0.5, 10.0, 60.0, 300.0):
            assert nx.bessel_i_scaled(p, x) == pytest.approx(bessel_scaled_oracle(p, x), rel=1e-12)


def test_bessel_scaled_survives_huge_arguments():
    # ratio of scaled values approaches 1 as the argument grows
    ratio = nx.bessel_i_scaled(1, 1e8) / nx.bessel_i_scaled(0, 1e8)
    assert 0.999999 < ratio < 1.0


# float.hex of exp(-x) I_p(x) for p = 0, 1, 2, 16, as the expansion gave
# them before its overflow guard: the guard must not move a bit below 1e307
PINNED_BESSEL_SCALED = {
    50.0: ("0x1.cf5a5415199fap-5", "0x1.cab2177d77b37p-5", "0x1.bd0148e71f134p-5", "0x1.1d8141c80cd72p-8"),
    1e4: ("0x1.05743eaa6c2a5p-8", "0x1.0570e5e95bf20p-8", "0x1.0566dbe7f82ddp-8", "0x1.0220ee015edc6p-8"),
    1e300: ("0x1.4e4f1043a39edp-500",) * 4,
    1e307: ("0x1.b10515459e08bp-512",) * 4,
}


@pytest.mark.parametrize("x", sorted(PINNED_BESSEL_SCALED))
def test_bessel_scaled_keeps_pinned_bits(x):
    assert tuple(nx.bessel_i_scaled(p, x).hex() for p in (0, 1, 2, 16)) == PINNED_BESSEL_SCALED[x]


@pytest.mark.parametrize("x", [2.9e307, 1.7e308, np.finfo(float).max])
def test_bessel_scaled_does_not_overflow_at_the_largest_arguments(x):
    # 8 x and 2 pi x overflow here; every correction term is below 1e-300
    want = float(1 / mp.sqrt(2 * mp.pi * mp.mpf(x)))
    for p in (0, 1, 16):
        assert nx.bessel_i_scaled(p, float(x)) == pytest.approx(want, rel=1e-15, abs=0.0)


def test_bessel_range_and_domain_errors():
    # past x = 700 only the asymptotic branch (p*p < x) is available
    with pytest.raises(nx.RangeError):
        nx.bessel_i_scaled(27, 701.0)
    with pytest.raises(nx.DomainError):
        nx.bessel_i_scaled(-1, 1.0)
    with pytest.raises(nx.DomainError):
        nx.bessel_i_scaled(0, -0.5)
    assert nx.bessel_i_scaled(27, 700.0) > 0.0  # series boundary stays finite


def test_validators_take_integral_floats_and_numpy_scalars():
    for value in (3, 3.0, np.int64(3), np.uint8(3), np.float32(3.0)):
        count = nx.check_count(value, "count", 1, 3)
        assert count == 3 and type(count) is int
    for value in (2, 2.5, np.int32(2), np.float64(2.5), 10**300):
        real = nx.check_real(value, "real", strict=True)
        assert real == float(value) and type(real) is float
    assert nx.check_real(-7.5, "db", -math.inf) == -7.5
    for bad in (np.bool_(True), np.float64(np.nan), np.array(2.0), 2 + 0j):
        with pytest.raises(nx.DomainError, match="real"):
            nx.check_real(bad, "real")
        with pytest.raises(nx.DomainError, match="count"):
            nx.check_count(bad, "count")
    with pytest.raises(nx.DomainError):
        nx.check_real(10**400, "real")  # float() of it overflows


# ---------------------------------------------------------------------------
# ln_gamma
# ---------------------------------------------------------------------------


def test_ln_gamma_exact_points():
    assert nx.ln_gamma(1.0) == pytest.approx(0.0, abs=1e-13)
    assert nx.ln_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-13)
    assert nx.ln_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-13)
    assert nx.ln_gamma(2.0) == pytest.approx(0.0, abs=1e-13)


def test_ln_gamma_functional_equation():
    for x in np.linspace(0.5, 20.0, 79):
        lhs = math.exp(nx.ln_gamma(x + 1.0))
        rhs = x * math.exp(nx.ln_gamma(x))
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_ln_gamma_domain_error():
    with pytest.raises(nx.DomainError):
        nx.ln_gamma(0.0)
    with pytest.raises(nx.DomainError):
        nx.ln_gamma(-3.2)


# ---------------------------------------------------------------------------
# gauss_q
# ---------------------------------------------------------------------------


def q_kernel(xs):
    """nx.gauss_q of an ascending array, in fresh buffers."""
    xs = np.asarray(xs, dtype=float)
    return nx.gauss_q(xs, np.empty(xs.size), np.empty((4, xs.size)))


def test_gauss_q_reference_points():
    q = q_kernel([0.0, 1.0])
    assert q[0] == 0.5
    # frozen from the oracle: Q(1) = erfc(1/sqrt 2)/2
    assert q_oracle(1.0) == pytest.approx(0.1586552539314571, rel=1e-12)
    assert q[1] == pytest.approx(0.1586552539314571, rel=1e-12)


def test_gauss_q_matches_erf_oracle_on_range():
    # abs=0.0: pytest's default abs=1e-12 would pass any value where Q(x)
    # < 1e-12, from x ~ 7 on; the tail to 37 has Q down to 6e-300
    xs = np.linspace(0.05, 37.0, 120)
    for x, q in zip(xs, q_kernel(xs)):
        assert q == pytest.approx(q_oracle(float(x)), rel=1e-12, abs=0.0)


def test_gauss_q_deep_tail():
    q = q_kernel([40.0, 45.0])
    assert q[0] <= 1e-300
    assert q[1] == 0.0


def test_gauss_q_elements_do_not_depend_on_their_neighbours():
    # one argument in each of Cody's ranges and past the last: the whole
    # array gives the bytes of the one-element calls
    xs = np.array([0.0, 0.4, 1.7, 6.0, 20.0, 50.0])
    single = np.concatenate([q_kernel([x]) for x in xs])
    assert q_kernel(xs).tobytes() == single.tobytes()


def test_gauss_q_of_zero_infinity_and_nan():
    q = q_kernel([-0.0, 0.0, 50.0, math.inf, math.nan, math.nan])
    assert q[:4].tolist() == [0.5, 0.5, 0.0, 0.0]
    assert np.isnan(q[4:]).all()


def _with_neighbours(x):
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


@pytest.mark.parametrize(
    "x",
    # Cody's range bounds 0.46875 and 4 of the erfc argument x/sqrt(2),
    # and the same numbers as arguments of Q
    _with_neighbours(0.46875 * math.sqrt(2.0))
    + _with_neighbours(4.0 * math.sqrt(2.0))
    + _with_neighbours(0.46875)
    + _with_neighbours(4.0),
)
def test_gauss_q_at_the_range_bounds(x):
    assert q_kernel([x])[0] == pytest.approx(q_oracle(x), rel=1e-12, abs=0.0)


def test_gauss_q_fills_and_returns_the_caller_buffer():
    # whatever the buffers held before, and with scratch wider than x
    xs = np.array([0.0, 0.3, 0.7, 1.5, 6.0, 45.0, math.inf, math.nan])
    out = np.full(xs.size, -1.0)
    work = np.full((4, xs.size + 3), -1.0)
    assert nx.gauss_q(xs, out, work) is out
    assert out.tobytes() == q_kernel(xs).tobytes()


# ---------------------------------------------------------------------------
# regularized_gamma_p
# ---------------------------------------------------------------------------


def test_gamma_p_boundaries():
    assert nx.regularized_gamma_p(3.7, 0.0) == 0.0
    assert nx.regularized_gamma_p(2.0, math.inf) == 1.0
    assert nx.regularized_gamma_p(2.0, np.array([0.0, math.inf])).tolist() == [0.0, 1.0]
    for x in (0.2, 1.0, 5.0):
        assert nx.regularized_gamma_p(1.0, x) == pytest.approx(1.0 - math.exp(-x), abs=1e-12)


def test_gamma_p_half_is_erf():
    # P(1/2, x) = erf(sqrt(x))
    for x in (0.05, 0.3, 1.0, 2.5, 6.0):
        assert nx.regularized_gamma_p(0.5, x) == pytest.approx(
            float(mp.erf(mp.sqrt(x))), abs=1e-10
        )


def test_gamma_p_monotone_and_bounded():
    for m in (0.3, 1.0, 4.5, 40.0, 250.0):
        xs = np.linspace(0.0, 4.0 * m + 20.0, 200)
        vals = [nx.regularized_gamma_p(m, float(x)) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 0.99


def test_gamma_p_array_input():
    xs = np.array([0.0, 0.5, 2.0, 9.0])
    out = nx.regularized_gamma_p(2.0, xs)
    assert out.shape == xs.shape
    for x, v in zip(xs, out):
        assert v == pytest.approx(nx.regularized_gamma_p(2.0, float(x)), abs=1e-14)


def test_gamma_p_domain_errors():
    with pytest.raises(nx.DomainError):
        nx.regularized_gamma_p(0.0, 1.0)
    with pytest.raises(nx.DomainError):
        nx.regularized_gamma_p(1.0, -0.1)
    with pytest.raises(nx.DomainError):
        nx.regularized_gamma_p(2.0, math.nan)


@pytest.mark.parametrize("m", [0.3, 1.0, 3.7, 14.5, 60.0, 250.0])
def test_gamma_p_against_scipy_gammainc(m):
    gammainc = pytest.importorskip("scipy.special").gammainc
    split = m + 1.0
    xs = np.concatenate(
        [
            [0.0, split, np.nextafter(split, 0.0), np.nextafter(split, math.inf), math.inf],
            np.geomspace(1e-3, 0.999 * split, 40),
            np.geomspace(1.001 * split, 5.0 * split + 40.0, 40),
        ]
    )
    out = nx.regularized_gamma_p(m, xs)
    assert np.max(np.abs(out - gammainc(m, xs))) <= 1e-12
    scalars = [nx.regularized_gamma_p(m, float(x)) for x in xs]
    assert all(type(v) is float for v in scalars)
    assert scalars == out.tolist()


# ---------------------------------------------------------------------------
# Laguerre function of the Rician mean magnitude
# ---------------------------------------------------------------------------


def test_laguerre_half_vs_kummer_transformed_oracle():
    # L_{1/2}(-k) = exp(-k) * 1F1(3/2; 1; k)
    for k in (0.0, 0.5, 1.0, 5.0, 20.0):
        want = float(mp.exp(-k) * mp.hyp1f1(1.5, 1, k))
        assert nx.laguerre_half(k) == pytest.approx(want, rel=1e-11)


def test_laguerre_half_is_exactly_one_at_zero():
    # (1 + 0) exp(0) I_0(0) + 0 exp(0) I_1(0), with no special case for k = 0
    assert nx.laguerre_half(0.0) == 1.0


def test_laguerre_half_large_argument_asymptote():
    # L_{1/2}(-k) ~ 2 sqrt(k/pi) for large k
    for k in (1e4, 1e6):
        assert nx.laguerre_half(k) == pytest.approx(2.0 * math.sqrt(k / math.pi), rel=1e-3)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def test_gauss_legendre_rule_is_exact_to_degree_2n_minus_1_and_cached():
    x, w = nx.gauss_legendre(32)
    assert w @ x**62 == pytest.approx(2.0 / 63.0, rel=1e-13)
    assert w @ x**61 == pytest.approx(0.0, abs=1e-15)
    assert nx.gauss_legendre(32)[0] is x


def test_integrate_known_integrals():
    assert nx.integrate(np.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-10)
    assert nx.integrate(lambda x: np.ones_like(x), 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    # closed form of the unit-shape fading integral
    val = nx.integrate(lambda th: (1.0 + 10.0 / np.sin(th) ** 2) ** -1.0, 0.0, math.pi / 2)
    assert val == pytest.approx((math.pi / 2.0) * (1.0 - math.sqrt(10.0 / 11.0)), abs=1e-10)


def test_integrate_oscillatory():
    val = nx.integrate(lambda x: np.cos(16.0 * x), 0.0, math.pi)
    assert val == pytest.approx(0.0, abs=1e-10)


def test_integrate_relative_tolerance_on_tiny_values():
    scale = 1e-30
    val = nx.integrate(lambda x: scale * np.exp(-x), 0.0, 1.0)
    assert val == pytest.approx(scale * (1.0 - math.exp(-1.0)), rel=1e-9)


def test_integrate_subdivision_budget_error_carries_estimate(monkeypatch):
    monkeypatch.setattr(nx, "_QUAD_MAX_SPLITS", 1)
    with pytest.raises(nx.AccuracyError) as err:
        nx.integrate(lambda x: np.cos(50.0 * x) ** 2, 0.0, 10.0)
    assert math.isfinite(err.value.estimate)


def test_integrate_rejects_bad_interval_and_nonfinite():
    with pytest.raises(nx.DomainError):
        nx.integrate(np.sin, 1.0, 1.0)
    def nan_left_of_half(x):
        with np.errstate(invalid="ignore"):
            return np.log(x - 0.5)

    with pytest.raises(nx.DomainError):
        nx.integrate(nan_left_of_half, 0.0, 1.0)


@pytest.mark.parametrize("a, b", [("0", 1.0), (0.0, "1"), (True, 2.0), (0.0, math.inf), (math.nan, 1.0)])
def test_integrate_rejects_limits_that_are_not_finite_reals(a, b):
    with pytest.raises(nx.DomainError):
        nx.integrate(lambda x: x, a, b)
