"""Invariants of the gamma-law kernels over random shapes and mean SNRs,
of the circular moments and sampled phasors over random phase-error
models, of the simulator over random small configurations, and of the
argument checks over bad scalars."""

import contextlib
import io
import json
import math
import os
import tempfile
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from _stubs import RecordingGenerator, masked_gauss_q

from rislab import cli
from rislab import equiv_channel as ec
from rislab import fading as fd
from rislab import montecarlo as mc
from rislab import numerics as nx
from rislab import performance as pf
from rislab import phase_models as pm
from rislab import validate

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
special = pytest.importorskip("scipy.special")
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
products = st.lists(st.one_of(von_mises, quantizers), min_size=1, max_size=3).map(
    lambda comps: pm.Product(tuple(comps))
)
phase_errors = st.one_of(von_mises, quantizers, products)


# Cody's range bounds of x/sqrt(2) and their neighbours, the same numbers
# as arguments, the deep tail and far past it
_Q_EDGES = sorted(
    {
        v
        for b in (0.46875 * math.sqrt(2.0), 4.0 * math.sqrt(2.0), 0.46875, 4.0, 27.0, 40.0)
        for v in (math.nextafter(b, 0.0), b, math.nextafter(b, math.inf))
    }
    | {0.0, 1e300}
)
q_arguments = st.one_of(
    st.floats(min_value=0.0, max_value=1e300),
    st.floats(min_value=0.0, max_value=50.0),
    st.sampled_from(_Q_EDGES),
)


def _gauss_q(xs):
    xs = np.array(xs, dtype=float)
    return xs, nx.gauss_q(xs, np.empty(xs.size), np.empty((4, xs.size)))


@hypothesis.settings(derandomize=True, deadline=None, max_examples=200)
@given(xs=st.lists(q_arguments, min_size=1, max_size=64).map(sorted))
def test_gauss_q_is_the_masked_evaluation_bit_for_bit(xs):
    xs, q = _gauss_q(xs)
    assert q.tobytes() == masked_gauss_q(xs).tobytes()


@hypothesis.settings(derandomize=True, deadline=None, max_examples=200)
@given(xs=st.lists(q_arguments, max_size=64), nans=st.integers(min_value=1, max_value=3))
def test_gauss_q_matches_scipy_ndtr(xs, nans):
    # ascending with 0 and +inf, then a NaN tail; below the smallest
    # normal double, where Q from x ~ 37.5 on is subnormal, both sides
    # round to an absolute grid
    xs, q = _gauss_q(sorted(xs + [0.0, math.inf]) + [math.nan] * nans)
    np.testing.assert_allclose(q, special.ndtr(-xs), rtol=1e-12, atol=np.finfo(float).tiny)


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


# kappa = 0 and log-uniform on [1e-6, 1e308]; bits over the whole range
wide_von_mises = st.one_of(
    st.just(0.0), st.floats(min_value=-6.0, max_value=308.0).map(lambda e: 10.0**e)
).map(pm.VonMises)
all_quantizers = st.integers(min_value=1, max_value=1023).map(pm.Quantizer)


@PROPERTY
@given(model=st.one_of(wide_von_mises, all_quantizers))
def test_quadrature_oracle_matches_closed_form_moments(model):
    for p in range(pm.MAX_INTEGRATION_ORDER + 1):
        assert abs(pm.moment_by_integration(model, p) - model.trig_moment(p)) <= 1e-13


EPS = np.finfo(float).eps


@PROPERTY
@given(model=st.one_of(phase_errors, st.just(pm.NoError()), st.just(pm.UniformCircle())), seed=st.integers(0, 2**32 - 1))
def test_sampled_phasors_have_unit_modulus(model, seed):
    z = model.sample(np.random.default_rng(seed), (64, 8))
    assert z.shape == (64, 8)
    assert np.all(np.abs(np.abs(z) - 1.0) <= 4.0 * EPS)


@PROPERTY
@given(model=quantizers, seed=st.integers(0, 2**32 - 1))
def test_quantizer_phasors_stay_within_half_a_step(model, seed):
    z = model.sample(np.random.default_rng(seed), 512)
    assert np.all(z.real >= math.cos(math.pi / 2**model.bits) - 4.0 * EPS)


@hypothesis.settings(derandomize=True, deadline=None, max_examples=40)
@given(model=wide_von_mises, seed=st.integers(0, 2**32 - 1), data=st.data())
def test_von_mises_rounds_shrink_and_leave_the_stream_after_them(model, seed, data):
    # whatever kappa and count: unit phasors, rounds of u1, u2 and u3 that
    # never grow, the first one sized by the count, and the generator left
    # just after the last one; kappa = 0 draws one uniform per phasor
    count = data.draw(st.integers(min_value=0, max_value=3 * pm._ROUND), label="count")
    rng = np.random.Generator(np.random.SFC64(seed))
    recording = RecordingGenerator(rng)
    z = model.sample(recording, count)
    assert z.shape == (count,) and np.all(np.abs(np.abs(z) - 1.0) <= 4.0 * EPS)
    after = np.random.Generator(np.random.SFC64(seed))
    if model.kappa == 0.0:
        assert recording.sizes == [(count,)]
        after.random(count)
    else:
        rounds = recording.sizes[::3]
        assert recording.sizes == [size for size in rounds for _ in range(3)]
        assert rounds[:1] == ([min(pm._ROUND, count * 3 // 2 + 16)] if count else [])
        assert all(0 < later <= earlier for earlier, later in zip(rounds, rounds[1:]))
        after.random(3 * sum(rounds))
    assert repr(rng.bit_generator.state) == repr(after.bit_generator.state)


@hypothesis.settings(derandomize=True, deadline=None, max_examples=40)
@given(model=products, seed=st.integers(0, 2**32 - 1), data=st.data())
def test_product_phasors_are_the_components_drawn_in_turn(model, seed, data):
    # each component draws its array from the one generator in turn, and
    # the arrays multiply out of place (np.multiply: ``want * temporary``
    # may run in place, with other rounding)
    count = data.draw(st.integers(min_value=0, max_value=3 * pm._ROUND), label="count")
    product = np.random.Generator(np.random.SFC64(seed))
    turns = np.random.Generator(np.random.SFC64(seed))
    want = model.components[0].sample(turns, count)
    for comp in model.components[1:]:
        want = np.multiply(want, comp.sample(turns, count))
    assert model.sample(product, count).tobytes() == want.tobytes()
    assert repr(product.bit_generator.state) == repr(turns.bit_generator.state)


SIMULATION = hypothesis.settings(derandomize=True, deadline=None, max_examples=20)
fadings = st.one_of(st.just(fd.Rayleigh()), st.floats(min_value=0.0, max_value=10.0).map(fd.Rician))


def _at_workers(workers, run, *args):
    with mock.patch.dict(os.environ, {"RIS_LAB_WORKERS": str(workers)}):
        return run(*args)


@SIMULATION
@given(
    n=st.integers(min_value=1, max_value=6),
    hops=st.tuples(fadings, fadings),
    model=st.one_of(phase_errors, st.just(pm.NoError()), st.just(pm.UniformCircle())),
    blocks=st.integers(min_value=1, max_value=3),
    rest=st.integers(min_value=1, max_value=mc.BLOCK_TRIALS),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    points=st.lists(st.floats(min_value=1e-3, max_value=1e2), min_size=1, max_size=3),
)
def test_simulation_results_do_not_depend_on_the_worker_count(n, hops, model, blocks, rest, seed, points):
    trials = (blocks - 1) * mc.BLOCK_TRIALS + rest
    scenario = ec.LrsScenario(n, points[0], *hops, model)
    for estimator in ("semianalytic", "direct"):
        cfg = mc.SimConfig(scenario, trials, seed, tuple(points), estimator)
        assert _at_workers(1, mc.simulate_ber, cfg) == _at_workers(2, mc.simulate_ber, cfg)
    edges = np.linspace(0.0, 4.0 * n * n * points[0], 9)
    one = _at_workers(1, mc.sample_snr, cfg, edges)
    two = _at_workers(2, mc.sample_snr, cfg, edges)
    np.testing.assert_array_equal(one.values, two.values)
    np.testing.assert_array_equal(one.histogram, two.histogram)


@PROPERTY
@given(
    n=st.integers(min_value=1, max_value=64),
    hops=st.tuples(fadings, fadings),
    model=st.one_of(phase_errors, st.just(pm.NoError()), st.just(pm.UniformCircle())),
    trials=st.integers(min_value=1, max_value=2 * mc.BLOCK_TRIALS),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    start_db=st.floats(min_value=-30.0, max_value=0.0),
)
def test_semianalytic_estimates_stay_positive_and_never_rise(n, hops, model, trials, seed, start_db):
    # whatever rung of controls the fit keeps (8, 5, 3 or none), every
    # weight is >= 0; the points n^2 gamma0 run from start_db in 0.5 dB
    # steps, where no Q(sqrt(2 n^2 gamma0) |H|) underflows
    points = tuple(10.0 ** ((start_db + 0.5 * i) / 10.0) / (n * n) for i in range(8))
    scenario = ec.LrsScenario(n, points[0], *hops, model)
    res = mc.simulate_ber(mc.SimConfig(scenario, trials, seed, points))
    assert all(b > 0.0 for b in res.ber)
    assert all(b <= a for a, b in zip(res.ber, res.ber[1:]))
    assert set(res.controls) <= {0, 3, 5, 8} and len(set(res.controls)) == 1


@PROPERTY
@given(
    n=st.integers(min_value=1, max_value=10**6),
    gamma0=st.floats(min_value=1e-6, max_value=1e3),
    hops=st.tuples(fadings, fadings),
    model=st.one_of(phase_errors, st.just(pm.NoError()), st.just(pm.UniformCircle())),
)
def test_derived_shape_parameter_is_positive(n, gamma0, hops, model):
    ch = ec.derive(ec.LrsScenario(n, gamma0, *hops, model))
    assert 0.0 < ch.m < math.inf


@PROPERTY
@given(m=shapes, per_shape=st.floats(min_value=10.0, max_value=1e6))
def test_asymptote_to_exact_ber_ratio_tends_to_one(m, per_shape):
    # the ratio exceeds 1 by O(m / gamma_bar): ten times the mean SNR
    # leaves at most a fifth of the excess
    def excess(gamma_bar):
        return pf.ber_high_snr(m, gamma_bar) / pf.ber_bpsk(m, gamma_bar) - 1.0

    gamma_bar = m * per_shape
    assert 0.0 <= excess(10.0 * gamma_bar) <= 0.2 * excess(gamma_bar)


@st.composite
def planner_channels(draw):
    """(a^2, phi_1, phi_2) of a link whose Re H has spread."""
    # a >= 0.5 and phi_1 >= 0.3 keep m_1 >= 1.4e-3, where G_c(1) is a finite double
    a = draw(st.floats(min_value=0.5, max_value=0.999))
    phi1 = draw(st.floats(min_value=0.3, max_value=1.0))
    low = 2.0 * phi1 * phi1 - 1.0  # the variance bound on phi_2
    return a * a, phi1, low + draw(st.floats(min_value=0.0, max_value=1.0)) * (1.0 - low)


def _coding_gain(n, a_squared, phi1, phi2):
    ch = ec.channel_from_moments(n, 1.0, a_squared, phi1, phi2)
    return pf._coding_gain(ch.m, ch.gamma_bar)


def _target(gain, kind, n_star, fraction, exponent):
    """A target taken from an integer-n evaluation, one at or below the
    gain of a single reflector, or a free one."""
    if kind == "from_n":
        return gain(n_star)
    return gain(1) * fraction if kind == "below_one" else 10.0**exponent


TARGET_KINDS = st.sampled_from(["from_n", "below_one", "free"])


@PROPERTY
@given(
    channel=planner_channels(),
    kind=TARGET_KINDS,
    n_star=st.one_of(st.integers(min_value=1, max_value=4096), st.integers(min_value=10**7, max_value=2**50)),
    fraction=st.floats(min_value=1e-3, max_value=1.0),
    exponent=st.floats(min_value=-2.0, max_value=14.0),
)
def test_coding_planner_returns_the_smallest_count_that_meets_the_target(
    channel, kind, n_star, fraction, exponent
):
    # counts past 10^7 included: up to 2^50, where G_c was seen to rise
    # steadily, the answer is the smallest count
    gc = lambda n: _coding_gain(n, *channel)
    target = _target(gc, kind, n_star, fraction, exponent)
    if max(gc(1), gc(ec.MAX_REFLECTORS)) < target:
        with pytest.raises(nx.RangeError):
            pf.reflectors_for_coding_gain(target, *channel)
        return
    n = pf.reflectors_for_coding_gain(target, *channel)
    assert gc(n) >= target
    if n <= 2**50:
        assert n == 1 or gc(n - 1) < target
    if kind == "from_n":
        assert n <= n_star
    brute = next((k for k in range(1, 4096) if gc(k) >= target), None)
    if brute is not None:
        assert n == brute
    else:
        assert n >= 4096


@PROPERTY
@given(
    channel=planner_channels(),
    kind=TARGET_KINDS,
    n_star=st.integers(min_value=1, max_value=2**53),
    fraction=st.floats(min_value=1e-3, max_value=1.0),
    exponent=st.floats(min_value=-3.0, max_value=20.0),
)
def test_diversity_planner_returns_the_smallest_count_that_meets_the_target(
    channel, kind, n_star, fraction, exponent
):
    shape = lambda n: ec.channel_from_moments(n, 1.0, *channel).m
    target = _target(shape, kind, n_star, fraction, exponent)
    floor = target * (1.0 - 16.0 * 2.0**-53)
    if shape(2**53) < floor:
        with pytest.raises(nx.RangeError):
            pf.reflectors_for_diversity(target, *channel)
        return
    n = pf.reflectors_for_diversity(target, *channel)
    assert shape(n) >= floor
    assert n == 1 or shape(n - 1) < floor
    if kind == "from_n":
        # shape(n_star - 1) is 1/n_star below shape(n_star), and three
        # roundings move each by at most 2^-53: with the 16 * 2^-53 slack
        # a target from n_star round-trips up to 2^48 reflectors
        assert n == n_star if n_star <= 2**48 else n <= n_star


@PROPERTY
@given(channel=planner_channels(), exponent=st.floats(min_value=12.0, max_value=13.0))
def test_diversity_planner_stops_within_sixteen_roundoffs_of_huge_targets(channel, exponent):
    # from a target of 1e12 on, a slack of 1e-12 is a whole unit of shape,
    # which can be thousands of reflectors
    shape = lambda n: ec.channel_from_moments(n, 1.0, *channel).m
    floor = 10.0**exponent * (1.0 - 16.0 * 2.0**-53)
    n = pf.reflectors_for_diversity(10.0**exponent, *channel)
    assert shape(n) >= floor > shape(n - 1)


@PROPERTY
@given(
    channel=planner_channels(),
    n=st.integers(min_value=1, max_value=2**53),
    step=st.one_of(st.just(1), st.integers(min_value=1, max_value=2**53)),
)
def test_shape_never_falls_as_n_grows(channel, n, step):
    # _smallest_n needs the counts that meet a diversity target to form a
    # tail: m = mu^2 / (4 sigma_U^2) with sigma_U^2 = c / (2n), and each
    # rounded division is monotone in its divisor
    shape = lambda k: ec.channel_from_moments(k, 1.0, *channel).m
    assert shape(n) <= shape(min(n + step, 2**53))


@PROPERTY
@given(channel=planner_channels(), start=st.integers(min_value=1, max_value=2**50 - 512))
def test_coding_gain_never_falls_after_it_has_risen(channel, start):
    # G_c falls while m = n m_1 < 1 and rises after: the planner bisects on this
    for counts in (range(1, 1025), range(start, start + 512)):
        vals = [_coding_gain(n, *channel) for n in counts]
        rise = next((i for i in range(1, len(vals)) if vals[i] > vals[i - 1]), len(vals))
        assert all(b >= a for a, b in zip(vals[rise:], vals[rise + 1 :]))


# ---------------------------------------------------------------------------
# argument checks: every scalar parameter goes through numerics.check_count
# or numerics.check_real, and a bad value is a DomainError, a
# SimConfigError or, at the command line, exit 2
# ---------------------------------------------------------------------------

LINK = {
    "n": 4,
    "gamma0_db": -16.0,
    "fading_sr": {"type": "rician", "k_factor": 1.0},
    "fading_rd": {"type": "rayleigh"},
    "phase_error": {"type": "von_mises", "kappa": 8.0},
}
VM2 = pm.VonMises(2.0)


def _scenario(**fields):
    return replace(ec.LrsScenario(4, 1.0, fd.Rician(1.0), fd.Rayleigh(), pm.NoError()), **fields)


def _rng():
    return np.random.default_rng(0)


ALIGNED = ec.derive(_scenario(phase_error=VM2))


def _exit_code(command, payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main([command, "--config", path, "--out", tmp])


def _in(key, **value):
    return {**LINK, key: {**LINK[key], **value}}


def _sweep(**steps):
    return {"start_db": -20.0, "stop_db": -10.0, **steps}


# valid ranges, as (kind, lowest, highest or None, lower bound strict)
def count(low=0, high=None):
    return ("count", low, high, False)


NON_NEGATIVE = ("real", 0.0, None, False)
POSITIVE = ("real", 0.0, None, True)
FINITE = ("real", -math.inf, None, False)
UNIT = ("real", 0.0, 1.0, False)
UNIT_POSITIVE = ("real", 0.0, 1.0, True)
SYMMETRIC_UNIT = ("real", -1.0, 1.0, False)

# name: (call with the value, valid range, what a bad value gives: an
# exception class or, at the command line, an exit code)
ROUTED = {
    "ln_gamma x": (nx.ln_gamma, POSITIVE, nx.DomainError),
    "bessel_i_scaled order": (lambda v: nx.bessel_i_scaled(v, 1.0), count(), nx.DomainError),
    "bessel_i_scaled x": (lambda v: nx.bessel_i_scaled(1, v), NON_NEGATIVE, nx.DomainError),
    "regularized_gamma_p shape": (lambda v: nx.regularized_gamma_p(v, 1.0), POSITIVE, nx.DomainError),
    "laguerre_half k": (nx.laguerre_half, NON_NEGATIVE, nx.DomainError),
    **{
        f"{type(model).__name__}.trig_moment order": (model.trig_moment, count(), nx.DomainError)
        for model in (pm.NoError(), VM2, pm.Quantizer(2), pm.UniformCircle(), pm.Product((VM2,)))
    },
    "moment_by_integration order": (lambda v: pm.moment_by_integration(VM2, v), count(), nx.DomainError),
    "sample size": (lambda v: VM2.sample(_rng(), v), count(), nx.DomainError),
    "sample shape entry": (lambda v: pm.Quantizer(2).sample(_rng(), (2, v)), count(), nx.DomainError),
    "VonMises kappa": (pm.VonMises, NON_NEGATIVE, nx.DomainError),
    "Quantizer bits": (pm.Quantizer, count(1, 1023), nx.DomainError),
    "Rician k_factor": (fd.Rician, NON_NEGATIVE, nx.DomainError),
    "LrsScenario n": (lambda v: _scenario(n=v), count(1, 2**53), nx.DomainError),
    "LrsScenario gamma0": (lambda v: _scenario(gamma0=v), POSITIVE, nx.DomainError),
    "channel_from_moments n": (lambda v: ec.channel_from_moments(v, 1.0, 0.7, 0.8, 0.5), count(1, 2**53), nx.DomainError),
    "channel_from_moments gamma0": (lambda v: ec.channel_from_moments(4, v, 0.7, 0.8, 0.5), POSITIVE, nx.DomainError),
    "channel_from_moments a^2": (lambda v: ec.channel_from_moments(4, 1.0, v, 0.8, 0.5), UNIT_POSITIVE, nx.DomainError),
    "channel_from_moments phi_1": (lambda v: ec.channel_from_moments(4, 1.0, 0.7, v, 0.5), UNIT, nx.DomainError),
    "channel_from_moments phi_2": (lambda v: ec.channel_from_moments(4, 1.0, 0.7, 0.8, v), SYMMETRIC_UNIT, nx.DomainError),
    "snr_pdf m": (lambda v: ec.snr_pdf(v, 1.0, 1.0), POSITIVE, nx.DomainError),
    "snr_pdf gamma_bar": (lambda v: ec.snr_pdf(2.0, v, 1.0), POSITIVE, nx.DomainError),
    "snr_cdf m": (lambda v: ec.snr_cdf(v, 1.0, 1.0), POSITIVE, nx.DomainError),
    "snr_cdf gamma_bar": (lambda v: ec.snr_cdf(2.0, v, 1.0), POSITIVE, nx.DomainError),
    "nakagami_pdf m": (lambda v: ec.nakagami_pdf(v, 1.0, 1.0), POSITIVE, nx.DomainError),
    "nakagami_pdf omega": (lambda v: ec.nakagami_pdf(2.0, v, 1.0), POSITIVE, nx.DomainError),
    "cgf_exact t": (lambda v: ec.cgf_exact(ALIGNED, v), FINITE, nx.DomainError),
    "cgf_gamma_approx t": (lambda v: ec.cgf_gamma_approx(ALIGNED, v), FINITE, nx.DomainError),
    "ber_bpsk m": (lambda v: pf.ber_bpsk(v, 1.0), POSITIVE, nx.DomainError),
    "ber_bpsk gamma_bar": (lambda v: pf.ber_bpsk(2.0, v), NON_NEGATIVE, nx.DomainError),
    "ber_high_snr m": (lambda v: pf.ber_high_snr(v, 1.0), POSITIVE, nx.DomainError),
    "ber_high_snr gamma_bar": (lambda v: pf.ber_high_snr(2.0, v), POSITIVE, nx.DomainError),
    "diversity target": (lambda v: pf.reflectors_for_diversity(v, 0.81, 0.8, 0.5), POSITIVE, nx.DomainError),
    "coding-gain target": (lambda v: pf.reflectors_for_coding_gain(v, 0.81, 0.8, 0.5), POSITIVE, nx.DomainError),
    "diversity planner phi_1": (lambda v: pf.reflectors_for_diversity(10.0, 0.81, v, 0.5), UNIT_POSITIVE, nx.DomainError),
    "coding-gain planner phi_1": (lambda v: pf.reflectors_for_coding_gain(10.0, 0.81, v, 0.5), UNIT_POSITIVE, nx.DomainError),
    "diversity planner a^2": (lambda v: pf.reflectors_for_diversity(10.0, v, 0.8, 0.5), UNIT_POSITIVE, nx.DomainError),
    "coding-gain planner a^2": (lambda v: pf.reflectors_for_coding_gain(10.0, v, 0.8, 0.5), UNIT_POSITIVE, nx.DomainError),
    "SimConfig trials": (lambda v: mc.SimConfig(_scenario(), v, 1), count(1), mc.SimConfigError),
    "SimConfig master_seed": (lambda v: mc.SimConfig(_scenario(), 10, v), count(), mc.SimConfigError),
    "SimConfig snr point": (lambda v: mc.SimConfig(_scenario(), 10, 1, (1.0, v)), POSITIVE, mc.SimConfigError),
    "draw_h_batch size": (lambda v: mc.draw_h_batch(_scenario(), _rng(), v), count(1), nx.DomainError),
    "validate trials": (lambda v: validate.check_gaussian_limit(trials=v), count(100), mc.SimConfigError),
    "validate seed": (lambda v: validate.check_snr_fit(seed=v), count(), mc.SimConfigError),
    "cli moments orders": (lambda v: _exit_code("moments", {**LINK, "orders": v}), count(1, 16), 2),
    "cli plan target_gd": (lambda v: _exit_code("plan", {**LINK, "target_gd": v}), POSITIVE, 2),
    "cli plan target_gc": (lambda v: _exit_code("plan", {**LINK, "target_gc": v}), POSITIVE, 2),
    "config n": (lambda v: _exit_code("equiv", {**LINK, "n": v}), count(1, 2**53), 2),
    "config gamma0_db": (lambda v: _exit_code("equiv", {**LINK, "gamma0_db": v}), FINITE, 2),
    "config kappa": (lambda v: _exit_code("equiv", _in("phase_error", kappa=v)), NON_NEGATIVE, 2),
    "config bits": (lambda v: _exit_code("equiv", _in("phase_error", type="quantizer", bits=v)), count(1, 1023), 2),
    "config k_factor": (lambda v: _exit_code("equiv", _in("fading_sr", k_factor=v)), NON_NEGATIVE, 2),
    "config step_db": (lambda v: _exit_code("ber", {**LINK, "sweep": _sweep(step_db=v)}), POSITIVE, 2),
}

# not a finite number, or a bool: bad for every parameter
NOT_A_NUMBER = [math.nan, math.inf, -math.inf, True, False, "1", None]


def _out_of_range(kind, low, high, strict):
    """Numbers outside the valid range of a parameter of this kind."""
    if kind == "count":
        fractions = st.floats(min_value=-1e6, max_value=1e6).filter(lambda x: not x.is_integer())
        above = st.integers(min_value=high + 1) if high is not None else st.nothing()
        return st.one_of(st.integers(max_value=low - 1), above, fractions)
    above = st.integers(min_value=2**1024)  # beyond the doubles
    if high is not None:
        above |= st.floats(min_value=math.nextafter(high, math.inf)) | st.integers(min_value=math.floor(high) + 1)
    below = st.integers(max_value=-(2**1024))
    if low == -math.inf:
        return above | below
    if strict:
        return st.floats(max_value=low) | st.integers(max_value=math.floor(low)) | below | above
    return st.floats(max_value=math.nextafter(low, -math.inf)) | st.integers(max_value=math.ceil(low) - 1) | below | above


def _assert_rejected(call, expected, value):
    if expected == 2:
        assert call(value) == 2, value
        return
    with pytest.raises(expected):
        call(value)


@pytest.mark.parametrize("name", ROUTED)
def test_every_scalar_parameter_rejects_bad_values_at_the_boundary(name):
    # at the parent a bad value could leak TypeError, OverflowError,
    # ZeroDivisionError or 'math domain error', return NaN, or pass:
    # Quantizer(inf), trig_moment(nan), LrsScenario(True, ...),
    # VonMises("2"), laguerre_half("1"), ln_gamma(inf), snr_cdf(2, 0, 1)
    call, (kind, low, high, strict), expected = ROUTED[name]
    for value in NOT_A_NUMBER:
        _assert_rejected(call, expected, value)

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=25)
    @given(value=_out_of_range(kind, low, high, strict))
    def out_of_range(value):
        _assert_rejected(call, expected, value)

    out_of_range()
