"""Simulation engine: faithfulness, estimators, reproducibility."""

import hashlib
import math
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
import scipy.special
from _stubs import masked_gauss_q

from rislab import equiv_channel as ec
from rislab import fading as fd
from rislab import montecarlo as mc
from rislab import numerics as nx
from rislab import performance as pf
from rislab import phase_models as pm
from rislab import stats as st


def ref_scenario(n=32, gamma0=1.0, pe=None):
    return ec.LrsScenario(n, gamma0, fd.Rician(1.0), fd.Rayleigh(), pe or pm.VonMises(8.0))


def sweep(sc, gammas):
    """The points of a BER sweep: ``sc`` at each single-reflector SNR of ``gammas``."""
    return [replace(sc, gamma0=g) for g in gammas]


def refuse_draws(monkeypatch):
    """Make any draw fail: a bad argument must be rejected before the first block."""

    def no_draws(*args):
        raise AssertionError("drew before checking the arguments")

    monkeypatch.setattr(mc, "_map_blocks", no_draws)


# ---------------------------------------------------------------------------
# composite-coefficient draws
# ---------------------------------------------------------------------------


def test_draw_h_pure_line_of_sight_is_one():
    sc = ec.LrsScenario(1, 1.0, fd.Rician(1e9), fd.Rician(1e9), pm.NoError())
    h = mc.draw_h_batch(sc, np.random.default_rng(0), 20)
    assert np.all(np.abs(h - 1.0) < 1e-3)


def test_draw_h_exact_phases_give_real_coefficient():
    sc = ec.LrsScenario(16, 1.0, fd.Rician(1.0), fd.Rayleigh(), pm.NoError())
    h = mc.draw_h_batch(sc, np.random.default_rng(1), 5000)
    assert np.all(h.imag == 0.0)
    assert np.all(h.real > 0.0)


def test_draw_h_moments_match_gaussian_limit():
    sc = ref_scenario(n=256)
    ch = ec.derive(sc)
    h = mc.draw_h_batch(sc, np.random.default_rng(4242), 10**5)
    u, v = h.real, h.imag
    count = u.size
    assert abs(u.mean() - ch.mu) < 5.0 * u.std(ddof=1) / math.sqrt(count)
    cov = float(np.cov(u, v, ddof=1)[0][1])
    se_cov = math.sqrt(float(np.mean(((u - u.mean()) * (v - v.mean())) ** 2)) / count)
    assert abs(cov) < 5.0 * se_cov


def test_draw_h_batch_reproducible_for_fixed_chunking():
    sc = ref_scenario(n=8)
    a = mc.draw_h_batch(sc, np.random.default_rng(7), 1000)
    b = mc.draw_h_batch(sc, np.random.default_rng(7), 1000)
    np.testing.assert_array_equal(a, b)
    # independent streams spanning many chunks keep the law: compare
    # first moments at 5 standard errors
    c = mc.draw_h_batch(sc, np.random.default_rng(7), 10**5)
    d = mc.draw_h_batch(sc, np.random.default_rng(8), 10**5)
    se = math.hypot(c.real.std(ddof=1), d.real.std(ddof=1)) / math.sqrt(10**5)
    assert abs(c.real.mean() - d.real.mean()) < 5.0 * se


def test_draw_h_batch_reads_row_tiles_from_its_one_generator():
    # each row tile reads source magnitudes, destination magnitudes and
    # phases in turn; 2500 rows of n = 8 are tiles of 1024, 1024 and 452
    sc, size = ref_scenario(n=8), 2500
    assert mc._TILE // 8 == 1024
    rng = np.random.Generator(np.random.Philox(12))
    want = []
    for rows in (1024, 1024, 452):
        r = sc.fading_sr.sample_magnitude(rng, (rows, 8)) * sc.fading_rd.sample_magnitude(rng, (rows, 8))
        z = sc.phase_error.sample(rng, (rows, 8))
        want.append((r * z).sum(axis=1) / 8)
    end = rng.random(3)
    rng = np.random.Generator(np.random.Philox(12))
    assert mc.draw_h_batch(sc, rng, size).tobytes() == np.concatenate(want).tobytes()
    np.testing.assert_array_equal(rng.random(3), end)


@pytest.mark.parametrize("size", [0, -3, 2.5, True, False, "4", None])
def test_draw_h_batch_rejects_a_size_that_is_no_positive_integer(size):
    with pytest.raises(nx.DomainError):
        mc.draw_h_batch(ref_scenario(n=4), np.random.default_rng(0), size)


def test_draw_h_batch_takes_numpy_integer_sizes():
    a = mc.draw_h_batch(ref_scenario(n=4), np.random.default_rng(3), np.int64(5))
    b = mc.draw_h_batch(ref_scenario(n=4), np.random.default_rng(3), 5)
    assert a.tobytes() == b.tobytes()


CONTROL_MODELS = (
    pm.NoError(),
    pm.UniformCircle(),
    pm.VonMises(2.0),
    pm.Quantizer(1),
    pm.Product((pm.VonMises(8.0), pm.Quantizer(2))),
)


@pytest.mark.parametrize("pe", CONTROL_MODELS, ids=lambda pe: type(pe).__name__)
@pytest.mark.parametrize("n", [1, 2, 8, 32])
def test_controls_are_centred_at_every_reflector_count(n, pe):
    # the means of all eight monomials follow from the exact cumulants of
    # H at every n, not only in the large-n limit: the semianalytic
    # estimator's control variates are centred by them
    sc = ref_scenario(n=n, pe=pe)
    moments = ec.control_moments(sc)
    assert np.all(np.isfinite(moments[3]))
    h = mc.draw_h_batch(sc, np.random.default_rng(100 + n), 1 << 20)
    for x in mc._controls(h, *moments):
        assert abs(x.mean()) <= 5.0 * x.std() / math.sqrt(x.size)


def test_standardized_re_part_converges_to_normal():
    # Kolmogorov distance to the standard normal shrinks as n doubles
    distances = []
    for n in (16, 32, 64, 128, 256):
        sc = ref_scenario(n=n)
        ch = ec.derive(sc)
        h = mc.draw_h_batch(sc, np.random.default_rng(21), 10**5)
        z = (h.real - ch.mu) / math.sqrt(ch.sigma_u2)
        rep = st.ks_test(z, scipy.special.ndtr)
        distances.append(rep.statistic)
    assert all(b < a for a, b in zip(distances, distances[1:]))


# ---------------------------------------------------------------------------
# BER estimation
# ---------------------------------------------------------------------------


def test_simulation_is_deterministic_and_worker_independent(monkeypatch):
    run = (sweep(ref_scenario(), (0.01, 0.02)), 50000, 42)
    monkeypatch.setenv("RIS_LAB_WORKERS", "1")
    a = mc.simulate_ber(*run)
    b = mc.simulate_ber(*run)
    monkeypatch.setenv("RIS_LAB_WORKERS", "3")
    c = mc.simulate_ber(*run)
    assert a == b == c


def test_workers_env_override(monkeypatch):
    run = ([ref_scenario(gamma0=0.02)], 30000, 11)
    base = mc.simulate_ber(*run)
    monkeypatch.setenv("RIS_LAB_WORKERS", "2")
    assert mc.simulate_ber(*run).ber == base.ber


@pytest.mark.parametrize("raw", ["0", "-3", "2.5", "abc"])
def test_worker_count_below_one_or_not_an_integer_is_a_config_error(monkeypatch, raw):
    monkeypatch.setenv("RIS_LAB_WORKERS", raw)
    with pytest.raises(mc.SimConfigError, match="RIS_LAB_WORKERS"):
        mc._worker_count()


@pytest.mark.parametrize("raw", [None, ""])
def test_unset_or_empty_worker_count_means_one_worker(monkeypatch, raw):
    monkeypatch.delenv("RIS_LAB_WORKERS", raising=False)
    if raw is not None:
        monkeypatch.setenv("RIS_LAB_WORKERS", raw)
    assert mc._worker_count() == 1


def test_estimators_agree():
    sc = ref_scenario(gamma0=10.0 ** (-1.8))
    semi = mc.simulate_ber([sc], 2 * 10**5, 5150, estimator="semianalytic")
    direct = mc.simulate_ber([sc], 2 * 10**5, 5150, estimator="direct")
    combined = math.hypot(semi.ci_halfwidth[0], direct.ci_halfwidth[0])
    assert abs(semi.ber[0] - direct.ber[0]) <= 3.0 * combined


def test_noise_free_limit():
    sc = ec.LrsScenario(32, 1e6, fd.Rayleigh(), fd.Rayleigh(), pm.NoError())
    res = mc.simulate_ber([sc], 10**5, 7, estimator="direct")
    assert res.ber[0] < 1e-6
    assert res.error_counts == (0,)
    semi = mc.simulate_ber([sc], 10**5, 7, estimator="semianalytic")
    assert semi.ber[0] < 1e-6


def test_uniform_errors_match_rayleigh_closed_form():
    n = 256
    g0 = 10.0 ** (-1.6)
    sc = ec.LrsScenario(n, g0, fd.Rician(1.0), fd.Rayleigh(), pm.UniformCircle())
    gbar = n * g0
    closed = 0.5 * (1.0 - math.sqrt(gbar / (1.0 + gbar)))
    res = mc.simulate_ber([sc], 10**5, 99)
    assert abs(res.ber[0] - closed) <= 3.0 * res.ci_halfwidth[0]


def test_doubling_reflectors_shifts_curve_six_db():
    def sim_curve(n, seed, gdbs):
        pts = tuple(10.0 ** (g / 10.0) for g in gdbs)
        sc = ec.LrsScenario(n, pts[0], fd.Rayleigh(), fd.Rayleigh(), pm.NoError())
        res = mc.simulate_ber(sweep(sc, pts), 5 * 10**4, seed)
        return np.array(gdbs), np.array(res.ber)

    def crossing_db(gdbs, ber):
        # linear in (dB, log10 BER) between the sweep points around 1e-3
        return np.interp(-3.0, np.log10(ber)[::-1], gdbs[::-1])

    c128 = sim_curve(128, 901, np.arange(-36.0, -29.9, 1.0))
    c256 = sim_curve(256, 902, np.arange(-42.0, -35.9, 1.0))
    shift = crossing_db(*c128) - crossing_db(*c256)
    assert shift == pytest.approx(6.02, abs=0.5)


def test_direct_estimator_wilson_interval_on_rare_errors():
    sc = ref_scenario(gamma0=0.05)
    res = mc.simulate_ber([sc], 20000, 3, estimator="direct")
    assert res.error_counts[0] < 100
    assert res.ci_halfwidth[0] > 0.0


def test_result_carries_metadata():
    res = mc.simulate_ber(sweep(ref_scenario(), (0.01, 0.02)), trials=20000, master_seed=123)
    assert len(res.ber) == len(res.ci_halfwidth) == 2
    assert res.error_counts is None  # only the direct estimator counts errors
    assert all(0.0 <= b <= 1.0 for b in res.ber)


def fine_sweep(start_db=-20.0, count=20, step_db=0.05):
    # steps far finer than the estimator noise of independent draws
    return tuple(10.0 ** ((start_db + i * step_db) / 10.0) for i in range(count))


def test_semianalytic_ber_never_rises_along_a_sweep():
    pts = fine_sweep()
    for seed in (1, 2, 3, 4):
        ber = mc.simulate_ber(sweep(ref_scenario(), pts), 4096, seed).ber
        assert all(b <= a for a, b in zip(ber, ber[1:])), seed


README_SWEEP = tuple(10.0 ** (g / 10.0) for g in range(-24, -9))


def plain_and_control_variate(monkeypatch, *run):
    """``simulate_ber(*run)`` with the plain mean (beta = 0) and with the
    control variates, on the same draws."""
    with monkeypatch.context() as m:
        m.setattr(mc, "_control_fit", lambda *args: None)
        plain = mc.simulate_ber(*run)
    return plain, mc.simulate_ber(*run)


def recorded_fits(monkeypatch):
    """The list that every later ``_control_fit`` result is appended to."""
    fits = []
    fit = mc._control_fit
    monkeypatch.setattr(mc, "_control_fit", lambda *args: fits.append(fit(*args)) or fits[-1])
    return fits


def test_control_variates_cut_the_halfwidth_on_the_same_draws(monkeypatch):
    points = sweep(ref_scenario(), README_SWEEP)
    plain, cv = plain_and_control_variate(monkeypatch, points, 1 << 17, 1)
    analytic = [pf.ber_bpsk(ch.m, ch.gamma_bar) for ch in map(ec.derive, points)]
    for ana, p, hw_p, b, hw in zip(analytic, plain.ber, plain.ci_halfwidth, cv.ber, cv.ci_halfwidth):
        assert 0.0 < b and abs(b - p) <= hw_p
        if ana >= 1e-3:
            assert hw <= 0.5 * hw_p
    assert plain.variance_ratio == (1.0,) * len(README_SWEEP)
    assert all(r > 1.0 for r in cv.variance_ratio)


def test_control_variate_intervals_cover_a_high_trial_reference():
    # BER about 1e-3; the reference's half-width is about 1/11 of each run's
    sc = ref_scenario(gamma0=10.0**-2.0)
    ref = mc.simulate_ber([sc], 1 << 20, 0).ber[0]
    runs = [mc.simulate_ber([sc], 8192, seed) for seed in range(1, 41)]
    assert 5e-4 < ref < 2e-3
    covered = sum(abs(r.ber[0] - ref) <= r.ci_halfwidth[0] for r in runs)
    assert covered >= 34  # 85% of 40


@pytest.mark.parametrize("pe", [pm.VonMises(8.0), pm.Quantizer(1), pm.NoError()], ids=lambda pe: type(pe).__name__)
def test_control_variate_estimates_stay_positive_and_never_rise(pe):
    # every weight of the fitted estimate is >= 0, so the deep points of
    # the README sweep (BER down to 1e-13) stay positive and fine steps,
    # far below the noise of independent draws, never rise
    for seed in (5, 6, 7):
        for pts in (README_SWEEP, fine_sweep(start_db=-24.0, count=40)):
            ber = mc.simulate_ber(sweep(ref_scenario(pe=pe), pts), 4096, seed).ber
            assert all(b > 0.0 for b in ber), seed
            assert all(b <= a for a, b in zip(ber, ber[1:])), seed


@pytest.mark.parametrize(
    "n, pe, rank, used",
    [(32, pm.NoError(), 3, 5), (32, pm.UniformCircle(), 8, 8), (1, pm.VonMises(8.0), 5, 5), (1, pm.NoError(), 3, 5)],
    ids=["singular-no-error", "mean-zero-uniform", "one-reflector", "one-reflector-no-error"],
)
def test_control_variates_in_degenerate_cases(monkeypatch, n, pe, rank, used):
    # without phase errors Im H = 0, so every control with a power of v
    # is 0 and C is singular; uniform phases give mu = 0; one reflector
    # gives |H| = |H_1||H_2| whatever the phase.  Where the fourth powers'
    # box would let a weight go negative, the fit stays on five controls
    fits = recorded_fits(monkeypatch)
    sc = ec.LrsScenario(n, 0.01, fd.Rician(1.0), fd.Rayleigh(), pe)
    points = (0.01 / n, 0.1 / n)
    plain, cv = plain_and_control_variate(monkeypatch, sweep(sc, points), 20000, 3)
    assert [f[3:] for f in fits] == [(rank, used)]
    assert cv.controls == (used, used) and plain.controls == (0, 0)
    for p, hw_p, b, hw, r in zip(plain.ber, plain.ci_halfwidth, cv.ber, cv.ci_halfwidth, cv.variance_ratio):
        assert 0.0 < b < 0.5 and abs(b - p) <= hw_p
        assert 0.0 < hw < hw_p and r > 1.0


@pytest.mark.parametrize("trials", [1, 2, 3, 4, 5])
def test_few_trials_keep_positive_estimates(monkeypatch, trials):
    # with N <= rank + 1 the residual has no degrees of freedom and the
    # plain mean stands with its bytes: always so for one trial, and for
    # up to four trials of three controls (Im H = 0 without phase
    # errors leaves two)
    fits = recorded_fits(monkeypatch)
    for pe in CONTROL_MODELS:
        points = sweep(ref_scenario(n=8, pe=pe), (0.01, 0.1))
        plain, cv = plain_and_control_variate(monkeypatch, points, trials, 3)
        assert all(0.0 < b <= 0.5 and math.isfinite(hw) for b, hw in zip(cv.ber, cv.ci_halfwidth))
        if trials == 1 or (trials < 5 and pe.trig_moment(2) < 1.0):
            assert fits[-1] is None
        if fits[-1] is None:
            assert (cv.ber, cv.ci_halfwidth) == (plain.ber, plain.ci_halfwidth)
            assert cv.variance_ratio == (1.0, 1.0)


@pytest.mark.parametrize("pe, trials", [(pm.VonMises(8.0), 6), (pm.NoError(), 5)], ids=["von-mises", "no-error"])
def test_fit_on_few_residual_degrees_of_freedom_keeps_the_plain_mean(monkeypatch, pe, trials):
    # a fit on 1-2 residual degrees of freedom reported variance ratios of
    # 1.6e5 and 8.8e4 here, with a half-width far too narrow
    plain, cv = plain_and_control_variate(monkeypatch, [ref_scenario(n=8, gamma0=0.01, pe=pe)], trials, 3)
    assert cv == plain and cv.variance_ratio == (1.0,)


def unit_controls(trials, x_bar=0.0, hi=1.0):
    """``_control_fit`` of eight uncorrelated controls of unit second
    moment, means ``x_bar`` and extremes -1 and ``hi`` (either may vary
    by control)."""
    x_bar = np.broadcast_to(x_bar, (8,))
    sums = np.hstack([trials * x_bar[:, None], trials * np.eye(8)])
    return mc._control_fit(trials, sums, np.full(8, -1.0), np.broadcast_to(hi, (8,)))


def test_control_fit_needs_thirty_residual_degrees_of_freedom():
    # with every weight positive, each rung stands from N - 1 - rank = 30
    # on: 3 controls from 34 trials, 5 from 36 and 8 from 39
    used = {trials: (unit_controls(trials) or (None,) * 5)[3:] for trials in range(32, 41)}
    assert used == {
        32: (None, None), 33: (None, None),
        34: (3, 3), 35: (3, 3),
        36: (5, 5), 37: (5, 5), 38: (5, 5),
        39: (8, 8), 40: (8, 8),
    }


@pytest.mark.parametrize("wide, used", [(None, 8), (5, 5), (3, 3), (0, None)], ids=["eight", "five", "three", "none"])
def test_each_rung_stands_where_its_box_keeps_the_weights_positive(wide, used):
    # means 0.01 give a = C+ x_bar of about 0.01 per control; an extreme of
    # 1000 in control ``wide`` makes its weight bound about -9, so only the
    # rungs below it stand
    hi = np.ones(8)
    if wide is not None:
        hi[wide:] = 1000.0
    fit = unit_controls(10**4, 0.01, hi)
    if used is None:
        assert fit is None
        return
    x_bar, c_pinv, a, rank, k = fit
    assert (rank, k) == (used, used) and x_bar.shape == a.shape == (used,)
    # the bound over the kept box is >= 0
    assert 1.0 - np.sum(np.maximum((-1.0 - x_bar) * a, (hi[:k] - x_bar) * a)) >= 0.0


def test_controls_are_the_standardized_monomials_less_their_means():
    # u = (Re H - mu) / sigma_U and v = Im H / sigma_V; a nan mean leaves
    # its control at 0, and so does sigma_V = 0 every power of v
    rng = np.random.default_rng(12)
    h = rng.normal(0.4, 0.2, 3000) + 1j * rng.normal(0.0, 0.1, 3000)
    means = np.array([0.0, 1.0, 1.0, 0.1, 0.05, 3.2, math.nan, 3.3])
    xs = mc._controls(h, 0.4, 0.2, 0.1, means)
    u, v = (h.real - 0.4) / 0.2, h.imag / 0.1
    want = np.array([u, u**2, v**2, u**3, u * v**2, u**4, 0 * u, v**4]) - np.nan_to_num(means)[:, None]
    want[6] = 0.0
    np.testing.assert_allclose(xs, want, rtol=1e-13, atol=1e-13)
    flat = mc._controls(h.real + 0j, 0.4, 0.2, 0.0, np.array([0.0, 1.0, 0.0, 0.1, 0.0, 3.2, 0.0, 0.0]))
    assert not np.any(flat[[2, 4, 6, 7]])


def test_semianalytic_block_is_gauss_q_summed_in_trial_order():
    # magnitudes whose Q arguments n sqrt(2 g)|H| span all three of Cody's
    # ranges, with ties, in no order; the block sorts them once and must
    # give the bytes of a plain per-point sum of the elementwise Q, and of
    # its products with the eight controls
    rng = np.random.default_rng(11)
    mag = np.concatenate([rng.uniform(0.0, 1.6, 5000), np.full(7, 0.25), [0.0, 1e-9, 30.0]])
    rng.shuffle(mag)
    h = mag * np.exp(1j * rng.uniform(-np.pi, np.pi, mag.size))
    means = np.array([0.0, 1.0, 1.0, 0.1, 0.05, 3.2, 1.1, 3.3])
    n, points, moments = 16, (0.001, 0.01, 0.1, 1.0, 4.0), (0.4, 0.2, 0.15, means)
    got, (sums, lo, hi) = mc._ber_block(n, points, "semianalytic", moments, h, None, 0)
    xs = mc._controls(h, *moments)
    want = np.zeros((len(points), 10))
    for row, g in zip(want, points):
        p = masked_gauss_q(n * math.sqrt(g) * np.abs(h) * math.sqrt(2.0))
        row[:2] = np.sum(p), np.sum(p * p)
        row[2:] = np.einsum("ki,i->k", xs, p)
    y = n * math.sqrt(points[-1]) * np.abs(h)
    assert y.min() <= 0.46875 and np.any((y > 0.46875) & (y <= 4.0)) and np.any((y > 4.0) & (y <= 32.0))
    assert y.max() > 32.0
    assert got.tobytes() == want.tobytes()
    np.testing.assert_allclose(sums, np.column_stack([xs.sum(axis=1), xs @ xs.T]), rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(lo, xs.min(axis=1))
    np.testing.assert_array_equal(hi, xs.max(axis=1))


def test_semianalytic_sweep_evaluates_q_once_per_block_and_point(monkeypatch):
    # the engine's one route to Q is the module attribute numerics.gauss_q,
    # called with every sorted block at every sweep point
    calls = []
    kernel = nx.gauss_q

    def counted(x, out, work):
        calls.append(x.size)
        return kernel(x, out, work)

    monkeypatch.setenv("RIS_LAB_WORKERS", "1")
    monkeypatch.setattr(nx, "gauss_q", counted)
    mc.simulate_ber(sweep(ref_scenario(n=4), (0.01, 0.1, 1.0, 10.0)), 3 * mc.BLOCK_TRIALS, 5)
    assert calls == [mc.BLOCK_TRIALS] * 12


def test_direct_error_counts_never_rise_along_a_sweep():
    pts = fine_sweep(start_db=-22.0)
    # about 500 errors are expected at the first point
    counts = mc.simulate_ber(sweep(ref_scenario(), pts), 100000, 8, estimator="direct").error_counts
    assert counts[0] > 100
    assert all(b <= a for a, b in zip(counts, counts[1:]))


GROUPED_MODELS = (pm.VonMises(2.0), pm.Quantizer(2), pm.Product((pm.VonMises(8.0), pm.Quantizer(1))))


@pytest.mark.parametrize("estimator", ["semianalytic", "direct"])
def test_grouped_models_give_the_results_of_separate_calls(monkeypatch, estimator):
    # models interleaved, one to three points each, over two blocks
    a, b, c = GROUPED_MODELS
    errors = (b, a, c, b, c, b)
    points = (0.01, 0.02, 0.015, 0.03, 0.04, 0.05)
    trials = mc.BLOCK_TRIALS + 3000
    monkeypatch.setenv("RIS_LAB_WORKERS", "1")
    want = {}
    for pe in GROUPED_MODELS:
        own = [i for i, e in enumerate(errors) if e == pe]
        res = mc.simulate_ber(sweep(ref_scenario(n=8, pe=pe), [points[i] for i in own]), trials, 31, estimator)
        counts = res.error_counts or (None,) * len(own)
        want.update(zip(own, zip(res.ber, res.ci_halfwidth, counts)))
    grouped = [ref_scenario(n=8, gamma0=g, pe=pe) for g, pe in zip(points, errors)]
    for workers in ("1", "2"):
        monkeypatch.setenv("RIS_LAB_WORKERS", workers)
        res = mc.simulate_ber(grouped, trials, 31, estimator)
        assert res.ber == tuple(want[i][0] for i in range(len(points)))
        assert res.ci_halfwidth == tuple(want[i][1] for i in range(len(points)))
        if estimator == "direct":
            assert res.error_counts == tuple(want[i][2] for i in range(len(points)))


# float.hex of (ber, ci_halfwidth), and the error counts, over two blocks
# (semianalytic: the control-variate estimate and its half-width),
# each drawing its source magnitudes, destination magnitudes, phases and
# the direct estimator's symbols and noise from four keyed SFC64 streams:
# these models' phasors are formed from the tangent of half the drawn angle
PINNED_BER = {
    ("quantizer", "semianalytic"): (
        ("0x1.1eb3af6cec479p-2", "0x1.09e4df0352f95p-3"),
        ("0x1.bbee72ad962b5p-16", "0x1.bbc69201f4bc7p-15"),
        None,
    ),
    ("quantizer", "direct"): (
        ("0x1.20cf583d42cc5p-2", "0x1.0c5eb804b65e8p-3"),
        ("0x1.b663708f4e756p-8", "0x1.48bdecb455a8fp-8"),
        (4903, 2278),
    ),
    ("uniform", "semianalytic"): (
        ("0x1.9cd3f9b4f1891p-2", "0x1.44833bd121753p-2"),
        ("0x1.16cd01dd78aaep-12", "0x1.2991827932b82p-11"),
        None,
    ),
    ("uniform", "direct"): (
        ("0x1.9b54f0cd75b11p-2", "0x1.3ecade304d487p-2"),
        ("0x1.dd98f40955380p-8", "0x1.c317b46de8d11p-8"),
        (6983, 5412),
    ),
    ("none", "semianalytic"): (
        ("0x1.0d83754ec3207p-2", "0x1.c7e2dae878c12p-4"),
        ("0x1.34b650b733f97p-26", "0x1.6346d742a9ac7p-19"),
        None,
    ),
    ("none", "direct"): (
        ("0x1.0d40e9bbe7f78p-2", "0x1.bf70be614f858p-4"),
        ("0x1.ace0f253c4c59p-8", "0x1.2fe4c2479d1eap-8"),
        (4571, 1899),
    ),
}


# the same pins for the rejection sampler at tiny, moderate and large
# kappa, for a product with a quantizer, and for Rician hops on both
# sides; rejection rounds are sized by the row tile of phasors asked for
PINNED_KERNEL_BER = {
    ("von_mises_1e-7", "semianalytic"): (
        ("0x1.9cee17f3d20d2p-2", "0x1.44b9a63b0d814p-2"),
        ("0x1.3d86263e0eba8p-13", "0x1.50c04be44a512p-12"),
        None,
    ),
    ("von_mises_1e-7", "direct"): (
        ("0x1.97f9671552d1fp-2", "0x1.3e15e99dbf347p-2"),
        ("0x1.dcf21ee409e31p-8", "0x1.c2d167584ddc8p-8"),
        (6926, 5400),
    ),
    ("von_mises_2", "semianalytic"): (
        ("0x1.459facd31ffc0p-2", "0x1.71e90948708d7p-3"),
        ("0x1.02a1f007fe4cep-15", "0x1.183d41cb5f4c3p-14"),
        None,
    ),
    ("von_mises_2", "direct"): (
        ("0x1.46dcc6642357cp-2", "0x1.74bfcb38aa969p-3"),
        ("0x1.c6253ab054f2ap-8", "0x1.77e636d743e99p-8"),
        (5549, 3164),
    ),
    ("von_mises_8", "semianalytic"): (
        ("0x1.18ac4e69eded0p-2", "0x1.f875ee1de3efdp-4"),
        ("0x1.8d28444db5c2ep-18", "0x1.041c00e309e64p-16"),
        None,
    ),
    ("von_mises_8", "direct"): (
        ("0x1.19361315cb750p-2", "0x1.f8397db3e523bp-4"),
        ("0x1.b2d00bea4c6a5p-8", "0x1.4014b83935b61p-8"),
        (4774, 2140),
    ),
    ("von_mises_1e5", "semianalytic"): (
        ("0x1.0d83e2269523fp-2", "0x1.c7e778948a7e9p-4"),
        ("0x1.37b0adbf7c32cp-20", "0x1.881dd2548fb71p-18"),
        None,
    ),
    ("von_mises_1e5", "direct"): (
        ("0x1.0d5f127effa58p-2", "0x1.bef81b54f0cd7p-4"),
        ("0x1.acf0647092752p-8", "0x1.2fc0cd55a39ffp-8"),
        (4573, 1897),
    ),
    ("von_mises_2_x_quantizer_2", "semianalytic"): (
        ("0x1.529b30156d5f7p-2", "0x1.97910c5351b9ep-3"),
        ("0x1.34cc213ca7ffcp-14", "0x1.5d3c9e5ce5862p-13"),
        None,
    ),
    ("von_mises_2_x_quantizer_2", "direct"): (
        ("0x1.4fd0e04f2b002p-2", "0x1.9acd395f8b221p-3"),
        ("0x1.c95b9da33dc13p-8", "0x1.861cd1f99257bp-8"),
        (5701, 3487),
    ),
    ("rician_hops", "semianalytic"): (
        ("0x1.0906145c3b0b0p-2", "0x1.a8d3859ad92f8p-4"),
        ("0x1.4d9b8526c7b38p-20", "0x1.a3c790ff80f7ap-19"),
        None,
    ),
    ("rician_hops", "direct"): (
        ("0x1.0a9a5496532c7p-2", "0x1.a81d377cfef09p-4"),
        ("0x1.ab82da2671a9ep-8", "0x1.28cf790d6083fp-8"),
        (4526, 1800),
    ),
}
# (phase error, source hop, destination hop) of each pinned scenario
PINNED_KERNEL_SCENARIOS = {
    "none": (pm.NoError(), fd.Rician(1.0), fd.Rayleigh()),
    "quantizer": (pm.Quantizer(2), fd.Rician(1.0), fd.Rayleigh()),
    "uniform": (pm.UniformCircle(), fd.Rician(1.0), fd.Rayleigh()),
    "von_mises_1e-7": (pm.VonMises(1e-7), fd.Rician(1.0), fd.Rayleigh()),
    "von_mises_2": (pm.VonMises(2.0), fd.Rician(1.0), fd.Rayleigh()),
    "von_mises_8": (pm.VonMises(8.0), fd.Rician(1.0), fd.Rayleigh()),
    "von_mises_1e5": (pm.VonMises(1e5), fd.Rician(1.0), fd.Rayleigh()),
    "von_mises_2_x_quantizer_2": (pm.Product((pm.VonMises(2.0), pm.Quantizer(2))), fd.Rician(1.0), fd.Rayleigh()),
    "rician_hops": (pm.VonMises(8.0), fd.Rician(1.0), fd.Rician(4.0)),
}
# SHA-256 of the sample_snr values followed by its histogram counts
PINNED_SNR_SHA256 = "fd33db2dc6496a0429298096ab835648928ba8794112c9b784d0707fdc783f2d"
# float.hex of the KS statistic and p-value of the sample of pinned_ks against its gamma law;
# the statistic sits at sorted sample 41201, where a 40-digit mpmath CDF
# gives D = 0x1.37963c45ebb00p-9 (in double arithmetic)
PINNED_KS = ("0x1.37963c45ec400p-9", "0x1.a5904e65418bap-1")


def pinned_ber(name, estimator, trials=mc.BLOCK_TRIALS + 1000):
    pe, sr, rd = PINNED_KERNEL_SCENARIOS[name]
    sc = ec.LrsScenario(8, 0.01, sr, rd, pe)
    return mc.simulate_ber(sweep(sc, (0.005, 0.02)), trials, 2024, estimator)


def pinned_snr(trials=mc.BLOCK_TRIALS + 1000):
    sc = ec.LrsScenario(8, 0.01, fd.Rician(1.0), fd.Rayleigh(), pm.VonMises(8.0))
    smp = mc.sample_snr(sc, trials, 2024, np.linspace(0.0, 4.0, 41))
    return smp.values.tobytes() + smp.histogram.tobytes()


def pinned_ks(size=70000):
    xs = np.random.default_rng(5).gamma(2.5, 0.4, size)
    rep = st.ks_test(xs, lambda g: ec.snr_cdf(2.5, 1.0, g))
    return rep.statistic.hex(), rep.p_value.hex()


def assert_pinned(res, pins):
    ber, halfwidth, counts = pins
    assert tuple(v.hex() for v in res.ber) == ber
    assert tuple(v.hex() for v in res.ci_halfwidth) == halfwidth
    assert res.error_counts == counts


@pytest.mark.parametrize("name, estimator", sorted(PINNED_BER))
def test_angle_derived_phasors_keep_pinned_result_bytes(monkeypatch, name, estimator):
    monkeypatch.setenv("RIS_LAB_WORKERS", "1")
    assert_pinned(pinned_ber(name, estimator), PINNED_BER[name, estimator])


@pytest.mark.parametrize("name, estimator", sorted(PINNED_KERNEL_BER))
def test_sampling_kernels_keep_pinned_result_bytes(monkeypatch, name, estimator):
    monkeypatch.setenv("RIS_LAB_WORKERS", "1")
    assert_pinned(pinned_ber(name, estimator), PINNED_KERNEL_BER[name, estimator])


def test_snr_draws_and_ks_fit_keep_pinned_bytes(monkeypatch):
    monkeypatch.setenv("RIS_LAB_WORKERS", "1")
    assert hashlib.sha256(pinned_snr()).hexdigest() == PINNED_SNR_SHA256
    assert pinned_ks() == PINNED_KS


def tile_probe(pins):
    """Result bytes of small runs through every tiled kernel: the pinned
    scenarios of ``pins`` with both estimators, SNR draws with a
    histogram, a KS fit."""
    trials = 600
    runs = [pinned_ber(name, estimator, trials) for name, estimator in sorted(pins)]
    return runs, pinned_snr(trials), pinned_ks(1000)


TILE_CONSTANTS = [(mc, "_TILE"), (st, "_KS_TILE")]


@pytest.mark.parametrize("size", [1, 7, 10**9])
@pytest.mark.parametrize("module, name", TILE_CONSTANTS, ids=lambda v: getattr(v, "__name__", v))
def test_results_do_not_depend_on_the_tile_size(monkeypatch, module, name, size):
    # the row tile is part of the definition of the streams: von Mises
    # rounds are sized by the phasors asked for, so under another _TILE
    # only the pinned models that draw at most one uniform per phasor
    # keep their bytes, and no SNR draw does, these being von Mises
    pins = PINNED_BER if module is mc else {**PINNED_BER, **PINNED_KERNEL_BER}
    monkeypatch.setenv("RIS_LAB_WORKERS", "1")
    want = tile_probe(pins)
    monkeypatch.setattr(module, name, size)
    got = tile_probe(pins)
    assert got[0] == want[0] and got[2] == want[2]
    if module is st:
        assert got[1] == want[1]


def peak_bytes(run):
    """Peak of the memory numpy and Python allocate while ``run()`` runs,
    above what was allocated when it started (``tracemalloc``)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def block_peak_bytes(n, pe):
    """``peak_bytes`` of one full semianalytic block at ``n`` reflectors."""
    sc = ref_scenario(n=n, gamma0=0.01, pe=pe)
    jobs = [(pe, partial(mc._ber_block, n, (0.01,), "semianalytic", ec.control_moments(sc)))]
    return peak_bytes(lambda: mc._run_block(jobs, (sc, 1, mc._STREAM_BER, 0, mc.BLOCK_TRIALS)))


def test_block_peak_memory_is_bounded():
    # n = 32 keeps only H (256 kB) whole; the hop products and phasors are
    # row tiles, and each rejection round's u1, u2 and u3 are 8192 doubles
    assert block_peak_bytes(32, pm.VonMises(8.0)) <= 9e6


def test_block_peak_memory_does_not_grow_with_the_reflector_count():
    # at n = 256 the hop products would be 33.5 MB whole; a row tile holds
    # 32 rows of them, so the block needs no more than at n = 32
    assert block_peak_bytes(256, pm.VonMises(8.0)) <= 9e6


def test_product_block_peak_memory_is_bounded():
    # the components draw a row tile each in turn, so no component's
    # phasors are whole
    assert block_peak_bytes(32, pm.Product((pm.VonMises(2.0), pm.Quantizer(2)))) <= 9e6


def test_ks_fit_peak_memory_is_bounded():
    # the sorted copy (4 MB) plus one tile of the cdf's temporaries
    xs = np.random.default_rng(6).gamma(2.5, 0.4, 5 * 10**5)
    assert peak_bytes(lambda: st.ks_test(xs, lambda g: ec.snr_cdf(2.5, 1.0, g))) <= 16e6


def test_ks_fit_reads_ascending_samples_in_place():
    # snr-pdf sorts its draws in place; the fit then makes no 4 MB copy
    xs = np.sort(np.random.default_rng(6).gamma(2.5, 0.4, 5 * 10**5))
    assert peak_bytes(lambda: st.ks_test(xs, lambda g: ec.snr_cdf(2.5, 1.0, g))) <= 3e6


def test_hop_magnitudes_are_drawn_once_per_block(monkeypatch):
    # one source-magnitude draw per row tile, shared by every model
    calls = []
    draw = fd.Rician.sample_magnitude

    def counted(self, rng, size=None):
        calls.append(size)
        return draw(self, rng, size)

    monkeypatch.setattr(fd.Rician, "sample_magnitude", counted)
    monkeypatch.setenv("RIS_LAB_WORKERS", "1")
    trials = 2 * mc.BLOCK_TRIALS + 5  # three blocks
    tiles = sum(-(-count // (mc._TILE // 4)) for count in mc._block_counts(trials))
    for models in (GROUPED_MODELS[:1], GROUPED_MODELS):
        calls.clear()
        mc.simulate_ber([ref_scenario(n=4, gamma0=g, pe=pe) for pe in models for g in (0.01, 0.02)], trials, 5)
        assert len(calls) == tiles == 17


def test_block_reads_each_random_input_from_its_keyed_stream():
    # source magnitudes from role 0 and destination magnitudes from role
    # 1, each as one whole draw of its stream; phases from role 2 in row
    # tiles of 1024, 1024 and 952 rows; every model starts role 2 afresh,
    # and every reduction starts role 3 afresh, where the direct
    # estimator draws its symbols and noise
    sc, count, points = ref_scenario(n=8), 3000, (0.01, 0.02)
    key = (31, mc._STREAM_BER, 2)
    r = sc.fading_sr.sample_magnitude(mc._rng_for(*key, 0), (count, 8))
    r *= sc.fading_rd.sample_magnitude(mc._rng_for(*key, 1), (count, 8))
    direct = partial(mc._ber_block, 8, points, "direct", None)
    want = []
    for pe in GROUPED_MODELS:
        phases = mc._rng_for(*key, 2)
        z = np.concatenate([pe.sample(phases, (rows, 8)) for rows in (1024, 1024, 952)])
        h = (r * z).sum(axis=1) / 8
        noise = mc._rng_for(*key, 3)
        want.append((h, direct(h, noise, 2), noise.random(3)))
    jobs = [(pe, lambda h, rng, block: (h, direct(h, rng, block), rng.random(3))) for pe in GROUPED_MODELS]
    got = mc._run_block(jobs, (sc, *key, count))
    assert mc._TILE // 8 == 1024
    for (h, rows, after), (h_want, rows_want, after_want) in zip(got, want, strict=True):
        assert h.tobytes() == h_want.tobytes()
        np.testing.assert_array_equal(rows[0], rows_want[0])
        np.testing.assert_array_equal(after, after_want)


def test_config_validation(monkeypatch):
    refuse_draws(monkeypatch)
    points = [ref_scenario()]
    with pytest.raises(mc.SimConfigError):
        mc.simulate_ber(points, trials=0, master_seed=1)
    with pytest.raises(mc.SimConfigError):
        mc.simulate_ber(points, trials=10, master_seed=1, estimator="genie")
    with pytest.raises(mc.SimConfigError):
        mc.sample_snr(points[0], trials=0, master_seed=1)


@pytest.mark.parametrize(
    "kwargs",
    [{"trials": 1.5}, {"trials": True}, {"master_seed": 1.5}, {"master_seed": False}],
    ids=["fractional-trials", "bool-trials", "fractional-seed", "bool-seed"],
)
def test_config_rejects_malformed_input(monkeypatch, kwargs):
    refuse_draws(monkeypatch)
    run = {"trials": 10, "master_seed": 1, **kwargs}
    with pytest.raises(mc.SimConfigError):
        mc.simulate_ber([ref_scenario()], **run)
    with pytest.raises(mc.SimConfigError):
        mc.sample_snr(ref_scenario(), **run)


def test_no_points_is_a_config_error(monkeypatch):
    refuse_draws(monkeypatch)
    with pytest.raises(mc.SimConfigError, match="one or more points"):
        mc.simulate_ber([], 10, 1)


@pytest.mark.parametrize(
    "field, value",
    [("n", 16), ("fading_sr", fd.Rician(2.0)), ("fading_rd", fd.Rician(1.0))],
    ids=["n", "fading_sr", "fading_rd"],
)
def test_points_must_share_the_hop_draws(monkeypatch, field, value):
    # every point of a run reads the same hop magnitudes; gamma0 and the
    # phase-error model are each point's own
    refuse_draws(monkeypatch)
    sc = ref_scenario()
    points = [sc, replace(sc, gamma0=0.5, phase_error=pm.NoError()), replace(sc, **{field: value})]
    with pytest.raises(mc.SimConfigError, match="share n, fading_sr and fading_rd"):
        mc.simulate_ber(points, 10, 1)


# ---------------------------------------------------------------------------
# SNR sampling
# ---------------------------------------------------------------------------


def test_sample_snr_deterministic_n1_los():
    g0 = 0.37
    sc = ec.LrsScenario(1, g0, fd.Rician(1e12), fd.Rician(1e12), pm.NoError())
    smp = mc.sample_snr(sc, 5000, 17)
    assert np.all(np.abs(smp.values - g0) < 1e-4)


def test_sample_snr_mean_matches_exact_finite_n_moment():
    sc = ref_scenario(n=32, gamma0=0.2)
    smp = mc.sample_snr(sc, 2 * 10**5, 1717)
    ch = ec.derive(sc)
    want = 32.0**2 * 0.2 * (ch.omega + ch.sigma_u2 + ch.sigma_v2)
    se = smp.values.std(ddof=1) / math.sqrt(smp.values.size)
    assert abs(smp.values.mean() - want) < 5.0 * se


def test_sample_snr_histogram_counts_all_trials():
    sc = ref_scenario(n=16, gamma0=1.0)
    edges = np.linspace(0.0, 3000.0, 31)
    smp = mc.sample_snr(sc, 40000, 5, bin_edges=edges)
    assert smp.histogram is not None
    assert smp.histogram.sum() <= 40000  # values beyond the last edge are out of range
    assert smp.histogram.sum() > 39000
    assert smp.values.size == 40000


@pytest.mark.parametrize(
    "edges",
    [[0.0, 2.0, 1.0], [0.0, 1.0, 1.0], [[0.0, 1.0], [1.0, 2.0]], [1.0], [0.0, math.nan, 1.0]],
    ids=["decreasing", "repeated", "2-d", "one-edge", "nan"],
)
def test_sample_snr_rejects_bad_bin_edges_before_drawing(monkeypatch, edges):
    # such edges used to fail in np.histogram inside a worker, after the
    # first block was drawn
    refuse_draws(monkeypatch)
    with pytest.raises(nx.DomainError, match="bin_edges"):
        mc.sample_snr(ref_scenario(n=4), 100, 5, bin_edges=np.array(edges))


def test_sample_snr_worker_independent(monkeypatch):
    run = (ref_scenario(n=16, gamma0=1.0), 40000, 9)
    edges = np.linspace(0.0, 3000.0, 31)
    monkeypatch.setenv("RIS_LAB_WORKERS", "1")
    a = mc.sample_snr(*run, bin_edges=edges)
    for workers in ("2", "3"):
        monkeypatch.setenv("RIS_LAB_WORKERS", workers)
        b = mc.sample_snr(*run, bin_edges=edges)
        assert b.values.tobytes() == a.values.tobytes()
        np.testing.assert_array_equal(a.histogram, b.histogram)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sample_snr_keeps_the_first_draws_under_the_cap(monkeypatch, workers):
    # a cap inside the second block: the kept values are the uncapped run's
    # first ones, and the histogram still counts every trial
    run = (ref_scenario(n=16, gamma0=1.0), 40000, 9)
    edges = np.linspace(0.0, 3000.0, 31)
    monkeypatch.setenv("RIS_LAB_WORKERS", workers)
    full = mc.sample_snr(*run, bin_edges=edges)
    monkeypatch.setattr(mc, "SNR_RETAIN_CAP", 20000)
    capped = mc.sample_snr(*run, bin_edges=edges)
    assert capped.values.tobytes() == full.values[:20000].tobytes()
    assert full.values.size == 40000
    np.testing.assert_array_equal(capped.histogram, np.histogram(full.values, edges)[0])
