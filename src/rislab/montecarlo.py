"""Trial-level simulation of the physical reflecting-surface link.

Each trial draws the 2n hop magnitudes and the n phase errors, forms the
composite coefficient

    H = (1/n) sum_i |H_i1| |H_i2| exp(j Theta_i),

and either detects one BPSK symbol through the noisy observation
Y = n sqrt(gamma0) H X + W (direct counting) or evaluates the exact
conditional error probability Q(sqrt(2 n^2 gamma0 |H|^2)) and averages
it over the H draws (semi-analytic, variance reduced).  This is the
ground truth every analytic module is validated against.

The semi-analytic average is corrected by eight control variates whose
means are exact at every n, not only in the large-n limit: the
monomials u, u^2, v^2, u^3, u v^2, u^4, u^2 v^2 and v^4 of the
standardized parts u = (Re H - mu) / sigma_U and v = Im H / sigma_V,
each less its mean from the exact finite-n cumulants of H
(``equiv_channel.control_moments``).  Q(c |H|) is a smooth function of
(Re H, (Im H)^2), which polynomials of degree 4 follow far more closely
than the degree-2 ones.  The estimate p_bar - beta^T x_bar, with beta
fitted by least squares on the same draws, is a weighted mean
(1/N) sum w_i p_i whose weights do not depend on gamma0.  The fit runs
on the first 8, 5 or 3 controls, the largest that leaves at least 30
residual degrees of freedom and every weight provably >= 0, else on
none; so an estimate is never negative and a sweep never rises.  Blocks
return the sums the fit needs, so it costs no second pass over the
draws.

Every simulation runs through one block engine.  Trials are partitioned
into fixed blocks of 2^14, and block results are reduced in block
order.  Each random input of block b has its own SFC64 stream, seeded by
numpy's SeedSequence from the key (master_seed, stream tag, b, role):
role 0 holds the source-hop magnitudes, role 1 the destination-hop
magnitudes, role 2 the phase errors and role 3 the direct estimator's
symbols and noise.  Results therefore depend only on the points, the
trial count and master_seed, never on how many workers executed the
blocks.  The RIS_LAB_WORKERS environment variable sets the worker count.

The law of H does not depend on gamma0, so a BER sweep draws each block
once and evaluates every sweep point on the same draws (common random
numbers); the direct estimator also shares the block's symbols and
noise across points.  Differences between sweep points then carry far
less noise than the points themselves, and a simulated BER curve never
rises along an increasing sweep.

The common random numbers extend across phase-error models, whose law
the hop magnitudes do not depend on: a block draws its magnitudes once,
each model reads the phase stream from its start, and each model's
reduction reads the noise stream from its start.  A model thus reads
the numbers a run of its own would read, with the same result bytes.

A block runs through row tiles, each of as many whole rows of n
reflectors as fit in ``_TILE`` values (at least one row).  Each tile
draws its source and destination magnitudes, multiplies them into the
hop products, asks every model for the phasors of its rows with one
``model.sample(rng, (rows, n))`` on the model's phase stream and
reduces that model's H for its rows.  The row tile is thus part of the
definition of the streams, as ``BLOCK_TRIALS`` is: the von Mises
sampler sizes its rejection rounds by the values asked of it.

The semi-analytic reduction sorts a block's |H| once.  At every sweep
point it evaluates Q on the ascending arguments, one contiguous slice
per range of the rational approximation, in buffers allocated once per
block (``numerics.gauss_q``), and puts the probabilities back in trial
order before summing, so each sum runs over the trials in the order
they were drawn.  The controls are built in place in one (8, N) array,
and the block's sums are formed with ``np.sum`` and ``np.einsum``, never
through BLAS, which could start threads inside the worker processes.
SNR draws are written block by block into one array of at most
``SNR_RETAIN_CAP`` values.
"""

from __future__ import annotations

import math
import os
import sys
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import numerics
from .config import ConfigError
from .equiv_channel import LrsScenario, control_moments

__all__ = [
    "BLOCK_TRIALS",
    "SimConfigError",
    "SimResult",
    "SnrSample",
    "draw_h_batch",
    "sample_snr",
    "simulate_ber",
]

BLOCK_TRIALS = 1 << 14
# values per row tile of a block: a few thousand keep a tile's
# temporaries in cache; part of the definition of the streams
_TILE = 1 << 13
SNR_RETAIN_CAP = 10**6

_STREAM_BER = 0
_STREAM_SNR = 1

# the keyed stream of each random input of a block
_ROLE_SOURCE = 0
_ROLE_DESTINATION = 1
_ROLE_PHASES = 2
_ROLE_NOISE = 3

_Z95 = 1.959963984540054  # two-sided 95% normal quantile
# fewest residual degrees of freedom of a control-variate fit: from 30 on its
# t quantile is at most 4.2% above _Z95; on one or two it was far too narrow
_MIN_RESIDUAL_DOF = 30
# the nested control-variate fits, largest first: the first 8, 5 or 3
# monomials of equiv_channel.CONTROL_POWERS
_RUNGS = (8, 5, 3)


class SimConfigError(ConfigError, numerics.DomainError):
    """A simulation run was asked for with a bad trial count, seed or
    estimator, with no points, or with points that differ in ``n`` or in
    a hop model.  It is a configuration error to the command line (exit
    2) and a ``DomainError`` to library callers."""


@dataclass(frozen=True)
class SimResult:
    """Per point of the run, in order: BER estimate, 95% confidence
    half-width and, for the direct estimator only, the error count.
    ``variance_ratio`` (semianalytic only) is the plain mean's variance
    over the control-variate estimate's, and ``controls`` the number of
    control variates the fit used (8, 5 or 3): 1.0 and 0 where the plain
    mean stands."""

    ber: tuple[float, ...]
    ci_halfwidth: tuple[float, ...]
    error_counts: tuple[int, ...] | None
    variance_ratio: tuple[float, ...] | None = None
    controls: tuple[int, ...] | None = None


@dataclass(frozen=True)
class SnrSample:
    """Instantaneous-SNR draws: retained values (capped) and, when bin
    edges were supplied, streaming histogram counts over all trials."""

    values: np.ndarray
    histogram: np.ndarray | None = None


# ---------------------------------------------------------------------------
# sampling the composite coefficient
# ---------------------------------------------------------------------------


def _rng_for(master_seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence([master_seed, *key])))


def _h_rows(scenario: LrsScenario, count: int, sources, destinations, phases) -> list[np.ndarray]:
    """H = mean over reflectors of |H_i1| |H_i2| z, ``count`` values for
    each ``(model, rng)`` pair of ``phases``, row tile by row tile: a
    tile draws its source magnitudes from ``sources``, then its
    destination magnitudes from ``destinations``, then, model by model,
    the unit phasors z of its rows, ``model.sample(rng, (rows, n))``."""
    n = scenario.n
    rows = max(1, _TILE // n)
    hs = [np.empty(count, dtype=complex) for _ in phases]
    for start in range(0, count, rows):
        r = scenario.fading_sr.sample_magnitude(sources, (min(rows, count - start), n))
        r *= scenario.fading_rd.sample_magnitude(destinations, r.shape)
        for h, (model, rng) in zip(hs, phases):
            h[start : start + len(r)] = (r * model.sample(rng, r.shape)).sum(axis=1) / n
    return hs


def draw_h_batch(scenario: LrsScenario, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` independent draws of H, all read from ``rng`` row tile by
    row tile: source magnitudes, destination magnitudes, then phases, so
    the row tile of ``_TILE`` values fixes how the stream is consumed."""
    count = numerics.check_count(size, "size", 1)
    return _h_rows(scenario, count, rng, rng, [(scenario.phase_error, rng)])[0]


# ---------------------------------------------------------------------------
# the block engine
# ---------------------------------------------------------------------------


def _block_counts(trials: int) -> list[int]:
    full, rest = divmod(trials, BLOCK_TRIALS)
    return [BLOCK_TRIALS] * full + ([rest] if rest else [])


def _run_block(jobs, task):
    """One block: draw the hop magnitudes once and, for each ``(model,
    reduce)`` job, reduce the H of phasors that ``model`` draws from the
    start of the phase stream, then ``reduce(h, rng, block)`` with the
    noise stream from its start; a pure function of its arguments."""
    scenario, master_seed, stream, block, count = task
    key = (master_seed, stream, block)
    phases = [(model, _rng_for(*key, _ROLE_PHASES)) for model, _ in jobs]
    hs = _h_rows(scenario, count, _rng_for(*key, _ROLE_SOURCE), _rng_for(*key, _ROLE_DESTINATION), phases)
    return [reduce(h, _rng_for(*key, _ROLE_NOISE), block) for (_, reduce), h in zip(jobs, hs)]


def _worker_count() -> int:
    raw = os.environ.get("RIS_LAB_WORKERS") or "1"
    try:
        return numerics.check_count(int(raw), "RIS_LAB_WORKERS", 1)
    except ValueError:  # also the DomainError of a count below 1
        raise SimConfigError(f"RIS_LAB_WORKERS must be an integer >= 1, got {raw!r}") from None


def _map_blocks(jobs, scenario, master_seed, stream, trials):
    """For each block of ``trials`` draws, the list of ``reduce(h, rng,
    block)`` over the ``(model, reduce)`` pairs of ``jobs``, yielded in
    block order as the blocks finish.  Each ``reduce`` is a module-level
    function or a ``partial`` of one, so that it pickles for the worker
    processes."""
    tasks = [(scenario, master_seed, stream, b, c) for b, c in enumerate(_block_counts(trials))]
    run = partial(_run_block, jobs)
    workers = min(_worker_count(), len(tasks))
    if workers == 1:
        yield from map(run, tasks)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(run, tasks, chunksize=max(1, len(tasks) // (workers * 4)))


def _controls(h, mu: float, sigma_u: float, sigma_v: float, means: np.ndarray) -> np.ndarray:
    """The monomials u, u^2, v^2, u^3, u v^2, u^4, u^2 v^2, v^4 (the order
    of ``equiv_channel.CONTROL_POWERS``) of u = (Re H - mu) / sigma_U and
    v = Im H / sigma_V, less ``means``, built in place in one (8, N)
    array; v = 0 where sigma_V = 0, and a control whose mean is nan is 0."""
    xs = np.empty((len(means), h.size))
    u, u2, v2, u3, uv2, u4, u2v2, v4 = xs
    np.subtract(h.real, mu, out=u)
    u /= sigma_u
    np.multiply(u, u, out=u2)
    if sigma_v > 0.0:
        np.divide(h.imag, sigma_v, out=v2)
        v2 *= v2
    else:
        v2.fill(0.0)
    np.multiply(u2, u, out=u3)
    np.multiply(u, v2, out=uv2)
    np.multiply(u2, u2, out=u4)
    np.multiply(u2, v2, out=u2v2)
    np.multiply(v2, v2, out=v4)
    xs -= means[:, None]
    xs[np.isnan(means)] = 0.0
    return xs


def _ber_block(n: int, points: tuple[float, ...], estimator: str, moments, h, rng, block) -> tuple:
    """One block's sums, every sweep point evaluated on the same draws.

    Semianalytic: per point ``[sum p, sum p^2, sum p x_1, ..., sum p
    x_8]``, and the controls' ``(sums, lo, hi)``: row k of ``sums`` is
    ``[sum x_k, sum x_k x_1, ..., sum x_k x_8]``, ``lo`` and ``hi`` the
    smallest and largest x_k.  The controls x_k are those of
    ``_controls(h, *moments)``, with ``moments`` from
    ``equiv_channel.control_moments``.  Direct: per point ``[errors]``
    and no controls.  The sums use no BLAS call.
    """
    mag = np.abs(h)
    if estimator == "semianalytic":
        xs = _controls(h, *moments)
        sums = np.empty((len(xs), len(xs) + 1))
        sums[:, 0] = np.sum(xs, axis=1)
        sums[:, 1:] = np.einsum("ki,li->kl", xs, xs)
        controls = (sums, xs.min(axis=1), xs.max(axis=1))
        # the exact conditional BPSK error probability given H, evaluated
        # on the ascending magnitudes and summed in trial order
        rows = np.empty((len(points), 2 + len(xs)))
        order = np.argsort(mag)
        ascending = mag[order]
        x, q, p = np.empty((3, mag.size))
        work = np.empty((4, mag.size))
        for row, g in zip(rows, points):
            np.multiply(n * math.sqrt(g), ascending, out=x)
            x *= math.sqrt(2.0)
            numerics.gauss_q(x, q, work)
            p[order] = q
            row[0] = np.sum(p)
            row[1] = np.sum(np.multiply(p, p, out=q))
            row[2:] = np.einsum("ki,i->k", xs, p)
        return rows, controls
    x = rng.integers(0, 2, size=h.size) * 2 - 1
    w = (rng.standard_normal(h.size) + 1j * rng.standard_normal(h.size)) / math.sqrt(2.0)
    # coherent detection rotates Y = n sqrt(g) H x + w by -arg(H),
    # which leaves n sqrt(g) |H| x plus the rotated noise
    w_rot = (np.exp(-1j * np.angle(h)) * w).real
    rows = np.empty((len(points), 1))
    for row, g in zip(rows, points):
        detected = np.where(n * math.sqrt(g) * mag * x + w_rot >= 0.0, 1, -1)
        row[0] = np.count_nonzero(detected != x)
    return rows, None


def _snr_block(scale: float, bin_edges, h, rng, block) -> tuple:
    """Histogram counts of one block and the prefix of its SNR draws that
    still fits under ``SNR_RETAIN_CAP``."""
    snr = scale * np.abs(h) ** 2
    keep = min(snr.size, max(0, SNR_RETAIN_CAP - block * BLOCK_TRIALS))
    hist = None if bin_edges is None else np.histogram(snr, bins=bin_edges)[0]
    return snr[:keep].copy(), hist


def _wilson_halfwidth(k: int, n: int) -> float:
    z2 = _Z95 * _Z95
    p = k / n
    return (_Z95 / (1.0 + z2 / n)) * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n))


def _control_fit(trials: int, sums: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """``(x_bar, C+, a, rank, k)`` of the first k controls, with a = C+
    x_bar, for the largest k of ``_RUNGS`` whose fit stands, or None
    where none does and the plain mean must stand in (beta = 0).

    The control-variate estimate at any point is (1/N) sum w_i p_i with
    weights w_i = 1 - (x_i - x_bar)^T a that do not depend on the point.
    The weights are affine in x, so their minimum over the box of the
    controls' extremes bounds them all from below; a fit stands where
    that bound is >= 0, which keeps every estimate positive and every
    sweep from rising, and where the residual variance has at least
    ``_MIN_RESIDUAL_DOF`` degrees of freedom, N - 1 - rank.  Fewer
    controls leave more degrees of freedom and a narrower box.  C is
    singular when a control vanishes (Im H = 0 without phase errors),
    hence the pseudo-inverse.
    """
    for k in _RUNGS:
        x_bar = sums[:k, 0] / trials
        second = sums[:k, 1 : k + 1] / trials
        eigval, eigvec = np.linalg.eigh(second - np.outer(x_bar, x_bar))
        # directions with less variance than this are roundoff of C = 0
        keep = eigval > 1e-10 * np.trace(second)
        rank = int(np.count_nonzero(keep))
        if trials - 1 - rank < _MIN_RESIDUAL_DOF:
            continue
        c_pinv = (eigvec[:, keep] / eigval[keep]) @ eigvec[:, keep].T
        a = c_pinv @ x_bar
        if 1.0 - np.sum(np.maximum((lo[:k] - x_bar) * a, (hi[:k] - x_bar) * a)) >= 0.0:
            return x_bar, c_pinv, a, rank, k
    return None


def _semianalytic_estimate(n: int, row, fit) -> tuple[float, float, float, int]:
    """BER estimate p_bar - beta^T x_bar over ``n`` trials, its 95%
    half-width, the plain mean's variance over the estimate's and the
    number of controls used, at one point, from the point's ``[sum p,
    sum p^2, sum p x_k]`` and the model's ``_control_fit``."""
    sum_p, sum_p2, *sum_px = row
    mean = sum_p / n
    plain = max(0.0, (sum_p2 - n * mean * mean) / max(1, n - 1))
    if fit is None:
        estimate, var, used = mean, plain, 0
    else:
        x_bar, c_pinv, a, rank, used = fit
        c = np.asarray(sum_px[:used]) / n - mean * x_bar
        beta = c_pinv @ c
        estimate = mean - float(beta @ x_bar)
        # residual variance of p - beta^T x on N - 1 - rank degrees of
        # freedom, inflated by the uncertainty of the fitted beta
        resid = max(0.0, (sum_p2 - n * mean * mean - n * float(beta @ c)) / (n - 1 - rank))
        var = resid * (1.0 + float(x_bar @ a))
    hw = _Z95 * math.sqrt(var / n)
    if 0.0 < estimate < 1.0:
        hw = max(hw, sys.float_info.epsilon * estimate)  # roundoff floor
    return estimate, hw, plain / var if var > 0.0 else 1.0, used


def _direct_estimate(trials: int, errors: int) -> tuple[float, float]:
    """Error rate and its 95% half-width: normal approximation from 100
    errors on, a Wilson interval below."""
    mean = errors / trials
    if errors >= 100:
        return mean, _Z95 * math.sqrt(mean * (1.0 - mean) / trials)
    return mean, _wilson_halfwidth(errors, trials)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def _check_run(trials: int, seed: int, min_trials: int = 1) -> tuple[int, int]:
    """``(trials, seed)`` as ints, at least ``min_trials`` trials (the
    sample statistics of ``validate`` need more than one) and a seed >= 0;
    ``SimConfigError`` otherwise, before any draw."""
    try:
        return numerics.check_count(trials, "trials", min_trials), numerics.check_count(seed, "seed")
    except numerics.DomainError as exc:
        raise SimConfigError(*exc.args) from None


def simulate_ber(
    points: Sequence[LrsScenario], trials: int, master_seed: int, estimator: str = "semianalytic"
) -> SimResult:
    """Estimate the BER at every scenario of ``points``, a non-empty
    sequence of ``LrsScenario`` that share ``n``, ``fading_sr`` and
    ``fading_rd``; each point has its own ``gamma0`` and ``phase_error``.
    ``estimator`` is "semianalytic" or "direct".

    The semi-analytic estimator averages the exact conditional error
    probability p = Q(sqrt(2 gamma0) n |H|) over the H draws, corrected
    by eight control variates whose means are exact at every n: the
    monomials of degree 1 to 4 in the standardized parts of H, less the
    means of ``equiv_channel.control_moments``.  The estimate is p_bar -
    beta^T x_bar with beta fitted by least squares on the same draws
    (Lavenberg and Welch), on the first 8, 5 or 3 controls, or on none
    where every such fit could make a weight negative or leaves too few
    residual degrees of freedom (see ``_control_fit``).
    The direct estimator transmits a random symbol per trial, adds
    receiver noise, rotates by the channel phase and counts sign errors.
    All points share the same draws, and points with different
    phase-error models share the hop magnitudes: each point is evaluated
    on the draws a run of its model alone would make, so grouping models
    into one call changes no result.  95% confidence half-widths use the
    normal approximation, switching to a Wilson interval for direct
    counts below 100 errors.  Blocks run on as many worker processes as
    the RIS_LAB_WORKERS environment variable says; the result does not
    depend on their number.
    """
    trials, master_seed = _check_run(trials, master_seed)
    if estimator not in ("semianalytic", "direct"):
        raise SimConfigError(f"unknown estimator {estimator!r}")
    hops = [(sc.n, sc.fading_sr, sc.fading_rd) for sc in points]
    if not hops or hops.count(hops[0]) < len(hops):
        raise SimConfigError("simulate_ber needs one or more points that share n, fading_sr and fading_rd")
    semianalytic = estimator == "semianalytic"
    models = list(dict.fromkeys(sc.phase_error for sc in points))
    owned = [[i for i, sc in enumerate(points) if sc.phase_error == model] for model in models]
    jobs = []
    for model, idx in zip(models, owned):
        # mu, sigma_U and sigma_V do not depend on gamma0
        moments = control_moments(points[idx[0]]) if semianalytic else None
        gammas = tuple(points[i].gamma0 for i in idx)
        jobs.append((model, partial(_ber_block, points[0].n, gammas, estimator, moments)))
    per_job = zip(*_map_blocks(jobs, points[0], master_seed, _STREAM_BER, trials))

    estimates = [None] * len(points)
    for idx, parts in zip(owned, per_job):
        # blocks reduce in block order; extremes combine elementwise
        rows = sum(block_rows for block_rows, _ in parts)
        if semianalytic:
            controls = [block_controls for _, block_controls in parts]
            sums = sum(c[0] for c in controls)
            lo = np.min([c[1] for c in controls], axis=0)
            hi = np.max([c[2] for c in controls], axis=0)
            fit = _control_fit(trials, sums, lo, hi)
            for i, row in zip(idx, rows.tolist()):
                estimates[i] = _semianalytic_estimate(trials, row, fit)
        else:
            for i, (k,) in zip(idx, rows.tolist()):
                estimates[i] = (*_direct_estimate(trials, int(k)), int(k), None)

    ber, halfwidth, extra, controls = zip(*estimates)
    return SimResult(
        ber=ber,
        ci_halfwidth=halfwidth,
        error_counts=None if semianalytic else extra,
        variance_ratio=extra if semianalytic else None,
        controls=controls if semianalytic else None,
    )


def sample_snr(
    scenario: LrsScenario, trials: int, master_seed: int, bin_edges: np.ndarray | None = None
) -> SnrSample:
    """Instantaneous-SNR draws n^2 gamma0 |H|^2 of ``scenario``.

    At most ``SNR_RETAIN_CAP`` values are kept in memory, in one array
    that each block writes its draws into as it arrives; when
    ``bin_edges`` is given, histogram counts accumulate over all trials
    regardless of the cap; they must be a 1-D array of at least two
    increasing edges.  Blocks run on as many worker processes as
    the RIS_LAB_WORKERS environment variable says; the result does not
    depend on their number.
    """
    trials, master_seed = _check_run(trials, master_seed)
    if bin_edges is not None:
        bin_edges = np.asarray(bin_edges, dtype=float)
        if bin_edges.ndim != 1 or bin_edges.size < 2 or not np.all(bin_edges[1:] > bin_edges[:-1]):
            raise SimConfigError("bin_edges must be a 1-D array of at least two increasing edges")
    jobs = [(scenario.phase_error, partial(_snr_block, scenario.n**2 * scenario.gamma0, bin_edges))]
    values = np.empty(min(trials, SNR_RETAIN_CAP))
    histogram = None
    for b, [(kept, hist)] in enumerate(_map_blocks(jobs, scenario, master_seed, _STREAM_SNR, trials)):
        values[b * BLOCK_TRIALS : b * BLOCK_TRIALS + kept.size] = kept
        if hist is not None:
            histogram = hist if histogram is None else histogram + hist
    return SnrSample(values=values, histogram=histogram)
