"""Trial-level simulation of the physical reflecting-surface link.

Each trial draws the 2n hop magnitudes and the n phase errors, forms the
composite coefficient

    H = (1/n) sum_i |H_i1| |H_i2| exp(j Theta_i),

and either detects one BPSK symbol through the noisy observation
Y = n sqrt(gamma0) H X + W (direct counting) or evaluates the exact
conditional error probability Q(sqrt(2 n^2 gamma0 |H|^2)) and averages
it over the H draws (semi-analytic, variance reduced).  This is the
ground truth every analytic module is validated against.

Every simulation runs through one block engine.  Trials are partitioned
into fixed blocks of 2^14, and block results are reduced in block
order.  Each random input of block b has its own SFC64 stream, seeded by
numpy's SeedSequence from the key (master_seed, stream tag, b, role):
role 0 holds the source-hop magnitudes, role 1 the destination-hop
magnitudes, role 2 the phase errors and role 3 the direct estimator's
symbols and noise.  Results
therefore depend only on (config, master_seed), never on how many
workers executed the blocks.  The RIS_LAB_WORKERS environment variable
sets the worker count.

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
block (``numerics.gauss_q_ascending``), and puts the probabilities back
in trial order before summing: the sums are those of an elementwise
``numerics.gauss_q``, bit for bit.  SNR draws are written block by
block into one array of at most ``SNR_RETAIN_CAP`` values.
"""

from __future__ import annotations

import math
import operator
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import numerics
from .config import ConfigError
from .equiv_channel import LrsScenario
from .phase_models import PhaseErrorModel

__all__ = [
    "BLOCK_TRIALS",
    "SimConfig",
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


class SimConfigError(ConfigError, numerics.DomainError):
    """A simulation run was asked for with a bad trial count, seed, sweep
    point or estimator.  It is a configuration error to the command line
    (exit 2) and a ``DomainError`` to library callers."""


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: scenario, trial budget, seed and sweep points.

    ``snr_points`` are single-reflector SNR values (linear scale) that
    override ``scenario.gamma0`` for BER sweeps; the default is the
    scenario's own value.  ``phase_errors`` holds one phase-error model
    per sweep point and overrides ``scenario.phase_error`` for BER
    sweeps; the default is the scenario's own model at every point.
    ``estimator`` is "semianalytic" or "direct".
    """

    scenario: LrsScenario
    trials: int
    master_seed: int
    snr_points: tuple[float, ...] = ()
    estimator: str = "semianalytic"
    phase_errors: tuple[PhaseErrorModel, ...] = ()

    def __post_init__(self):
        for name in ("trials", "master_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise SimConfigError(f"{name} must be an integer, got {value!r}")
        if self.trials < 1:
            raise SimConfigError(f"trials must be >= 1, got {self.trials!r}")
        if self.master_seed < 0:
            raise SimConfigError("master_seed must be a non-negative integer")
        points = tuple(self.snr_points) or (self.scenario.gamma0,)
        if any(not (g > 0.0 and math.isfinite(g)) for g in points):
            raise SimConfigError("snr points must be positive and finite")
        object.__setattr__(self, "snr_points", points)
        models = tuple(self.phase_errors) or (self.scenario.phase_error,) * len(points)
        if len(models) != len(points):
            raise SimConfigError(
                f"phase_errors needs one model per snr point: {len(models)} for {len(points)}"
            )
        object.__setattr__(self, "phase_errors", models)
        if self.estimator not in ("semianalytic", "direct"):
            raise SimConfigError(f"unknown estimator {self.estimator!r}")


@dataclass(frozen=True)
class SimResult:
    """Per sweep point of the config: BER estimate, 95% confidence
    half-width and, for the direct estimator only, the error count."""

    ber: tuple[float, ...]
    ci_halfwidth: tuple[float, ...]
    error_counts: tuple[int, ...] | None


@dataclass(frozen=True)
class SnrSample:
    """Instantaneous-SNR draws: retained values (capped) and, when bin
    edges were supplied, streaming histogram counts over all trials."""

    values: np.ndarray
    total_trials: int
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
    try:
        count = 0 if isinstance(size, bool) else operator.index(size)
    except TypeError:
        count = 0
    if count < 1:
        raise numerics.DomainError(f"size must be an integer >= 1, got {size!r}")
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
    raw = os.environ.get("RIS_LAB_WORKERS", "1") or "1"
    try:
        return max(1, int(raw))
    except ValueError:
        raise SimConfigError(f"RIS_LAB_WORKERS must be an integer, got {raw!r}") from None


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


def _ber_block(n: int, points: tuple[float, ...], estimator: str, h, rng, block) -> np.ndarray:
    """Per-point ``[sum p, sum p^2, errors]`` rows of one block; every
    sweep point is evaluated on the same draws."""
    mag = np.abs(h)
    rows = np.zeros((len(points), 3))
    if estimator == "semianalytic":
        # the exact conditional BPSK error probability given H, evaluated
        # on the ascending magnitudes and summed in trial order
        order = np.argsort(mag)
        ascending = mag[order]
        x, q, p = np.empty((3, mag.size))
        work = np.empty((4, mag.size))
        for row, g in zip(rows, points):
            np.multiply(n * math.sqrt(g), ascending, out=x)
            x *= math.sqrt(2.0)
            numerics.gauss_q_ascending(x, q, work)
            p[order] = q
            row[0] = np.sum(p)
            row[1] = np.sum(np.multiply(p, p, out=q))
    else:
        x = rng.integers(0, 2, size=h.size) * 2 - 1
        w = (rng.standard_normal(h.size) + 1j * rng.standard_normal(h.size)) / math.sqrt(2.0)
        # coherent detection rotates Y = n sqrt(g) H x + w by -arg(H),
        # which leaves n sqrt(g) |H| x plus the rotated noise
        w_rot = (np.exp(-1j * np.angle(h)) * w).real
        for row, g in zip(rows, points):
            detected = np.where(n * math.sqrt(g) * mag * x + w_rot >= 0.0, 1, -1)
            row[2] = np.count_nonzero(detected != x)
    return rows


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


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def simulate_ber(config: SimConfig) -> SimResult:
    """Estimate the BER at every sweep point of ``config``.

    The semi-analytic estimator averages the exact conditional error
    probability over the H draws (unbiased, far lower variance); the
    direct estimator transmits a random symbol per trial, adds receiver
    noise, rotates by the channel phase and counts sign errors.  All
    sweep points share the same draws, and points with different
    phase-error models share the hop magnitudes: each point is evaluated
    on the draws a run of its model alone would make, so grouping models
    into one call changes no result.  95% confidence half-widths use the
    normal approximation, switching to a Wilson interval for direct
    counts below 100 errors.  Blocks run on as many worker processes as
    the RIS_LAB_WORKERS environment variable says; the result does not
    depend on their number.
    """
    scenario, points = config.scenario, config.snr_points
    models = list(dict.fromkeys(config.phase_errors))
    owned = [[i for i, pe in enumerate(config.phase_errors) if pe == model] for model in models]
    jobs = [
        (model, partial(_ber_block, scenario.n, tuple(points[i] for i in idx), config.estimator))
        for model, idx in zip(models, owned)
    ]
    per_job = zip(*_map_blocks(jobs, scenario, config.master_seed, _STREAM_BER, config.trials))
    point_sums = np.empty((len(points), 3))
    for idx, parts in zip(owned, per_job):
        point_sums[idx] = sum(parts)

    n = config.trials
    ber = []
    halfwidth = []
    errors = []
    for sum_p, sum_p2, k in point_sums.tolist():
        if config.estimator == "semianalytic":
            mean = sum_p / n
            var = max(0.0, (sum_p2 - n * mean * mean) / max(1, n - 1))
            hw = _Z95 * math.sqrt(var / n)
            if 0.0 < mean < 1.0:
                hw = max(hw, sys.float_info.epsilon * mean)  # roundoff floor
        else:
            k = int(k)
            errors.append(k)
            mean = k / n
            if k >= 100:
                hw = _Z95 * math.sqrt(mean * (1.0 - mean) / n)
            else:
                hw = _wilson_halfwidth(k, n)
        ber.append(mean)
        halfwidth.append(hw)

    return SimResult(
        ber=tuple(ber),
        ci_halfwidth=tuple(halfwidth),
        error_counts=tuple(errors) if config.estimator == "direct" else None,
    )


def sample_snr(config: SimConfig, bin_edges: np.ndarray | None = None) -> SnrSample:
    """Instantaneous-SNR draws n^2 gamma0 |H|^2 at the scenario's gamma0
    and phase-error model (``snr_points`` and ``phase_errors`` are not
    read).

    At most ``SNR_RETAIN_CAP`` values are kept in memory, in one array
    that each block writes its draws into as it arrives; when
    ``bin_edges`` is given, histogram counts accumulate over all trials
    regardless of the cap.  Blocks run on as many worker processes as
    the RIS_LAB_WORKERS environment variable says; the result does not
    depend on their number.
    """
    scenario = config.scenario
    jobs = [(scenario.phase_error, partial(_snr_block, scenario.n**2 * scenario.gamma0, bin_edges))]
    values = np.empty(min(config.trials, SNR_RETAIN_CAP))
    histogram = None
    for b, [(kept, hist)] in enumerate(_map_blocks(jobs, scenario, config.master_seed, _STREAM_SNR, config.trials)):
        values[b * BLOCK_TRIALS : b * BLOCK_TRIALS + kept.size] = kept
        if hist is not None:
            histogram = hist if histogram is None else histogram + hist
    return SnrSample(values=values, total_trials=config.trials, histogram=histogram)
