"""Named validation suites: quantitative checks of the analytics against
independent oracles and against the physical-system simulation.

Each check returns a :class:`CheckResult` with a pass flag and the
measured numbers, so the same implementations back both the acceptance
tests and the ``validate`` CLI subcommand.  Checks are deterministic:
every stochastic quantity uses a fixed seed recorded in the details.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import performance, phase_models, stats
from .config import ConfigError, db_to_linear
from .equiv_channel import (
    LrsScenario,
    cgf_exact,
    cgf_gamma_approx,
    channel_from_moments,
    derive,
    snr_cdf,
)
from .fading import Rayleigh, Rician
from .montecarlo import _check_run, draw_h_batch, sample_snr, simulate_ber

__all__ = ["CheckResult", "SUITES", "reference_scenario", "run_suite"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "details": self.details}


def reference_scenario(n: int) -> LrsScenario:
    """The running example scenario at gamma0 = 1: Rician K=1 source-side
    hops, Rayleigh destination-side hops, von Mises kappa=8 phase errors."""
    return LrsScenario(n, 1.0, Rician(1.0), Rayleigh(), phase_models.VonMises(8.0))


def _error_models() -> dict[str, phase_models.PhaseErrorModel]:
    return {
        "von_mises_k2": phase_models.VonMises(2.0),
        "von_mises_k8": phase_models.VonMises(8.0),
        "quantizer_q1": phase_models.Quantizer(1),
        "quantizer_q2": phase_models.Quantizer(2),
        "quantizer_q3": phase_models.Quantizer(3),
    }


def _db_at_level(ber_at, level: float, lo: float, hi: float) -> float:
    """SNR (dB) in [lo, hi] where the falling curve ``ber_at(db)`` crosses
    ``level``, by at most 80 bisection steps.  Once ``mid`` rounds to
    ``lo`` or ``hi``, that step's update is the last one that can move
    them, so the loop stops after it with the bits 80 steps would give."""
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        stuck = mid == lo or mid == hi
        if ber_at(mid) > level:
            lo = mid
        else:
            hi = mid
        if stuck:
            break
    return 0.5 * (lo + hi)


def _gamma0_db_at_level(pe: phase_models.PhaseErrorModel, level: float, n: int = 32) -> float:
    """Single-reflector SNR (dB) where the analytic BER of the reference
    link with phase error ``pe`` crosses ``level``."""
    moments = reference_scenario(n).a_squared, pe.trig_moment(1), pe.trig_moment(2)

    def ber_at(gdb: float) -> float:
        ch = channel_from_moments(n, db_to_linear(gdb), *moments)
        return performance.ber_bpsk(ch.m, ch.gamma_bar)

    return _db_at_level(ber_at, level, -45.0, 15.0)


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def check_moment_formulas() -> CheckResult:
    """Closed-form circular moments against the quadrature oracle."""
    tol = 1e-8
    worst = 0.0
    rows = []
    models = [phase_models.VonMises(k) for k in (0.5, 2.0, 8.0)]
    models += [phase_models.Quantizer(q) for q in (1, 2, 3)]
    for model in models:
        for p in (1, 2):
            closed = model.trig_moment(p)
            integ = phase_models.moment_by_integration(model, p)
            diff = abs(closed - integ)
            worst = max(worst, diff)
            rows.append(
                {"model": model.to_config(), "p": p, "closed": closed, "diff": diff}
            )
    return CheckResult(
        "moment-formulas", worst < tol, {"max_abs_diff": worst, "tol": tol, "rows": rows}
    )


def check_gaussian_limit(trials: int = 10**5, seed: int = 4242) -> CheckResult:
    """Sample moments of H against the limit-Gaussian parameters (5 SE)."""
    _check_run(trials, seed, stats.KS_MIN_SAMPLES)
    n = 256
    sc = reference_scenario(n)
    ch = derive(sc)
    h = draw_h_batch(sc, np.random.default_rng(seed), trials)
    u, v = h.real, h.imag
    count = u.size

    z = {}
    z["mean_u"] = abs(u.mean() - ch.mu) / (u.std(ddof=1) / math.sqrt(count))
    for key, x, target in (("var_u", u, ch.sigma_u2), ("var_v", v, ch.sigma_v2)):
        s2 = x.var(ddof=1)
        m4 = float(np.mean((x - x.mean()) ** 4))
        se = math.sqrt(max(m4 - (count - 3) / (count - 1) * s2 * s2, 0.0) / count)
        z[key] = abs(s2 - target) / se
    cuv = float(np.cov(u, v, ddof=1)[0][1])
    se_cuv = math.sqrt(float(np.mean(((u - u.mean()) * (v - v.mean())) ** 2)) / count)
    z["cov_uv"] = abs(cuv) / se_cuv

    passed = all(val < 5.0 for val in z.values())
    return CheckResult(
        "gaussian-limit",
        passed,
        {"n": n, "trials": trials, "seed": seed, "z_scores": z, "bound": 5.0},
    )


def check_snr_fit(trials: int = 10**5, seed: int = 777) -> CheckResult:
    """KS distance of sampled instantaneous SNR against the gamma law.

    Thresholds 0.05 (n=16) and 0.03 (n=256) are calibrated values; the
    fit must also improve with n.
    """
    _check_run(trials, seed, stats.KS_MIN_SAMPLES)
    thresholds = {16: 0.05, 256: 0.03}
    distances = {}
    reports = {}
    for n, thr in thresholds.items():
        sc = reference_scenario(n)
        ch = derive(sc)
        smp = sample_snr(sc, trials, seed)
        smp.values.sort()
        rep = stats.ks_test(smp.values, lambda g: snr_cdf(ch.m, ch.gamma_bar, g), threshold=thr)
        distances[n] = rep.statistic
        reports[n] = rep.to_dict()
    passed = (
        reports[16]["passed"] and reports[256]["passed"] and distances[256] < distances[16]
    )
    return CheckResult(
        "snr-fit",
        passed,
        {"trials": trials, "seed": seed, "reports": {str(k): v for k, v in reports.items()}},
    )


def check_ber_agreement(trials: int = 10**6, seed: int = 1234) -> CheckResult:
    """Simulated BER against the equivalent-channel prediction, n=32.

    Semi-analytic estimator, ``trials`` per sweep point; agreement is
    demanded within 3 reported confidence half-widths at every point
    whose BER is at least 1e-5.  All models run in one simulation that
    draws the hop magnitudes once for all of them.
    """
    levels, n = (1e-2, 1e-3, 1e-4, 1e-5), 32
    names, models, gdbs = zip(
        *[(name, pe, _gamma0_db_at_level(pe, lv, n)) for name, pe in _error_models().items() for lv in levels]
    )
    base = reference_scenario(n)
    links = [replace(base, gamma0=db_to_linear(g), phase_error=pe) for pe, g in zip(models, gdbs)]
    res = simulate_ber(links, trials, seed)
    rows = []
    passed = True
    for name, gdb, sc, sim, hw in zip(names, gdbs, links, res.ber, res.ci_halfwidth):
        ch = derive(sc)
        ana = performance.ber_bpsk(ch.m, ch.gamma_bar)
        if ana < 1e-5:
            continue
        z = abs(sim - ana) / hw
        ok = z <= 3.0
        passed &= ok
        rows.append(
            {
                "model": name,
                "gamma0_db": gdb,
                "ber_analytic": ana,
                "ber_sim": sim,
                "ci_halfwidth": hw,
                "z": z,
                "ok": ok,
            }
        )
    return CheckResult(
        "ber-agreement",
        passed,
        {"trials": trials, "seed": seed, "bound_halfwidths": 3.0, "points": rows},
    )


def check_headline_gaps() -> CheckResult:
    """Horizontal dB gaps between the analytic curves at a BER level:
    von Mises k=2 4 +- 1 dB and 1-bit quantization 5 +- 1 dB from ideal,
    k=8 within 1.5 dB, 2-bit quantization under a third of the 1-bit gap.

    At BER 1e-3 and n=32 the k=2 gap is 3.96 dB: 3.13 dB is the
    mean-power loss 20 log10(1/phi_1), the rest comes from the shape
    falling from 14.56 to 7.46.  It reaches 5 dB only near BER 3e-6.
    """
    level, n = 1e-3, 32
    ideal_db = _gamma0_db_at_level(phase_models.NoError(), level, n)
    gaps = {
        name: _gamma0_db_at_level(pe, level, n) - ideal_db
        for name, pe in _error_models().items()
    }
    clauses = {
        "von_mises_k2_4pm1": 3.0 <= gaps["von_mises_k2"] <= 5.0,
        "von_mises_k8_within_1p5": gaps["von_mises_k8"] <= 1.5,
        "quantizer_q1_5pm1": 4.0 <= gaps["quantizer_q1"] <= 6.0,
        "quantizer_q2_lt_third_of_q1": gaps["quantizer_q2"] < gaps["quantizer_q1"] / 3.0,
    }
    return CheckResult(
        "headline-gaps",
        all(clauses.values()),
        {"level": level, "n": n, "gaps_db": gaps, "clauses": clauses},
    )


def check_asymptote() -> CheckResult:
    """High-SNR power law against the exact integral.

    Expanding ``(1 + x)^(-m)`` for ``x = gamma_bar/(m sin^2 theta)`` gives
    the asymptote-to-exact ratio ``1 + c1(m)/gamma_bar + O(gamma_bar^-2)``
    with ``c1(m) = m^2 (2m+1)/(2m+2)``.  At the 10^(-2m) crossing
    ``gamma_bar`` grows only linearly in m while ``c1`` grows like m^2, so
    no fixed band anchored at that crossing holds for large shapes.

    For each shape the exact BER is bisected to the 10^(-2m) crossing and
    checked on a grid from there to 15 dB deeper in 0.5 dB steps:

    * the ratio is at least 1 everywhere (``(1+x)^(-m) < x^(-m)``, so the
      power law is an upper bound);
    * ``(ratio - 1) gamma_bar / c1(m)`` is within 0.1 of 1 everywhere;
    * the ratio is at most 1.05 wherever ``c1(m)/gamma_bar <= 0.04``.

    The log-log slope of the asymptote table must equal m to 1e-10.
    """
    ms = (1.0, 2.0, 12.879566079348178)
    c1_rel_tol, band_upper, band_c1_share = 0.1, 1.05, 0.04
    rows = []
    passed = True
    for m in ms:
        target = 10.0 ** (-2.0 * m)
        c1 = m * m * (2.0 * m + 1.0) / (2.0 * m + 2.0)

        cross_db = _db_at_level(
            lambda gdb: performance.ber_bpsk(m, db_to_linear(gdb)), target, 0.0, 60.0 + 6.0 * m
        )

        grid = [cross_db + d for d in np.arange(0.0, 15.1, 0.5)]
        gbar = np.array([db_to_linear(g) for g in grid])
        table = np.array([performance.ber_high_snr(m, g) for g in gbar])
        ratios = table / np.array([performance.ber_bpsk(m, g) for g in gbar])

        upper_ok = bool(np.all(ratios >= 1.0))
        c1_dev = np.abs((ratios - 1.0) * gbar / c1 - 1.0)
        c1_ok = bool(np.all(c1_dev <= c1_rel_tol))
        banded = c1 / gbar <= band_c1_share
        band = ratios[banded]
        band_ok = bool(np.all(band <= band_upper))

        slope = stats.slope_fit(gbar, table)
        slope_ok = abs(slope - m) < 1e-10

        passed &= upper_ok and c1_ok and band_ok and slope_ok
        rows.append(
            {
                "m": m,
                "c1": c1,
                "crossing_gamma_bar_db": cross_db,
                "ratio_at_crossing": float(ratios[0]),
                "min_ratio": float(ratios.min()),
                "upper_bound_ok": upper_ok,
                "worst_c1_deviation": float(c1_dev.max()),
                "c1_ok": c1_ok,
                "band_from_gamma_bar_db": float(grid[np.argmax(banded)]) if band.size else None,
                "worst_banded_ratio": float(band.max()) if band.size else None,
                "band_ok": band_ok,
                "slope": slope,
                "slope_ok": slope_ok,
            }
        )
    return CheckResult(
        "asymptote",
        passed,
        {
            "c1_rel_tol": c1_rel_tol,
            "band_upper": band_upper,
            "band_where_c1_over_gamma_bar_le": band_c1_share,
            "rows": rows,
        },
    )


def check_cgf_error_scaling() -> CheckResult:
    """|exact - gamma-approx| CGF error halves when n doubles at matched t."""
    t, ns = 4.0, (64, 128, 256)
    rows = []
    passed = True
    scenarios = {
        "reference": reference_scenario,
        "ideal_double_rayleigh": lambda n: LrsScenario(
            n, 1.0, Rayleigh(), Rayleigh(), phase_models.NoError()
        ),
    }
    for label, make in scenarios.items():
        errs = []
        for n in ns:
            ch = derive(make(n))
            errs.append(abs(cgf_exact(ch, t) - cgf_gamma_approx(ch, t)))
        ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
        ok = all(1.6 <= r <= 2.4 for r in ratios)
        passed &= ok
        rows.append({"scenario": label, "errors": errs, "ratios": ratios, "ok": ok})
    return CheckResult(
        "cgf", passed, {"t": t, "ns": list(ns), "band": [1.6, 2.4], "rows": rows}
    )


def check_uniform_rayleigh(trials: int = 2 * 10**5, seed: int = 99) -> CheckResult:
    """Uniform phase errors: the link behaves as Rayleigh fading with
    average SNR n * gamma0; simulated BER must match the closed form
    within 3 confidence half-widths."""
    gamma0_db, n = (-19.0, -16.0, -13.0), 256
    base = replace(reference_scenario(n), phase_error=phase_models.UniformCircle())
    links = [replace(base, gamma0=db_to_linear(gdb)) for gdb in gamma0_db]
    res = simulate_ber(links, trials, seed)
    rows = []
    passed = True
    for gdb, sc, sim, hw in zip(gamma0_db, links, res.ber, res.ci_halfwidth):
        gbar = n * sc.gamma0
        closed = 0.5 * (1.0 - math.sqrt(gbar / (1.0 + gbar)))
        z = abs(sim - closed) / hw
        ok = z <= 3.0
        passed &= ok
        rows.append(
            {"gamma0_db": gdb, "closed_form": closed, "ber_sim": sim, "z": z, "ok": ok}
        )
    return CheckResult(
        "uniform-rayleigh", passed, {"trials": trials, "seed": seed, "n": n, "points": rows}
    )


SUITES = {
    "moments": check_moment_formulas,
    "gaussian-limit": check_gaussian_limit,
    "snr-fit": check_snr_fit,
    "ber-agreement": check_ber_agreement,
    "gaps": check_headline_gaps,
    "asymptote": check_asymptote,
    "cgf": check_cgf_error_scaling,
    "uniform-rayleigh": check_uniform_rayleigh,
}


def run_suite(name: str, **overrides) -> list[CheckResult]:
    """Run one suite by name, or every suite with ``name = "all"``.

    ``overrides`` are forwarded to each check that accepts them (e.g.
    ``trials`` for the simulation-backed suites).  An unknown suite, or
    an override that a named suite would not read, is a :class:`ConfigError`.
    """
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise ConfigError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    results = []
    for key in names:
        fn = SUITES[key]
        kwargs = {k: v for k, v in overrides.items() if k in inspect.signature(fn).parameters}
        if name != "all" and kwargs.keys() != overrides.keys():
            raise ConfigError(f"suite {name!r} takes no {' or '.join(sorted(overrides.keys() - kwargs.keys()))}")
        results.append(fn(**kwargs))
    return results
