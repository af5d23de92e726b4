"""Acceptance suite: one test per agreed criterion, each printing a
pass/fail line with the measured numbers (run with ``pytest -s`` to see
the lines as they stream).

One check fails by a measured, systematic margin rather than statistical
noise: test_simulated_ber_tracks_prediction_within_3_halfwidths, where
the n -> infinity law misses the simulated BER at n=32 (its failure
message carries the numbers).  It stays red until a finite-n law
replaces the limit law.

The asymptote and headline-gap tests check what the Nakagami model
promises: the asymptote's relative error follows its first-order term
m^2 (2m+1) / ((2m+2) gamma_bar), and the dB gaps agree with an
independent mpmath/scipy oracle computed in the test itself.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from rislab import validate


def _report(label: str, result: validate.CheckResult, elapsed: float, budget: float):
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {label} ({elapsed:.1f}s, budget {budget:.0f}s)")
    return result


def _run(label, budget, fn, **kwargs):
    t0 = time.monotonic()
    result = fn(**kwargs)
    elapsed = time.monotonic() - t0
    _report(label, result, elapsed, budget)
    assert elapsed < budget, f"{label}: runtime {elapsed:.1f}s exceeded {budget:.0f}s"
    return result


def test_trig_moment_closed_forms_match_quadrature():
    # closed-form circular moments agree with numerical integration to
    # 1e-8 absolute for the estimation and quantization error models
    res = _run("trig-moment closed forms vs quadrature", 1.0, validate.check_moment_formulas)
    assert res.passed, f"max |closed - integrated| = {res.details['max_abs_diff']:.3e}"


def test_composite_coefficient_gaussian_limit_moments():
    # 1e5 draws at n=256: sample mean/variances of Re(H), Im(H) within
    # 5 standard errors of the limit parameters, covariance within 5 SE of 0
    res = _run("Gaussian-limit moments at n=256", 30.0, validate.check_gaussian_limit)
    assert res.passed, f"z-scores {res.details['z_scores']}"


def test_snr_distribution_matches_gamma_law():
    # 1e5 SNR samples vs the gamma distribution function: KS < 0.05 at
    # n=16, < 0.03 at n=256, improving with n (calibrated thresholds)
    res = _run("instantaneous-SNR gamma fit (n=16, 256)", 60.0, validate.check_snr_fit)
    reports = res.details["reports"]
    assert res.passed, {k: v["ks_distance"] for k, v in reports.items()}


def test_simulated_ber_tracks_prediction_within_3_halfwidths():
    # semi-analytic estimator, 1e6 trials per sweep point, n=32, five
    # error models; simulated BER must sit within 3 reported confidence
    # half-widths of the equivalent-channel prediction wherever the
    # predicted BER is at least 1e-5
    res = _run("simulated vs predicted BER at n=32", 600.0, validate.check_ber_agreement)
    bad = [p for p in res.details["points"] if not p["ok"]]
    assert res.passed, (
        f"{len(bad)} of {len(res.details['points'])} sweep points disagree; "
        "the gap is systematic, the model error of the n -> infinity law at "
        "n=32: the finite-n mean-power surplus 1/n + (1-1/n)phi1^2 a^4 over "
        "phi1^2 a^4 explains only part of it (quantizer_q1 at 1e-4 is 55% low "
        "against 35% from the power shift alone), the rest is the shape of the "
        "finite-n law; a steep BER curve amplifies both far beyond a CI that "
        "shrinks with trials; worst offenders: "
        + ", ".join(
            f"{p['model']}@{p['gamma0_db']:.1f}dB z={p['z']:.0f}"
            for p in sorted(bad, key=lambda q: -q["z"])[:3]
        )
    )


def _oracle_gaps_db(level: float, n: int) -> dict:
    """dB gaps to the ideal curve at ``level``, from code that shares
    nothing with the package: the BER is the direct mpmath integral of
    Q(sqrt(2 gamma)) against the gamma density, phi_p comes from
    scipy.special.iv (von Mises) and sinc (quantizers), and the hop mean
    magnitudes from their closed forms (Rician K=1, Rayleigh)."""
    mp = pytest.importorskip("mpmath")
    special = pytest.importorskip("scipy.special")
    optimize = pytest.importorskip("scipy.optimize")

    def ber(m, gbar):
        m, gbar = mp.mpf(m), mp.mpf(gbar)
        log_c = m * mp.log(m / gbar) - mp.loggamma(m)

        def f(g):
            return 0.5 * mp.erfc(mp.sqrt(g)) * mp.exp(log_c + (m - 1) * mp.log(g) - m * g / gbar)

        return mp.quad(f, [0, gbar / 4, gbar, 4 * gbar, mp.inf])

    def gbar_at_level(m):
        def excess(log_g):
            return float(mp.log(ber(m, mp.e**log_g) / level))

        return math.exp(optimize.brentq(excess, 0.0, math.log(1e4), xtol=1e-12))

    # unit-power hop mean magnitudes: Rice sigma sqrt(pi/2) L_{1/2}(-K),
    # sigma^2 = 1/(2(K+1)), and Rayleigh sqrt(pi)/2
    k = 1.0
    lag = math.exp(-k / 2) * ((1 + k) * special.iv(0, k / 2) + k * special.iv(1, k / 2))
    a4 = (math.sqrt(math.pi / (4 * (k + 1))) * lag * math.sqrt(math.pi) / 2) ** 2

    def von_mises(kappa):
        return tuple(special.iv(p, kappa) / special.iv(0, kappa) for p in (1, 2))

    def quantizer(bits):
        return tuple(float(np.sinc(p / 2**bits)) for p in (1, 2))

    phis = {
        "ideal": (1.0, 1.0),
        "von_mises_k2": von_mises(2.0),
        "von_mises_k8": von_mises(8.0),
        "quantizer_q1": quantizer(1),
        "quantizer_q2": quantizer(2),
        "quantizer_q3": quantizer(3),
    }
    gamma0_db = {}
    for name, (phi1, phi2) in phis.items():
        x = phi1 * phi1 * a4
        m = 0.5 * n * x / (1 + phi2 - 2 * x)
        gamma0_db[name] = 10 * math.log10(gbar_at_level(m) / (n * n * x))
    return {k: v - gamma0_db["ideal"] for k, v in gamma0_db.items() if k != "ideal"}


def test_headline_db_gaps_at_1e_minus_3():
    # analytic-curve gaps at BER 1e-3: von Mises kappa=2 4 +- 1 dB and
    # 1-bit quantization 5 +- 1 dB from ideal, kappa=8 within 1.5 dB,
    # 2-bit quantization below a third of the 1-bit gap; every gap within
    # 0.01 dB of an independent oracle
    res = _run("headline dB gaps at BER 1e-3", 10.0, validate.check_headline_gaps)
    gaps = res.details["gaps_db"]
    assert res.passed, (
        f"measured gaps (dB): { {k: round(v, 3) for k, v in gaps.items()} }; "
        f"clauses {res.details['clauses']}"
    )
    oracle = _oracle_gaps_db(res.details["level"], res.details["n"])
    assert oracle.keys() == gaps.keys()
    off = {k: abs(gaps[k] - oracle[k]) for k in gaps}
    assert max(off.values()) <= 0.01, (
        f"gaps (dB) {gaps} differ from the oracle {oracle} by {off}"
    )


def test_high_snr_asymptote():
    # from the 10^(-2m) crossing to 15 dB deeper, for shapes 1, 2 and
    # 12.88: the power-law asymptote never falls below the exact BER, its
    # relative error is c1(m)/gamma_bar with c1 = m^2 (2m+1)/(2m+2) to
    # within 10%, and it stays within 5% of the exact BER wherever
    # c1(m)/gamma_bar <= 0.04; the log-log slope of the asymptote
    # recovers m to 1e-10
    res = _run("high-SNR asymptote error law and slope", 10.0, validate.check_asymptote)
    rows = res.details["rows"]
    assert all(r["slope_ok"] for r in rows), rows
    assert res.passed, (
        "per shape (min ratio, worst |(ratio-1) gamma_bar/c1 - 1|, worst banded ratio): "
        + ", ".join(
            f"m={r['m']:.4g}: {r['min_ratio']:.4f}, {r['worst_c1_deviation']:.4f}, "
            f"{r['worst_banded_ratio']}"
            for r in rows
        )
    )


def test_cgf_gamma_reduction_error_halves_when_n_doubles():
    # |exact CGF - single-gamma CGF| at matched t shrinks by a factor in
    # [1.6, 2.4] per doubling of n over {64, 128, 256}
    res = _run("CGF reduction error scaling", 1.0, validate.check_cgf_error_scaling)
    assert res.passed, res.details["rows"]


def test_uniform_errors_reduce_to_rayleigh_link():
    # complete phase uncertainty at n=256: simulated BER matches the
    # closed Rayleigh form with average SNR n*gamma0 within 3 confidence
    # half-widths at three sweep points
    res = _run("uniform-error Rayleigh equivalence", 120.0, validate.check_uniform_rayleigh)
    assert res.passed, res.details["points"]


def test_csv_outputs_identical_across_worker_counts(tmp_path):
    # the BER sweep command, same seed, run under different worker
    # counts, must produce byte-identical CSVs (reduced trial count; the
    # block structure and reduction order do not depend on it)
    cfg = tmp_path / "config.json"
    cfg.write_text(
        json.dumps(
            {
                "n": 32,
                "gamma0_db": -16.0,
                "fading_sr": {"type": "rician", "k_factor": 1.0},
                "fading_rd": {"type": "rayleigh"},
                "phase_error": {"type": "von_mises", "kappa": 8.0},
                "sweep": {"start_db": -18.0, "stop_db": -14.0, "step_db": 2.0},
            }
        )
    )
    outputs = []
    t0 = time.monotonic()
    for workers, sub in (("1", "w1"), ("3", "w3")):
        out = tmp_path / sub
        proc = subprocess.run(
            [
                sys.executable, "-m", "rislab", "ber",
                "--config", str(cfg), "--out", str(out),
                "--simulate", "--trials", "200000", "--seed", "77",
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "RIS_LAB_WORKERS": workers},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((out / "ber.csv").read_bytes())
    same = outputs[0] == outputs[1]
    print(f"[{'PASS' if same else 'FAIL'}] worker-count determinism ({time.monotonic()-t0:.1f}s)")
    assert same, "ber.csv differs between RIS_LAB_WORKERS=1 and =3"
