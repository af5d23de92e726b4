"""Command-line front end.

Subcommands: moments | equiv | ber | snr-pdf | plan | validate.
Scenario configuration comes from a JSON document (see config module);
outputs are CSV / JSON files written to --out plus a run manifest with
SHA-256 digests of every file produced.  With a fixed --seed the CSV
outputs are byte-identical run to run, whatever RIS_LAB_WORKERS says.
Run telemetry lives only in the manifest: ``ber --simulate`` records the
semianalytic estimator's per-point variance ratio and number of control
variates under "telemetry".

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 validation failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from . import __version__, numerics, performance, validate
from .config import (
    ConfigError,
    config_errors,
    db_to_linear,
    linear_to_db,
    load_config,
    scenario_from_config,
    scenario_to_config,
    sweep_from_config,
)
from .equiv_channel import LrsScenario, derive, snr_cdf, snr_pdf
from .fading import from_config as fading_from_config
from .montecarlo import sample_snr, simulate_ber
from .phase_models import from_config as phase_from_config
from .phase_models import MAX_INTEGRATION_ORDER, moment_by_integration
from .stats import KS_MIN_SAMPLES, ks_test

_DEFAULT_SEED = 20200709


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _json_default(obj):
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out_dir: str, subcommand: str, resolved: dict, seed, outputs: list[str], telemetry=None) -> str:
    manifest = {
        "tool": "rislab",
        "version": __version__,
        "command": subcommand,
        "config": resolved,
        "seed": seed,
        "workers": os.environ.get("RIS_LAB_WORKERS"),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "outputs": {os.path.basename(p): _sha256(p) for p in outputs},
    }
    if telemetry is not None:
        manifest["telemetry"] = telemetry
    path = os.path.join(out_dir, f"{subcommand.replace('-', '_')}.manifest.json")
    _write_json(path, manifest)
    return path


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_moments(args) -> int:
    cfg = load_config(args.config)
    with config_errors():
        model = phase_from_config(cfg["phase_error"])
        orders = numerics.check_count(cfg.get("orders", 4), "orders", 1, MAX_INTEGRATION_ORDER)
    rows = []
    for p in range(1, orders + 1):
        closed = model.trig_moment(p)
        integ = moment_by_integration(model, p)
        rows.append([p, closed, integ, abs(closed - integ)])

    path = os.path.join(args.out, "moments.csv")
    _write_csv(path, ["p", "closed_form", "integration", "abs_diff"], rows)
    _write_manifest(args.out, "moments", {**cfg, "orders": orders}, None, [path])
    for p, c, i, d in rows:
        print(f"p={p}  closed={c!r}  integration={i!r}  |diff|={d:.3e}")
    return 0


def _cmd_equiv(args) -> int:
    cfg = load_config(args.config)
    scenario = scenario_from_config(cfg)
    ch = derive(scenario)
    # relative surplus of the exact finite-n E|H|^2 = omega + sigma_U^2 + sigma_V^2 over omega
    gap = None if ch.rayleigh_equivalent else (ch.sigma_u2 + ch.sigma_v2) / ch.omega
    payload = {**ch.to_dict(), "finite_n_power_gap": gap}
    path = os.path.join(args.out, "equiv.json")
    _write_json(path, payload)
    _write_manifest(args.out, "equiv", scenario_to_config(scenario), None, [path])
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_ber(args) -> int:
    # the manifest records --trials with or without --simulate
    with config_errors():
        numerics.check_count(args.trials, "--trials", 1)
    cfg = load_config(args.config)
    scenario = scenario_from_config(cfg)
    sweep_db = sweep_from_config(cfg)
    links = [replace(scenario, gamma0=db_to_linear(g)) for g in sweep_db]

    channels = [derive(sc) for sc in links]
    analytic = [performance.ber_bpsk(ch.m, ch.gamma_bar) for ch in channels]
    asymptote = [performance.ber_high_snr(ch.m, ch.gamma_bar) for ch in channels]

    sim = [None] * len(links)
    halfwidth = [None] * len(links)
    telemetry = None
    if args.simulate:
        res = simulate_ber(links, args.trials, args.seed, args.estimator)
        sim = list(res.ber)
        halfwidth = list(res.ci_halfwidth)
        telemetry = {"variance_ratio": res.variance_ratio, "controls": res.controls}

    rows = [
        [gdb, linear_to_db(ch.gamma_bar), ana, asy, s, hw]
        for gdb, ch, ana, asy, s, hw in zip(
            sweep_db, channels, analytic, asymptote, sim, halfwidth
        )
    ]
    header = ["gamma0_db", "gamma_bar_db", "ber_analytic", "ber_asymptote", "ber_sim", "ci_halfwidth"]
    path = os.path.join(args.out, "ber.csv")
    _write_csv(path, header, rows)
    resolved = {
        **scenario_to_config(scenario),
        "sweep": cfg.get("sweep"),
        "simulate": bool(args.simulate),
        "trials": args.trials,
        "estimator": args.estimator,
    }
    _write_manifest(args.out, "ber", resolved, args.seed if args.simulate else None, [path], telemetry)
    print(f"wrote {path} ({len(rows)} sweep points)")
    return 0


def _cmd_snr_pdf(args) -> int:
    with config_errors():
        numerics.check_count(args.bins, "--bins", 1)
        numerics.check_count(args.trials, "--trials", KS_MIN_SAMPLES)
    cfg = load_config(args.config)
    scenario = scenario_from_config(cfg)
    ch = derive(scenario)
    upper = ch.gamma_bar * (1.0 + 12.0 / math.sqrt(ch.m))
    edges = np.linspace(0.0, upper, args.bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    width = float(edges[1] - edges[0])
    pdf = snr_pdf(ch.m, ch.gamma_bar, centers)

    outputs = []
    fit = None
    if args.simulate:
        smp = sample_snr(scenario, args.trials, args.seed, bin_edges=edges)
        density = smp.histogram / (args.trials * width)
        smp.values.sort()  # in place, so the fit reads the draws without a copy
        fit = ks_test(smp.values, lambda g: snr_cdf(ch.m, ch.gamma_bar, g))
        fit_path = os.path.join(args.out, "snr_fit.json")
        _write_json(fit_path, fit.to_dict())
        outputs.append(fit_path)
    else:
        density = [None] * len(centers)

    rows = [
        [float(c), width, d if d is None else float(d), float(p)]
        for c, d, p in zip(centers, density, pdf)
    ]
    path = os.path.join(args.out, "snr_pdf.csv")
    _write_csv(path, ["bin_center", "bin_width", "density_sim", "pdf_analytic"], rows)
    outputs.insert(0, path)
    resolved = {
        **scenario_to_config(scenario),
        "bins": args.bins,
        "simulate": bool(args.simulate),
        "trials": args.trials,
    }
    _write_manifest(args.out, "snr-pdf", resolved, args.seed if args.simulate else None, outputs)
    if fit is not None:
        print(json.dumps(fit.to_dict(), indent=2, sort_keys=True))
    print(f"wrote {path}")
    return 0


def _cmd_plan(args) -> int:
    cfg = load_config(args.config)
    with config_errors():
        pe = phase_from_config(cfg["phase_error"])
        hops = fading_from_config(cfg["fading_sr"]), fading_from_config(cfg["fading_rd"])
        targets = {
            key: numerics.check_real(cfg[key], key, strict=True) for key in ("target_gd", "target_gc") if key in cfg
        }
        phi1 = numerics.check_real(pe.trig_moment(1), "phase error phi_1", strict=True)
    if not targets:
        raise ConfigError("plan config needs 'target_gd' and/or 'target_gc'")
    a2 = hops[0].magnitude_moment(1) * hops[1].magnitude_moment(1)
    phi2 = pe.trig_moment(2)

    report: dict = {"phi1": phi1, "phi2": phi2, "a": math.sqrt(a2)}
    # the gains are ratios to the single-reflector SNR, so gamma0 cancels
    for key, name, planner in (
        ("target_gd", "diversity", performance.reflectors_for_diversity),
        ("target_gc", "coding", performance.reflectors_for_coding_gain),
    ):
        if key in targets:
            n = planner(targets[key], a2, phi1, phi2)
            g = performance.gains(LrsScenario(n, 1.0, *hops, pe))
            report[name] = {key: targets[key], "n": n, "achieved_gd": g.diversity_gain, "achieved_gc": g.coding_gain}

    path = os.path.join(args.out, "plan.json")
    _write_json(path, report)
    _write_manifest(args.out, "plan", cfg, None, [path])
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cmd_validate(args) -> int:
    overrides = {}
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.seed is not None:
        overrides["seed"] = args.seed
    results = validate.run_suite(args.suite, **overrides)
    payload = {
        "suite": args.suite,
        "passed": all(r.passed for r in results),
        "checks": [r.to_dict() for r in results],
    }
    path = os.path.join(args.out, f"validate_{args.suite.replace('-', '_')}.json")
    _write_json(path, payload)
    _write_manifest(args.out, "validate", {"suite": args.suite, **overrides}, None, [path])
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}")
    print(f"wrote {path}")
    return 0 if payload["passed"] else 4


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rislab",
        description="Analytics and Monte Carlo simulation of reflecting-surface links",
    )
    parser.add_argument("--version", action="version", version=f"rislab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="scenario JSON document")
        p.add_argument("--out", default=".", help="output directory (created if absent)")

    p = sub.add_parser("moments", help="trigonometric moments, closed form vs quadrature")
    common(p)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("equiv", help="equivalent-channel parameters")
    common(p)
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("ber", help="BER curves over a single-reflector SNR sweep")
    common(p)
    p.add_argument("--simulate", action="store_true", help="add Monte Carlo columns")
    p.add_argument("--trials", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=_DEFAULT_SEED)
    p.add_argument("--estimator", choices=("direct", "semianalytic"), default="semianalytic")
    p.set_defaults(func=_cmd_ber)

    p = sub.add_parser("snr-pdf", help="analytic SNR density, histogram and fit report")
    common(p)
    p.add_argument("--simulate", action="store_true")
    p.add_argument("--trials", type=int, default=10**5)
    p.add_argument("--seed", type=int, default=_DEFAULT_SEED)
    p.add_argument("--bins", type=int, default=60)
    p.set_defaults(func=_cmd_snr_pdf)

    p = sub.add_parser("plan", help="reflector count for a diversity/coding-gain target")
    common(p)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("validate", help="run a named validation suite")
    p.add_argument("suite", help=f"one of {sorted(validate.SUITES)} or 'all'")
    p.add_argument("--out", default=".")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        os.makedirs(args.out, exist_ok=True)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except numerics.NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
