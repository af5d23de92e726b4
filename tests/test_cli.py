"""Command-line surface: subcommands, files, manifests, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

from rislab import cli
from rislab.config import scenario_from_config

REFERENCE_CONFIG = {
    "n": 32,
    "gamma0_db": -16.0,
    "fading_sr": {"type": "rician", "k_factor": 1.0},
    "fading_rd": {"type": "rayleigh"},
    "phase_error": {"type": "von_mises", "kappa": 8.0},
    "sweep": {"start_db": -20.0, "stop_db": -16.0, "step_db": 1.0},
}


def run_cli(*args, env=None):
    # the child finds rislab where this process does, installed or not
    full_env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "rislab", *args],
        capture_output=True,
        text=True,
        env=full_env,
        timeout=300,
    )


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_moments_command(tmp_path):
    cfg = write_config(tmp_path, {"phase_error": {"type": "quantizer", "bits": 1}, "orders": 3})
    out = tmp_path / "out"
    res = run_cli("moments", "--config", cfg, "--out", str(out))
    assert res.returncode == 0, res.stderr
    header, rows = read_csv(out / "moments.csv")
    assert header == ["p", "closed_form", "integration", "abs_diff"]
    assert len(rows) == 3
    assert float(rows[0][1]) == pytest.approx(0.6366197723675814, rel=1e-12)
    assert float(rows[1][1]) == 0.0
    assert all(float(r[3]) < 1e-8 for r in rows)


def test_moments_uniform_all_zero(tmp_path):
    cfg = write_config(tmp_path, {"phase_error": {"type": "uniform"}, "orders": 2})
    out = tmp_path / "o"
    assert run_cli("moments", "--config", cfg, "--out", str(out)).returncode == 0
    _, rows = read_csv(out / "moments.csv")
    assert all(float(r[1]) == 0.0 for r in rows)


def test_equiv_command_reference(tmp_path):
    cfg = write_config(tmp_path, REFERENCE_CONFIG)
    out = tmp_path / "out"
    res = run_cli("equiv", "--config", cfg, "--out", str(out))
    assert res.returncode == 0, res.stderr
    payload = json.loads((out / "equiv.json").read_text())
    assert payload["m"] == pytest.approx(14.17104408790501, rel=1e-10)
    assert not payload["rayleigh_equivalent"]
    # E|H|^2 = 1/n + (1 - 1/n) mu^2 at finite n, mu^2 = phi_1^2 a^4 in the model
    x = payload["mu"] ** 2
    assert payload["finite_n_power_gap"] == pytest.approx((1.0 - x) / (32 * x), rel=1e-12)


def test_equiv_command_flags_uniform_and_exact(tmp_path):
    uniform = dict(REFERENCE_CONFIG, phase_error={"type": "uniform"})
    out = tmp_path / "u"
    run_cli("equiv", "--config", write_config(tmp_path, uniform, "u.json"), "--out", str(out))
    payload = json.loads((out / "equiv.json").read_text())
    assert payload["rayleigh_equivalent"] is True
    assert payload["m"] == 1.0
    assert payload["finite_n_power_gap"] is None

    exact = dict(REFERENCE_CONFIG, phase_error={"type": "none"})
    out2 = tmp_path / "e"
    run_cli("equiv", "--config", write_config(tmp_path, exact, "e.json"), "--out", str(out2))
    payload = json.loads((out2 / "equiv.json").read_text())
    assert payload["sigma_v2"] == 0.0
    x = payload["mu"] ** 2
    assert payload["finite_n_power_gap"] == pytest.approx((1.0 - x) / (32 * x), rel=1e-12)


@pytest.mark.parametrize("n", [10**6, 2**40, 2**52])
def test_equiv_power_gap_keeps_its_digits_at_large_n(tmp_path, n):
    # (sigma_U^2 + sigma_V^2) / omega against (1 - x)/(n x), x = phi_1^2 a^4,
    # in 40 digits; E|H|^2 / omega - 1 would lose up to a third of it at 2^52
    mp = pytest.importorskip("mpmath")
    cfg = dict(REFERENCE_CONFIG, n=n)
    out = tmp_path / "out"
    res = run_cli("equiv", "--config", write_config(tmp_path, cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    sc = scenario_from_config(cfg)
    with mp.workdps(40):
        x = mp.mpf(sc.phase_error.trig_moment(1)) ** 2 * mp.mpf(sc.a_squared) ** 2
        want = float((1 - x) / (n * x))
    gap = json.loads((out / "equiv.json").read_text())["finite_n_power_gap"]
    assert gap == pytest.approx(want, rel=1e-14, abs=0.0)


def test_ber_command_analytic_columns(tmp_path):
    cfg = write_config(tmp_path, REFERENCE_CONFIG)
    out = tmp_path / "out"
    res = run_cli("ber", "--config", cfg, "--out", str(out))
    assert res.returncode == 0, res.stderr
    header, rows = read_csv(out / "ber.csv")
    assert header == [
        "gamma0_db",
        "gamma_bar_db",
        "ber_analytic",
        "ber_asymptote",
        "ber_sim",
        "ci_halfwidth",
    ]
    assert len(rows) == 5
    assert all(r[4] == "" and r[5] == "" for r in rows)  # no --simulate
    bers = [float(r[2]) for r in rows]
    assert all(b < a for a, b in zip(bers, bers[1:]))  # decreasing in SNR


def test_ber_asymptote_past_the_double_range_is_inf(tmp_path):
    # m = 44285 at gamma_bar = 56.4: the power law, an upper bound, passes
    # the double range while the exact BER is 1.18e-26
    cfg = dict(REFERENCE_CONFIG, n=100000, gamma0_db=-80.0, sweep={"start_db": -80.0, "stop_db": -80.0, "step_db": 1.0})
    out = tmp_path / "out"
    res = run_cli("ber", "--config", write_config(tmp_path, cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    _, rows = read_csv(out / "ber.csv")
    assert rows[0][3] == "inf"
    assert float(rows[0][2]) == pytest.approx(1.18e-26, rel=1e-2, abs=0.0)


def test_ber_command_simulation_and_manifest(tmp_path):
    cfg = write_config(tmp_path, REFERENCE_CONFIG)
    out = tmp_path / "out"
    res = run_cli(
        "ber", "--config", cfg, "--out", str(out), "--simulate", "--trials", "50000",
        "--seed", "9",
    )
    assert res.returncode == 0, res.stderr
    _, rows = read_csv(out / "ber.csv")
    assert all(r[4] != "" and float(r[5]) > 0.0 for r in rows)

    manifest = json.loads((out / "ber.manifest.json").read_text())
    assert manifest["seed"] == 9
    digest = hashlib.sha256((out / "ber.csv").read_bytes()).hexdigest()
    assert manifest["outputs"]["ber.csv"] == digest
    # the control variates' variance cut and how many controls the fit
    # used, one entry of each per sweep point
    ratios = manifest["telemetry"]["variance_ratio"]
    assert len(ratios) == len(rows) and all(r >= 1.0 for r in ratios)
    controls = manifest["telemetry"]["controls"]
    assert len(controls) == len(rows) and set(controls) <= {0, 3, 5, 8}


def test_direct_ber_manifest_has_no_variance_ratio(tmp_path):
    cfg = write_config(tmp_path, REFERENCE_CONFIG)
    out = tmp_path / "out"
    res = run_cli(
        "ber", "--config", cfg, "--out", str(out), "--simulate", "--trials", "20000",
        "--seed", "9", "--estimator", "direct",
    )
    assert res.returncode == 0, res.stderr
    manifest = json.loads((out / "ber.manifest.json").read_text())
    assert manifest["telemetry"] == {"variance_ratio": None, "controls": None}


def test_ber_reruns_are_byte_identical(tmp_path):
    # and so are the results of one and of two worker processes
    cfg = write_config(tmp_path, REFERENCE_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out, workers in ((out1, "1"), (out2, "2")):
        res = run_cli(
            "ber", "--config", cfg, "--out", str(out), "--simulate",
            "--trials", "40000", "--seed", "5", env={"RIS_LAB_WORKERS": workers},
        )
        assert res.returncode == 0, res.stderr
    assert (out1 / "ber.csv").read_bytes() == (out2 / "ber.csv").read_bytes()
    telemetry = [json.loads((out / "ber.manifest.json").read_text())["telemetry"] for out in (out1, out2)]
    assert telemetry[0] == telemetry[1]


def test_snr_pdf_command(tmp_path):
    cfg = write_config(tmp_path, dict(REFERENCE_CONFIG, n=16, gamma0_db=0.0))
    out = tmp_path / "out"
    res = run_cli(
        "snr-pdf", "--config", cfg, "--out", str(out), "--simulate",
        "--trials", "40000", "--bins", "50", "--seed", "3",
    )
    assert res.returncode == 0, res.stderr
    header, rows = read_csv(out / "snr_pdf.csv")
    assert header == ["bin_center", "bin_width", "density_sim", "pdf_analytic"]
    # histogram normalizes: sum(density) * width ~ 1
    width = float(rows[0][1])
    mass = sum(float(r[2]) for r in rows) * width
    assert mass == pytest.approx(1.0, abs=0.02)
    fit = json.loads((out / "snr_fit.json").read_text())
    assert 0.0 <= fit["ks_distance"] <= 1.0
    assert fit["sample_count"] == 40000


@pytest.mark.parametrize("bins", ["0", "-3"])
def test_snr_pdf_rejects_bins_below_one(tmp_path, bins):
    cfg = write_config(tmp_path, REFERENCE_CONFIG)
    res = run_cli("snr-pdf", "--config", cfg, "--bins", bins, "--out", str(tmp_path))
    assert res.returncode == 2
    assert "config error" in res.stderr


def test_snr_pdf_rejects_too_few_trials_before_simulating(tmp_path):
    cfg = write_config(tmp_path, REFERENCE_CONFIG)
    out = tmp_path / "out"
    res = run_cli("snr-pdf", "--config", cfg, "--simulate", "--trials", "99", "--out", str(out))
    assert res.returncode == 2
    assert "config error" in res.stderr
    assert not (out / "snr_pdf.csv").exists()


def test_largest_rice_factors_derive_a_channel(tmp_path):
    # the hop mean magnitude stays positive up to the largest factors
    cfg = write_config(tmp_path, {**REFERENCE_CONFIG, "fading_sr": {"type": "rician", "k_factor": 1e308}})
    res = run_cli("equiv", "--config", cfg, "--out", str(tmp_path / "out"))
    assert res.returncode == 0, res.stderr
    assert json.loads((tmp_path / "out" / "equiv.json").read_text())["m"] > 0.0


def test_infinite_rice_factor_is_a_config_error(tmp_path):
    # JSON reads 1e999 as inf; the hop model rejects it as it does a
    # negative factor, before anything is derived from it
    text = json.dumps(REFERENCE_CONFIG).replace('"k_factor": 1.0', '"k_factor": 1e999')
    path = tmp_path / "config.json"
    path.write_text(text)
    res = run_cli("equiv", "--config", str(path), "--out", str(tmp_path))
    assert res.returncode == 2
    assert "config error" in res.stderr and "k_factor" in res.stderr


@pytest.mark.parametrize(
    "command, field",
    [
        ("plan", {"fading_sr": {"type": "nakagami"}}),
        ("equiv", {"fading_sr": {"type": "nakagami"}}),
        ("moments", {"phase_error": {"type": "wrapped_cauchy"}}),
    ],
    ids=["plan-fading", "equiv-fading", "moments-phase"],
)
def test_unknown_model_type_exits_2(tmp_path, command, field):
    payload = {**REFERENCE_CONFIG, "target_gd": 10.0, **field}
    res = run_cli(command, "--config", write_config(tmp_path, payload), "--out", str(tmp_path))
    assert res.returncode == 2
    assert "config error" in res.stderr


@pytest.mark.parametrize(
    "orders", [2.5, 0, 17, "abc"], ids=["fractional", "zero", "above-oracle-cap", "text"]
)
def test_moments_rejects_bad_orders(tmp_path, orders):
    payload = {"phase_error": {"type": "quantizer", "bits": 1}, "orders": orders}
    res = run_cli("moments", "--config", write_config(tmp_path, payload), "--out", str(tmp_path))
    assert res.returncode == 2
    assert "config error" in res.stderr


@pytest.mark.parametrize("key", ["target_gd", "target_gc"])
def test_plan_rejects_non_numeric_target(tmp_path, key):
    payload = {**REFERENCE_CONFIG, key: "abc"}
    res = run_cli("plan", "--config", write_config(tmp_path, payload), "--out", str(tmp_path))
    assert res.returncode == 2
    assert "config error" in res.stderr


@pytest.mark.parametrize("value", [-1.0, 0.0], ids=["negative", "zero"])
@pytest.mark.parametrize("key", ["target_gd", "target_gc"])
def test_plan_rejects_non_positive_target(tmp_path, key, value):
    payload = {**REFERENCE_CONFIG, key: value}
    res = run_cli("plan", "--config", write_config(tmp_path, payload), "--out", str(tmp_path))
    assert res.returncode == 2
    assert "config error" in res.stderr


def test_moments_of_no_error_are_one(tmp_path):
    cfg = write_config(tmp_path, {"phase_error": {"type": "none"}, "orders": 3})
    out = tmp_path / "out"
    res = run_cli("moments", "--config", cfg, "--out", str(out))
    assert res.returncode == 0, res.stderr
    _, rows = read_csv(out / "moments.csv")
    assert len(rows) == 3
    assert all(float(r[1]) == 1.0 and float(r[2]) == 1.0 for r in rows)


def test_plan_command_round_trip(tmp_path):
    payload = {
        "fading_sr": {"type": "rayleigh"},
        "fading_rd": {"type": "rayleigh"},
        "phase_error": {"type": "none"},
        "target_gd": 12.879566079348178,
        "target_gc": 40.0,
    }
    out = tmp_path / "out"
    res = run_cli("plan", "--config", write_config(tmp_path, payload), "--out", str(out))
    assert res.returncode == 0, res.stderr
    report = json.loads((out / "plan.json").read_text())
    assert report["diversity"]["n"] == 32
    assert report["coding"]["achieved_gc"] >= 40.0
    # one contract for both planners: the same keys but the target's
    assert {k for k in report["diversity"] if k != "target_gd"} == {k for k in report["coding"] if k != "target_gc"}
    assert set(report["coding"]) == {"target_gc", "n", "achieved_gd", "achieved_gc"}


def test_plan_rejects_a_phase_error_without_alignment(tmp_path):
    # phi_1 = 0 leaves no gain to plan for: a bad config value, not a
    # numerical failure
    payload = {**REFERENCE_CONFIG, "phase_error": {"type": "uniform"}, "target_gc": 40.0}
    res = run_cli("plan", "--config", write_config(tmp_path, payload), "--out", str(tmp_path))
    assert res.returncode == 2, res.stderr
    assert "config error" in res.stderr and "phi_1" in res.stderr


def test_plan_sizes_a_diversity_target_of_1e15(tmp_path):
    payload = {**REFERENCE_CONFIG, "target_gd": 1e15}
    out = tmp_path / "out"
    res = run_cli("plan", "--config", write_config(tmp_path, payload), "--out", str(out))
    assert res.returncode == 0, res.stderr
    # the smallest count whose shape parameter is within 16 units of
    # roundoff of the target, m = 999999999999998.4: four reflectors
    # short of m >= 1e15, where a slack of 1e-12 falls 2258 short
    assert json.loads((out / "plan.json").read_text())["diversity"]["n"] == 2258125781099782


RAYLEIGH_NEAR_UNIFORM = {
    "fading_sr": {"type": "rayleigh"},
    "fading_rd": {"type": "rayleigh"},
    "phase_error": {"type": "von_mises", "kappa": 0.01},
}


@pytest.mark.parametrize(
    "payload",
    [
        {**REFERENCE_CONFIG, "target_gd": 1e20},
        {**REFERENCE_CONFIG, "target_gd": 1e300},
        {**REFERENCE_CONFIG, "target_gc": 1e20},
        {**RAYLEIGH_NEAR_UNIFORM, "target_gc": 10.0},
        {**RAYLEIGH_NEAR_UNIFORM, "target_gd": 1e-4},
    ],
    ids=["gd-past-2^53", "gd-1e300", "gc-past-2^53", "gc-overflow-in-planner", "gc-overflow-in-gains"],
)
def test_plan_out_of_range_is_a_numerical_failure(tmp_path, payload):
    res = run_cli("plan", "--config", write_config(tmp_path, payload), "--out", str(tmp_path))
    assert res.returncode == 3, res.stderr
    assert "numerical failure" in res.stderr


def test_plan_ignores_gamma0_db(tmp_path):
    payload = {
        "fading_sr": {"type": "rician", "k_factor": 1.0},
        "fading_rd": {"type": "rayleigh"},
        "phase_error": {"type": "von_mises", "kappa": 8.0},
        "target_gd": 20.0,
        "target_gc": 5.0,
    }
    reports = []
    for name, cfg in (("plain", payload), ("far", dict(payload, gamma0_db=-4000.0))):
        out = tmp_path / name
        res = run_cli("plan", "--config", write_config(tmp_path, cfg, f"{name}.json"), "--out", str(out))
        assert res.returncode == 0, res.stderr
        reports.append((out / "plan.json").read_bytes())
    assert reports[0] == reports[1]


def test_validate_command(tmp_path):
    out = tmp_path / "out"
    res = run_cli("validate", "moments", "--out", str(out))
    assert res.returncode == 0, res.stderr
    payload = json.loads((out / "validate_moments.json").read_text())
    assert payload["passed"] is True
    assert payload["checks"][0]["name"] == "moment-formulas"


def test_validate_snr_fit_honours_trials(tmp_path):
    out = tmp_path / "out"
    res = run_cli("validate", "snr-fit", "--trials", "2000", "--seed", "5", "--out", str(out))
    assert res.returncode in (0, 4), res.stderr
    details = json.loads((out / "validate_snr_fit.json").read_text())["checks"][0]["details"]
    assert details["trials"] == 2000
    assert [r["sample_count"] for r in details["reports"].values()] == [2000, 2000]


def test_validate_failing_suite_exits_4(tmp_path):
    # the n=32 BER-agreement suite is deterministically red (the limit law
    # misses the finite-n BER by far more than 3 half-widths even at 2^14
    # trials), which exercises the validation-failure code
    out = tmp_path / "out"
    res = run_cli(
        "validate", "ber-agreement", "--trials", "16384", "--seed", "1", "--out", str(out)
    )
    assert res.returncode == 4
    payload = json.loads((out / "validate_ber_agreement.json").read_text())
    assert payload["passed"] is False


@pytest.mark.parametrize("suite", ["uniform-rayleigh", "ber-agreement"])
def test_validate_with_one_trial_writes_its_report(tmp_path, suite):
    # one trial gives a zero sample variance, so each half-width is the
    # roundoff floor and every point fails; the report is still written
    out = tmp_path / "out"
    res = run_cli("validate", suite, "--trials", "1", "--out", str(out))
    assert res.returncode == 4, res.stderr
    assert "Traceback" not in res.stderr
    payload = json.loads((out / f"validate_{suite.replace('-', '_')}.json").read_text())
    assert payload["passed"] is False
    assert all(point["ok"] is False for point in payload["checks"][0]["details"]["points"])


@pytest.mark.parametrize(
    "suite, flags",
    [
        ("gaussian-limit", ["--trials", "1"]),
        ("gaussian-limit", ["--seed", "-1"]),
        ("gaussian-limit", ["--trials", "0"]),
        ("snr-fit", ["--trials", "50"]),
        # overrides that the suite would not read, while its manifest recorded them
        ("moments", ["--trials", "5"]),
        ("moments", ["--seed", "5"]),
        ("gaps", ["--trials", "5"]),
        ("gaps", ["--seed", "5"]),
        ("asymptote", ["--trials", "5"]),
        ("asymptote", ["--seed", "5"]),
        ("cgf", ["--trials", "5"]),
        ("cgf", ["--seed", "5"]),
    ],
    ids=[
        "gaussian-limit-trials-1",
        "gaussian-limit-seed-negative",
        "gaussian-limit-trials-0",
        "snr-fit-trials-50",
        "moments-trials",
        "moments-seed",
        "gaps-trials",
        "gaps-seed",
        "asymptote-trials",
        "asymptote-seed",
        "cgf-trials",
        "cgf-seed",
    ],
)
def test_validate_rejects_bad_sampling_input_before_drawing(tmp_path, capsys, suite, flags):
    out = tmp_path / "out"
    assert cli.main(["validate", suite, *flags, "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not list(out.iterdir())


def test_validate_unknown_suite_is_config_error(tmp_path):
    res = run_cli("validate", "no-such-suite", "--out", str(tmp_path))
    assert res.returncode == 2
    assert "config error: unknown suite 'no-such-suite'" in res.stderr


def test_missing_config_exits_2(tmp_path):
    res = run_cli("equiv", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path))
    assert res.returncode == 2
    assert "config error" in res.stderr


def test_linear_gamma0_key_exits_2(tmp_path):
    # gamma0_db is the one spelling of the single-reflector SNR
    cfg = {key: val for key, val in REFERENCE_CONFIG.items() if key != "gamma0_db"}
    res = run_cli("equiv", "--config", write_config(tmp_path, {**cfg, "gamma0": 0.025}), "--out", str(tmp_path))
    assert res.returncode == 2
    assert "config error: config needs 'gamma0_db'" in res.stderr


def test_malformed_config_exits_2(tmp_path):
    cfg = write_config(tmp_path, {"n": 32})  # missing everything else
    res = run_cli("equiv", "--config", cfg, "--out", str(tmp_path))
    assert res.returncode == 2


@pytest.mark.parametrize(
    "sweep",
    [
        {"start_db": 4000.0, "stop_db": 4000.0, "step_db": 1.0},  # 10^400 overflows to inf
        # json writes and reads NaN and Infinity
        {"start_db": -20.0, "stop_db": -16.0, "step_db": math.nan},
        {"start_db": math.nan, "stop_db": -16.0, "step_db": 1.0},
        {"start_db": -20.0, "stop_db": math.inf, "step_db": 1.0},
        # more points than numpy can allocate
        {"start_db": -20.0, "stop_db": -16.0, "step_db": 1e-300},
    ],
    ids=["beyond-float-range", "step-nan", "start-nan", "stop-infinite", "step-1e-300"],
)
def test_non_finite_sweep_point_exits_2(tmp_path, sweep):
    cfg = write_config(tmp_path, {**REFERENCE_CONFIG, "sweep": sweep})
    res = run_cli("ber", "--config", cfg, "--simulate", "--trials", "100", "--out", str(tmp_path))
    assert res.returncode == 2
    assert "config error" in res.stderr


@pytest.mark.parametrize("command, trials", [("ber", "-5"), ("ber", "0"), ("snr-pdf", "99")])
def test_trials_are_checked_without_simulate(tmp_path, command, trials):
    # the manifest records --trials even where nothing is simulated, so a
    # count no run could use is a configuration error there too
    cfg = write_config(tmp_path, REFERENCE_CONFIG)
    out = tmp_path / "out"
    res = run_cli(command, "--config", cfg, "--trials", trials, "--out", str(out))
    assert res.returncode == 2
    assert "config error" in res.stderr and "--trials" in res.stderr
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("flags", [["--trials", "0"], ["--seed", "-1"]], ids=["trials-0", "seed-negative"])
def test_bad_simulation_input_exits_2(tmp_path, flags):
    cfg = write_config(tmp_path, REFERENCE_CONFIG)
    res = run_cli("ber", "--config", cfg, "--simulate", *flags, "--out", str(tmp_path))
    assert res.returncode == 2
    assert "config error" in res.stderr


def test_non_finite_kappa_exits_2(tmp_path):
    # json writes and reads math.inf as Infinity
    cfg = write_config(tmp_path, {**REFERENCE_CONFIG, "phase_error": {"type": "von_mises", "kappa": math.inf}})
    res = run_cli("equiv", "--config", cfg, "--out", str(tmp_path))
    assert res.returncode == 2
    assert "kappa" in res.stderr


def test_quantizer_beyond_1023_bits_exits_2(tmp_path):
    cfg = write_config(tmp_path, {**REFERENCE_CONFIG, "phase_error": {"type": "quantizer", "bits": 2000}})
    res = run_cli("equiv", "--config", cfg, "--out", str(tmp_path))
    assert res.returncode == 2
    assert "config error" in res.stderr and "bits" in res.stderr


@pytest.mark.parametrize("command", ["ber", "snr-pdf"])
def test_non_integer_worker_count_exits_2(tmp_path, monkeypatch, capsys, command):
    monkeypatch.setenv("RIS_LAB_WORKERS", "abc")
    cfg = write_config(tmp_path, REFERENCE_CONFIG)
    argv = [command, "--config", cfg, "--simulate", "--trials", "200", "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    assert "RIS_LAB_WORKERS" in capsys.readouterr().err


def test_usage_error_exits_2():
    assert run_cli("frobnicate").returncode == 2
