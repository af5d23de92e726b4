"""Tests of the benchmark itself; the suite under tests/ does not collect them.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import compare  # noqa: E402
import run as bench_run  # noqa: E402
from tracer import END, PARENT, START, TARGETS, Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, write_scenario  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

# blocks of 2^14 trials drawn at the smoke-test budget: one per sweep point
TINY_BLOCKS = {"ber-sweep": 15, "snr-fit": 1, "ber-agreement": 20}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_budget_run(workload, trace, tmp_path):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--tiny", "--results", str(tmp_path / "runs.jsonl")],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, out.stdout
    specs = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {s["name"] for s in specs}
    for s in specs:
        metric = result["metrics"][s["name"]]
        assert metric["unit"] == s["unit"]
        assert isinstance(metric["value"], (int, float)), s["name"]
    if trace:
        assert result["metrics"]["fading.rician.sample_magnitude.calls"]["value"] == TINY_BLOCKS[workload]
        assert result["metrics"]["trace.coverage"]["value"] > 0.9
    else:
        assert all(result["metrics"][s["name"]]["value"] > 0 for s in specs)
    (rec,) = [json.loads(line) for line in (tmp_path / "runs.jsonl").read_text().splitlines()]
    assert rec["env"]["nproc"] >= 1 and rec["seed"] == 5
    assert all(op["load_before"] is not None and op["load_after"] is not None for op in rec["ops"])


def _lookup_sites():
    """Every (owner, attribute) -> object the tracer may replace."""
    sites = {}
    for key, module in list(sys.modules.items()):
        if key.split(".")[0] == "rislab":
            sites.update({(key, attr): value for attr, value in vars(module).items()})
    for _, module_name, path in TARGETS:
        if "." in path:
            cls_name, attr = path.split(".")
            sites[(cls_name, attr)] = vars(getattr(sys.modules[module_name], cls_name))[attr]
    return sites


def test_tracer_restores_every_original():
    import rislab.cli  # noqa: F401
    from rislab import montecarlo, phase_models

    before = _lookup_sites()
    tracer = Tracer()
    tracer.install()
    try:
        assert rislab.cli.simulate_ber is not before[("rislab.montecarlo", "simulate_ber")]
        assert montecarlo.simulate_ber is rislab.cli.simulate_ber
        assert montecarlo.numerics.gauss_q is not before[("rislab.numerics", "gauss_q")]
        assert vars(phase_models.VonMises)["sample"] is not before[("VonMises", "sample")]
    finally:
        tracer.uninstall()
    after = _lookup_sites()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_child_self_times_fit_in_parent_total(tmp_path, monkeypatch):
    import rislab.cli

    monkeypatch.setenv("RIS_LAB_WORKERS", "1")
    wl = WORKLOADS["ber-sweep"]
    config = str(tmp_path / "scenario.json")
    write_scenario(config)
    tracer = Tracer()
    tracer.install()
    try:
        assert rislab.cli.main(wl.argv(config, str(tmp_path / "out"), 3, 1 << 12)) == 0
    finally:
        tracer.uninstall()
    spans = tracer.spans
    children = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]] += s[END] - s[START]
    assert all(inner <= s[END] - s[START] for s, inner in zip(spans, children))
    layers = summarize(spans)
    assert layers["fading.rician.sample_magnitude"]["calls"] == 15
    assert layers["phase_models.von_mises.sample"]["values"] == 15 * (1 << 12) * 32
    main = layers["cli.main"]
    assert main["calls"] == 1
    assert all(v["self_s"] >= 0.0 for v in layers.values())
    others = sum(v["self_s"] for k, v in layers.items() if k != "cli.main")
    assert others <= main["total_s"]
    assert others + main["self_s"] == pytest.approx(main["total_s"], rel=1e-9)


def _perturbed(obs, key, factor):
    obs = copy.deepcopy(obs)
    for row in obs[key]:
        row["ber_sim"] *= factor
    return obs


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_reference_check_accepts_the_reference(workload):
    wl = WORKLOADS[workload]
    ref = wl.reference()
    assert wl.check(copy.deepcopy(ref), wl.expected_rc, ref["seed"], ref["trials"]) == []


def test_reference_check_rejects_perturbed_outputs():
    sweep = WORKLOADS["ber-sweep"]
    ref = sweep.reference()
    args = (sweep.expected_rc, ref["seed"], ref["trials"])
    assert sweep.check(_perturbed(ref, "rows", 1.5), *args)
    assert sweep.check(_perturbed(ref, "rows", 1.0 / 1.5), *args)
    analytic = copy.deepcopy(ref)
    analytic["rows"][3]["ber_analytic"] *= 1.0 + 1e-7
    assert sweep.check(analytic, *args)
    assert sweep.check(copy.deepcopy(ref), 3, ref["seed"], ref["trials"])
    assert sweep.check(copy.deepcopy(ref), 0, ref["seed"] + 1, ref["trials"])

    agree = WORKLOADS["ber-agreement"]
    ref = agree.reference()
    args = (agree.expected_rc, ref["seed"], ref["trials"])
    assert agree.check(_perturbed(ref, "points", 1.5), *args)
    green = dict(copy.deepcopy(ref), passed=True)
    assert agree.check(green, *args)
    assert agree.check(copy.deepcopy(ref), 0, ref["seed"], ref["trials"])

    fit = WORKLOADS["snr-fit"]
    ref = fit.reference()
    args = (fit.expected_rc, ref["seed"], ref["trials"])
    assert fit.check(dict(copy.deepcopy(ref), ks_distance=ref["ks_distance"] + 0.02), *args)
    assert fit.check(dict(copy.deepcopy(ref), sample_count=ref["trials"] // 2), *args)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_seed_reaches_the_cli(workload, tmp_path):
    wl = WORKLOADS[workload]
    config = str(tmp_path / "scenario.json")
    write_scenario(config)
    out = str(tmp_path / "out")
    x = bench_run.Execution("seed", 2, False)
    bench_run._spawn(x, wl.argv(config, out, 4242, wl.tiny_trials), out, time.perf_counter() + 120)
    assert x.rc == wl.expected_rc
    assert wl.extract(out)["seed"] == 4242
    (manifest,) = [f for f in os.listdir(out) if f.endswith(".manifest.json")]
    with open(os.path.join(out, manifest), encoding="utf-8") as fh:
        recorded = json.load(fh)
    assert 4242 in (recorded["seed"], recorded["config"].get("seed"))


def test_compare_verdicts():
    spec = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}
    parent = [10.0, 10.1, 9.9, 10.05, 9.95]
    pairs = lambda change: list(zip(parent, change))  # noqa: E731
    slower = [11.5, 11.6, 11.4, 11.55, 11.45]
    assert compare.verdict(parent, slower, pairs(slower), spec)[0] == "regression"
    faster = [8.0, 8.1, 7.9, 8.05, 7.95]
    assert compare.verdict(parent, faster, pairs(faster), spec) == ("gain", 5)
    same = [10.02, 10.08, 9.93, 10.0, 9.97]
    assert compare.verdict(parent, same, pairs(same), spec)[0] == "same"
    noisy = [8.0, 12.0, 9.0, 11.0, 10.0]
    assert compare.verdict(parent, noisy, pairs(noisy), spec)[0] == "unresolved"
    higher = dict(spec, better="higher")
    assert compare.verdict(parent, faster, pairs(faster), higher)[0] == "regression"
