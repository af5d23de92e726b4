"""The three benchmark workloads: CLI arguments, delivered work, and the
check of each run's outputs against the stored references.

Every workload runs the README scenario (n = 32, Rician K = 1 source
hops, Rayleigh destination hops, von Mises kappa = 8).  The reference in
``references/<name>.json`` was taken with :data:`DEFAULT_SEED` at the
full budget (``python3 bench/run.py --write-references``).  Any other
seed or budget is checked against it with tolerances that a legitimate
change of random stream passes and a wrong estimator fails:

* analytic columns equal the reference to :data:`ANALYTIC_RTOL` relative;
* a simulated BER lies within :data:`SIM_HALFWIDTHS` combined 95% CI
  half-widths of the reference, ``sqrt(hw**2 + hw_ref**2)``, at every
  point whose analytic BER is at least :data:`SIM_CHECK_MIN_BER` (deeper
  points only have to be finite and positive: their half-widths are
  ~100% at this budget and too skewed to bound);
* the KS distance lies within the sum of the two 99% critical distances
  ``1.6276 / sqrt(N)`` of the reference, and ``sample_count`` equals the
  trials;
* ``validate ber-agreement`` reports ``passed: false`` and exits 4: it is
  a deliberately red check of the large-n model at n = 32.
"""

from __future__ import annotations

import csv
import json
import math
import os

DEFAULT_SEED = 1
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references")

SCENARIO = {
    "n": 32,
    "gamma0_db": -16.0,
    "fading_sr": {"type": "rician", "k_factor": 1.0},
    "fading_rd": {"type": "rayleigh"},
    "phase_error": {"type": "von_mises", "kappa": 8.0},
    "sweep": {"start_db": -24.0, "stop_db": -10.0, "step_db": 1.0},
}

ANALYTIC_RTOL = 1e-9
SIM_HALFWIDTHS = 5.0
SIM_CHECK_MIN_BER = 5e-5
# points whose analytic BER lies in this band set time_to_1pct_s; below
# 5e-4 the estimated half-width itself swings by +-15% from seed to seed
# (von Mises kappa = 2 at BER 1e-4, 131072 trials)
ACCURACY_BAND = (5e-4, 5e-3)
KS_CRITICAL = 1.6276
Z95 = 1.959963984540054
# snr-fit accuracy: histogram bins holding at least this analytic mass
SNR_BIN_MIN_MASS = 0.01


def _close(a: float, b: float, rtol: float = ANALYTIC_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _check_sim(label: str, ana: float, sim: float, hw: float, ref_sim: float, ref_hw: float) -> list[str]:
    if not (math.isfinite(sim) and sim > 0.0 and math.isfinite(hw) and hw > 0.0):
        return [f"{label}: simulated BER {sim!r} +- {hw!r} is not finite and positive"]
    if ana < SIM_CHECK_MIN_BER:
        return []
    z = abs(sim - ref_sim) / math.hypot(hw, ref_hw)
    if z > SIM_HALFWIDTHS:
        return [f"{label}: ber_sim {sim!r} is {z:.1f} half-widths from reference {ref_sim!r}"]
    return []


class Workload:
    """One named workload; subclasses define the command and its outputs."""

    name = ""
    why = ""
    trials = 0  # full budget
    tiny_trials = 1 << 14  # smoke-test budget
    points = 1  # simulated sweep points
    expected_rc = 0

    def argv(self, config_path: str, out_dir: str, seed: int, trials: int) -> list[str]:
        raise NotImplementedError

    def extract(self, out_dir: str) -> dict:
        """The outputs the check and the accuracy figure read."""
        raise NotImplementedError

    def compare(self, obs: dict, ref: dict) -> list[str]:
        raise NotImplementedError

    def rel_halfwidths(self, obs: dict) -> list[float]:
        """Relative 95% CI half-widths of the estimates ``time_to_1pct_s`` covers."""
        raise NotImplementedError

    def time_to_1pct(self, wall_s: float, obs: dict) -> float:
        """Mean over the covered estimates of the time each needs to reach
        a 1% relative half-width, ``wall_s * (r / 0.01)**2``.  The mean, not
        the worst, because the half-width of the worst estimate is itself
        too noisy from seed to seed (+-10% on ``ber-agreement``)."""
        rs = self.rel_halfwidths(obs)
        return wall_s * sum((r / 0.01) ** 2 for r in rs) / len(rs)

    def evals(self, trials: int) -> int:
        """Reflector evaluations delivered: trials x n x sweep points."""
        return trials * SCENARIO["n"] * self.points

    def reference(self) -> dict:
        return _load_json(os.path.join(REFERENCE_DIR, f"{self.name}.json"))

    def check(self, obs: dict, rc: int, seed: int, trials: int, ref: dict | None = None) -> list[str]:
        """Problems found in one run's outputs; empty when correct."""
        problems = []
        if rc != self.expected_rc:
            problems.append(f"exit code {rc}, expected {self.expected_rc}")
        if obs.get("seed") != seed:
            problems.append(f"outputs record seed {obs.get('seed')!r}, expected {seed}")
        if obs.get("trials") != trials:
            problems.append(f"outputs record trials {obs.get('trials')!r}, expected {trials}")
        return problems + self.compare(obs, self.reference() if ref is None else ref)


class BerSweep(Workload):
    name = "ber-sweep"
    why = "15-point README BER sweep, 2^17 trials per point, 2 workers: reflector draws, H reduction, worker scaling"
    trials = 1 << 17
    points = 15
    columns = ("gamma0_db", "gamma_bar_db", "ber_analytic", "ber_asymptote")

    def argv(self, config_path, out_dir, seed, trials):
        return ["ber", "--config", config_path, "--out", out_dir, "--simulate",
                "--trials", str(trials), "--seed", str(seed), "--estimator", "semianalytic"]

    def extract(self, out_dir):
        with open(os.path.join(out_dir, "ber.csv"), encoding="utf-8", newline="") as fh:
            rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
        manifest = _load_json(os.path.join(out_dir, "ber.manifest.json"))
        return {"seed": manifest["seed"], "trials": manifest["config"]["trials"], "rows": rows}

    def compare(self, obs, ref):
        rows, ref_rows = obs["rows"], ref["rows"]
        if len(rows) != len(ref_rows):
            return [f"{len(rows)} sweep rows, reference has {len(ref_rows)}"]
        problems = []
        for row, ref_row in zip(rows, ref_rows):
            label = f"gamma0_db={ref_row['gamma0_db']}"
            problems += [
                f"{label}: {col} {row[col]!r} differs from reference {ref_row[col]!r}"
                for col in self.columns
                if not _close(row[col], ref_row[col])
            ]
            problems += _check_sim(label, ref_row["ber_analytic"], row["ber_sim"], row["ci_halfwidth"],
                                   ref_row["ber_sim"], ref_row["ci_halfwidth"])
        return problems

    def rel_halfwidths(self, obs):
        lo, hi = ACCURACY_BAND
        return [r["ci_halfwidth"] / r["ber_sim"] for r in obs["rows"] if lo <= r["ber_analytic"] <= hi]


class SnrFit(Workload):
    name = "snr-fit"
    why = "one operating point, 5e5 SNR draws and a KS fit: serial sampling and the incomplete-gamma CDF, no sweep to share draws"
    trials = 500_000
    bins = 60

    def argv(self, config_path, out_dir, seed, trials):
        return ["snr-pdf", "--config", config_path, "--out", out_dir, "--simulate",
                "--trials", str(trials), "--seed", str(seed), "--bins", str(self.bins)]

    def extract(self, out_dir):
        with open(os.path.join(out_dir, "snr_pdf.csv"), encoding="utf-8", newline="") as fh:
            rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
        fit = _load_json(os.path.join(out_dir, "snr_fit.json"))
        manifest = _load_json(os.path.join(out_dir, "snr_pdf.manifest.json"))
        return {
            "seed": manifest["seed"],
            "trials": manifest["config"]["trials"],
            "ks_distance": fit["ks_distance"],
            "sample_count": fit["sample_count"],
            "rows": rows,
        }

    def compare(self, obs, ref):
        rows, ref_rows = obs["rows"], ref["rows"]
        if len(rows) != len(ref_rows):
            return [f"{len(rows)} histogram bins, reference has {len(ref_rows)}"]
        problems = [
            f"bin {i}: {col} {row[col]!r} differs from reference {ref_row[col]!r}"
            for i, (row, ref_row) in enumerate(zip(rows, ref_rows))
            for col in ("bin_center", "bin_width", "pdf_analytic")
            if not _close(row[col], ref_row[col])
        ]
        if obs["sample_count"] != obs["trials"]:
            problems.append(f"KS sample_count {obs['sample_count']} != trials {obs['trials']}")
        margin = KS_CRITICAL * (1.0 / math.sqrt(obs["sample_count"]) + 1.0 / math.sqrt(ref["sample_count"]))
        if not abs(obs["ks_distance"] - ref["ks_distance"]) <= margin:
            problems.append(
                f"KS distance {obs['ks_distance']!r} is more than {margin:.4g} from reference {ref['ks_distance']!r}"
            )
        return problems

    def rel_halfwidths(self, obs):
        probs = [
            row["density_sim"] * row["bin_width"]
            for row in obs["rows"]
            if row["pdf_analytic"] * row["bin_width"] >= SNR_BIN_MIN_MASS
        ]
        return [Z95 * math.sqrt((1.0 - p) / (p * obs["trials"])) for p in probs]


class BerAgreement(Workload):
    name = "ber-agreement"
    why = "validate ber-agreement at 131072 trials: five error models x 4 points, quantizer draws and 1620 analytic bisection calls"
    trials = 131_072
    points = 20  # five error models x four BER levels
    expected_rc = 4  # deliberately red check of the large-n model at n = 32

    def argv(self, config_path, out_dir, seed, trials):
        return ["validate", "ber-agreement", "--out", out_dir, "--trials", str(trials), "--seed", str(seed)]

    def extract(self, out_dir):
        payload = _load_json(os.path.join(out_dir, "validate_ber_agreement.json"))
        details = payload["checks"][0]["details"]
        return {
            "seed": details["seed"],
            "trials": details["trials"],
            "passed": payload["passed"],
            "points": details["points"],
        }

    def compare(self, obs, ref):
        problems = []
        if obs["passed"] is not False:
            problems.append(f"ber-agreement reports passed={obs['passed']!r}, expected false")
        points, ref_points = obs["points"], ref["points"]
        if len(points) != len(ref_points):
            return problems + [f"{len(points)} checked points, reference has {len(ref_points)}"]
        for pt, ref_pt in zip(points, ref_points):
            label = f"{ref_pt['model']}@{ref_pt['gamma0_db']:.3f}dB"
            if pt["model"] != ref_pt["model"]:
                problems.append(f"{label}: model {pt['model']!r}")
            problems += [
                f"{label}: {col} {pt[col]!r} differs from reference {ref_pt[col]!r}"
                for col in ("gamma0_db", "ber_analytic")
                if not _close(pt[col], ref_pt[col])
            ]
            problems += _check_sim(label, ref_pt["ber_analytic"], pt["ber_sim"], pt["ci_halfwidth"],
                                   ref_pt["ber_sim"], ref_pt["ci_halfwidth"])
        return problems

    def rel_halfwidths(self, obs):
        lo, hi = ACCURACY_BAND
        return [p["ci_halfwidth"] / p["ber_sim"] for p in obs["points"] if lo <= p["ber_analytic"] <= hi]


WORKLOADS = {w.name: w for w in (BerSweep(), SnrFit(), BerAgreement())}


def write_scenario(path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(SCENARIO, fh, indent=2, sort_keys=True)
        fh.write("\n")
