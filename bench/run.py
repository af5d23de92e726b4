"""rislab benchmark runner.

    python3 bench/run.py --workload ber-sweep --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all          # every workload, one table

Closed loop: one ``rislab`` command at a time, each in a fresh
interpreter (``bench/child.py``) with ``RIS_LAB_WORKERS=2`` and
``PYTHONPATH=src`` of this checkout.  The runner writes the scenario JSON
and passes ``--seed`` to the command; it never imports ``rislab`` itself.

``--trace 0`` first spawns ``rislab --version`` once to warm the
bytecode cache and :data:`SETUP_PROBES` more times to time set-up, then
repeats the workload until another repetition would end after
``--seconds``.  It reports medians over the repetitions of the
end-to-end metrics named in ``BENCHMARK.json``.

``--trace 1`` runs the workload three times: untraced with 2 workers,
untraced with 1 worker, and traced with 1 worker (spans from
``bench/tracer.py``), and reports the per-layer metrics.

Every execution's outputs are checked against ``bench/references`` (see
``workloads.py``); executions of one run must also write byte-identical
result files, whatever the worker count; a run with a failed execution
keeps its outputs and logs under ``bench/.work``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Each run is also appended, with its environment, to
``--results`` (default ``bench/results/runs.jsonl``) for
``bench/compare.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from importlib import metadata

from tracer import END, PARENT, START, summarize
from workloads import DEFAULT_SEED, REFERENCE_DIR, WORKLOADS, write_scenario

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH, "child.py")
WORK = os.path.join(BENCH, ".work")
DEFAULT_RESULTS = os.path.join(BENCH, "results", "runs.jsonl")

WORKERS = 2
SETUP_PROBES = 9
RUN_DEADLINE_S = 170.0  # every execution of one run ends by then


@dataclass
class Execution:
    """One spawned ``rislab`` command and what was measured about it."""

    label: str
    workers: int
    traced: bool
    rc: int | None = None
    wall_s: float | None = None  # spawn to exit, seen from the runner
    cpu_s: float | None = None  # user + sys of the process and its reaped pool workers
    peak_rss_mb: float | None = None  # largest resident set among them
    setup_s: float | None = None  # spawn until ``rislab.cli`` was imported
    main_s: float | None = None  # in-process duration of ``cli.main``
    load_before: float | None = None
    load_after: float | None = None
    steal_s: float | None = None  # CPU time the hypervisor gave to other guests meanwhile
    problems: list[str] = field(default_factory=list)
    spans: list | None = field(default=None, repr=False)
    obs: dict | None = field(default=None, repr=False)
    digests: dict | None = field(default=None, repr=False)


def _steal_s() -> float:
    """Machine-wide steal time so far, from ``/proc/stat`` (0 where absent)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:  # already exited
        pass


class RunError(Exception):
    """The benchmark cannot run here (no program, wrong import, timeout)."""


def _spawn(x: Execution, cli_args: list[str], out_dir: str, deadline: float) -> None:
    """Run ``child.py`` for ``cli_args`` and fill in ``x``'s measurements.

    ``os.wait4`` gives the rusage of exactly this child, including the
    pool workers it reaped, so CPU time and peak RSS are per execution
    (``RUSAGE_CHILDREN`` of the runner would be cumulative).
    """
    report = out_dir + ".report.json"
    env = dict(os.environ, RIS_LAB_WORKERS=str(x.workers))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    cmd = [sys.executable, CHILD, report, "1" if x.traced else "0", "--", *cli_args]
    x.load_before = os.getloadavg()[0]
    steal_before = _steal_s()
    with open(out_dir + ".log", "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
    # block in wait4 (no polling beside the measured workers); a timer
    # kills the process group at the deadline
    timer = threading.Timer(max(0.0, deadline - time.perf_counter()), _kill_group, (proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        _kill_group(proc.pid)
        os.wait4(proc.pid, 0)
        proc.returncode = -signal.SIGKILL
        raise
    finally:
        timer.cancel()
    x.wall_s = time.perf_counter() - start
    x.load_after = os.getloadavg()[0]
    x.steal_s = _steal_s() - steal_before
    proc.returncode = x.rc = os.waitstatus_to_exitcode(status)
    if x.rc == -signal.SIGKILL and time.perf_counter() >= deadline:
        raise RunError(f"{x.label} did not finish within the run's deadline")
    x.cpu_s = usage.ru_utime + usage.ru_stime
    x.peak_rss_mb = usage.ru_maxrss * 1024 / 1e6
    try:
        with open(report, encoding="utf-8") as fh:
            rep = json.load(fh)
    except (OSError, ValueError):
        x.problems.append(f"no report (exit code {x.rc}); see {out_dir}.log")
        return
    if os.path.dirname(os.path.realpath(rep["rislab_file"])) != os.path.realpath(os.path.join(SRC, "rislab")):
        raise RunError(f"rislab was imported from {rep['rislab_file']}, not from {SRC}")
    x.setup_s = rep["imported"] - start
    x.main_s = rep["main_s"]
    x.spans = rep["spans"]


def _result_digests(out_dir: str) -> dict:
    (manifest,) = glob.glob(os.path.join(out_dir, "*.manifest.json"))
    with open(manifest, encoding="utf-8") as fh:
        return json.load(fh)["outputs"]


class Run:
    """One benchmark run of one workload: its executions and metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, tiny: bool):
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.trials = self.wl.tiny_trials if tiny else self.wl.trials
        self.tiny = tiny
        self.work = os.path.join(WORK, f"{workload}-{os.getpid()}-{int(time.time() * 1e3)}")
        self.config = os.path.join(self.work, "scenario.json")
        self.deadline = 0.0
        self.probes: list[Execution] = []
        self.ops: list[Execution] = []

    def _probe(self) -> None:
        x = Execution(f"probe{len(self.probes)}", WORKERS, False)
        _spawn(x, ["--version"], os.path.join(self.work, x.label), self.deadline)
        if x.rc != 0 or x.setup_s is None:
            raise RunError(f"rislab --version failed (exit code {x.rc}): {x.problems}")
        self.probes.append(x)

    def _op(self, workers: int, traced: bool = False) -> Execution:
        x = Execution(f"op{len(self.ops)}", workers, traced)
        out = os.path.join(self.work, x.label)
        _spawn(x, self.wl.argv(self.config, out, self.seed, self.trials), out, self.deadline)
        self.ops.append(x)
        if x.problems:
            return x
        try:
            x.obs = self.wl.extract(out)
            x.digests = _result_digests(out)
        except (OSError, KeyError, ValueError) as exc:
            x.problems.append(f"outputs unreadable: {exc!r}")
            return x
        x.problems += self.wl.check(x.obs, x.rc, self.seed, self.trials)
        first = next(o for o in self.ops if o.digests is not None)
        if x.digests != first.digests:
            x.problems.append(f"result files differ from those of {first.label}")
        return x

    @contextlib.contextmanager
    def _workdir(self):
        """The run's work directory with its scenario, and its deadline."""
        os.makedirs(self.work)
        try:
            write_scenario(self.config)
            self.deadline = time.perf_counter() + RUN_DEADLINE_S
            yield
        finally:
            if not any(x.problems for x in self.ops):  # else keep the logs for inspection
                shutil.rmtree(self.work, ignore_errors=True)

    def execute(self) -> dict:
        started = datetime.now(timezone.utc).isoformat()
        with self._workdir():
            self._probe()  # warm-up: bytecode cache, page cache
            metrics = self._traced() if self.trace else self._timed()
        failed = sum(1 for x in self.ops if x.problems)
        return {
            "workload": self.wl.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.trace),
            "trials": self.trials,
            "tiny": self.tiny,
            "started": started,
            "env": environment(),
            "probes": [_op_record(x) for x in self.probes],
            "ops": [_op_record(x) for x in self.ops],
            "correct": failed == 0,
            "attempted": len(self.ops),
            "failed": failed,
            "ops_failed_frac": failed / len(self.ops),
            "kept": self.work if failed else None,
            "metrics": metrics,
        }

    def _timed(self) -> dict:
        for _ in range(SETUP_PROBES):
            self._probe()
        start = time.perf_counter()
        while True:
            x = self._op(WORKERS)
            now = time.perf_counter()
            if now - start + x.wall_s > self.seconds or now + x.wall_s > self.deadline:
                break
        good = [x for x in self.ops if not x.problems]
        wall = statistics.median(x.wall_s for x in self.ops)
        ttp = self.wl.time_to_1pct(wall, good[0].obs) if good else None
        evals = self.wl.evals(self.trials)
        setups = [x.setup_s for x in self.probes[1:] + self.ops if x.setup_s is not None]
        return {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "cpu_s": statistics.median(x.cpu_s for x in self.ops),
            "evals_per_cpu_s": statistics.median(evals / x.cpu_s for x in self.ops),
            "peak_rss_mb": statistics.median(x.peak_rss_mb for x in self.ops),
            "time_to_1pct_s": ttp,
        }

    def _traced(self) -> dict:
        parallel = self._op(WORKERS)
        serial = self._op(1)
        traced = self._op(1, traced=True)
        if traced.spans is None or serial.main_s is None:  # failed; the problems say why
            return {}
        layers = summarize(traced.spans)
        sim_s = sum(layers.get(k, {}).get("total_s", 0.0) for k in ("montecarlo.simulate_ber", "montecarlo.sample_snr"))
        derived = {
            "montecarlo.evals_per_s_core": self.wl.evals(self.trials) / sim_s,
            "montecarlo.parallel_efficiency": serial.wall_s / (WORKERS * parallel.wall_s),
            "trace.overhead_s": traced.main_s - serial.main_s,
            "trace.coverage": sum(s[END] - s[START] for s in traced.spans if s[PARENT] < 0) / traced.main_s,
        }
        metrics = {}
        for spec in _metric_specs(trace=True):
            # the others are "<layer>.<calls|total_s|self_s|values>"; 0 where the layer never ran
            name = spec["name"]
            layer, stat = name.rsplit(".", 1)
            metrics[name] = derived[name] if name in derived else layers.get(layer, {}).get(stat, 0)
        return metrics


def _op_record(x: Execution) -> dict:
    rec = asdict(x)
    for key in ("spans", "obs", "digests"):
        rec.pop(key)
    return rec


def _commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "rislab", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def environment() -> dict:
    return {
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "numpy": metadata.version("numpy"),
        "python": platform.python_version(),
        "RIS_LAB_WORKERS": WORKERS,
        "loadavg_start": os.getloadavg(),
    }


def _metric_specs(trace: bool) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def _fmt(v) -> str:
    if v is None:
        return "n/a"
    if isinstance(v, int):
        return str(v)
    return f"{v:.6g}"


def report(rec: dict, specs: list[dict]) -> None:
    """Human-readable lines for one run (everything but the JSON line)."""
    env = rec["env"]
    print(f"workload={rec['workload']} seed={rec['seed']} trials={rec['trials']} "
          f"seconds={rec['seconds']} trace={rec['trace']}")
    print(f"env: commit={env['commit']} src_sha256={env['src_sha256'][:12]} nproc={env['nproc']} "
          f"numpy={env['numpy']} python={env['python']} RIS_LAB_WORKERS={env['RIS_LAB_WORKERS']}")
    for x in rec["ops"]:
        status = "ok" if not x["problems"] else "FAILED: " + "; ".join(x["problems"][:3])
        print(f"  {x['label']} workers={x['workers']} traced={int(x['traced'])} rc={x['rc']} "
              f"wall={_fmt(x['wall_s'])} s cpu={_fmt(x['cpu_s'])} s rss={_fmt(x['peak_rss_mb'])} MB "
              f"setup={_fmt(x['setup_s'])} s steal={_fmt(x['steal_s'])} s "
              f"load={_fmt(x['load_before'])}->{_fmt(x['load_after'])} {status}")
    print("  setup probes: " + " ".join(_fmt(p["setup_s"]) for p in rec["probes"]))
    if rec["kept"]:
        print(f"  outputs and logs kept in {rec['kept']}")
    for s in specs:
        print(f"  {s['name']:<44} {_fmt(rec['metrics'].get(s['name'])):>14} {s['unit']}")
    print(f"  {'ops_failed_frac':<44} {_fmt(rec['ops_failed_frac']):>14} fraction "
          f"({rec['failed']}/{rec['attempted']})")


def summary(records: list[dict], specs: list[dict]) -> None:
    """One table: a row per metric, a column per workload."""
    print(f"{'metric':<44}" + "".join(f"{r['workload']:>16}" for r in records) + "  unit")
    for s in specs:
        print(f"{s['name']:<44}" + "".join(f"{_fmt(r['metrics'].get(s['name'])):>16}" for r in records)
              + f"  {s['unit']}")
    print(f"{'ops_failed_frac':<44}" + "".join(f"{_fmt(r['ops_failed_frac']):>16}" for r in records)
          + "  fraction")


def _append(path: str, rec: dict) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(rec, sort_keys=True) + "\n")


def write_references() -> None:
    """Run every workload once at the default seed and full budget and
    store its outputs as the reference."""
    for wl in WORKLOADS.values():
        run = Run(wl.name, DEFAULT_SEED, 0.0, False, False)
        x = Execution("ref", WORKERS, False)
        with run._workdir():
            out = os.path.join(run.work, x.label)
            _spawn(x, wl.argv(run.config, out, DEFAULT_SEED, wl.trials), out, run.deadline)
            obs = wl.extract(out)
        problems = wl.check(obs, x.rc, DEFAULT_SEED, wl.trials, ref=obs)
        if problems:
            raise RunError(f"{wl.name}: {problems}")
        with open(os.path.join(REFERENCE_DIR, f"{wl.name}.json"), "w", encoding="utf-8") as fh:
            json.dump(obs, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote reference for {wl.name} ({x.wall_s:.1f} s)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test budget (2^14 trials)")
    parser.add_argument("--results", default=DEFAULT_RESULTS, help="JSONL file each run is appended to")
    parser.add_argument("--write-references", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not os.path.isfile(os.path.join(SRC, "rislab", "cli.py")):
        print(f"error: no rislab sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.write_references:
            write_references()
            return 0
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        specs = _metric_specs(bool(args.trace))
        records = []
        for name in names:
            rec = Run(name, args.seed, args.seconds, bool(args.trace), args.tiny).execute()
            _append(args.results, rec)
            report(rec, specs)
            records.append(rec)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(records) > 1:
        summary(records, specs)
    prefix = (lambda rec: f"{rec['workload']}.") if len(records) > 1 else (lambda rec: "")
    metrics = {
        prefix(rec) + s["name"]: {"value": rec["metrics"].get(s["name"]), "unit": s["unit"]}
        for rec in records
        for s in specs
    }
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
