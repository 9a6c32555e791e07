"""Benchmark of the nbvoi command line, one CLI job at a time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Inputs are generated from
``--seed``; each job is one child process ``python -m nbvoi.cli ...`` run in
a closed loop from this process (the next job starts when the previous one
has exited) for ``--seconds`` seconds.  Every output is checked.

``--trace 0`` prints the end-to-end metrics: ``job_s`` (wall time from spawn
to exit, median), ``cpu_s`` (user+sys, median), ``peak_rss_mb`` (median of
the child's ru_maxrss) and ``setup_s`` (median wall time of
``nbvoi --version``: interpreter start, package import and argparse).
``--trace 1`` alternates an untraced job with a traced one (see
``tracer.py``) and prints the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines above it are a readable summary and the run record
(environment, input sha256, samples).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import checks
import inputs
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# BLAS/OpenMP threads of every child: fixed, and at most the core count of
# any machine the benchmark runs on.
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPS = 5
IMPORTTIME_REPS = 3
# A child still running this long after the benchmark started is killed
# (and its job fails), so that a run ends within three minutes.  Longer
# --seconds are refused: set-up, the golden job and the last job started
# before --seconds ran out take up to ~45 s beyond them.
RUN_LIMIT_S = 170.0
MAX_SECONDS = 120.0
# The package import and cli.main must cover at least this share of the
# traced jobs' spawn-to-exit time (the rest is interpreter start and exit,
# 0.1-0.2 s); a missing top-level span would leave about half uncovered.
TRACE_MIN_COVERAGE = 0.8

END_TO_END = {"job_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

EVPI_THRESHOLDS = (0.1, 0.2, 0.3)
EVPI_REPS = 1000
DCA_THRESHOLDS = tuple(i / 1000 for i in range(1, 201))  # the CLI's default grid
DCA_REPS = 10_000
WORKLOADS = ("evpi_registry", "dca_grid", "sweep_asymptotic")


def cli_args(workload: str, files: dict[str, Path], seed: int, output: Path) -> list[str]:
    if workload == "evpi_registry":
        return ["evpi", "--data", str(files["data"]), "--outcome", "y", "--risk", "p",
                "--thresholds", ",".join(map(str, EVPI_THRESHOLDS)),
                "--n-reps", str(EVPI_REPS), "--seed", str(seed),
                "--out", "csv", "--output", str(output)]
    if workload == "dca_grid":
        return ["dca", "--data", str(files["data"]), "--outcome", "y", "--risk", "p",
                "--n-reps", str(DCA_REPS), "--method", "ordinary", "--seed", str(seed),
                "--output", str(output)]
    return ["simulate", "--config", str(files["config"]), "--output", str(output)]


def output_problems(workload: str, text: str, seed: int) -> list[str]:
    """Problems in one job's output, checked against the generated inputs."""
    try:
        if workload == "evpi_registry":
            y, risks = inputs.synthetic_rows(seed, "registry", inputs.REGISTRY_ROWS)
            return checks.check_evpi(text, y, risks, EVPI_THRESHOLDS, EVPI_REPS)
        if workload == "dca_grid":
            y, risks = inputs.synthetic_rows(seed, "dca", inputs.DCA_ROWS)
            return checks.check_dca(text, y, risks, DCA_THRESHOLDS)
        return checks.check_sweep(text, inputs.sweep_config(seed))
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unparseable output: {exc!r}"]


@dataclass
class Job:
    wall_s: float
    cpu_s: float
    rss_kb: int
    rc: int
    stdout: bytes
    stderr: bytes


class Runner:
    """Spawns children from the checkout root with a pinned environment."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.update({v: str(BLAS_THREADS) for v in THREAD_VARS})
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self._count = 0

    def spawn(self, argv: list[str]) -> Job:
        self._count += 1
        out_path = self.workdir / f"child{self._count}.out"
        err_path = self.workdir / f"child{self._count}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            timer = threading.Timer(max(1.0, self.deadline - t0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        job = Job(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                  proc.returncode, out_path.read_bytes(), err_path.read_bytes())
        out_path.unlink()
        err_path.unlink()
        return job

    def cli(self, args: list[str]) -> Job:
        return self.spawn([sys.executable, "-m", "nbvoi.cli", *args])


class JobChecker:
    """Checks each job: exit code, output content, and byte-identity with
    the first job's output (every job of a run has the same inputs)."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.first: bytes | None = None
        self.attempted = 0
        self.failures: list[str] = []  # one per failed job
        self.run_problems: list[str] = []  # failed checks that are not jobs

    def check(self, job: Job, output: Path) -> bool:
        self.attempted += 1
        problems = []
        if job.rc != 0:
            problems.append(f"exit code {job.rc}: {job.stderr.decode(errors='replace')[-400:]}")
        data = output.read_bytes() if output.exists() else b""
        if job.rc == 0:
            if self.first is None:
                problems += output_problems(self.workload, data.decode(errors="replace"), self.seed)
                if not problems:
                    self.first = data
            elif data != self.first:
                problems.append("output differs from the first job's output")
        output.unlink(missing_ok=True)
        if problems:
            self.failures.append(f"job {self.attempted}: " + "; ".join(problems[:5]))
        return not problems


def golden_problems(runner: Runner) -> list[str]:
    """Run the seed-0 golden sweep once (untimed) and compare its output
    with ``golden_sweep_seed0.json``, so every sweep run checks numbers."""
    config = inputs.golden_sweep_config()
    config_path = runner.workdir / "golden.json"
    output = runner.workdir / "golden.out"
    config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    job = runner.cli(["simulate", "--config", str(config_path), "--output", str(output)])
    if job.rc != 0:
        return [f"golden sweep job: exit code {job.rc}"]
    text = output.read_text(encoding="utf-8", errors="replace")
    try:
        problems = checks.check_sweep(text, config, checks.load_golden())
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        problems = [f"unparseable output: {exc!r}"]
    return [f"golden sweep job: {p}" for p in problems[:5]]


def importtime_s(runner: Runner) -> tuple[float, float]:
    """Cumulative import seconds of ``nbvoi`` and ``scipy.stats`` from
    ``python -X importtime``, medians over a few children."""
    found: dict[str, list[float]] = {"nbvoi": [], "scipy.stats": []}
    for _ in range(IMPORTTIME_REPS):
        job = runner.spawn([sys.executable, "-X", "importtime", "-c", "import nbvoi.cli"])
        seen = dict.fromkeys(found, 0.0)
        for line in job.stderr.decode(errors="replace").splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[2].strip() in seen:
                seen[parts[2].strip()] = int(parts[1]) / 1e6
        for k, v in seen.items():
            found[k].append(v)
    return statistics.median(found["nbvoi"]), statistics.median(found["scipy.stats"])


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu, "blas_threads": BLAS_THREADS,
        "python": platform.python_version(), "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"), "commit": commit, "src_sha256": src.hexdigest(),
    }


def median(values):
    return statistics.median(values) if values else 0.0


def run_untraced(args, runner: Runner, checker: JobChecker, files, out: Path) -> tuple[dict, dict]:
    runner.cli(["--version"])  # warm-up: byte-compile and page in the libraries
    setup = [runner.cli(["--version"]) for _ in range(SETUP_REPS)]
    for job in setup:
        if job.rc != 0 or not job.stdout.startswith(b"nbvoi "):
            checker.run_problems.append(f"--version failed: rc {job.rc}")
    jobs: list[Job] = []
    start = time.perf_counter()
    while len(jobs) < 2 or time.perf_counter() - start < args.seconds:
        jobs.append(runner.cli(cli_args(args.workload, files, args.seed, out)))
        checker.check(jobs[-1], out)
    samples = {"job_s": [j.wall_s for j in jobs], "cpu_s": [j.cpu_s for j in jobs],
               "peak_rss_mb": [j.rss_kb * 1024 / 1e6 for j in jobs],
               "setup_s": [j.wall_s for j in setup]}
    return {k: median(v) for k, v in samples.items()}, samples


def run_traced(args, runner: Runner, checker: JobChecker, files, out: Path) -> tuple[dict, dict]:
    runner.cli(["--version"])
    nbvoi_s, scipy_stats_s = importtime_s(runner)
    spans_path = runner.workdir / "spans.json"
    plain, traced, per_job, gaps = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        argv = cli_args(args.workload, files, args.seed, out)
        plain.append(runner.cli(argv))
        checker.check(plain[-1], out)
        traced.append(runner.spawn([sys.executable, str(Path(tracer.__file__)), str(spans_path),
                                    "--", *argv]))
        if not checker.check(traced[-1], out):
            continue
        record = tracer.read_spans(spans_path)
        per_job.append(tracer.layer_metrics(record, traced[-1].wall_s))
        gaps = sorted(set(record["missing"]) | set(record["uncounted"]))
    spans_path.unlink(missing_ok=True)
    if gaps:
        print(f"functions not traced (absent) or not counted (other shape): {gaps}")
    metrics = {name: median([m[name] for m in per_job]) for name in tracer.PER_LAYER}
    if metrics["trace.coverage"] < TRACE_MIN_COVERAGE:
        checker.run_problems.append(
            f"top-level spans cover {metrics['trace.coverage']:.3f} of the traced jobs' "
            f"wall time (median), below {TRACE_MIN_COVERAGE}")
    metrics["import.nbvoi_s"], metrics["import.scipy_stats_s"] = nbvoi_s, scipy_stats_s
    metrics["trace.overhead_s"] = (median([j.wall_s for j in traced])
                                   - median([j.wall_s for j in plain]))
    samples = {"untraced_job_s": [j.wall_s for j in plain],
               "traced_job_s": [j.wall_s for j in traced],
               "import.nbvoi_s": nbvoi_s, "import.scipy_stats_s": scipy_stats_s,
               "trace_gaps": gaps}
    return metrics, samples


def summary_lines(workload: str, metrics: dict, units: dict, checker: JobChecker,
                  n_jobs: int, trace: bool) -> list[str]:
    lines = [f"workload {workload}: {checker.attempted} jobs attempted, "
             f"{len(checker.failures)} failed"]
    lines += [f"  {name:42s} {value:.6g} {units[name]}" for name, value in metrics.items()]
    lines.append(f"  {'fail_frac':42s} {len(checker.failures) / max(1, checker.attempted):.6g} "
                 f"fraction ({len(checker.failures)}/{checker.attempted})")
    if not trace:
        lines.append(f"  job_s median over {n_jobs} jobs; no tail percentile "
                     "(fewer than ten samples beyond any)")
    else:
        layers = sorted(tracer.LAYERS, key=lambda k: -metrics[f"layer.{k}.self_s"])
        lines.append("  layers by self time: " + ", ".join(
            f"{k} {metrics[f'layer.{k}.self_s']:.3f} s" for k in layers))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seed must be >= 0 and --seconds in (0, {MAX_SECONDS:g}]")
    if not (SRC / "nbvoi" / "cli.py").is_file():
        print(f"error: no nbvoi sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        files = inputs.write_inputs(args.workload, args.seed, workdir)
        runner = Runner(workdir)
        checker = JobChecker(args.workload, args.seed)
        if args.workload == "sweep_asymptotic":
            checker.run_problems += golden_problems(runner)
        out = workdir / "result.out"
        run = run_traced if args.trace else run_untraced
        metrics, samples = run(args, runner, checker, files, out)
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": environment(),
            "inputs_sha256": {k: inputs.sha256_file(p) for k, p in files.items()},
            "samples": samples, "failures": checker.failures + checker.run_problems,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    units = ({k: u for k, (u, _) in tracer.PER_LAYER.items()} if args.trace else END_TO_END)
    n_jobs = len(samples.get("job_s", ()))
    for line in summary_lines(args.workload, metrics, units, checker, n_jobs, args.trace):
        print(line)
    for failure in checker.failures + checker.run_problems:
        print(f"FAILED {failure}")
    print("run " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not (checker.failures or checker.run_problems),
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
