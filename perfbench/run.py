"""Benchmark of the `frameavg` command-line program.

Run from the repository root:

    python3 perfbench/run.py --workload xxz-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all     # every workload, one after another

Load shape: batch, closed loop, one client.  Each measured run is a fresh
`python -m frameavg.cli <command> --jobs 1` child on a config generated from
--seed into a temporary directory inside the checkout; BLAS threads are pinned
to the CPU count.  Every output is checked (checks.py); a child that exits
non-zero or fails a check counts as failed.  With the default seed the CSV
rows must also match perfbench/reference/, recorded when the benchmark was
added.  `python3 perfbench/selftest.py` checks the benchmark itself.

--seconds bounds the measured stretch: CLI children run back to back while
the next is expected to end within it, and at least one runs.  Half the
set-up children run before them and half after.

--trace 0 reports the end-to-end metrics:
  run_s        median wall time of one CLI child, launch to exit
  peak_rss_mb  median ru_maxrss of that child, read with os.wait4
  setup_s      median time of a child that imports frameavg.cli, validates
               the config and exits: the fixed cost of every invocation
fail_rate (failed / attempted children) is printed with them; it stays out of
the JSON metrics because a healthy run reads 0, and the JSON's `attempted`
and `failed` carry it.

--trace 1 runs one untraced and one traced child (tracer.py) and reports the
per-layer metrics of the traced one, plus trace.overhead_s, the difference of
their wall times.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

import checks
import tracer
from workloads import DEFAULT_SEED, WORKLOADS, generate_config, write_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH = os.path.join(ROOT, "perfbench")
TMP_PARENT = os.path.join(ROOT, ".perfbench_tmp")
SETUP_SAMPLES = 8
# every child is killed by this point, so a run exits within 180 s
DEADLINE_S = 165.0
SETUP_CODE = "import sys, frameavg.cli as cli; cli.load_config(sys.argv[1])"
ENV_CODE = (
    "import json, platform, numpy\n"
    "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
    "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__,"
    " 'blas': blas.get('name', '?') + ' ' + blas.get('version', '?')}))\n"
)


@dataclass
class Child:
    exit_code: int
    wall_s: float
    rss_mb: float
    output: str = ""
    problems: list = field(default_factory=list)


@dataclass
class Report:
    workload: str
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    # name -> (value, unit, samples)
    metrics: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    def count(self, child: Child) -> None:
        self.attempted += 1
        if child.problems:
            self.failed += 1
            self.problems.extend(child.problems)


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(cpu_count())
    env.update(
        PYTHONPATH=SRC,
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        PYTHONHASHSEED="0",
    )
    return env


class Runner:
    """Launches children one at a time inside one temporary directory."""

    def __init__(self, tmp: str, deadline: float):
        self.tmp = tmp
        self.deadline = deadline
        self.env = child_env()
        self._count = 0

    def path(self, name: str) -> str:
        return os.path.join(self.tmp, name)

    def run(self, argv: list[str]) -> Child:
        """Run argv to exit, killing it at the deadline; stdout is discarded."""
        self._count += 1
        err_path = self.path(f"err{self._count}.txt")
        timeout = max(self.deadline - time.monotonic(), 1.0)
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.env,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            )
            killer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        child = Child(proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6)
        if proc.returncode != 0:
            with open(err_path, encoding="utf-8", errors="replace") as handle:
                tail = handle.read()[-2000:].strip()
            child.problems.append(f"child exited {proc.returncode}: {tail}")
        return child

    def cli(self, command: str, config_path: str, prefix: list[str] | None = None) -> Child:
        self._count += 1
        result = self.path(f"result{self._count}.txt")
        argv = [sys.executable] + (prefix or ["-m", "frameavg.cli"])
        argv += [command, "--config", config_path, "--output", result, "--jobs", "1"]
        child = self.run(argv)
        if os.path.exists(result):
            with open(result, encoding="utf-8") as handle:
                child.output = handle.read()
        return child


def reference_csv(name: str) -> str:
    """Rows of the default seed recorded at the commit that added the benchmark."""
    with open(os.path.join(BENCH, "reference", f"{name}.csv"), encoding="utf-8") as handle:
        return handle.read()


def _check_runs(report: Report, w, config: dict, children: list[Child], use_reference: bool):
    """Check each child's output, its repeatability, and the recorded reference."""
    first = None
    reference = reference_csv(report.workload) if use_reference else None
    for child in children:
        if not child.problems:
            child.problems += checks.check_output(w.command, config, child.exit_code, child.output)
        if child.problems:
            report.count(child)
            continue
        stripped = checks.strip_wall_time(w.command, child.output)
        if first is None:
            first = stripped
            if reference is not None:
                child.problems += checks.compare_reference(stripped, reference)
        elif stripped != first:
            child.problems.append("output differs from the first run of the same seed")
        report.count(child)


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, tiny: bool = False
) -> Report:
    """Generate the workload's config, run and check its children, and collect metrics."""
    w = WORKLOADS[name]
    config = generate_config(name, seed, tiny)
    report = Report(name)
    use_reference = seed == DEFAULT_SEED and not tiny and w.command != "verify"
    os.makedirs(TMP_PARENT, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=TMP_PARENT) as tmp:
            runner = Runner(tmp, time.monotonic() + DEADLINE_S)
            config_path = runner.path("config.json")
            write_config(config_path, config)
            if trace:
                _traced(report, runner, w, config, config_path, use_reference)
            else:
                _untraced(report, runner, w, config, config_path, seconds, use_reference)
    finally:
        try:
            os.rmdir(TMP_PARENT)
        except OSError:
            pass
    return report


def _untraced(report, runner, w, config, config_path, seconds, use_reference):
    setups = []

    def setup_children(count):
        for _ in range(count):
            child = runner.run([sys.executable, "-c", SETUP_CODE, config_path])
            report.count(child)
            setups.append(child.wall_s)

    # half the set-up samples before the CLI runs and half after, so that
    # setup_s samples the same stretch of machine time as run_s
    setup_children(SETUP_SAMPLES // 2)
    children = []
    start = time.monotonic()
    while True:
        children.append(runner.cli(w.command, config_path))
        elapsed = time.monotonic() - start
        typical = statistics.median(c.wall_s for c in children)
        if elapsed + typical > seconds or time.monotonic() + 2 * typical > runner.deadline:
            break
    setup_children(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    _check_runs(report, w, config, children, use_reference)
    k = len(children)
    report.metrics = {
        "run_s": (statistics.median(c.wall_s for c in children), "s", k),
        "peak_rss_mb": (statistics.median(c.rss_mb for c in children), "MB", k),
        "setup_s": (statistics.median(setups), "s", len(setups)),
    }


def _traced(report, runner, w, config, config_path, use_reference):
    untraced = runner.cli(w.command, config_path)
    spans_path = runner.path("spans.json")
    traced = runner.cli(w.command, config_path, [os.path.join(BENCH, "tracer.py"), spans_path])
    _check_runs(report, w, config, [untraced, traced], use_reference)
    if os.path.exists(spans_path):
        with open(spans_path, encoding="utf-8") as handle:
            report.spans = json.load(handle)
    units = tracer.metric_units()
    values = tracer.layer_metrics(report.spans)
    values["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    report.metrics = {name: (values[name], unit, 1) for name, unit in units.items()}


def environment() -> dict:
    """Interpreter, numpy and BLAS versions of the children, and the machine they ran on."""
    info = {}
    env = child_env()
    try:
        out = subprocess.run(
            [sys.executable, "-c", ENV_CODE], env=env, capture_output=True,
            text=True, timeout=60, check=True,
        ).stdout
        info.update(json.loads(out))
    except (subprocess.SubprocessError, json.JSONDecodeError) as exc:
        info["versions_error"] = str(exc)
    info["nproc"] = cpu_count()
    info["threads"] = {k: env[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    try:
        with open("/proc/meminfo", encoding="ascii") as handle:
            info["MemTotal"] = next(line.split(":", 1)[1].strip() for line in handle
                                    if line.startswith("MemTotal:"))
    except (OSError, StopIteration):
        info["MemTotal"] = "unknown"
    return info


def _print_report(report: Report) -> None:
    for problem in report.problems:
        print(f"{report.workload}: FAILED {problem}", file=sys.stderr)
    for name, (value, unit, samples) in report.metrics.items():
        print(f"{report.workload:15s} {name:48s} {value:14.6f} {unit:6s} n={samples}")
    rate = report.failed / report.attempted
    print(f"{report.workload:15s} {'fail_rate':48s} {rate:14.6f} {'fraction':6s} "
          f"n={report.attempted}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "frameavg", "cli.py")):
        print(f"error: no frameavg sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print("env " + json.dumps(environment(), sort_keys=True))
    reports = []
    for name in names:
        report = run_workload(name, args.seed, args.seconds, bool(args.trace))
        _print_report(report)
        reports.append(report)
    prefix = len(reports) > 1
    metrics = {
        (f"{r.workload}.{name}" if prefix else name): {"value": value, "unit": unit}
        for r in reports
        for name, (value, unit, _) in r.metrics.items()
    }
    failed = sum(r.failed for r in reports)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in reports),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
