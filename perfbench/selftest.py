"""Self-test of the benchmark on the N <= 6 variant of every workload.

    python3 perfbench/selftest.py

Checks that the config generator is deterministic per seed, that the output
checker rejects a tampered row, a tampered identity line and a non-zero exit,
that on every workload the traced self times sum to the root span and the
kernel counts repeat exactly, and that BENCHMARK.json names the workloads and
metrics this code reports.  Takes about half a minute; it is kept out of the
repository's test suite.  Exits 1 and lists what failed if any check fails.
"""
from __future__ import annotations

import json
import math
import os
import sys
import tempfile
import time

import checks
import run
import tracer
from workloads import WORKLOADS, generate_config, write_config

SEED = 5


def _tamper(command: str, text: str) -> str:
    """The output with one identity broken in its first data line."""
    lines = text.splitlines()
    if command == "verify":
        name = lines[0].split()[0]
        lines[0] = f"{name}  residual  1.00000e-03  tolerance  1.0e-09  PASS"
    else:
        cells = lines[1].split(",")
        column = checks.CSV_COLUMNS.index("S_rho_prime")
        cells[column] = repr(float(cells[column]) + 1e-6)
        lines[1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _kernel_counts(report: run.Report) -> dict:
    return {
        name: value
        for name, (value, _, _) in report.metrics.items()
        if name.startswith("linalg.") and name.endswith((".calls", ".n3"))
    }


def check_workload(name: str) -> list[str]:
    w = WORKLOADS[name]
    config = generate_config(name, SEED, tiny=True)
    failures = []
    if generate_config(name, SEED) != generate_config(name, SEED):
        failures.append("generator is not deterministic")
    if all(generate_config(name, s) == generate_config(name, SEED) for s in range(6, 10)):
        failures.append("the seed changes nothing")
    if max(config["sizes"]) > 6:
        failures.append(f"tiny variant has sizes {config['sizes']}")

    os.makedirs(run.TMP_PARENT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.TMP_PARENT) as tmp:
        runner = run.Runner(tmp, time.monotonic() + run.DEADLINE_S)
        path = runner.path("config.json")
        write_config(path, config)
        output = runner.cli(w.command, path).output
    if checks.check_output(w.command, config, 0, output):
        failures.append(f"checker rejects a good run: {checks.check_output(w.command, config, 0, output)}")
    if not checks.check_output(w.command, config, 1, output):
        failures.append("checker accepts a non-zero exit")
    if not checks.check_output(w.command, config, 0, _tamper(w.command, output)):
        failures.append("checker accepts a tampered output")

    first, second = (run.run_workload(name, SEED, 1, trace=True, tiny=True) for _ in range(2))
    for report in (first, second):
        if report.failed:
            failures.append(f"traced run failed: {report.problems}")
    roots = [s for s in first.spans if s["parent"] is None]
    if [s["name"] for s in roots] != [tracer.ROOT_SPAN]:
        failures.append(f"root spans {[s['name'] for s in roots]}")
    else:
        total = sum(tracer.self_times(first.spans).values())
        root = roots[0]["end"] - roots[0]["start"]
        if not math.isclose(total, root, rel_tol=1e-9, abs_tol=1e-9):
            failures.append(f"self times sum to {total}, root span lasts {root}")
    if _kernel_counts(first) != _kernel_counts(second):
        failures.append("kernel counts differ between two traced runs")
    return failures


def check_reference_comparison() -> list[str]:
    failures = []
    for name in (n for n, w in WORKLOADS.items() if w.command != "verify"):
        reference = run.reference_csv(name)
        if checks.compare_reference(reference, reference):
            failures.append(f"{name}: reference does not match itself")
        if not checks.compare_reference(_tamper("sweep", reference), reference):
            failures.append(f"{name}: tampered row matches the reference")
    return failures


def check_benchmark_json() -> list[str]:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    failures = []
    workloads = {w["name"]: w["why"] for w in spec["workloads"]}
    if workloads != {name: w.why for name, w in WORKLOADS.items()}:
        failures.append("BENCHMARK.json workloads differ from workloads.py")
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if per_layer != tracer.metric_units():
        failures.append("BENCHMARK.json per_layer differs from tracer.metric_units()")
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    if end_to_end != {"run_s", "peak_rss_mb", "setup_s"}:
        failures.append(f"BENCHMARK.json end_to_end names {sorted(end_to_end)}")
    return failures


def main() -> int:
    failures = [f"BENCHMARK.json: {f}" for f in check_benchmark_json()]
    failures += check_reference_comparison()
    for name in WORKLOADS:
        failures += [f"{name}: {f}" for f in check_workload(name)]
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
