"""Traced run of the `frameavg` CLI, and the per-layer metrics drawn from its spans.

Run as a script, it wraps the functions named in TRACED, and the numpy.linalg
kernels named in KERNELS, in spans; runs `frameavg.cli.main` on the remaining
arguments; and writes the spans as JSON once the CLI returns:

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json sweep --config C.json --jobs 1

A function is replaced in every `frameavg` module namespace that holds it, so
calls from one library module into another get spans too.  A class is traced
through its `__post_init__`, which is where `DensityMatrix` validates.  A name
the library no longer has is skipped and its metrics read 0.  Spans nest
through one stack, so the traced CLI must run with `--jobs 1`.
"""
from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time
from collections import defaultdict

TRACED = {
    "lattice": ("build_hamiltonian", "translation_operator"),
    "operators": ("spectral_decompose", "DensityMatrix", "random_density_matrix", "commutator"),
    "thermal": ("thermal_state", "local_kick", "perturb"),
    "averaging": (
        "conjugated_perturbation",
        "conjugate_normalization",
        "average_translates",
        "weighted_average_translates",
        "temporal_average_matrix",
    ),
    "entropy": ("von_neumann_entropy", "relative_entropy", "bs_relative_entropy"),
    "experiments": ("convergence_sweep", "saturation_scan", "verify_identities"),
    "cli": ("main",),
}
# dense LAPACK calls, reported as the pseudo-layer "linalg"
KERNELS = ("eigh", "eigvalsh", "cholesky")
ROOT_SPAN = "cli.main"
SPAN_NAMES = [f"{layer}.{name}" for layer, names in TRACED.items() for name in names] + [
    f"linalg.{k}" for k in KERNELS
]
LAYERS = (*TRACED, "linalg")


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order.

    `<span>.s` is self time, `<span>.calls` the call count, `<span>.rss_mb`
    the process RSS high-water mark at the latest span end, `linalg.<k>.n3`
    the computed operation count sum(dim^3) / 1e9, and `<layer>.self.s` the
    self time of all the layer's spans.
    """
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.s"] = "s"
        units[f"{name}.calls"] = "count"
        units[f"{name}.rss_mb"] = "MB"
    for k in KERNELS:
        units[f"linalg.{k}.n3"] = "Gdim3"
    for layer in LAYERS:
        units[f"{layer}.self.s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """Spans of one process, kept in memory until `write`."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, name: str, fn, count_dim3: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append({
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "start": start,
                    "end": end,
                    "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                    "dim3": _dim3(args[0] if args else kwargs["a"]) if count_dim3 else 0,
                })

        return traced

    def install(self) -> None:
        import numpy.linalg

        for k in KERNELS:
            setattr(numpy.linalg, k, self.wrap(f"linalg.{k}", getattr(numpy.linalg, k), True))
        modules = {layer: importlib.import_module(f"frameavg.{layer}") for layer in TRACED}
        namespaces = [m for n, m in sys.modules.items() if n.split(".")[0] == "frameavg"]
        for layer, names in TRACED.items():
            for name in names:
                original = getattr(modules[layer], name, None)
                if isinstance(original, type):
                    init = original.__dict__.get("__post_init__")
                    if init is not None:
                        original.__post_init__ = self.wrap(f"{layer}.{name}", init)
                    continue
                if original is None:
                    continue
                traced = self.wrap(f"{layer}.{name}", original)
                for namespace in namespaces:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, attr, traced)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def _dim3(a) -> int:
    """Batch count times dim^3 of a square (stack of) matrices."""
    shape = getattr(a, "shape", ())
    if len(shape) < 2:
        return 0
    batch = 1
    for extent in shape[:-2]:
        batch *= extent
    return batch * shape[-1] ** 3


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id to its duration minus the durations of its direct children."""
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - covered[s["id"]] for s in spans}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """All per-layer metrics except `trace.overhead_s`, which needs an untraced run."""
    units = metric_units()
    metrics = {name: 0 if unit == "count" else 0.0 for name, unit in units.items()}
    del metrics["trace.overhead_s"]
    dim3 = defaultdict(int)
    own = self_times(spans)
    for s in spans:
        name = s["name"]
        metrics[f"{name}.s"] += own[s["id"]]
        metrics[f"{name}.calls"] += 1
        metrics[f"{name}.rss_mb"] = max(metrics[f"{name}.rss_mb"], s["rss_kb"] * 1024 / 1e6)
        metrics[f"{name.split('.')[0]}.self.s"] += own[s["id"]]
        dim3[name] += s["dim3"]
    for k in KERNELS:
        metrics[f"linalg.{k}.n3"] = dim3[f"linalg.{k}"] / 1e9
    return metrics


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        return sys.modules["frameavg.cli"].main(cli_args)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
