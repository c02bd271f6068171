"""Command-line front end.

Subcommands:
  verify    run the exact-identity suite at the smallest configured size
  sweep     one record per (chain size, averaging kind), CSV out
  saturate  entropy gain versus coarse-graining scale at fixed size
  probe     commutator norms of the kick against evolved site probes

Exit status: 0 all checks passed, 1 check or runtime failure, 2 usage or
configuration error.  Diagnostics go to standard error; data to --output, else
the config's output_path, else standard output.
"""
from __future__ import annotations

import argparse
import sys

from .experiments import (
    CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    convergence_sweep,
    emit_csv,
    load_config,
    locality_probe,
    record_to_row,
    saturation_scan,
    verify_identities,
)
from .operators import EigensolverError

PROBE_HEADER = "site,distance,kick_commutator_norm,conjugated_commutator_norm"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frameavg",
        description="Frame-averaging irreversibility experiments on periodic spin chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_common(p):
        p.add_argument("--config", required=True, help="JSON experiment configuration")
        p.add_argument("--output", help="output file (default: config output_path, else stdout)")
        p.add_argument("--jobs", type=int, choices=(1,), default=1, help="sizes run one at a time")
        return p

    with_common(sub.add_parser("verify", help="run the exact-identity suite"))
    with_common(sub.add_parser("sweep", help="convergence sweep over sizes and channels"))
    with_common(sub.add_parser("saturate", help="coarse-graining saturation scan"))
    probe = with_common(sub.add_parser("probe", help="locality probe of the kick"))
    probe.add_argument("--time", type=float, default=0.5, help="Heisenberg evolution time")
    probe.add_argument("--probe", choices=("X", "Y", "Z"), default="X", help="site probe operator")
    return parser


def _emit(lines: list, output: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if output is None:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise OSError(f"failed writing {output}: {exc}") from exc


def _run_verify(cfg: ExperimentConfig, output: str | None) -> int:
    report = verify_identities(cfg)
    _emit(report.lines(), output)
    for check in report.checks:
        if check.floor is not None:
            print(
                f"{check.name}: float64 floor b = eps ||ME||_op (1 + max|ln lambda(ME)|) "
                f"= {check.floor:.5e}",
                file=sys.stderr,
            )
    if not report.passed:
        print("identity suite FAILED", file=sys.stderr)
        return 1
    return 0


def _run_records(cfg: ExperimentConfig, runner, output: str | None) -> int:
    records = runner(cfg)
    if output is None:
        _emit([CSV_HEADER] + [record_to_row(r) for r in records], None)
    else:
        emit_csv(records, output)
        print(f"wrote {len(records)} records to {output}", file=sys.stderr)
    return 0


def _run_probe(cfg: ExperimentConfig, args, output: str | None) -> int:
    rows = locality_probe(cfg, args.time, probe=args.probe)
    _emit([PROBE_HEADER] + [record_to_row(r) for r in rows], output)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.command)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    output = args.output if args.output is not None else cfg.output_path
    try:
        if args.command == "verify":
            return _run_verify(cfg, output)
        if args.command == "sweep":
            return _run_records(cfg, convergence_sweep, output)
        if args.command == "saturate":
            return _run_records(cfg, saturation_scan, output)
        return _run_probe(cfg, args, output)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, EigensolverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
