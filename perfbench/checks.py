"""Independent checks of the `frameavg` CLI output.

Every check returns a list of problems; an empty list means the output passed.
The row identities are re-derived from the printed columns, not trusted from
the library's own construction-time gates.
"""
from __future__ import annotations

import csv
import io
import math
import re

CSV_COLUMNS = (
    "model,N,beta,kick_site,kick_strength,avg_kind,avg_param,"
    "S_rho,S_rho_prime,S_M_rho_prime,rel_ent_prime,rel_ent_avg,"
    "bs_rel_ent_avg,beta_W,ME_deviation,entropy_density,wall_time_s"
).split(",")
KEY_COLUMNS = CSV_COLUMNS[:7]
PHYSICS_COLUMNS = CSV_COLUMNS[7:-1]
IDENTITY_NAMES = {
    "unitary-invariance",
    "work-identity",
    "averaging-identity",
    "bs-chain",
    "bs-equality",
    "normalization",
    "gracefulness",
}
ROW_TOL = 1e-9
_VERIFY_LINE = re.compile(
    r"^(\S+)\s+residual\s+(\S+)\s+tolerance\s+(\S+)\s+(PASS|FAIL)$"
)


def check_output(command: str, config: dict, exit_code: int, text: str) -> list[str]:
    """Problems with one CLI run of `command` on `config`."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        return _check_verify(text) if command == "verify" else _check_rows(config, text)
    except (TypeError, ValueError) as exc:
        return [f"malformed output: {exc}"]


def _check_verify(text: str) -> list[str]:
    problems = []
    seen = set()
    for line in text.splitlines():
        match = _VERIFY_LINE.match(line.strip())
        if match is None:
            problems.append(f"unparsable identity line {line!r}")
            continue
        name, residual, tolerance, verdict = match.groups()
        seen.add(name)
        if verdict != "PASS" or not float(residual) <= float(tolerance):
            problems.append(f"identity {name} failed: residual {residual} > {tolerance}")
    if seen != IDENTITY_NAMES:
        problems.append(f"identity lines {sorted(seen)} != {sorted(IDENTITY_NAMES)}")
    return problems


def _param(value) -> float:
    return -math.inf if value in (None, "") else float(value)


def _check_rows(config: dict, text: str) -> list[str]:
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames != CSV_COLUMNS:
        return [f"CSV header {reader.fieldnames} != {CSV_COLUMNS}"]
    rows = list(reader)
    expected = sorted(
        (n, a["kind"], _param(a.get("R", a.get("tau"))))
        for n in config["sizes"]
        for a in config["averaging"]
    )
    got = sorted(
        (int(r["N"]), r["avg_kind"], _param(r["avg_param"])) for r in rows
    )
    if got != expected:
        return [f"rows cover {got}, expected {expected}"]
    problems = []
    kick = config["kick"]
    for i, r in enumerate(rows, start=1):
        where = f"row {i} (N={r['N']}, {r['avg_kind']})"
        if (
            r["model"] != config["model"]["name"]
            or float(r["beta"]) != config["beta"]
            or int(r["kick_site"]) != kick["site"]
            or float(r["kick_strength"]) != kick["strength"]
        ):
            problems.append(f"{where}: model/beta/kick columns do not match the config")
        v = {c: float(r[c]) for c in PHYSICS_COLUMNS}
        if not all(math.isfinite(x) for x in v.values()):
            problems.append(f"{where}: non-finite physics column")
            continue
        checks = {
            "S(rho') = S(rho)": abs(v["S_rho_prime"] - v["S_rho"]),
            "beta W = S(rho'|rho)": abs(v["beta_W"] - v["rel_ent_prime"]),
            "averaged-production decomposition": abs(
                v["rel_ent_avg"]
                - (-v["S_M_rho_prime"] + v["S_rho_prime"] + v["rel_ent_prime"])
            ),
            "0 <= S(M rho'|rho)": -v["rel_ent_avg"],
            "data processing S(M rho'|rho) <= S(rho'|rho)": v["rel_ent_avg"] - v["rel_ent_prime"],
            "Hiai-Petz S(M rho'|rho) <= S_BS(M rho'|rho)": v["rel_ent_avg"] - v["bs_rel_ent_avg"],
        }
        for name, violation in checks.items():
            if violation > ROW_TOL:
                problems.append(f"{where}: {name} violated by {violation:.3e}")
    return problems


def strip_wall_time(command: str, text: str) -> str:
    """The output with the `wall_time_s` column removed; verify output is unchanged."""
    if command == "verify":
        return text
    return "".join(line.rsplit(",", 1)[0] + "\n" for line in text.splitlines())


def compare_reference(stripped: str, reference: str) -> list[str]:
    """Problems where a stripped CSV departs from the recorded reference rows.

    Key columns must match as text; physics columns within ROW_TOL, relative
    to the value once it exceeds 1 in magnitude.
    """
    got = list(csv.DictReader(io.StringIO(stripped)))
    want = list(csv.DictReader(io.StringIO(reference)))
    if len(got) != len(want):
        return [f"{len(got)} rows, reference has {len(want)}"]
    problems = []
    for i, (g, w) in enumerate(zip(got, want), start=1):
        if [g.get(c) for c in KEY_COLUMNS] != [w[c] for c in KEY_COLUMNS]:
            problems.append(f"row {i}: key columns differ from the reference")
            continue
        for c in PHYSICS_COLUMNS:
            ref = float(w[c])
            if not abs(float(g[c]) - ref) <= ROW_TOL * max(1.0, abs(ref)):
                problems.append(f"row {i}: {c} = {g[c]}, reference {w[c]}")
    return problems
