"""Experiment harness.

Strict JSON configuration, the exact-identity verification suite, convergence
sweeps over chain length and averaging kind, coarse-graining saturation
scans, a locality probe for kicked chains, and CSV persistence.

Per-record row invariants (entropy invariance under the kick, beta W equal to
the entropy production, the averaged-production decomposition) are enforced
at record construction, so a sweep cannot silently emit rows that violate
the identities it exists to check.
"""
from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .averaging import (
    TEMPORAL,
    UNIFORM_SPATIAL,
    WEIGHTED_SPATIAL,
    AveragingKind,
    DeviationReport,
    MomentumSectors,
    average_translates,
    conjugated_perturbation,
    frame_average,
    temporal_average,
    temporal_average_matrix,
    weighted_average_translates,
    weighted_frame_average,
)
from .entropy import bs_relative_entropy, eta, relative_entropy, von_neumann_entropy
from .lattice import (
    HamiltonianSpec,
    LatticeSizeError,
    LatticeSpec,
    SiteOperator,
    build_hamiltonian,
    embed_site_operator,
    pauli,
    translation_operator,
)
from .operators import (
    BlockDensityMatrix,
    DensityMatrix,
    commutator,
    max_norm,
    operator_norm,
    random_density_matrix,
    trace_product,
)
from .thermal import PerturbationSpec, ThermalState, WorkReport, local_kick, perturb, thermal_state, work

CSV_HEADER = (
    "model,N,beta,kick_site,kick_strength,avg_kind,avg_param,"
    "S_rho,S_rho_prime,S_M_rho_prime,rel_ent_prime,rel_ent_avg,"
    "bs_rel_ent_avg,beta_W,ME_deviation,entropy_density,wall_time_s"
)

IDENTITY_TOLERANCES = {
    "unitary-invariance": 1e-9,
    "work-identity": 1e-9,
    "averaging-identity": 1e-9,
    "bs-chain": 1e-9,
    "bs-equality": 1e-8,
    "gracefulness": 1e-10,
    "normalization": 1e-9,
}


class ConfigError(ValueError):
    """Bad configuration file or field."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: model, chain sizes, temperature, kick, channels."""

    model: HamiltonianSpec
    sizes: tuple[int, ...]
    beta: float
    kick: PerturbationSpec
    averaging: tuple[AveragingKind, ...]
    seed: int
    output_path: str | None = None
    tolerance_overrides: dict[str, float] | None = None

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.sizes)
        if not sizes:
            raise ConfigError("sizes must be a nonempty list")
        if list(sizes) != sorted(set(sizes)):
            raise ConfigError(f"sizes must be strictly ascending, got {list(sizes)}")
        for n in sizes:
            try:
                LatticeSpec(n)
            except LatticeSizeError as exc:
                raise ConfigError(f"size {n} refused: {exc}") from None
            except ValueError as exc:
                raise ConfigError(f"size {n} invalid: {exc}") from None
        object.__setattr__(self, "sizes", sizes)
        beta = float(self.beta)
        if not np.isfinite(beta) or beta < 0.0:
            raise ConfigError(f"beta must be finite and nonnegative, got {self.beta!r}")
        object.__setattr__(self, "beta", beta)
        if self.kick.site >= sizes[0]:
            raise ConfigError(
                f"kick site {self.kick.site} does not fit the smallest chain ({sizes[0]} sites)"
            )
        if not self.averaging:
            raise ConfigError("averaging must list at least one kind")
        overrides = dict(self.tolerance_overrides or {})
        unknown = [k for k in overrides if k not in IDENTITY_TOLERANCES]
        if unknown:
            raise ConfigError(
                f"unknown tolerance_overrides {unknown}; known names: "
                f"{sorted(IDENTITY_TOLERANCES)}"
            )
        object.__setattr__(self, "tolerance_overrides", overrides)
        object.__setattr__(self, "seed", int(self.seed))

    def tolerance(self, name: str) -> float:
        return self.tolerance_overrides.get(name, IDENTITY_TOLERANCES[name])


def _require_keys(mapping: dict, required: tuple, optional: tuple, where: str):
    unknown = [k for k in mapping if k not in required + optional]
    if unknown:
        raise ConfigError(f"unknown keys {unknown} in {where}")
    missing = [k for k in required if k not in mapping]
    if missing:
        raise ConfigError(f"missing keys {missing} in {where}")


def _parse_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    if isinstance(value, str):
        if value.lower() in ("inf", "infinity"):
            return math.inf
        raise ConfigError(f"{where} must be a number, got {value!r}")
    return float(value)


def _parse_generator(value, where: str) -> np.ndarray:
    if isinstance(value, str):
        try:
            return pauli(value)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a Pauli letter or a matrix as nested lists")
    rows = []
    for row in value:
        if not isinstance(row, list):
            raise ConfigError(f"{where} rows must be lists")
        entries = []
        for entry in row:
            if isinstance(entry, list):
                if len(entry) != 2:
                    raise ConfigError(f"{where} complex entries are [re, im] pairs")
                entries.append(complex(entry[0], entry[1]))
            else:
                entries.append(complex(_parse_number(entry, where)))
        rows.append(entries)
    return np.array(rows, dtype=complex)


def _parse_averaging(entries, where: str) -> tuple[AveragingKind, ...]:
    if not isinstance(entries, list) or not entries:
        raise ConfigError(f"{where} must be a nonempty list of channel objects")
    kinds = []
    for i, entry in enumerate(entries):
        spot = f"{where}[{i}]"
        if not isinstance(entry, dict) or "kind" not in entry:
            raise ConfigError(f"{spot} must be an object with a 'kind' key")
        kind = entry["kind"]
        try:
            if kind == UNIFORM_SPATIAL:
                _require_keys(entry, ("kind",), (), spot)
                kinds.append(AveragingKind.uniform_spatial())
            elif kind == WEIGHTED_SPATIAL:
                _require_keys(entry, ("kind", "R"), (), spot)
                kinds.append(AveragingKind.weighted_spatial(_parse_number(entry["R"], f"{spot}.R")))
            elif kind == TEMPORAL:
                _require_keys(entry, ("kind", "tau"), (), spot)
                kinds.append(AveragingKind.temporal(_parse_number(entry["tau"], f"{spot}.tau")))
            else:
                raise ConfigError(f"{spot}.kind is unknown: {kind!r}")
        except ValueError as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"{spot}: {exc}") from None
    return tuple(kinds)


def config_from_mapping(data: dict) -> ExperimentConfig:
    """Build a validated config from parsed JSON; unknown keys are errors."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    _require_keys(
        data,
        ("model", "sizes", "beta", "kick", "averaging", "seed"),
        ("output_path", "tolerance_overrides"),
        "config",
    )
    model_data = data["model"]
    if not isinstance(model_data, dict):
        raise ConfigError("model must be an object")
    _require_keys(model_data, ("name", "couplings"), (), "model")
    if not isinstance(model_data["couplings"], dict):
        raise ConfigError("model.couplings must be an object")
    try:
        model = HamiltonianSpec(model_data["name"], dict(model_data["couplings"]))
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from None

    kick_data = data["kick"]
    if not isinstance(kick_data, dict):
        raise ConfigError("kick must be an object")
    _require_keys(kick_data, ("site", "generator", "strength"), (), "kick")
    try:
        kick = PerturbationSpec(
            int(kick_data["site"]),
            _parse_generator(kick_data["generator"], "kick.generator"),
            _parse_number(kick_data["strength"], "kick.strength"),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"kick: {exc}") from None

    if not isinstance(data["sizes"], list):
        raise ConfigError("sizes must be a list of integers")
    sizes = []
    for n in data["sizes"]:
        if isinstance(n, bool) or not isinstance(n, int):
            raise ConfigError(f"sizes entries must be integers, got {n!r}")
        sizes.append(n)

    overrides = data.get("tolerance_overrides")
    if overrides is not None:
        if not isinstance(overrides, dict):
            raise ConfigError("tolerance_overrides must be an object")
        overrides = {k: _parse_number(v, f"tolerance_overrides.{k}") for k, v in overrides.items()}

    output_path = data.get("output_path")
    if output_path is not None and not isinstance(output_path, str):
        raise ConfigError("output_path must be a string")

    seed = data["seed"]
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"seed must be an integer, got {seed!r}")

    return ExperimentConfig(
        model=model,
        sizes=tuple(sizes),
        beta=_parse_number(data["beta"], "beta"),
        kick=kick,
        averaging=_parse_averaging(data["averaging"], "averaging"),
        seed=seed,
        output_path=output_path,
        tolerance_overrides=overrides,
    )


def load_config(path: str) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    return config_from_mapping(data)


@dataclass(frozen=True)
class ExperimentRecord:
    """One sweep row; construction enforces the finite-size-exact identities."""

    model: str
    n: int
    beta: float
    kick_site: int
    kick_strength: float
    avg_kind: str
    avg_param: float | None
    s_rho: float
    s_rho_prime: float
    s_m_rho_prime: float
    rel_ent_prime: float
    rel_ent_avg: float
    bs_rel_ent_avg: float
    beta_w: float
    me_deviation: float
    entropy_density: float
    wall_time_s: float

    def __post_init__(self):
        if abs(self.s_rho_prime - self.s_rho) > 1e-9:
            raise ValueError(
                f"entropy changed under the kick: S(rho)={self.s_rho!r} "
                f"S(rho')={self.s_rho_prime!r}"
            )
        if abs(self.beta_w - self.rel_ent_prime) > 1e-9:
            raise ValueError(
                f"beta W = {self.beta_w!r} disagrees with S(rho'|rho) = "
                f"{self.rel_ent_prime!r}"
            )
        if self.rel_ent_avg < -1e-10:
            raise ValueError(f"averaged entropy production is negative: {self.rel_ent_avg!r}")
        decomposition = -self.s_m_rho_prime + self.s_rho_prime + self.rel_ent_prime
        if abs(self.rel_ent_avg - decomposition) > 1e-9:
            raise ValueError(
                f"averaged production {self.rel_ent_avg!r} disagrees with its "
                f"decomposition {decomposition!r}"
            )

    def sort_key(self):
        param = self.avg_param if self.avg_param is not None else -math.inf
        return (self.n, self.avg_kind, param)


class _SizeContext:
    """Everything one chain size contributes to every averaging kind."""

    def __init__(self, cfg: ExperimentConfig, n: int):
        self.lattice = LatticeSpec(n)
        hamiltonian = build_hamiltonian(self.lattice, cfg.model)
        self.state = thermal_state(hamiltonian, cfg.beta)
        self.translation = translation_operator(self.lattice)
        self.kick = local_kick(self.lattice, cfg.kick)
        self.rho_prime = perturb(self.state, self.kick)
        self.s_rho = von_neumann_entropy(self.state).nats
        self.s_rho_prime = von_neumann_entropy(self.rho_prime).nats
        self.work = work(hamiltonian, self.state.rho, self.rho_prime)
        self.beta_w = cfg.beta * self.work
        self.rel_ent_prime = max(
            0.0,
            -self.s_rho_prime
            + cfg.beta * self.state.energy(self.rho_prime.matrix)
            + self.state.log_partition,
        )
        # type-level gate: beta W and the relative entropy must agree
        WorkReport(self.work, self.beta_w, self.rel_ent_prime)
        self.conjugated = conjugated_perturbation(self.state, self.kick)
        # kind-independent: every averaging frame fixes rho, so tr(rho ME)
        # equals tr(rho E) and the factory's conditioned evaluation covers
        # all records
        self.normalization = self.conjugated.normalization
        self.sectors = MomentumSectors(self.translation, n)


def _averaged_state(ctx: _SizeContext, kind: AveragingKind) -> DensityMatrix:
    n = ctx.lattice.sites
    if kind.kind == WEIGHTED_SPATIAL:
        return weighted_frame_average(ctx.rho_prime, ctx.translation, n, kind.parameter)
    return temporal_average(ctx.rho_prime, ctx.state.hamiltonian_decomp, kind.parameter)


def _averaged_E(ctx: _SizeContext, kind: AveragingKind) -> np.ndarray:
    n = ctx.lattice.sites
    e = ctx.conjugated.E.matrix
    if kind.kind == WEIGHTED_SPATIAL:
        return weighted_average_translates(e, ctx.translation, n, kind.parameter)
    return temporal_average_matrix(e, ctx.state.hamiltonian_decomp, kind.parameter)


def _averaged_E_stats(averaged_e: np.ndarray, state: ThermalState) -> tuple[DeviationReport, float]:
    """Deviation report plus -tr[rho eta(ME)] from a single eigendecomposition.

    -tr[rho eta(ME)] equals the operator-convex relative entropy
    S_BS(M rho' | rho) because every function of rho is invariant under the
    averaging frames; evaluating it through ME keeps large-beta sweeps away
    from the ill-conditioned rho^{-1/2} arithmetic.
    """
    return _spectral_E_stats(*_weighted_spectrum(averaged_e, state.rho.matrix))


def _weighted_spectrum(a: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the Hermitian part of a, and the weight rho puts on
    each eigenvector."""
    w, v = np.linalg.eigh((a + a.conj().T) / 2)
    return w, np.einsum("ik,ik->k", v.conj(), rho @ v).real


def _spectral_E_stats(w: np.ndarray, q: np.ndarray) -> tuple[DeviationReport, float]:
    """Deviation report and -tr[rho eta(ME)] from the spectrum w of ME and
    the rho-weights q of its eigenvectors."""
    dev = w - 1.0
    report = DeviationReport(
        op_norm=float(np.abs(dev).max()),
        frobenius_norm=float(np.sqrt((dev**2).sum())),
        state_weighted=float(np.sqrt(max((q * dev**2).sum(), 0.0))),
        state_trace=float((q * w).sum()),
    )
    bs_value = max(-float(np.dot(eta(w), q)), 0.0)
    return report, bs_value


def _uniform_stats(ctx: _SizeContext) -> tuple[float, float, DeviationReport, float]:
    """S(M rho'), tr(H M rho'), the ME deviation report and the BS value for
    the uniform frame, from per-sector eigensolves.

    M rho' and ME are block-diagonal over the momentum sectors.  The state
    route and the operator route transform rho' and E separately, and the
    energy pairs the blocks of M rho' with those of H itself.
    """
    sectors = ctx.sectors
    averaged = BlockDensityMatrix(tuple(sectors.blocks(ctx.rho_prime.matrix)))
    s_m = von_neumann_entropy(averaged).nats
    energy = sum(
        trace_product(h, b).real
        for h, b in zip(sectors.blocks(ctx.state.hamiltonian.matrix), averaged.blocks)
    )
    del averaged
    e_blocks = sectors.blocks(ctx.conjugated.E.matrix)
    rho_blocks = sectors.blocks(ctx.state.rho.matrix)
    spectra, weights = zip(*(_weighted_spectrum(e, rho) for e, rho in zip(e_blocks, rho_blocks)))
    report, bs_value = _spectral_E_stats(np.concatenate(spectra), np.concatenate(weights))
    return s_m, energy, report, bs_value


def _record_for(cfg: ExperimentConfig, contexts: dict, n: int, kind: AveragingKind) -> ExperimentRecord:
    start = time.perf_counter()
    if n not in contexts:
        contexts[n] = _SizeContext(cfg, n)
    ctx = contexts[n]
    if kind.kind == UNIFORM_SPATIAL:
        s_m, energy, report, bs_value = _uniform_stats(ctx)
    else:
        averaged = _averaged_state(ctx, kind)
        s_m = von_neumann_entropy(averaged).nats
        energy = ctx.state.energy(averaged.matrix)
        del averaged
        report, bs_value = _averaged_E_stats(_averaged_E(ctx, kind), ctx.state)
    rel_ent_avg = max(0.0, -s_m + cfg.beta * energy + ctx.state.log_partition)
    if abs(ctx.normalization - 1.0) > cfg.tolerance("normalization"):
        raise ValueError(
            f"tr(rho ME) = {ctx.normalization!r} drifted from 1 at N={n}, {kind.kind}"
        )
    elapsed = time.perf_counter() - start
    return ExperimentRecord(
        model=cfg.model.model,
        n=n,
        beta=cfg.beta,
        kick_site=cfg.kick.site,
        kick_strength=cfg.kick.strength,
        avg_kind=kind.kind,
        avg_param=kind.parameter,
        s_rho=ctx.s_rho,
        s_rho_prime=ctx.s_rho_prime,
        s_m_rho_prime=s_m,
        rel_ent_prime=ctx.rel_ent_prime,
        rel_ent_avg=rel_ent_avg,
        bs_rel_ent_avg=bs_value,
        beta_w=ctx.beta_w,
        me_deviation=report.op_norm,
        entropy_density=ctx.s_rho / n,
        wall_time_s=elapsed,
    )


def convergence_sweep(cfg: ExperimentConfig, jobs: int = 1) -> list[ExperimentRecord]:
    """One record per (chain size, averaging kind), sorted by (N, kind, parameter).

    With jobs > 1 the sizes run on a thread pool (the heavy numpy calls release
    the interpreter lock); records are sorted before return either way, so the
    output order never depends on scheduling.
    """
    kinds = sorted(cfg.averaging, key=lambda k: (k.kind, k.parameter if k.parameter is not None else -math.inf))

    def run_size(n: int) -> list[ExperimentRecord]:
        contexts: dict = {}
        return [_record_for(cfg, contexts, n, kind) for kind in kinds]

    if jobs > 1 and len(cfg.sizes) > 1:
        with ThreadPoolExecutor(max_workers=min(jobs, len(cfg.sizes))) as pool:
            batches = list(pool.map(run_size, cfg.sizes))
    else:
        batches = [run_size(n) for n in cfg.sizes]
    records = [record for batch in batches for record in batch]
    records.sort(key=ExperimentRecord.sort_key)
    return records


def saturation_scan(cfg: ExperimentConfig, jobs: int = 1) -> list[ExperimentRecord]:
    """Entropy gain versus coarse-graining scale R at one fixed chain size."""
    if len(cfg.sizes) != 1:
        raise ConfigError("saturation scans run at a single chain size")
    scales = [k.parameter for k in cfg.averaging if k.kind == WEIGHTED_SPATIAL]
    if not scales:
        raise ConfigError("saturation scans need weighted-spatial entries")
    if scales != sorted(scales):
        raise ConfigError("weighted-spatial scales must ascend")
    return convergence_sweep(cfg, jobs=jobs)


@dataclass(frozen=True)
class ProbeRow:
    """Commutator norms of the kick against one site's evolved probe."""

    site: int
    distance: int
    kick_commutator: float
    conjugated_commutator: float


def locality_probe(cfg: ExperimentConfig, probe_time: float, probe: str = "X") -> list[ProbeRow]:
    """Norms of [U, A_j(t)] and [u, A_j(t)] across the chain.

    A_j(t) is the Heisenberg-evolved single-site Pauli probe.  At t = 0 the
    kick commutes exactly with every probe outside its own site; at later
    times the interacting models spread support at a finite speed while the
    uncoupled chain never does.
    """
    if len(cfg.sizes) != 1:
        raise ConfigError("locality probes run at a single chain size")
    probe_time = float(probe_time)
    if not np.isfinite(probe_time):
        raise ConfigError(f"probe time must be finite, got {probe_time!r}")
    contexts: dict = {}
    n = cfg.sizes[0]
    contexts[n] = _SizeContext(cfg, n)
    ctx = contexts[n]
    decomp = ctx.state.hamiltonian_decomp
    phases = np.exp(
        1j
        * probe_time
        * (decomp.eigenvalues[:, np.newaxis] - decomp.eigenvalues[np.newaxis, :])
    )
    probe_matrix = pauli(probe)
    rows = []
    for site in range(n):
        local = embed_site_operator(ctx.lattice, SiteOperator(site, probe_matrix))
        evolved = decomp.from_eigenbasis(decomp.to_eigenbasis(local) * phases)
        offset = abs(site - cfg.kick.site)
        rows.append(
            ProbeRow(
                site=site,
                distance=min(offset, n - offset),
                kick_commutator=operator_norm(commutator(ctx.kick.matrix, evolved)),
                conjugated_commutator=operator_norm(
                    commutator(ctx.conjugated.u, evolved)
                ),
            )
        )
    return rows


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


@dataclass(frozen=True)
class IdentityReport:
    checks: tuple[IdentityCheck, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def lines(self) -> list[str]:
        width = max(len(c.name) for c in self.checks)
        out = []
        for c in self.checks:
            verdict = "PASS" if c.passed else "FAIL"
            out.append(
                f"{c.name:<{width}}  residual {c.residual:12.5e}  "
                f"tolerance {c.tolerance:8.1e}  {verdict}"
            )
        return out


def verify_identities(cfg: ExperimentConfig) -> IdentityReport:
    """Run the exact-identity suite at the smallest configured size."""
    n = cfg.sizes[0]
    contexts: dict = {}
    contexts[n] = _SizeContext(cfg, n)
    ctx = contexts[n]
    state = ctx.state
    checks = []

    checks.append(
        IdentityCheck(
            "unitary-invariance",
            abs(ctx.s_rho_prime - ctx.s_rho),
            cfg.tolerance("unitary-invariance"),
        )
    )

    rel_prime_direct = relative_entropy(ctx.rho_prime, state).nats
    checks.append(
        IdentityCheck(
            "work-identity",
            abs(ctx.beta_w - rel_prime_direct),
            cfg.tolerance("work-identity"),
        )
    )

    averaged = frame_average(ctx.rho_prime, ctx.translation, n)
    rel_avg = relative_entropy(averaged, state).nats
    decomposition = (
        -von_neumann_entropy(averaged).nats + ctx.s_rho_prime + rel_prime_direct
    )
    checks.append(
        IdentityCheck(
            "averaging-identity",
            abs(rel_avg - decomposition),
            cfg.tolerance("averaging-identity"),
        )
    )

    bs_direct = bs_relative_entropy(averaged, state).nats
    chain_violation = max(0.0, -rel_avg, rel_avg - bs_direct)
    checks.append(
        IdentityCheck("bs-chain", chain_violation, cfg.tolerance("bs-chain"))
    )

    me = average_translates(ctx.conjugated.E.matrix, ctx.translation, n)
    _, bs_from_me = _averaged_E_stats(me, state)
    checks.append(
        IdentityCheck(
            "bs-equality", abs(bs_direct - bs_from_me), cfg.tolerance("bs-equality")
        )
    )

    checks.append(
        IdentityCheck(
            "normalization",
            abs(ctx.normalization - 1.0),
            cfg.tolerance("normalization"),
        )
    )

    h = state.hamiltonian.matrix
    worst = 0.0
    rng = np.random.default_rng(cfg.seed)
    for kind in cfg.averaging:
        for _ in range(5):
            rho = random_density_matrix(ctx.lattice.dim, int(rng.integers(1 << 31))).matrix
            c = commutator(h, rho)
            if kind.kind == UNIFORM_SPATIAL:
                lhs = average_translates(c, ctx.translation, n)
                rhs = commutator(h, average_translates(rho, ctx.translation, n))
            elif kind.kind == WEIGHTED_SPATIAL:
                lhs = weighted_average_translates(c, ctx.translation, n, kind.parameter)
                rhs = commutator(
                    h, weighted_average_translates(rho, ctx.translation, n, kind.parameter)
                )
            else:
                lhs = temporal_average_matrix(c, state.hamiltonian_decomp, kind.parameter)
                rhs = commutator(
                    h, temporal_average_matrix(rho, state.hamiltonian_decomp, kind.parameter)
                )
            worst = max(worst, max_norm(lhs - rhs))
    checks.append(IdentityCheck("gracefulness", worst, cfg.tolerance("gracefulness")))

    return IdentityReport(tuple(checks))


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    v = float(value)
    if math.isinf(v):
        return "inf"
    return f"{v:.12g}"


def record_to_row(record: ExperimentRecord) -> str:
    cells = (
        record.model,
        record.n,
        record.beta,
        record.kick_site,
        record.kick_strength,
        record.avg_kind,
        record.avg_param,
        record.s_rho,
        record.s_rho_prime,
        record.s_m_rho_prime,
        record.rel_ent_prime,
        record.rel_ent_avg,
        record.bs_rel_ent_avg,
        record.beta_w,
        record.me_deviation,
        record.entropy_density,
        record.wall_time_s,
    )
    return ",".join(_format_cell(c) for c in cells)


def emit_csv(records: list[ExperimentRecord], path: str) -> None:
    """Write records (already sorted) under the fixed header."""
    lines = [CSV_HEADER] + [record_to_row(r) for r in records]
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"failed writing CSV to {path}: {exc}") from exc
