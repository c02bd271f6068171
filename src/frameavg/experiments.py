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
    Channel,
    SchurMultiplier,
    averaged_E_stats,
    conjugated_in_eigenbasis,
    conjugated_perturbation,
    eigenbasis_kick,
    frame_average,
    kicked_in_eigenbasis,
)
from .entropy import bs_relative_entropy, relative_entropy, von_neumann_entropy
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
    commutator,
    max_norm,
    operator_norm,
    random_density_matrix,
    trace_product,
)
from .thermal import PerturbationSpec, WorkReport, local_kick, perturb, thermal_state, work

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


# the config key that carries each kind's parameter
_PARAMETER_KEYS = {UNIFORM_SPATIAL: None, WEIGHTED_SPATIAL: "R", TEMPORAL: "tau"}


def _parse_averaging(entries, where: str) -> tuple[AveragingKind, ...]:
    if not isinstance(entries, list) or not entries:
        raise ConfigError(f"{where} must be a nonempty list of channel objects")
    kinds = []
    for i, entry in enumerate(entries):
        spot = f"{where}[{i}]"
        if not isinstance(entry, dict) or "kind" not in entry:
            raise ConfigError(f"{spot} must be an object with a 'kind' key")
        kind = entry["kind"]
        if not isinstance(kind, str) or kind not in _PARAMETER_KEYS:
            raise ConfigError(f"{spot}.kind is unknown: {kind!r}")
        key = _PARAMETER_KEYS[kind]
        try:
            _require_keys(entry, ("kind",) if key is None else ("kind", key), (), spot)
            parameter = None if key is None else _parse_number(entry[key], f"{spot}.{key}")
            kinds.append(AveragingKind(kind, parameter))
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
        return (self.n, *AveragingKind(self.avg_kind, self.avg_param).sort_key())


class _SizeContext:
    """Everything one chain size contributes to every averaging kind.

    Here rho' and the conjugated pair are computational-basis matrices.
    The subclasses hold the pair (`joint_pair`), and for sweeps rho' too
    (`joint_state`), in the joint H-T eigenbasis instead, wherever H was
    diagonalised sector by sector (`in_eigenbasis`).  In that basis
    rho = diag(p) and H = diag(E), every channel is a Schur multiplier
    (`route`), and `fixed_h` and `fixed_rho` hold those diagonals; otherwise
    they are the dense H and rho.  A diagonal H (free spins) stays in the
    computational basis, where the kick's factor builds rho' and E without a
    dense product.
    """

    joint_pair = False
    joint_state = False

    def __init__(self, cfg: ExperimentConfig, n: int):
        self.lattice = LatticeSpec(n)
        hamiltonian = build_hamiltonian(self.lattice, cfg.model)
        self.state = thermal_state(hamiltonian, cfg.beta)
        self.translation = translation_operator(self.lattice)
        self.kick = local_kick(self.lattice, cfg.kick)
        decomp = self.state.hamiltonian_decomp
        self.in_eigenbasis = self.joint_pair and decomp.momenta is not None
        if self.in_eigenbasis:
            u_tilde, normalization = eigenbasis_kick(self.state, self.kick)
        if self.in_eigenbasis and self.joint_state:
            self.rho_prime = kicked_in_eigenbasis(self.state, u_tilde)
            energies = decomp.eigenvalues
            energy_prime = float(np.dot(energies, np.diagonal(self.rho_prime.matrix).real))
            self.work = energy_prime - float(np.dot(energies, self.state.populations))
        else:
            self.rho_prime = perturb(self.state, self.kick)
            energy_prime = self.state.energy(self.rho_prime.matrix)
            self.work = work(hamiltonian, self.state.rho, self.rho_prime)
        self.s_rho = von_neumann_entropy(self.state).nats
        self.s_rho_prime = von_neumann_entropy(self.rho_prime).nats
        self.beta_w = cfg.beta * self.work
        self.rel_ent_prime = max(
            0.0, -self.s_rho_prime + cfg.beta * energy_prime + self.state.log_partition
        )
        # type-level gate: beta W and the relative entropy must agree
        WorkReport(self.work, self.beta_w, self.rel_ent_prime)
        if self.in_eigenbasis:
            self.conjugated = conjugated_in_eigenbasis(self.state, u_tilde, normalization)
            del u_tilde
            self.fixed_h, self.fixed_rho = decomp.eigenvalues, self.state.populations
        else:
            self.conjugated = conjugated_perturbation(self.state, self.kick)
            self.fixed_h, self.fixed_rho = hamiltonian.matrix, self.state.rho.matrix
        # kind-independent: every averaging frame fixes rho, so tr(rho ME)
        # equals tr(rho E) and the factory's conditioned evaluation covers
        # all records
        self.normalization = self.conjugated.normalization

    def route(self, channel: Channel) -> Channel | SchurMultiplier:
        """The channel as it acts in the working basis."""
        if not self.in_eigenbasis:
            return channel
        if channel.eigen is None:
            raise ValueError("the channel has no form in the eigenbasis H was solved in")
        return channel.eigen


class _VerifyContext(_SizeContext):
    """The conjugated pair in the joint eigenbasis, rho' in the computational
    basis, where verify's state route averages it over translations."""

    joint_pair = True


class _SweepContext(_SizeContext):
    """rho' and the conjugated pair both in the joint eigenbasis."""

    joint_pair = True
    joint_state = True


def _pair_trace(y: np.ndarray, b: np.ndarray) -> float:
    """tr(Y B) for a fixed block Y held as a matrix or as its diagonal."""
    if y.ndim == 1:
        return float(np.dot(y, np.diagonal(b).real))
    return trace_product(y, b).real


def _record_for(
    cfg: ExperimentConfig, ctx: _SweepContext, kind: AveragingKind
) -> ExperimentRecord:
    """One sweep row; its wall time covers the channel work, not the size setup.

    The state route and the operator route transform rho' and E separately,
    block by block in the working basis, and the energy pairs the blocks of
    M rho' with those of H itself.
    """
    start = time.perf_counter()
    n = ctx.lattice.sites
    state = ctx.state
    route = ctx.route(kind.bind(state, ctx.translation, n))
    averaged = BlockDensityMatrix(tuple(route.blocks(ctx.rho_prime.matrix)))
    s_m = von_neumann_entropy(averaged).nats
    energy = sum(
        _pair_trace(h, b) for h, b in zip(route.fixed_blocks(ctx.fixed_h), averaged.blocks)
    )
    del averaged
    report, bs_value = averaged_E_stats(
        route.blocks(ctx.conjugated.E.matrix), route.fixed_blocks(ctx.fixed_rho)
    )
    rel_ent_avg = max(0.0, -s_m + cfg.beta * energy + state.log_partition)
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
    kinds = sorted(cfg.averaging, key=AveragingKind.sort_key)

    def run_size(n: int) -> list[ExperimentRecord]:
        ctx = _SweepContext(cfg, n)
        return [_record_for(cfg, ctx, kind) for kind in kinds]

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
    n = cfg.sizes[0]
    ctx = _SizeContext(cfg, n)
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
                conjugated_commutator=operator_norm(commutator(ctx.conjugated.u, evolved)),
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
    ctx = _VerifyContext(cfg, n)
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

    # the operator route: the uniform average of E block by block in the
    # working basis, paired with rho there (the exact populations in the
    # joint eigenbasis); the state route above ran in the computational basis
    uniform = ctx.route(AveragingKind.uniform_spatial().bind(state, ctx.translation, n))
    _, bs_from_me = averaged_E_stats(
        uniform.blocks(ctx.conjugated.E.matrix), uniform.fixed_blocks(ctx.fixed_rho)
    )
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
        channel = kind.bind(state, ctx.translation, n)
        for _ in range(5):
            rho = random_density_matrix(ctx.lattice.dim, int(rng.integers(1 << 31))).matrix
            lhs = channel.apply(commutator(h, rho))
            rhs = commutator(h, channel.apply(rho))
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
