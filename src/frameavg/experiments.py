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
from dataclasses import dataclass, fields

import numpy as np

from .averaging import (
    TEMPORAL,
    UNIFORM_SPATIAL,
    WEIGHTED_SPATIAL,
    AveragingKind,
    Channel,
    ReflectionParity,
    averaged_E_stats,
    conjugated_in_eigenbasis,
    conjugated_kick,
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
    frobenius_norm,
    max_norm,
    operator_norm,
)
from .thermal import PerturbationSpec, local_kick, perturb, thermal_state, work

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
        for name, value in overrides.items():
            # a negative or NaN tolerance fails every residual
            if not value >= 0.0:
                raise ConfigError(
                    f"tolerance_overrides.{name} must be nonnegative, got {value!r}"
                )
        object.__setattr__(self, "tolerance_overrides", overrides)
        seed = int(self.seed)
        if seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {seed}")
        object.__setattr__(self, "seed", seed)

    def tolerance(self, name: str) -> float:
        return self.tolerance_overrides.get(name, IDENTITY_TOLERANCES[name])


def _require_keys(mapping: dict, required: tuple, optional: tuple, where: str):
    unknown = [k for k in mapping if k not in required + optional]
    if unknown:
        raise ConfigError(f"unknown keys {unknown} in {where}")
    missing = [k for k in required if k not in mapping]
    if missing:
        raise ConfigError(f"missing keys {missing} in {where}")


def _parse_integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


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
            _parse_integer(kick_data["site"], "kick.site"),
            _parse_generator(kick_data["generator"], "kick.generator"),
            _parse_number(kick_data["strength"], "kick.strength"),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"kick: {exc}") from None

    if not isinstance(data["sizes"], list):
        raise ConfigError("sizes must be a list of integers")
    sizes = [_parse_integer(n, f"sizes[{i}]") for i, n in enumerate(data["sizes"])]

    overrides = data.get("tolerance_overrides")
    if overrides is not None:
        if not isinstance(overrides, dict):
            raise ConfigError("tolerance_overrides must be an object")
        overrides = {k: _parse_number(v, f"tolerance_overrides.{k}") for k, v in overrides.items()}

    output_path = data.get("output_path")
    if output_path is not None and not isinstance(output_path, str):
        raise ConfigError("output_path must be a string")

    return ExperimentConfig(
        model=model,
        sizes=tuple(sizes),
        beta=_parse_number(data["beta"], "beta"),
        kick=kick,
        averaging=_parse_averaging(data["averaging"], "averaging"),
        seed=_parse_integer(data["seed"], "seed"),
        output_path=output_path,
        tolerance_overrides=overrides,
    )


# peak RSS of each command in units of one complex dim x dim array (16 dim^2
# bytes) at the size that sets it: least squares through the origin on the
# largest peak measured at each of N = 10, 11, 12 (sweep: XXZ and TFI with
# three channels, free spins; saturate runs the same path) or N = 10, 11
# (verify, probe), 2 vCPU, OpenBLAS
PEAK_FACTORS = {"sweep": 2.9, "saturate": 2.9, "verify": 13.0, "probe": 10.2}
MEMINFO = "/proc/meminfo"


def load_config(path: str, command: str | None = None, jobs: int = 1) -> ExperimentConfig:
    """Read and validate a JSON config file, and refuse it if the peak memory
    `command` (by default, each command) is estimated to need with `jobs`
    sizes at once exceeds what the machine has available (`check_capacity`)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    cfg = config_from_mapping(data)
    check_capacity(cfg, command, jobs)
    return cfg


def check_capacity(cfg: ExperimentConfig, command: str | None = None, jobs: int = 1) -> None:
    """Raise ConfigError if a command's estimated peak exceeds MemAvailable in
    MEMINFO.  The estimate is PEAK_FACTORS[command] * 16 dim^2 bytes summed
    over the sizes that may run at once: the `jobs` largest for sweep and
    saturate, whose sizes run on `jobs` threads, the first size for verify
    and probe.  Without a readable MemAvailable nothing is checked."""
    available = _mem_available()
    if available is None:
        return
    for name in PEAK_FACTORS if command is None else (command,):
        sizes = cfg.sizes[-jobs:] if name in ("sweep", "saturate") else cfg.sizes[:1]
        estimate = sum(PEAK_FACTORS[name] * 16 * LatticeSpec(n).dim ** 2 for n in sizes)
        if estimate > available:
            at = ", ".join(str(n) for n in sizes)
            raise ConfigError(
                f"{name} at N={at} is estimated to peak at {estimate / 1e6:.0f} MB, "
                f"above the {available / 1e6:.0f} MB available"
            )


def _mem_available() -> int | None:
    """MemAvailable from MEMINFO in bytes, or None where it cannot be read."""
    try:
        with open(MEMINFO, encoding="ascii") as handle:
            for line in handle:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


@dataclass(frozen=True)
class ExperimentRecord:
    """One sweep row, its fields in CSV_HEADER's column order; construction
    enforces the finite-size-exact identities."""

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
    """One chain size's setup, shared by every averaging kind.

    The state (H held as its bit-flip terms, its dense matrix never built
    here), the kick and the translation, S(rho), and the kick in the joint
    H-T eigenbasis, u~ = V^dag U V, with tr(rho E) evaluated from it.  In
    that basis rho = diag(p) and H = diag(E), and every channel is a Schur
    multiplier (`Channel`).  The reflection about the kicked site (`parity`)
    commutes with all of them, and u~ is built straight into its two parity
    blocks (`u_blocks`), a column slab at a time behind the off-parity gate.
    `conjugated_in_eigenbasis` consumes those blocks into E's, so a caller
    builds rho' from them (`kicked_in_eigenbasis`) first.
    """

    def __init__(self, cfg: ExperimentConfig, n: int):
        self.lattice = LatticeSpec(n)
        self.state = thermal_state(build_hamiltonian(self.lattice, cfg.model), cfg.beta)
        self.translation = translation_operator(self.lattice)
        self.kick = local_kick(self.lattice, cfg.kick)
        self.s_rho = von_neumann_entropy(self.state).nats
        self.parity = ReflectionParity(self.state.hamiltonian_decomp, cfg.kick.site, n)
        # kind-independent: every averaging frame fixes rho, so tr(rho ME)
        # equals tr(rho E) and this conditioned evaluation covers all records
        self.u_blocks, self.normalization = eigenbasis_kick(self.state, self.kick, self.parity)


def _sweep_size(
    cfg: ExperimentConfig, n: int, kinds: list[AveragingKind]
) -> list[ExperimentRecord]:
    """The records of one chain size.  tr(rho E), which every channel keeps,
    is gated once here.  rho' = u~ diag(p) u~^dag is built in the joint
    eigenbasis as its two parity blocks, and tr(H rho') pairs their
    diagonals with the energies.  The state route of every kind runs first,
    and rho' is released before E's blocks consume those of u~, so the two
    routes' blocks are never held at once.  A row's construction gates
    beta W against S(rho'|rho)."""
    ctx = _SizeContext(cfg, n)
    if abs(ctx.normalization - 1.0) > cfg.tolerance("normalization"):
        raise ValueError(f"tr(rho E) = {ctx.normalization!r} drifted from 1 at N={n}")
    state = ctx.state
    kicked = kicked_in_eigenbasis(state, ctx.u_blocks, ctx.parity)
    energies = state.hamiltonian_decomp.eigenvalues
    energy_prime = sum(
        float(np.dot(h, np.diagonal(b).real))
        for h, b in zip(ctx.parity.split(energies), kicked.blocks)
    )
    s_rho_prime = von_neumann_entropy(kicked).nats
    # the fields every row of this size shares
    shared = dict(
        model=cfg.model.model,
        n=n,
        beta=cfg.beta,
        kick_site=cfg.kick.site,
        kick_strength=cfg.kick.strength,
        s_rho=ctx.s_rho,
        s_rho_prime=s_rho_prime,
        rel_ent_prime=state.relative_entropy_of(s_rho_prime, energy_prime),
        beta_w=state.beta * (energy_prime - float(np.dot(energies, state.populations))),
        entropy_density=ctx.s_rho / n,
    )
    channels = [kind.bind(state, ctx.translation, n) for kind in kinds]
    states = [_state_route(ctx, channel, kicked.blocks) for channel in channels]
    del kicked
    # E's blocks are size setup too: built here, so that no row's timer pays for them
    e_blocks = conjugated_in_eigenbasis(state, ctx.u_blocks, ctx.parity)
    return [
        _record_for(ctx, shared, e_blocks, kind, channel, *route)
        for kind, channel, route in zip(kinds, channels, states)
    ]


def _state_route(
    ctx: _SizeContext, channel: Channel, rho_blocks: tuple[np.ndarray, ...]
) -> tuple[float, float, float]:
    """S(M rho'), tr(H M rho') and the seconds they took, from the parity
    blocks of rho' (`Channel.parity_blocks`) paired with the energies on the
    rows of the blocks of M rho'."""
    start = time.perf_counter()
    blocks, rows = channel.parity_blocks(rho_blocks, ctx.parity)
    averaged = BlockDensityMatrix(tuple(blocks))
    del blocks
    energies = ctx.state.hamiltonian_decomp.eigenvalues
    energy = sum(
        float(np.dot(energies[r], np.diagonal(b).real)) for r, b in zip(rows, averaged.blocks)
    )
    return von_neumann_entropy(averaged).nats, energy, time.perf_counter() - start


def _record_for(
    ctx: _SizeContext,
    shared: dict,
    e_blocks: list[np.ndarray],
    kind: AveragingKind,
    channel: Channel,
    s_m: float,
    energy: float,
    state_seconds: float,
) -> ExperimentRecord:
    """One sweep row from the size's `shared` fields and its state route's
    S(M rho') and tr(H M rho'); its wall time covers the channel work of
    both routes, not the size setup.

    The operator route averages the parity blocks of E (`Channel.parity_blocks`),
    and the ME statistics pair the blocks of ME with the populations on
    their rows.  The uniform channel's blocks are its momentum classes inside
    each parity block; the weighted and temporal channels keep the two
    parity blocks whole.
    """
    start = time.perf_counter()
    state = ctx.state
    me_blocks, rows = channel.parity_blocks(e_blocks, ctx.parity)
    report, bs_value = averaged_E_stats(me_blocks, [state.populations[r] for r in rows])
    rel_ent_avg = state.relative_entropy_of(s_m, energy)
    elapsed = state_seconds + time.perf_counter() - start
    return ExperimentRecord(
        **shared,
        avg_kind=kind.kind,
        avg_param=kind.parameter,
        s_m_rho_prime=s_m,
        rel_ent_avg=rel_ent_avg,
        bs_rel_ent_avg=bs_value,
        me_deviation=report.op_norm,
        wall_time_s=elapsed,
    )


def convergence_sweep(cfg: ExperimentConfig, jobs: int = 1) -> list[ExperimentRecord]:
    """One record per (chain size, averaging kind), sorted by (N, kind, parameter).

    With jobs > 1 the sizes run on a thread pool (the heavy numpy calls release
    the interpreter lock); records are sorted before return either way, so the
    output order never depends on scheduling.
    """
    kinds = sorted(cfg.averaging, key=AveragingKind.sort_key)

    if jobs > 1 and len(cfg.sizes) > 1:
        with ThreadPoolExecutor(max_workers=min(jobs, len(cfg.sizes))) as pool:
            batches = list(pool.map(lambda n: _sweep_size(cfg, n, kinds), cfg.sizes))
    else:
        batches = [_sweep_size(cfg, n, kinds) for n in cfg.sizes]
    records = [record for batch in batches for record in batch]
    records.sort(key=ExperimentRecord.sort_key)
    return records


def saturation_scan(cfg: ExperimentConfig, jobs: int = 1) -> list[ExperimentRecord]:
    """Entropy gain versus coarse-graining scale R at one fixed chain size."""
    if len(cfg.sizes) != 1:
        raise ConfigError("saturation scans run at a single chain size")
    if any(k.kind != WEIGHTED_SPATIAL for k in cfg.averaging):
        raise ConfigError("saturation scans take weighted-spatial entries only")
    scales = [k.parameter for k in cfg.averaging]
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
    uncoupled chain never does.  ||[U, A]|| is read as ||U A U^dag - A||,
    through the kick's own conjugation, and u = e^{beta H/2} U e^{-beta H/2}
    is built without E.
    """
    if len(cfg.sizes) != 1:
        raise ConfigError("locality probes run at a single chain size")
    probe_time = float(probe_time)
    if not np.isfinite(probe_time):
        raise ConfigError(f"probe time must be finite, got {probe_time!r}")
    n = cfg.sizes[0]
    lattice = LatticeSpec(n)
    state = thermal_state(build_hamiltonian(lattice, cfg.model), cfg.beta)
    kick = local_kick(lattice, cfg.kick)
    u, _ = conjugated_kick(state, kick)
    decomp = state.hamiltonian_decomp
    phases = np.exp(
        1j
        * probe_time
        * (decomp.eigenvalues[:, np.newaxis] - decomp.eigenvalues[np.newaxis, :])
    )
    probe_matrix = pauli(probe)
    rows = []
    for site in range(n):
        local = embed_site_operator(lattice, SiteOperator(site, probe_matrix))
        evolved = decomp.from_eigenbasis(decomp.to_eigenbasis(local) * phases)
        offset = abs(site - cfg.kick.site)
        rows.append(
            ProbeRow(
                site=site,
                distance=min(offset, n - offset),
                kick_commutator=operator_norm(kick.conjugate(evolved) - evolved),
                conjugated_commutator=operator_norm(commutator(u, evolved)),
            )
        )
    return rows


@dataclass(frozen=True)
class IdentityCheck:
    """One identity's residual against its tolerance; `floor` is the float64
    floor of the residual where one is known (bs-equality: criterion 4's b)."""

    name: str
    residual: float
    tolerance: float
    floor: float | None = None

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
    ctx = _SizeContext(cfg, n)
    state = ctx.state
    rho_prime = perturb(state, ctx.kick)
    s_rho_prime = von_neumann_entropy(rho_prime).nats
    beta_w = state.beta * work(state.hamiltonian, state.rho, rho_prime)
    checks = []

    checks.append(
        IdentityCheck(
            "unitary-invariance",
            abs(s_rho_prime - ctx.s_rho),
            cfg.tolerance("unitary-invariance"),
        )
    )

    rel_prime_direct = relative_entropy(rho_prime, state).nats
    checks.append(
        IdentityCheck(
            "work-identity",
            abs(beta_w - rel_prime_direct),
            cfg.tolerance("work-identity"),
        )
    )

    averaged = frame_average(rho_prime, ctx.translation, n)
    rel_avg = relative_entropy(averaged, state).nats
    decomposition = (
        -von_neumann_entropy(averaged).nats + s_rho_prime + rel_prime_direct
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

    # the operator route: the uniform average of E's parity blocks in the
    # joint eigenbasis, paired with the exact populations there; the state
    # route above ran in the computational basis
    uniform = AveragingKind.uniform_spatial().bind(state, ctx.translation, n)
    e_blocks = conjugated_in_eigenbasis(state, ctx.u_blocks, ctx.parity)
    me_blocks, rows = uniform.parity_blocks(e_blocks, ctx.parity)
    me_report, bs_from_me = averaged_E_stats(me_blocks, [state.populations[r] for r in rows])
    checks.append(
        IdentityCheck(
            "bs-equality",
            abs(bs_direct - bs_from_me),
            cfg.tolerance("bs-equality"),
            me_report.bs_floor,
        )
    )

    checks.append(
        IdentityCheck(
            "normalization",
            abs(ctx.normalization - 1.0),
            cfg.tolerance("normalization"),
        )
    )

    # M[H, X] = [H, M X] is linear in X, so unit-norm Gaussian matrices probe
    # it as well as states would, without certifying each one
    h = state.hamiltonian.matrix
    dim = ctx.lattice.dim
    worst = 0.0
    rng = np.random.default_rng(cfg.seed)
    for kind in cfg.averaging:
        channel = kind.bind(state, ctx.translation, n)
        for _ in range(5):
            x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            x /= frobenius_norm(x)
            lhs = channel.apply(commutator(h, x))
            rhs = commutator(h, channel.apply(x))
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
    """The record's cells in field order, which is CSV_HEADER's."""
    return ",".join(_format_cell(getattr(record, f.name)) for f in fields(record))


def emit_csv(records: list[ExperimentRecord], path: str) -> None:
    """Write records (already sorted) under the fixed header."""
    lines = [CSV_HEADER] + [record_to_row(r) for r in records]
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"failed writing CSV to {path}: {exc}") from exc
