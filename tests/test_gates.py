"""Every certification gate passes a residual only if residual <= tolerance.

Each gate family is fed a residual just above its tolerance and then a NaN,
and must raise its message both times: a NaN compares false with everything,
so a gate written as `residual > tol` would let it through.  Where the
public path cannot carry a NaN (a state's entries are gated finite first),
the residual's source is patched to return one.  The running maxima that
feed a gate or a verify line must carry a NaN through as well.
"""
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from frameavg import averaging, experiments, operators, thermal
from frameavg.averaging import (
    AveragingKind,
    ReflectionParity,
    _check_trace,
    _kick_blocks,
    conjugated_kick,
)
from frameavg.experiments import (
    ExperimentRecord,
    config_from_mapping,
    convergence_sweep,
    verify_identities,
)
from frameavg.lattice import (
    ChainSymmetry,
    HamiltonianSpec,
    LatticeSpec,
    MomentumSectors,
    SiteOperator,
    build_hamiltonian,
    embed_site_operator,
    pauli,
    translation_operator,
)
from frameavg.operators import (
    HERMITICITY_RTOL,
    PSD_EIGENVALUE_FLOOR,
    RECONSTRUCTION_RTOL,
    TRACE_ATOL,
    UNITARITY_ATOL,
    BlockDensityMatrix,
    DensityMatrix,
    EigensolverError,
    HermitianOperator,
    _check_hermitian,
    _check_unitary,
    _sector_decompose,
    hermitian_part,
    max_norm,
    spectral_decompose,
)
from frameavg.thermal import (
    PerturbationSpec,
    ThermalState,
    WorkReport,
    local_kick,
    thermal_state,
    work,
)

NAN = float("nan")
XXZ = HamiltonianSpec("heisenberg-xxz", {"J": 1.0, "delta": 0.5})
TFI = HamiltonianSpec("transverse-field-ising", {"J": 1.0, "g": 0.9})


def above(tolerance: float) -> float:
    """A residual just above the tolerance, by more than the round-off of
    a residual read as the distance of 1 + r from 1."""
    return tolerance * (1 + 1e-4)


def _record(**fields) -> ExperimentRecord:
    """A record whose identities hold exactly, with `fields` replaced."""
    values = dict(
        model="free-spins", n=4, beta=1.0, kick_site=0, kick_strength=0.7,
        avg_kind="uniform-spatial", avg_param=None, s_rho=0.0, s_rho_prime=0.0,
        s_m_rho_prime=0.0, rel_ent_prime=0.0, rel_ent_avg=0.0, bs_rel_ent_avg=0.0,
        beta_w=0.0, me_deviation=0.0, entropy_density=0.0, wall_time_s=0.0,
    )
    values.update(fields)
    return ExperimentRecord(**values)


def _unchecked_blocks(monkeypatch):
    """Let BlockDensityMatrix see its blocks as given, past the Hermitian
    gate's finite check, so a NaN reaches its trace and PSD gates."""
    monkeypatch.setattr(
        operators, "HermitianOperator", lambda b: SimpleNamespace(matrix=np.asarray(b, complex))
    )


def _psd(monkeypatch, lowest):
    _unchecked_blocks(monkeypatch)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda b: np.array([lowest, 1.0]))
    BlockDensityMatrix((np.diag([0.5, 0.5]),))


def _normalization(monkeypatch, value):
    """tr(rho E) as the conditioned evaluation of every route reads it."""
    monkeypatch.setattr(averaging, "_normalization", lambda *a: value)


def _sweep(monkeypatch, residual):
    _normalization(monkeypatch, 1.0 + residual)
    mapping = {
        "model": {"name": "free-spins", "couplings": {"h": 1.0}},
        "sizes": [4],
        "beta": 1.0,
        "kick": {"site": 0, "generator": "X", "strength": 0.7},
        "averaging": [{"kind": "uniform-spatial"}],
        "seed": 7,
    }
    convergence_sweep(config_from_mapping(mapping))


def _conjugated_kick(monkeypatch, residual):
    _normalization(monkeypatch, 1.0 + residual)
    h = build_hamiltonian(LatticeSpec(4), XXZ)
    kick = local_kick(LatticeSpec(4), PerturbationSpec(0, "X", 0.7))
    conjugated_kick(thermal_state(h, 1.0), kick)


def _work(monkeypatch, residual):
    """work's check that tr(H (rho' - rho)) is real, at an imaginary part
    of `residual` on a real part of 1."""
    monkeypatch.setattr(thermal, "trace_product", lambda a, b: complex(1.0, residual))
    half = DensityMatrix(np.eye(2) / 2)
    work(HermitianOperator(np.eye(2)), half, half)


def _off_label(residual, flip_pair):
    """ReflectionParity.gate on one entry between two labelled blocks, of
    different flip signs or of the same one."""
    h = build_hamiltonian(LatticeSpec(4), XXZ)
    parity = ReflectionParity(spectral_decompose(h, ChainSymmetry(4, flip="X")), 0)
    labels = parity.labels
    p, q = next(
        (p, q)
        for p in range(len(labels))
        for q in range(len(labels))
        if p != q and (labels[p][0] != labels[q][0]) == flip_pair
    )
    parity.gate({(p, q): residual}, 1.0)


def _real_gate(residual):
    """The real gate of `_kick_blocks` on a two-site chain, whose one
    labelled block leaves no off-label entries: a stand-in kick adds an
    imaginary part of `residual` to every column."""
    h = build_hamiltonian(LatticeSpec(2), TFI)
    decomp = spectral_decompose(h, ChainSymmetry(2, real="I"))
    parity = ReflectionParity(decomp, 0)
    assert len(parity.vectors) == 1
    scale = 1 / np.sqrt(1 + residual**2) if np.isfinite(residual) else 1.0
    kick = SimpleNamespace(apply=lambda x: x * complex(scale, residual * scale))
    _kick_blocks(decomp, kick, parity)


def _translation(monkeypatch, residual):
    h = build_hamiltonian(LatticeSpec(4), XXZ)
    if not np.isnan(residual):
        residual = above(RECONSTRUCTION_RTOL * max(1.0, max_norm(h.entries()[2])))
    monkeypatch.setattr(MomentumSectors, "translation_defect", lambda self, *a: residual)
    spectral_decompose(h)


def _site_sum(n, *letters) -> np.ndarray:
    """sum_j prod_m s_m acting on sites j + m, for letters s_0, s_1, ..."""
    lattice = LatticeSpec(n)
    total = 0
    for j in range(n):
        term = np.eye(lattice.dim, dtype=complex)
        for m, letter in enumerate(letters):
            term = term @ embed_site_operator(lattice, SiteOperator((j + m) % n, pauli(letter)))
        total = total + term
    return total


# a term B that commutes with the translation and breaks one symmetry of the
# sector solve of H + delta B: (model, B, flip, real, the first block, in
# the solve's order, that a NaN run makes NaN).  At N = 4 the blocks come
# as sector 0, sector 1, the mirrored sector 3 and sector 2; R_0 fixes every
# state of sector 0, so B's reflection gate is the mirrored block's, and
# sector 1 has no label, so its block meets the antiunitary gate first
BREAKS = {
    "flip": (XXZ, lambda: _site_sum(4, "Z"), "X", None, 1),
    "reflection": (XXZ, lambda: _site_sum(4, "X", "Y") - _site_sum(4, "Y", "X"), None, None, 3),
    "antiunitary": (TFI, lambda: _site_sum(4, "Y"), None, "I", 2),
}


def _broken(monkeypatch, residual, which):
    """The sector solve of H + delta B at delta just above the tolerance of
    the gate B breaks: a first solve at delta = 1e-6 reads the residual and
    the tolerance off the gate's message (to 4 digits), and the residual is
    linear in delta.  A NaN run solves H with NaN blocks instead."""
    spec, breaking, flip, real, nan_block = BREAKS[which]
    symmetry = ChainSymmetry(4, flip, real)
    lattice = LatticeSpec(4)
    h = build_hamiltonian(lattice, spec).matrix
    sectors = MomentumSectors(translation_operator(lattice), 4)
    if np.isnan(residual):
        op, part, calls = HermitianOperator(h), operators.hermitian_part, []

        def nan_from(a):
            calls.append(a)
            return (np.full(a.shape, NAN, complex), 0.0) if len(calls) >= nan_block else part(a)

        monkeypatch.setattr(operators, "hermitian_part", nan_from)
        _sector_decompose(op, sectors, symmetry)
    with pytest.raises(ValueError) as first:
        _sector_decompose(HermitianOperator(h + 1e-6 * breaking()), sectors, symmetry)
    reach, tol = (float(x) for x in re.findall(r"reach (\S+), above (\S+)$", str(first.value))[0])
    delta = 1e-6 * tol / reach * (1 + 1e-2)
    _sector_decompose(HermitianOperator(h + delta * breaking()), sectors, symmetry)


# family: (trigger(monkeypatch, residual), tolerance, or None where the
# trigger places a residual just above it itself, and the gate's message)
FAMILIES = {
    "hermitian": (
        lambda mp, r: _check_hermitian(r, 1.0),
        HERMITICITY_RTOL,
        "matrix is not Hermitian: anti-Hermitian defect",
    ),
    "unitary": (
        lambda mp, r: _check_unitary(np.array([[np.sqrt(1 + r)]])),
        UNITARITY_ATOL,
        r"matrix is not unitary: \|U\^dag U - 1\|",
    ),
    "state-trace": (
        lambda mp, r: (_unchecked_blocks(mp), BlockDensityMatrix((np.array([[1 + r]]),))),
        TRACE_ATOL,
        "trace .* is not 1 within",
    ),
    "psd": (
        lambda mp, r: _psd(mp, -r),
        -PSD_EIGENVALUE_FLOOR,
        "matrix is not positive semidefinite: min eigenvalue",
    ),
    "tr-rho-E": (lambda mp, r: _check_trace(1 + r, 1, 0.0), 1e-9, r"tr\(rho E\) = .* is not 1"),
    "tr-rho-E-kick": (_conjugated_kick, 1e-9, r"tr\(rho E\) = .* is not 1 within 1e-9"),
    "tr-rho-E-sweep": (_sweep, 1e-9, r"tr\(rho E\) = .* drifted from 1 at N=4"),
    "record-entropy": (
        lambda mp, r: _record(s_rho_prime=r), 1e-9, "entropy changed under the kick"
    ),
    "record-work": (lambda mp, r: _record(beta_w=r), 1e-9, r"beta W = .* disagrees with S"),
    "record-negative": (
        lambda mp, r: _record(rel_ent_avg=-r, s_m_rho_prime=r),
        1e-10,
        "averaged entropy production is negative",
    ),
    "record-decomposition": (
        lambda mp, r: _record(s_m_rho_prime=-r),
        1e-9,
        "disagrees with its decomposition",
    ),
    "work-report": (
        lambda mp, r: WorkReport(work=0.0, beta_work=r, relative_entropy_check=0.0),
        1e-9,
        "beta \\* W and the relative entropy of the kicked state disagree",
    ),
    "work-imaginary": (_work, 1e-10, "work came out non-real"),
    "off-flip": (
        lambda mp, r: _off_label(r, True),
        1e-10,
        "matrix does not commute with the spin flip prod X: off-flip entries reach",
    ),
    "off-parity": (
        lambda mp, r: _off_label(r, False),
        1e-10,
        "matrix does not commute with the reflection about the kicked site: off-parity",
    ),
    "real": (
        lambda mp, r: _real_gate(r),
        1e-10,
        "matrix does not commute with the antiunitary prod I K: imaginary entries reach",
    ),
    "sector-translation": (
        _translation,
        None,
        "operator does not commute with the translation of its sectors: off-sector",
    ),
    "sector-flip": (
        lambda mp, r: _broken(mp, r, "flip"),
        None,
        "operator does not commute with the spin flip prod X of its sectors: off-flip",
    ),
    "sector-reflection": (
        lambda mp, r: _broken(mp, r, "reflection"),
        None,
        "operator does not commute with the site reflection of its sectors: off-parity",
    ),
    "sector-antiunitary": (
        lambda mp, r: _broken(mp, r, "antiunitary"),
        None,
        "operator does not commute with the antiunitary prod I K of its sectors: imaginary",
    ),
}


@pytest.mark.parametrize("residual", ("above", "nan"))
@pytest.mark.parametrize("family", FAMILIES)
def test_a_gate_fails_just_above_its_tolerance_and_on_nan(monkeypatch, family, residual):
    trigger, tolerance, message = FAMILIES[family]
    if residual == "nan":
        value = NAN
    else:
        value = above(tolerance) if tolerance is not None else 0.0
    with pytest.raises(ValueError, match=message):
        trigger(monkeypatch, value)


@pytest.mark.parametrize("failure", ("lapack", "below", "above", "nan"))
@pytest.mark.parametrize("form", ("dense", "sector"))
def test_every_eigensolve_of_h_is_gated_by_one_routine(monkeypatch, form, failure):
    # the dense solve and each sector block's solve both go through
    # `_certified_eigh`: a LAPACK failure, a reconstruction residual above
    # RECONSTRUCTION_RTOL of the operator's scale (every eigenvalue shifted
    # by delta leaves a residual of delta) or a NaN raises EigensolverError
    # there, naming the whole operator's dim and scale
    h = build_hamiltonian(LatticeSpec(4), XXZ)
    op = h if form == "sector" else HermitianOperator(h.matrix)
    scale = max_norm(h.matrix)
    tol = RECONSTRUCTION_RTOL * max(1.0, scale)
    shift = {"below": tol * (1 - 1e-2), "above": tol * (1 + 1e-2), "nan": NAN}.get(failure)
    eigh, certified, raised = np.linalg.eigh, operators._certified_eigh, []

    def broken(block):
        if failure == "lapack":
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        w, v = eigh(block)
        return w + shift, v

    def spy(*args):
        try:
            return certified(*args)
        except EigensolverError as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(np.linalg, "eigh", broken)
    monkeypatch.setattr(operators, "_certified_eigh", spy)
    if failure == "below":
        spectral_decompose(op)
        return
    with pytest.raises(EigensolverError, match="on a 16x16 Hermitian matrix") as info:
        spectral_decompose(op)
    assert raised and raised[-1] is info.value
    assert (info.value.dim, info.value.scale) == (16, scale)


# the fields the record's four identities read
IDENTITY_FIELDS = (
    "s_rho", "s_rho_prime", "s_m_rho_prime", "rel_ent_prime", "rel_ent_avg", "beta_w"
)


@pytest.mark.parametrize("field", IDENTITY_FIELDS)
def test_a_record_with_a_nan_identity_field_is_refused(field):
    _record()
    with pytest.raises(ValueError):
        _record(**{field: NAN})


@pytest.mark.parametrize("field", ("beta_work", "relative_entropy_check"))
def test_a_work_report_with_a_nan_field_is_refused(field):
    fields = dict(work=0.0, beta_work=0.0, relative_entropy_check=0.0)
    WorkReport(**fields)
    with pytest.raises(ValueError, match="disagree"):
        WorkReport(**{**fields, field: NAN})


def test_the_sweep_refuses_a_nan_relative_entropy(monkeypatch):
    # relative_entropy_of passes a NaN on for the record's gate
    monkeypatch.setattr(ThermalState, "relative_entropy_of", lambda *a: NAN)
    with pytest.raises(ValueError, match="disagrees with S"):
        _sweep(monkeypatch, 0.0)


# Python's max drops a NaN unless it comes first: max(0.0, nan) is 0.0


def test_a_nan_flip_coefficient_is_refused():
    with pytest.raises(ValueError, match="contains non-finite entries"):
        HermitianOperator(diagonal=[1, 2, 3, 4], flips=[(1, [0.5, NAN, 0.5, NAN])])


def test_the_hermitian_part_carries_a_nan_defect():
    _, defect = hermitian_part(np.array([[1.0, NAN], [0.0, 1.0]]))
    assert np.isnan(defect)


def _verify_lines():
    """The verdict of each line of a small verify report, by check name."""
    cfg = config_from_mapping(
        {
            "model": {"name": "transverse-field-ising", "couplings": {"J": 1.0, "g": 0.9}},
            "sizes": [4],
            "beta": 1.0,
            "kick": {"site": 1, "generator": "X", "strength": 0.7},
            "averaging": [{"kind": "uniform-spatial"}, {"kind": "temporal", "tau": 1.5}],
            "seed": 7,
        }
    )
    return {line.split()[0]: line.split()[-1] for line in verify_identities(cfg).lines()}


def test_a_nan_commutator_fails_the_gracefulness_line(monkeypatch):
    assert _verify_lines()["gracefulness"] == "PASS"
    bind = AveragingKind.bind

    def nan_apply(self, state):
        channel = bind(self, state)
        return replace(channel, apply=lambda a: np.full(np.shape(a), NAN, complex))

    monkeypatch.setattr(AveragingKind, "bind", nan_apply)
    assert _verify_lines()["gracefulness"] == "FAIL"


def test_a_nan_bs_entropy_fails_the_chain_line(monkeypatch):
    assert _verify_lines()["bs-chain"] == "PASS"
    monkeypatch.setattr(experiments, "bs_relative_entropy", lambda *a: SimpleNamespace(nats=NAN))
    assert _verify_lines()["bs-chain"] == "FAIL"
