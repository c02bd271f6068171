"""Irreversibility maps built from frame averaging.

Three channels: the uniform cyclic average over all chain translations, the
exponentially weighted spatial average at coarse-graining scale R, and the
temporal average with Lorentzian weight 1 / (1 + i omega tau) in the energy
eigenbasis (exact dephasing over degenerate blocks at tau = infinity).  Each
is a convex mixture of unitary conjugations that fix the Gibbs state, hence
trace preserving, positivity preserving, and entropy non-decreasing.

`AveragingKind.bind` turns a kind into a `Channel` for one chain, the one
place that dispatches on the kind tag.  A channel applies itself densely and
also hands back the blocks of its output in a basis where it acts block by
block: `MomentumSectors` gives the N momentum sectors of the uniform average;
the weighted and temporal averages give one block, the dense averaged matrix.
Operators the channel fixes (H, rho) come back in the same basis, so
entropies, energies and the ME statistics are sums over blocks.

The module also builds the conjugated-kick pair u = e^{beta H/2} U e^{-beta H/2}
and E = u u^dag whose frame average tending to the identity controls how the
averaged entropy production dies off with system size.

Summation order inside every average is fixed left to right, so repeated runs
produce bit-identical results.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .entropy import eta
from .operators import (
    DensityMatrix,
    HermitianOperator,
    OverflowGuardError,
    SpectralDecomposition,
    UnitaryOperator,
    max_norm,
    trace_product,
)
from .thermal import ThermalState

UNIFORM_SPATIAL = "uniform-spatial"
WEIGHTED_SPATIAL = "weighted-spatial"
TEMPORAL = "temporal"

# below this, the Lorentzian weights are indistinguishable from 1
TAU_IDENTITY_FLOOR = 1e-12

# eigenvalues closer than this fraction of the spectral width dephase as one block
DEGENERACY_RTOL = 1e-10


@dataclass(frozen=True)
class AveragingKind:
    """Channel selector: kind tag plus its scale parameter.

    parameter is the coarse-graining scale R for weighted-spatial, the memory
    time tau for temporal (may be inf), and absent for uniform-spatial.
    """

    kind: str
    parameter: float | None = None

    def __post_init__(self):
        if self.kind == UNIFORM_SPATIAL:
            if self.parameter is not None:
                raise ValueError("uniform-spatial takes no parameter")
            return
        if self.kind == WEIGHTED_SPATIAL:
            if self.parameter is None or not np.isfinite(self.parameter) or self.parameter <= 0:
                raise ValueError(f"weighted-spatial needs a finite R > 0, got {self.parameter!r}")
        elif self.kind == TEMPORAL:
            if self.parameter is None or np.isnan(self.parameter) or self.parameter <= 0:
                raise ValueError(f"temporal needs tau > 0 (inf allowed), got {self.parameter!r}")
        else:
            raise ValueError(
                f"unknown averaging kind {self.kind!r}, expected one of "
                f"{UNIFORM_SPATIAL!r}, {WEIGHTED_SPATIAL!r}, {TEMPORAL!r}"
            )
        object.__setattr__(self, "parameter", float(self.parameter))

    @classmethod
    def uniform_spatial(cls) -> "AveragingKind":
        return cls(UNIFORM_SPATIAL)

    @classmethod
    def weighted_spatial(cls, R: float) -> "AveragingKind":
        return cls(WEIGHTED_SPATIAL, R)

    @classmethod
    def temporal(cls, tau: float) -> "AveragingKind":
        return cls(TEMPORAL, tau)

    def sort_key(self) -> tuple[str, float]:
        """Order by kind tag, then by parameter; the absent one sorts first."""
        return (self.kind, self.parameter if self.parameter is not None else -np.inf)

    def bind(self, state: ThermalState, t: UnitaryOperator, n_terms: int) -> "Channel":
        """This kind as a channel on the n_terms-site chain of `state`, whose
        translation is t."""
        if self.kind == UNIFORM_SPATIAL:
            sectors = MomentumSectors(t, n_terms)
            return Channel(
                lambda a: average_translates(a, t, n_terms), sectors.blocks, sectors.blocks
            )
        if self.kind == WEIGHTED_SPATIAL:
            def apply(a):
                return weighted_average_translates(a, t, n_terms, self.parameter)
        else:
            def apply(a):
                return temporal_average_matrix(a, state.hamiltonian_decomp, self.parameter)
        return Channel(apply, lambda a: [apply(a)], lambda a: [a])


@dataclass(frozen=True)
class Channel:
    """An averaging map M bound to one chain.

    apply(X) is the dense M X.  blocks(X) are the diagonal blocks of M X in a
    basis where M X is block-diagonal, and fixed_blocks(Y) the blocks of an
    operator M leaves fixed (H, rho) in the same basis, so tr(Y M X) and the
    spectrum of M X are sums and unions over blocks: the N momentum sectors
    for the uniform average, one block (the whole matrix) otherwise.
    """

    apply: Callable[[np.ndarray], np.ndarray]
    blocks: Callable[[np.ndarray], list[np.ndarray]]
    fixed_blocks: Callable[[np.ndarray], list[np.ndarray]]


def _translate_conjugations(a: np.ndarray, t: UnitaryOperator, n_terms: int, weights):
    """sum_n w_n T^n a T^-n with fixed left-to-right accumulation.

    Verifies T^n_terms = 1 along the way and raises if the order is off.
    """
    dim = a.shape[0]
    if t.dim != dim:
        raise ValueError(f"dimension mismatch: matrix {dim}, translation {t.dim}")
    if n_terms < 1:
        raise ValueError("need at least one term")
    if t.permutation is not None:
        perm = t.permutation
        inv = np.empty_like(perm)
        inv[perm] = np.arange(dim)
        acc = weights[0] * a
        cur = inv
        for n in range(1, n_terms):
            if weights[n] != 0.0:
                acc = acc + weights[n] * a[np.ix_(cur, cur)]
            cur = cur[inv]
        if not np.array_equal(cur, np.arange(dim)):
            raise ValueError(f"translation operator does not have order {n_terms}")
        return acc
    tm = t.matrix
    td = tm.conj().T
    acc = weights[0] * a
    cur = a
    power = tm
    for n in range(1, n_terms):
        cur = tm @ cur @ td
        if weights[n] != 0.0:
            acc = acc + weights[n] * cur
        if n < n_terms - 1:
            power = tm @ power
    if max_norm(tm @ power - np.eye(dim)) > 1e-10:
        raise ValueError(f"translation operator does not have order {n_terms}")
    return acc


def average_translates(a: np.ndarray, t: UnitaryOperator, n_terms: int) -> np.ndarray:
    """(1/N) sum_n T^n a T^-n for an arbitrary square matrix."""
    return _translate_conjugations(a, t, n_terms, np.full(n_terms, 1.0 / n_terms))


class MomentumSectors:
    """Block-diagonalizer of the uniform translation average.

    The uniform average of X over the N translates is the projection onto the
    eigenspaces of T, so in the momentum basis F it keeps exactly the N
    diagonal blocks of F^dag X F.  The basis is built from the orbits r of
    the basis permutation: with L_r the orbit length, sector k holds the
    orbits with N | k L_r, through the vectors

        |r, k> = (sqrt(L_r) / N) sum_{n < N} e^{-2 pi i k n / N} T^n |r>,

    which satisfy T |r, k> = e^{2 pi i k / N} |r, k>.  The sector dimensions
    sum to dim (Sandvik, arXiv:1101.3281, section 4).
    """

    def __init__(self, t: UnitaryOperator, n_terms: int):
        if n_terms < 1:
            raise ValueError("need at least one term")
        if t.permutation is None:
            raise ValueError(
                "momentum sectors need a translation that carries its basis permutation"
            )
        dim = t.dim
        # shifts[n, i] is the basis index of T^n e_i
        shifts = np.empty((n_terms, dim), dtype=np.intp)
        shifts[0] = np.arange(dim)
        for n in range(1, n_terms):
            shifts[n] = t.permutation[shifts[n - 1]]
        if not np.array_equal(t.permutation[shifts[-1]], shifts[0]):
            raise ValueError(f"translation operator does not have order {n_terms}")
        reps = np.nonzero(shifts.min(axis=0) == shifts[0])[0]
        self.dim = dim
        self._orbits = shifts[:, reps].T
        returns = shifts[1:, reps] == reps
        lengths = np.where(returns.any(axis=0), returns.argmax(axis=0) + 1, n_terms)
        self._scale = np.sqrt(np.outer(lengths, lengths)) / n_terms
        k = np.arange(n_terms)
        self._phases = np.exp(-2j * np.pi * np.outer(k, k) / n_terms)
        allowed = np.outer(k, lengths) % n_terms == 0
        self._members = [np.nonzero(row)[0] for row in allowed]

    @property
    def dims(self) -> tuple[int, ...]:
        """Sector dimensions in momentum order k = 0 .. N-1."""
        return tuple(m.size for m in self._members)

    def blocks(self, a: np.ndarray) -> list[np.ndarray]:
        """The N diagonal blocks of F^dag a F, in momentum order.

        One orbit's rows are gathered at a time and transformed by an FFT
        over the shift index, so the transient stays near N x dim entries.
        """
        a = np.asarray(a)
        if a.shape != (self.dim, self.dim):
            raise ValueError(f"dimension mismatch: matrix {a.shape}, sectors {self.dim}")
        n_orbits, n = self._orbits.shape
        cols = self._orbits.ravel()
        full = np.empty((n_orbits, n, n_orbits), dtype=np.complex128)
        for r, rows in enumerate(self._orbits):
            slab = np.fft.ifft(a[np.ix_(rows, cols)].reshape(n, n_orbits, n), axis=0)
            full[r] = np.einsum("krm,km->kr", slab, self._phases)
        full *= self._scale[:, np.newaxis, :]
        return [full[np.ix_(m, [k], m)][:, 0, :] for k, m in enumerate(self._members)]


def distance_weights(n_terms: int, scale: float) -> np.ndarray:
    """Normalized weights exp(-min(n, N-n) / R) over the cyclic shifts."""
    if not np.isfinite(scale) or scale <= 0:
        raise ValueError(f"scale must be finite and positive, got {scale!r}")
    n = np.arange(n_terms)
    dist = np.minimum(n, n_terms - n)
    w = np.exp(-dist / scale)
    return w / w.sum()


def weighted_average_translates(
    a: np.ndarray, t: UnitaryOperator, n_terms: int, scale: float
) -> np.ndarray:
    """Distance-weighted mixture of translates at coarse-graining scale R."""
    return _translate_conjugations(a, t, n_terms, distance_weights(n_terms, scale))


def temporal_average_matrix(
    a: np.ndarray, decomp: SpectralDecomposition, tau: float
) -> np.ndarray:
    """Damp energy-basis off-diagonals by 1 / (1 + i (E_m - E_n) tau).

    tau below TAU_IDENTITY_FLOOR returns the input unchanged; tau = inf keeps
    only matrix elements inside degenerate blocks (gap below DEGENERACY_RTOL
    of the spectral width), the exact long-memory dephasing limit.
    """
    a = np.asarray(a, dtype=complex)
    if a.shape[0] != decomp.dim:
        raise ValueError(f"dimension mismatch: matrix {a.shape[0]}, spectrum {decomp.dim}")
    if not np.isinf(tau) and tau < TAU_IDENTITY_FLOOR:
        return a.copy()
    energies = decomp.eigenvalues
    gaps = energies[:, np.newaxis] - energies[np.newaxis, :]
    if np.isinf(tau):
        width = energies[-1] - energies[0]
        if width == 0.0:
            return a.copy()
        weights = (np.abs(gaps) < DEGENERACY_RTOL * width).astype(complex)
    else:
        weights = 1.0 / (1.0 + 1j * gaps * tau)
    return decomp.from_eigenbasis(decomp.to_eigenbasis(a) * weights)


def frame_average(rho: DensityMatrix, t: UnitaryOperator, n_terms: int) -> DensityMatrix:
    """Uniform mixture of all cyclic translates of a state."""
    return DensityMatrix(average_translates(rho.matrix, t, n_terms))


def weighted_frame_average(
    rho: DensityMatrix, t: UnitaryOperator, n_terms: int, scale: float
) -> DensityMatrix:
    """Distance-weighted mixture of translates; flat as R grows, identity as R -> 0."""
    return DensityMatrix(weighted_average_translates(rho.matrix, t, n_terms, scale))


def temporal_average(
    rho: DensityMatrix, decomp: SpectralDecomposition, tau: float
) -> DensityMatrix:
    """Time-averaged state with exponential memory tau."""
    return DensityMatrix(temporal_average_matrix(rho.matrix, decomp, tau))


@dataclass(frozen=True)
class ConjugatedPerturbation:
    """The pair u = e^{beta H/2} U e^{-beta H/2} and E = u u^dag.

    Carries the thermal state it was built from so the normalization
    tr(rho E) = 1 can be certified here and reused by deviation reports.
    The dense trace here can only be trusted to round-off at the scale of
    the largest entry of E, so the tolerance grows with that scale; the
    factory certifies the same identity to 1e-9 at every beta through a
    positive-term evaluation in the energy eigenbasis and records that value
    as `normalization` (None when the pair was built by hand).
    """

    u: np.ndarray
    E: HermitianOperator
    state: ThermalState
    normalization: float | None = None

    def __post_init__(self):
        norm = trace_product(self.state.rho.matrix, self.E.matrix).real
        slack = 1e-9 + self.E.dim * np.finfo(np.float64).eps * max_norm(self.E.matrix)
        if abs(norm - 1.0) > slack:
            raise ValueError(f"tr(rho E) = {norm!r} is not 1 within {slack:.3e}")


def conjugate_normalization(state: ThermalState, u: UnitaryOperator) -> float:
    """tr(rho E) evaluated as a sum of positive terms in the energy eigenbasis.

    The gap factors of u_beta cancel analytically against the populations,
    leaving sum_j p_j |column j of the eigenbasis kick|^2, which stays fully
    conditioned however large beta gets.  Averaging never changes the value:
    rho is a fixed point of every frame average, so tr(rho ME) = tr(rho E)
    for each averaging kind.
    """
    if u.dim != state.dim:
        raise ValueError(f"dimension mismatch: state {state.dim}, unitary {u.dim}")
    return _normalization(state, _kick_in_energy_basis(state.hamiltonian_decomp, u))


def _kick_in_energy_basis(decomp: SpectralDecomposition, u: UnitaryOperator) -> np.ndarray:
    """u~ = V^dag (U V), with U V from the kick's own apply.

    That is one dense product for a dense eigenbasis and none when H is
    diagonal, where V only reorders the computational basis.
    """
    if decomp.basis_permutation is not None:
        return decomp.to_eigenbasis(u.apply(np.eye(decomp.dim)))
    v = decomp.eigenvectors
    return v.conj().T @ u.apply(v)


def _normalization(state: ThermalState, u_tilde: np.ndarray) -> float:
    return float((state.populations[np.newaxis, :] * np.abs(u_tilde) ** 2).sum())


def conjugated_perturbation(state: ThermalState, u: UnitaryOperator) -> ConjugatedPerturbation:
    """Build u and E = u u^dag through the analytic gap form.

    In the energy eigenbasis the conjugation is the entrywise factor
    e^{beta (E_i - E_j) / 2}, so no matrix exponential or inverse square root
    of rho is ever formed.  The kick is rotated into that basis once, and
    tr(rho E) is certified from the same rotation.  For diagonal H,
    E = G (U S^2 U^dag) G with G = e^{beta H/2} and S = e^{-beta H/2} both
    diagonal, which the kick's own conjugation evaluates without a dense
    product.
    """
    if u.dim != state.dim:
        raise ValueError(f"dimension mismatch: state {state.dim}, unitary {u.dim}")
    decomp = state.hamiltonian_decomp
    energies = decomp.eigenvalues
    radius = max(abs(energies[0]), abs(energies[-1]))
    if state.beta * radius > 700.0:
        raise OverflowGuardError(
            f"beta times the spectral radius is {state.beta * radius:.1f}, beyond "
            "the 700 overflow guard; reduce beta or the chain size"
        )
    u_tilde = _kick_in_energy_basis(decomp, u)
    stable_norm = _normalization(state, u_tilde)
    if abs(stable_norm - 1.0) > 1e-9:
        raise ValueError(f"tr(rho E) = {stable_norm!r} is not 1 within 1e-9")
    grow = np.exp(state.beta * energies / 2)
    shrink = np.exp(-state.beta * energies / 2)
    # scaled in place into the eigenbasis u_beta, G u~ S
    u_tilde *= grow[:, np.newaxis]
    u_tilde *= shrink[np.newaxis, :]
    u_full = decomp.from_eigenbasis(u_tilde)
    del u_tilde
    if decomp.basis_permutation is None:
        e_full = u_full @ u_full.conj().T
    else:
        g = np.empty_like(grow)
        g[decomp.basis_permutation] = grow
        e_full = u.conjugate(decomp.diagonal_from_eigenbasis(shrink**2))
        e_full *= g[:, np.newaxis]
        e_full *= g[np.newaxis, :]
    return ConjugatedPerturbation(u_full, HermitianOperator(e_full), state, stable_norm)


@dataclass(frozen=True)
class DeviationReport:
    """How far an averaged E sits from the identity.

    op_norm and frobenius_norm measure the raw operator distance;
    state_weighted is sqrt(tr(rho (ME - 1)^2)), the distance seen by the
    thermal state; state_trace is tr(rho ME), identically 1 up to round-off.
    """

    op_norm: float
    frobenius_norm: float
    state_weighted: float
    state_trace: float


def averaged_E_stats(
    e_blocks: list[np.ndarray], rho_blocks: list[np.ndarray]
) -> tuple[DeviationReport, float]:
    """Deviation report of ME plus -tr[rho eta(ME)], from one eigensolve per
    block of ME paired with the same block of rho.

    -tr[rho eta(ME)] equals the operator-convex relative entropy
    S_BS(M rho' | rho) because every function of rho is invariant under the
    averaging frames.  Sweeps take this route because the deviation report
    needs the same eigendecompositions, not for accuracy: the entries of ME
    grow like exp(beta (E_i + E_j) / 2), and holding ME in float64 costs an
    absolute error near eps ||ME||_op (1 + max|ln lambda(ME)|).  At
    heisenberg-xxz N = 6, beta = 2 that is 3e-8, while the state route
    `bs_relative_entropy` stays within 2e-11 of a 40-digit value.
    """
    spectra, weights = [], []
    for e, rho in zip(e_blocks, rho_blocks):
        w, v = np.linalg.eigh((e + e.conj().T) / 2)
        spectra.append(w)
        # the weight rho puts on each eigenvector of the block
        weights.append(np.einsum("ik,ik->k", v.conj(), rho @ v).real)
    w, q = np.concatenate(spectra), np.concatenate(weights)
    dev = w - 1.0
    report = DeviationReport(
        op_norm=float(np.abs(dev).max()),
        frobenius_norm=float(np.sqrt((dev**2).sum())),
        state_weighted=float(np.sqrt(max((q * dev**2).sum(), 0.0))),
        state_trace=float((q * w).sum()),
    )
    return report, max(-float(np.dot(eta(w), q)), 0.0)


def deviation_report(averaged_e: np.ndarray, state: ThermalState) -> DeviationReport:
    """Distance of an already-averaged E from the identity."""
    return averaged_E_stats([averaged_e], [state.rho.matrix])[0]


def averaged_E_deviation(
    cp: ConjugatedPerturbation, t: UnitaryOperator, n_terms: int
) -> DeviationReport:
    """Deviation of the uniform frame average of E from the identity."""
    return deviation_report(average_translates(cp.E.matrix, t, n_terms), cp.state)
