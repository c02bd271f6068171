"""Thermal equilibrium states, local unitary kicks, and dissipated work.

All partition-function arithmetic runs through max-shifted exponentials so
large inverse temperatures stay finite, and log rho is always the analytic
-beta H - log Z rather than a numerical matrix logarithm.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import ChainSymmetry, LatticeSpec, SiteOperator, pauli, site_unitary
from .operators import (
    DensityMatrix,
    HermitianOperator,
    SpectralDecomposition,
    UnitaryOperator,
    gate,
    spectral_decompose,
    trace_product,
)


@dataclass(frozen=True)
class ThermalState:
    """Gibbs state exp(-beta H) / Z together with its defining data.

    Carrying the Hamiltonian and its decomposition lets every downstream
    entropy take the stable analytic route for log rho.  In the eigenbasis
    of H the state is diag(populations); `rho`, the certified dense matrix
    in the computational basis, V diag(populations) V^dag, is always built
    from them, on first read, and held until `release_rho`.
    """

    beta: float
    log_partition: float
    hamiltonian: HermitianOperator
    hamiltonian_decomp: SpectralDecomposition
    _rho: DensityMatrix | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def rho(self) -> DensityMatrix:
        if self._rho is None:
            weights, _ = _gibbs_weights(self.hamiltonian_decomp.eigenvalues, self.beta)
            rho = DensityMatrix(self.hamiltonian_decomp.diagonal_from_eigenbasis(weights))
            object.__setattr__(self, "_rho", rho)
        return self._rho

    def release_rho(self) -> None:
        """Drop the held dense rho, for a caller past its last reader; a
        later read builds it again."""
        object.__setattr__(self, "_rho", None)

    @property
    def dim(self) -> int:
        return self.hamiltonian_decomp.dim

    @property
    def populations(self) -> np.ndarray:
        """Eigenvalues of rho in ascending-energy order."""
        return np.exp(-self.beta * self.hamiltonian_decomp.eigenvalues - self.log_partition)

    def energy(self, matrix: np.ndarray) -> float:
        """tr(H sigma) for a state given as a plain matrix, read from H's
        terms where it is held so (`trace_product`)."""
        return trace_product(self.hamiltonian, matrix).real

    def relative_entropy_of(self, entropy: float, energy: float) -> float:
        """S(sigma|rho) = -S(sigma) + beta tr(H sigma) + log Z for a state
        sigma with entropy S(sigma) and energy tr(H sigma).  Negative values,
        which round-off reaches only at the 1e-10 scale, clamp to 0; NaN is
        passed on for the caller's gate."""
        return max(float(-entropy + self.beta * energy + self.log_partition), 0.0)


@dataclass(frozen=True)
class PerturbationSpec:
    """A single-site Hermitian generator applied with strength lambda.

    The generator is a Hermitian matrix or a Pauli letter (X, Y or Z).
    """

    site: int
    generator: np.ndarray | str
    strength: float

    def __post_init__(self):
        gen = self.generator
        if isinstance(gen, str):
            gen = pauli(gen)
        gen = HermitianOperator(gen).matrix
        object.__setattr__(self, "generator", gen)
        if self.site < 0:
            raise ValueError(f"site must be nonnegative, got {self.site}")
        strength = float(self.strength)
        if not np.isfinite(strength):
            raise ValueError(f"strength must be finite, got {self.strength!r}")
        object.__setattr__(self, "strength", strength)


@dataclass(frozen=True)
class WorkReport:
    """Dissipated work with its entropy-production cross check."""

    work: float
    beta_work: float
    relative_entropy_check: float

    def __post_init__(self):
        gate(
            abs(self.beta_work - self.relative_entropy_check),
            1e-9,
            lambda: "beta * W and the relative entropy of the kicked state disagree: "
            f"{self.beta_work!r} vs {self.relative_entropy_check!r}",
        )


def thermal_state(
    hamiltonian: HermitianOperator, beta: float, symmetry: ChainSymmetry | None = None
) -> ThermalState:
    """Gibbs state at inverse temperature beta; beta = 0 gives the flat state.
    H is solved with the labels of `symmetry` where one is given: split by
    its global spin flip and phased for its antiunitary prod s K
    (`spectral_decompose`)."""
    beta = float(beta)
    if not np.isfinite(beta) or beta < 0.0:
        raise ValueError(f"beta must be finite and nonnegative, got {beta!r}")
    decomp = spectral_decompose(hamiltonian, symmetry)
    _, log_partition = _gibbs_weights(decomp.eigenvalues, beta)
    return ThermalState(beta, log_partition, hamiltonian, decomp)


def _gibbs_weights(energies: np.ndarray, beta: float) -> tuple[np.ndarray, float]:
    """exp(-beta E) / Z and log Z, through a max-shifted exponential."""
    x = -beta * energies
    shift = x.max()
    weights = np.exp(x - shift)
    total = weights.sum()
    return weights / total, float(shift + np.log(total))


def local_kick(lattice: LatticeSpec, p: PerturbationSpec) -> UnitaryOperator:
    """U = exp(-i lambda a) acting on one site, identity elsewhere.

    U is held as its 2 x 2 factor, so applying it costs O(dim^2).
    """
    if p.generator.shape[0] != 2:
        raise ValueError(f"generator has dim {p.generator.shape[0]}, lattice expects 2")
    w, v = np.linalg.eigh(p.generator)
    small = (v * np.exp(-1j * p.strength * w)[np.newaxis, :]) @ v.conj().T
    return site_unitary(lattice, SiteOperator(p.site, small))


def perturb(state: ThermalState, u: UnitaryOperator) -> DensityMatrix:
    """rho' = U rho U^dag."""
    if u.dim != state.dim:
        raise ValueError(f"dimension mismatch: state {state.dim}, unitary {u.dim}")
    return DensityMatrix(u.conjugate(state.rho.matrix))


def work(
    hamiltonian: HermitianOperator, rho: DensityMatrix, rho_prime: DensityMatrix
) -> float:
    """tr(H rho') - tr(H rho), read from H's terms where it is held so
    (`trace_product`)."""
    if not hamiltonian.dim == rho.dim == rho_prime.dim:
        raise ValueError(
            f"dimension mismatch: H {hamiltonian.dim}, rho {rho.dim}, "
            f"rho' {rho_prime.dim}"
        )
    value = trace_product(hamiltonian, rho_prime.matrix - rho.matrix)
    tol = 1e-10 * max(1.0, abs(value.real))
    gate(abs(value.imag), tol, lambda: f"work came out non-real: {value!r}")
    return value.real
