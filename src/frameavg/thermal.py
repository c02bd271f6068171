"""Thermal equilibrium states, local unitary kicks, and dissipated work.

All partition-function arithmetic runs through max-shifted exponentials so
large inverse temperatures stay finite, and log rho is always the analytic
-beta H - log Z rather than a numerical matrix logarithm.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import LatticeSpec, SiteOperator, site_unitary
from .operators import (
    DensityMatrix,
    HermitianOperator,
    SpectralDecomposition,
    UnitaryOperator,
    spectral_decompose,
    trace_product,
)


@dataclass(frozen=True)
class ThermalState:
    """Gibbs state exp(-beta H) / Z together with its defining data.

    Carrying the Hamiltonian and its decomposition lets every downstream
    entropy take the stable analytic route for log rho.
    """

    rho: DensityMatrix
    beta: float
    log_partition: float
    hamiltonian: HermitianOperator
    hamiltonian_decomp: SpectralDecomposition

    @property
    def dim(self) -> int:
        return self.rho.dim

    @property
    def populations(self) -> np.ndarray:
        """Eigenvalues of rho in ascending-energy order."""
        return np.exp(-self.beta * self.hamiltonian_decomp.eigenvalues - self.log_partition)

    def energy(self, matrix: np.ndarray) -> float:
        """tr(H sigma) for a state given as a plain matrix."""
        return trace_product(self.hamiltonian.matrix, matrix).real


@dataclass(frozen=True)
class PerturbationSpec:
    """A single-site Hermitian generator applied with strength lambda."""

    site: int
    generator: np.ndarray
    strength: float

    def __post_init__(self):
        gen = HermitianOperator(self.generator).matrix
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
        if abs(self.beta_work - self.relative_entropy_check) > 1e-9:
            raise ValueError(
                "beta * W and the relative entropy of the kicked state disagree: "
                f"{self.beta_work!r} vs {self.relative_entropy_check!r}"
            )


def thermal_state(hamiltonian: HermitianOperator, beta: float) -> ThermalState:
    """Gibbs state at inverse temperature beta; beta = 0 gives the flat state."""
    beta = float(beta)
    if not np.isfinite(beta) or beta < 0.0:
        raise ValueError(f"beta must be finite and nonnegative, got {beta!r}")
    decomp = spectral_decompose(hamiltonian)
    x = -beta * decomp.eigenvalues
    shift = x.max()
    weights = np.exp(x - shift)
    total = weights.sum()
    log_partition = float(shift + np.log(total))
    rho = DensityMatrix(decomp.diagonal_from_eigenbasis(weights / total))
    return ThermalState(rho, beta, log_partition, hamiltonian, decomp)


def local_kick(lattice: LatticeSpec, p: PerturbationSpec) -> UnitaryOperator:
    """U = exp(-i lambda a) acting on one site, identity elsewhere.

    U is held as its d x d factor, so applying it costs O(d dim^2).
    """
    d = lattice.local_dim
    if p.generator.shape[0] != d:
        raise ValueError(
            f"generator has dim {p.generator.shape[0]}, lattice expects {d}"
        )
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
    """tr(H rho') - tr(H rho)."""
    if not hamiltonian.dim == rho.dim == rho_prime.dim:
        raise ValueError(
            f"dimension mismatch: H {hamiltonian.dim}, rho {rho.dim}, "
            f"rho' {rho_prime.dim}"
        )
    value = trace_product(hamiltonian.matrix, rho_prime.matrix - rho.matrix)
    if abs(value.imag) > 1e-10 * max(1.0, abs(value.real)):
        raise ValueError(f"work came out non-real: {value!r}")
    return value.real
