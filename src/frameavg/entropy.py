"""Entropy functionals in nats.

Von Neumann entropy, the two relative entropies (standard and the
operator-convex upper bound built from eta(s) = -s log s), and the
thermodynamic entropy production beta * W.

Support handling: eigenvalues below SUPPORT_RTOL times the largest one count
as the kernel.  A relative entropy whose first argument puts more than
KERNEL_WEIGHT_ATOL of weight on the kernel of the second is infinite, which
is reported through an explicit flag rather than a floating special value.
Thermal second arguments always take the analytic route
-S(sigma) + beta tr(H sigma) + log Z, which stays stable at large beta where
the spectrum of rho underflows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import (
    BlockDensityMatrix,
    DensityMatrix,
    OverflowGuardError,
    SUPPORT_RTOL,
    hermitian_part,
)
from .thermal import ThermalState

KERNEL_WEIGHT_ATOL = 1e-10

# largest beta (E_max - E_min) a route that scales by exp(beta E / 2) accepts
EXP_GUARD = 700.0


@dataclass(frozen=True)
class EntropyValue:
    """A nonnegative entropy in nats, or the infinite support-violation case."""

    nats: float
    support_violation: bool = False

    def __post_init__(self):
        if self.support_violation:
            object.__setattr__(self, "nats", 0.0)
            return
        if not np.isfinite(self.nats) or self.nats < 0.0:
            raise ValueError(f"finite entropy must be nonnegative, got {self.nats!r}")

    def as_float(self) -> float:
        return math.inf if self.support_violation else self.nats


def eta(s) -> np.ndarray:
    """-s log s elementwise with eta(s) = 0 for s <= 0.

    Round-off can push eigenvalues of positive operators slightly negative;
    those are part of the numerical kernel and take the 0 convention.
    """
    s = np.asarray(s, dtype=np.float64)
    out = np.zeros_like(s)
    pos = s > 0.0
    out[pos] = -s[pos] * np.log(s[pos])
    return out


def _clamped(value: float) -> float:
    # nonnegativity can be lost to round-off only at the 1e-10 scale
    return max(float(value), 0.0)


def von_neumann_entropy(
    state: BlockDensityMatrix | ThermalState,
) -> EntropyValue:
    """-sum p log p over the spectrum, with 0 log 0 = 0.

    Thermal states are read off their analytic populations, every other
    state off the spectrum its construction certified.
    """
    if isinstance(state, ThermalState):
        return EntropyValue(_clamped(eta(state.populations).sum()))
    return EntropyValue(_clamped(eta(np.clip(state.eigenvalues, 0.0, None)).sum()))


def _rho_eigenframe(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ascending spectrum of a dense rho clipped at 0, its eigenvectors,
    and the kernel mask: eigenvalues below SUPPORT_RTOL times the largest."""
    w, v = np.linalg.eigh(rho.matrix)
    w = np.clip(w, 0.0, None)
    return w, v, w < SUPPORT_RTOL * w[-1]


def relative_entropy(
    sigma: DensityMatrix, rho: DensityMatrix | ThermalState
) -> EntropyValue:
    """tr[sigma (log sigma - log rho)]; infinite on support violation."""
    if sigma.dim != rho.dim:
        raise ValueError(f"dimension mismatch: sigma {sigma.dim}, rho {rho.dim}")
    if isinstance(rho, ThermalState):
        s_sigma = von_neumann_entropy(sigma).nats
        return EntropyValue(rho.relative_entropy_of(s_sigma, rho.energy(sigma.matrix)))
    w, v, kernel = _rho_eigenframe(rho)
    # diagonal of sigma rotated into the rho eigenbasis
    diag = np.einsum("ij,jk,ki->i", v.conj().T, sigma.matrix, v).real
    if diag[kernel].sum() > KERNEL_WEIGHT_ATOL:
        return EntropyValue(0.0, support_violation=True)
    s_sigma = von_neumann_entropy(sigma).nats
    cross = float(np.dot(diag[~kernel], np.log(w[~kernel])))
    return EntropyValue(_clamped(-s_sigma - cross))


def _eta_trace(x_blocks, rho_blocks) -> tuple[np.ndarray, np.ndarray, float]:
    """-tr[rho eta(X)] for X and rho given as matching lists of diagonal
    blocks, from one eigensolve per block of X: the spectrum w of X, the
    weight q_k = <v_k| rho |v_k> rho puts on each eigenvector, and
    -sum_k eta(w_k) q_k, all over the blocks in order.

    A block of rho is a matrix, or a 1d array where rho is diagonal (in its
    own eigenbasis, or the joint one of H): then q_k = sum_i p_i |v_ik|^2,
    read without a product with rho.
    """
    spectra, weights = [], []
    for x, rho in zip(x_blocks, rho_blocks):
        # eigh reads the lower triangle: the joint-basis blocks are exactly
        # Hermitian, and a computational-basis block is Hermitian to
        # round-off, so that triangle stands for it within round-off
        w, v = np.linalg.eigh(x)
        spectra.append(w)
        if rho.ndim == 1:
            weights.append(rho @ (v.real**2 + v.imag**2))
        else:
            weights.append(np.einsum("ik,ik->k", v.conj(), rho @ v).real)
    w, q = np.concatenate(spectra), np.concatenate(weights)
    return w, q, -float(np.dot(eta(w), q))


def _exp_guard(state: ThermalState) -> None:
    """Refuse a state whose beta times spectral spread exceeds EXP_GUARD, the
    edge of float64 exponentials: the conjugated kick of a sweep and the
    rho^{-1/2} of verify's state route scale by exp(+-beta E / 2), and their
    products grow like exp(beta (E_max - E_min))."""
    energies = state.hamiltonian_decomp.eigenvalues
    spread = state.beta * (energies[-1] - energies[0])
    if spread > EXP_GUARD:
        raise OverflowGuardError(
            f"beta times the spectral spread is {spread:.1f}, beyond the "
            f"{EXP_GUARD:g} overflow guard; reduce beta or the chain size"
        )


def _bs_value(sigma_tilde: np.ndarray, scale: np.ndarray, weights: np.ndarray) -> float:
    """-tr[rho eta(X)] with X = diag(scale) sigma_tilde diag(scale).

    All three arrays live in the eigenbasis of rho, where rho is diagonal
    with entries `weights`.  X is scaled and symmetrized in place in
    sigma_tilde, which is overwritten, so no dim x dim temporary is made.
    """
    x = sigma_tilde
    x *= scale[:, np.newaxis]
    x *= scale[np.newaxis, :]
    hermitian_part(x, out=x)
    return _eta_trace([x], [weights])[2]


def bs_relative_entropy(
    sigma: DensityMatrix, rho: DensityMatrix | ThermalState
) -> EntropyValue:
    """-tr[rho eta(rho^{-1/2} sigma rho^{-1/2})], the Hiai-Petz upper bound.

    For thermal rho the inverse square root is the analytic
    exp(beta H / 2) sqrt(Z), evaluated entirely in the energy eigenbasis.
    """
    if sigma.dim != rho.dim:
        raise ValueError(f"dimension mismatch: sigma {sigma.dim}, rho {rho.dim}")
    if isinstance(rho, ThermalState):
        _exp_guard(rho)
        energies = rho.hamiltonian_decomp.eigenvalues
        scale = np.exp(rho.beta * energies / 2 + rho.log_partition / 2)
        sigma_tilde = rho.hamiltonian_decomp.to_eigenbasis(sigma.matrix)
        return EntropyValue(_clamped(_bs_value(sigma_tilde, scale, rho.populations)))
    w, v, kernel = _rho_eigenframe(rho)
    sigma_tilde = v.conj().T @ sigma.matrix @ v
    if np.diagonal(sigma_tilde).real[kernel].sum() > KERNEL_WEIGHT_ATOL:
        return EntropyValue(0.0, support_violation=True)
    scale = np.zeros_like(w)
    scale[~kernel] = w[~kernel] ** -0.5
    return EntropyValue(_clamped(_bs_value(sigma_tilde, scale, w)))


def thermo_entropy_production(beta: float, work: float) -> float:
    """beta * W, the entropy handed to the reservoir by dissipating W."""
    return float(beta) * float(work)
