"""Finite periodic spin chains.

Site-local operator embedding, the cyclic translation unitary and its
momentum sectors, and the model Hamiltonians.  Basis convention: site 0 is the most significant digit of the
computational-basis index, so for qubits the index bits read left to right as
sites 0 .. N-1.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .operators import (
    HermitianOperator,
    UnitaryOperator,
    as_square_complex,
    max_norm,
)

DIM_GUARD = 2**14
DIM_GUARD_ENV = "FRAMEAVG_MAX_DIM"

sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
sigma_z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_PAULI = {"X": sigma_x, "Y": sigma_y, "Z": sigma_z}

FREE_SPINS = "free-spins"
TRANSVERSE_FIELD_ISING = "transverse-field-ising"
HEISENBERG_XXZ = "heisenberg-xxz"

MODEL_COUPLINGS = {
    FREE_SPINS: ("h",),
    TRANSVERSE_FIELD_ISING: ("J", "g"),
    HEISENBERG_XXZ: ("J", "delta"),
}


class LatticeSizeError(ValueError):
    """Requested chain exceeds the Hilbert-space dimension guard."""


def pauli(name: str) -> np.ndarray:
    """Pauli matrix by letter, one of X, Y, Z."""
    try:
        return _PAULI[name].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli name {name!r}, expected one of X, Y, Z") from None


def _dim_guard() -> int:
    raw = os.environ.get(DIM_GUARD_ENV)
    if raw is None:
        return DIM_GUARD
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{DIM_GUARD_ENV} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{DIM_GUARD_ENV} must be positive, got {value}")
    # the environment may only lower the guard, never raise it
    return min(value, DIM_GUARD)


@dataclass(frozen=True)
class LatticeSpec:
    """Periodic chain geometry: N sites of local dimension d."""

    sites: int
    local_dim: int = 2
    periodic: bool = True

    def __post_init__(self):
        if self.sites < 2:
            raise ValueError(f"need at least 2 sites, got {self.sites}")
        if self.local_dim < 1:
            raise ValueError(f"local_dim must be >= 1, got {self.local_dim}")
        if not self.periodic:
            raise ValueError("only periodic chains are supported")
        guard = _dim_guard()
        if self.dim > guard:
            raise LatticeSizeError(
                f"chain of {self.sites} sites with local dimension {self.local_dim} "
                f"has Hilbert dimension {self.dim}, above the guard {guard}"
            )

    @property
    def dim(self) -> int:
        return self.local_dim**self.sites


@dataclass(frozen=True)
class HamiltonianSpec:
    """Model tag plus named coupling constants."""

    model: str
    couplings: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.model not in MODEL_COUPLINGS:
            raise ValueError(
                f"unknown model {self.model!r}, expected one of {sorted(MODEL_COUPLINGS)}"
            )
        required = MODEL_COUPLINGS[self.model]
        missing = [k for k in required if k not in self.couplings]
        if missing:
            raise ValueError(f"model {self.model!r} is missing couplings {missing}")
        unknown = [k for k in self.couplings if k not in required]
        if unknown:
            raise ValueError(f"model {self.model!r} does not take couplings {unknown}")
        clean = {}
        for key in required:
            value = float(self.couplings[key])
            if not np.isfinite(value):
                raise ValueError(f"coupling {key!r} must be finite, got {value!r}")
            clean[key] = value
        object.__setattr__(self, "couplings", clean)


@dataclass(frozen=True)
class SiteOperator:
    """A local matrix attached to one site of the chain."""

    site: int
    local_matrix: np.ndarray

    def __post_init__(self):
        if self.site < 0:
            raise ValueError(f"site must be nonnegative, got {self.site}")
        object.__setattr__(
            self, "local_matrix", as_square_complex(self.local_matrix, "local_matrix")
        )


def _outer_dims(lattice: LatticeSpec, op: SiteOperator) -> tuple[int, int]:
    """Dimensions of the identities left and right of op's site."""
    if op.site >= lattice.sites:
        raise ValueError(f"site {op.site} out of range for {lattice.sites} sites")
    d = lattice.local_dim
    if op.local_matrix.shape[0] != d:
        raise ValueError(
            f"local matrix has dim {op.local_matrix.shape[0]}, lattice expects {d}"
        )
    return d**op.site, d ** (lattice.sites - 1 - op.site)


def embed_site_operator(lattice: LatticeSpec, op: SiteOperator) -> np.ndarray:
    """1 x ... x a x ... x 1 with a at position op.site."""
    left, right = _outer_dims(lattice, op)
    return np.kron(
        np.kron(np.eye(left, dtype=complex), op.local_matrix), np.eye(right, dtype=complex)
    )


def site_unitary(lattice: LatticeSpec, op: SiteOperator) -> UnitaryOperator:
    """The unitary 1 x ... x u x ... x 1, held as its single-site factor u."""
    return UnitaryOperator(factor=op.local_matrix, outer=_outer_dims(lattice, op))


def translation_operator(lattice: LatticeSpec) -> UnitaryOperator:
    """Right cyclic shift of site contents.

    T maps |s_0 s_1 ... s_{N-1}> to |s_{N-1} s_0 ... s_{N-2}>, so on basis
    indices T e_i = e_{perm[i]} with perm[i] = (i mod d) * d^(N-1) + i div d.
    The operator is held as that permutation; its dense matrix is built only
    when read.
    """
    d, dim = lattice.local_dim, lattice.dim
    idx = np.arange(dim)
    return UnitaryOperator(permutation=(idx % d) * (dim // d) + idx // d)


class MomentumSectors:
    """The momentum basis F of a translation, built from its basis permutation.

    With r running over the orbits of the permutation and L_r the orbit
    length, sector k holds the orbits with N | k L_r, through the vectors

        |r, k> = (sqrt(L_r) / N) sum_{n < N} e^{-2 pi i k n / N} T^n |r>,

    which satisfy T |r, k> = e^{2 pi i k / N} |r, k>.  The sector dimensions
    sum to dim (Sandvik, arXiv:1101.3281, section 4).  The uniform average
    of X over the N translates is the projection onto the eigenspaces of T,
    so it keeps exactly the N diagonal blocks of F^dag X F (`blocks`).

    `to_sectors` and `from_sectors` apply F^dag and F to the rows of an
    array through an FFT over the shift index of each orbit, in O(dim log N)
    per column; their sector-major order lists sector 0, then sector 1, and
    so on, and `momenta` gives the sector of each position.
    """

    def __init__(self, t: UnitaryOperator, n_terms: int):
        if n_terms < 1:
            raise ValueError("need at least one term")
        if t.permutation is None:
            raise ValueError(
                "momentum sectors need a translation that carries its basis permutation"
            )
        dim = t.dim
        self.permutation = t.permutation
        self.n_terms = n_terms
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
        self._root_lengths = np.sqrt(lengths)
        self._scale = np.sqrt(np.outer(lengths, lengths)) / n_terms
        k = np.arange(n_terms)
        self._phases = np.exp(-2j * np.pi * np.outer(k, k) / n_terms)
        allowed = np.outer(k, lengths) % n_terms == 0
        self._members = [np.nonzero(row)[0] for row in allowed]
        # |r, k> sits at r * N + k of the (orbit, momentum) layout; basis state
        # T^n |r> at r * N + n for its first shift n < L_r
        self._select = np.concatenate([m * n_terms + q for q, m in enumerate(self._members)])
        first = k[np.newaxis, :] < lengths[:, np.newaxis]
        self._position = np.empty(dim, dtype=np.intp)
        self._position[self._orbits[first]] = np.nonzero(first.ravel())[0]
        self.momenta = np.repeat(k, self.dims)

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

    def to_sectors(self, x: np.ndarray) -> np.ndarray:
        """F^dag x in sector-major order, for x whose leading axis has length dim."""
        n_orbits, n = self._orbits.shape
        # <r, k | x> = sqrt(L_r) (1/N) sum_n e^{2 pi i k n / N} x[T^n r]
        g = np.fft.ifft(x[self._orbits], axis=1)
        g *= self._root_lengths.reshape(-1, *[1] * x.ndim)
        return g.reshape(n_orbits * n, *x.shape[1:])[self._select]

    def from_sectors(self, y: np.ndarray) -> np.ndarray:
        """F y for y in sector-major order; the inverse of `to_sectors`."""
        n_orbits, n = self._orbits.shape
        z = np.zeros((n_orbits * n, *y.shape[1:]), dtype=np.complex128)
        z[self._select] = y
        # <T^n r | r, k> = e^{-2 pi i k n / N} / sqrt(L_r): an orbit of length
        # L_r < N repeats N / L_r times in the defining sum
        z = np.fft.fft(z.reshape(n_orbits, n, *y.shape[1:]), axis=1)
        z /= self._root_lengths.reshape(-1, *[1] * y.ndim)
        return z.reshape(n_orbits * n, *y.shape[1:])[self._position]


def _diagonal_zz_field(lattice: LatticeSpec, field_coeff: float, bond_coeff: float) -> np.ndarray:
    """Diagonal of field_coeff * sum_i Z_i + bond_coeff * sum_bonds Z_i Z_j for qubits."""
    n, dim = lattice.sites, lattice.dim
    idx = np.arange(dim)
    z = np.empty((n, dim))
    for i in range(n):
        bits = (idx >> (n - 1 - i)) & 1
        z[i] = 1.0 - 2.0 * bits
    diag = field_coeff * z.sum(axis=0)
    if bond_coeff != 0.0:
        for i, j in _bonds(n):
            diag = diag + bond_coeff * z[i] * z[j]
    return diag


def _bonds(n: int) -> list[tuple[int, int]]:
    # periodic wrap; for N=2 the wraparound bond coincides with the bulk bond
    # and is counted once
    if n == 2:
        return [(0, 1)]
    return [(i, (i + 1) % n) for i in range(n)]


def build_hamiltonian(lattice: LatticeSpec, spec: HamiltonianSpec) -> HermitianOperator:
    """Translation-invariant chain Hamiltonian for the named model.

    free-spins:             h * sum_i Z_i
    transverse-field-ising: -J * sum_i Z_i Z_{i+1} - g * sum_i X_i
    heisenberg-xxz:         J * sum_i (X_i X_{i+1} + Y_i Y_{i+1} + delta * Z_i Z_{i+1})

    The off-diagonal entries are written straight from basis bit flips: X_s
    flips bit s, and X_i X_j + Y_i Y_j maps |..0..1..> to 2 |..1..0..> and
    annihilates aligned pairs, so it flips both bits where they differ.  The
    operator carries the momentum sectors of the chain's translation, so
    `spectral_decompose` diagonalises it sector by sector.
    """
    if lattice.local_dim != 2:
        raise ValueError("the chain models are defined for local dimension 2")
    c = spec.couplings
    n = lattice.sites
    idx = np.arange(lattice.dim)
    bits = [1 << (n - 1 - s) for s in range(n)]
    if spec.model == FREE_SPINS:
        h = np.diag(_diagonal_zz_field(lattice, c["h"], 0.0).astype(complex))
    elif spec.model == TRANSVERSE_FIELD_ISING:
        h = np.diag(_diagonal_zz_field(lattice, 0.0, -c["J"]).astype(complex))
        for bit in bits:
            h[idx, idx ^ bit] = -c["g"]
    else:
        h = np.diag(_diagonal_zz_field(lattice, 0.0, c["J"] * c["delta"]).astype(complex))
        for i, j in _bonds(n):
            rows = idx[((idx & bits[i]) == 0) != ((idx & bits[j]) == 0)]
            h[rows, rows ^ (bits[i] | bits[j])] = 2 * c["J"]
    t = translation_operator(lattice)
    out = HermitianOperator(h, sectors=MomentumSectors(t, n))
    if translation_defect(out.matrix, t) > 1e-10:
        raise AssertionError("built Hamiltonian does not commute with translation")
    return out


def translation_defect(matrix: np.ndarray, t: UnitaryOperator) -> float:
    """max-norm of T A T^dag - A; a permutation T only reindexes A."""
    return max_norm(t.conjugate(matrix) - matrix)


def reduce_to_site(lattice: LatticeSpec, matrix: np.ndarray, site: int) -> np.ndarray:
    """Partial trace down to one site's d x d operator."""
    if not 0 <= site < lattice.sites:
        raise ValueError(f"site {site} out of range for {lattice.sites} sites")
    n, d = lattice.sites, lattice.local_dim
    a = np.asarray(matrix, dtype=complex).reshape([d] * (2 * n))
    letters = "abcdefghijklmnop"
    rows = letters[:n]
    cols = rows[:site] + "z" + rows[site + 1 :]
    return np.einsum(f"{rows}{cols}->{rows[site]}z", a)
