"""Dense Hermitian linear algebra kernel.

Spectral decompositions, matrix functions, operator norms, density
matrices, and seeded generators for randomized property tests.  Operators
are plain numpy arrays (complex, or float64 where a real structure makes
them real) wrapped in thin validated containers (a
chain Hamiltonian is held as its bit-flip terms instead, its dense matrix
built only when read), each property certified by one gate: Hermiticity by
`HermitianOperator`, and a state's trace and positivity by
`BlockDensityMatrix`, whose per-block eigensolve is also the spectrum every
entropy reads (`DensityMatrix` is its one-block form).  Every matrix
function goes through a full
eigendecomposition, which keeps results exactly Hermitian and is
affordable at the dimensions this package targets.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

# relative cutoff separating a genuine spectral kernel from round-off
SUPPORT_RTOL = 1e-14

# rows or columns of a dim x dim matrix that a slab pass handles at a time
# (the rotations, the commutator, the translate sum, the kick's columns), and
# the edge of the square tiles `hermitian_part` symmetrizes at a time; a power
# of two, so that a slab of rows of a chain's matrix fixes its leading site axes
SLAB = 256


class EigensolverError(RuntimeError):
    """Eigendecomposition failed to converge."""

    def __init__(self, dim: int, scale: float):
        self.dim = dim
        self.scale = scale
        super().__init__(
            f"eigensolver failed to converge on a {dim}x{dim} Hermitian matrix "
            f"(entry scale {scale:.3e})"
        )


class MatrixFunctionDomainError(ValueError):
    """A scalar function evaluated to a non-finite value on an eigenvalue."""

    def __init__(self, eigenvalue: float):
        self.eigenvalue = eigenvalue
        super().__init__(
            f"matrix function is not finite at eigenvalue {eigenvalue!r}; "
            "clamp or shift the spectrum before applying it"
        )


class OverflowGuardError(ValueError):
    """An exponential-scaling step would overflow double precision."""


# the tolerance of every gate family, the one place each is set: verify's
# seven identities first, in the order it prints them, which are the only
# names a config's tolerance_overrides may set.  A relative tolerance is
# scaled at its gate.
TOLERANCES = {
    "unitary-invariance": 1e-9,
    "work-identity": 1e-9,
    "averaging-identity": 1e-9,
    "bs-chain": 1e-9,
    "bs-equality": 1e-8,
    "normalization": 1e-9,
    "gracefulness": 1e-10,
    # an operator's anti-Hermitian part, relative to its entry scale
    "hermiticity": 1e-12,
    # |U^dag U - 1|
    "unitarity": 1e-10,
    # an eigensolve's residual, and the entries a symmetry of H forbids,
    # relative to H's scale
    "reconstruction": 1e-10,
    # how far a state's trace may miss 1
    "trace": 1e-10,
    # how far below 0 a state's lowest eigenvalue may lie
    "positivity": 1e-12,
    # how far a symmetry's image of a labelled column may miss a phase times
    # a column of its set, in any coefficient (`symmetry_split`)
    "column": 1e-10,
    # the entries between labelled blocks of the joint eigenbasis, and their
    # imaginary part under an antiunitary, relative to the entry scale
    "parity": 1e-10,
    # how far a sweep row's averaged entropy production may lie below 0
    "negativity": 1e-10,
    # the imaginary part of the work, relative to max(1, |W|)
    "imaginary-work": 1e-10,
}


def gate(
    family: str, residual: float, error: Callable, scale=1.0, *, roundoff=0.0, overrides=None
) -> None:
    """The one certification rule: a residual passes only if residual <=
    tolerance, so NaN fails every gate.  The tolerance is the `family`'s
    entry of TOLERANCES, or of a config's `overrides`, times `scale`, plus
    `roundoff`.  `error` is called only on failure, with that tolerance; it
    returns the exception to raise, or a message raised as a ValueError."""
    tolerance = (overrides or {}).get(family, TOLERANCES[family]) * scale + roundoff
    if not residual <= tolerance:
        exc = error(tolerance)
        raise ValueError(exc) if isinstance(exc, str) else exc


def symmetry_gate(
    family: str, residual: float, scale: float, subject: str, symmetry: str, entries: str
) -> None:
    """The commutation gate: `residual`, the largest of the `entries` of the
    `subject` that commuting with `symmetry` forbids, must pass `gate` for
    the `family` at `scale`."""
    gate(
        family,
        residual,
        lambda tolerance: f"{subject} does not commute with {symmetry}: "
        f"{entries} entries reach {residual:.3e}, above {tolerance:.3e}",
        scale,
    )


def _as_square(matrix, name: str, keep_real: bool = False) -> np.ndarray:
    real = keep_real and isinstance(matrix, np.ndarray) and matrix.dtype == np.float64
    a = np.asarray(matrix, dtype=np.float64 if real else np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"{name} must be square with dim >= 1, got shape {a.shape}")
    return a


def _check_finite(finite: bool, name: str) -> None:
    if not finite:
        raise ValueError(f"{name} contains non-finite entries")


def as_square_complex(matrix, name: str = "matrix") -> np.ndarray:
    """Validate and return a finite square complex128 array."""
    a = _as_square(matrix, name)
    _check_finite(np.isfinite(a).all(), name)
    return a


def max_norm(a) -> float:
    """Largest entry magnitude."""
    return float(np.abs(a).max())


def frobenius_norm(a) -> float:
    return float(np.linalg.norm(a))


def operator_norm(a) -> float:
    """Largest singular value.

    Hermitian inputs are routed through the real eigensolver; anything else
    falls back to a singular value computation.
    """
    a = np.asarray(a, dtype=np.complex128)
    scale = max_norm(a)
    if scale == 0.0:
        return 0.0
    h, defect = hermitian_part(a)
    if defect <= 1e-12 * scale:
        return float(np.abs(np.linalg.eigvalsh(h)).max())
    return float(np.linalg.norm(a, 2))


def commutator(a, b) -> np.ndarray:
    """a @ b - b @ a.

    Where a has no imaginary part (a real H in the computational basis) and
    b is complex, the products are float64 GEMMs on a's real part, half the
    flops of complex ones: a @ b on b's float64 view, and b @ a from b's
    real and imaginary parts.
    """
    a, b = np.asarray(a), np.asarray(b)
    if b.dtype != np.complex128 or (np.iscomplexobj(a) and a.imag.any()):
        return a @ b - b @ a
    a = np.ascontiguousarray(a.real)
    # the float64 view needs contiguous rows; a channel may return a transpose
    b = np.ascontiguousarray(b)
    out = (a @ b.view(np.float64)).view(np.complex128)
    # b's parts are copied SLAB rows at a time, the GEMMs needing contiguous ones
    for r in range(0, b.shape[0], SLAB):
        out.real[r : r + SLAB] -= np.ascontiguousarray(b.real[r : r + SLAB]) @ a
        out.imag[r : r + SLAB] -= np.ascontiguousarray(b.imag[r : r + SLAB]) @ a
    return out


def trace_product(a, b) -> complex:
    """tr(a @ b) without forming the product matrix.  A HermitianOperator
    held as its bit-flip terms is read through its nonzero entries,
    sum a[r, c] b[c, r] in O(N dim), and its dense matrix is not built."""
    if isinstance(a, HermitianOperator):
        if a._terms is not None:
            rows, cols, values = a.entries()
            return complex(np.dot(values, np.asarray(b)[cols, rows]))
        a = a.matrix
    return complex(np.einsum("ij,ji->", a, b))


def hermitian_part(a: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """(a + a^dag) / 2 and max|a - a^dag|, in one pass over square tiles.

    The tile at (j, i) of the output is the conjugate transpose of the one
    at (i, j), so each pair is formed once, and no transposed copy of the
    whole array is made.  The result equals (a + a.conj().T) / 2 bit for bit.
    It is written to `out`, which may be a itself: each pair of tiles is
    read before either is written.
    """
    dim = a.shape[0]
    if out is None:
        out = np.empty_like(a)
    defect = 0.0
    for i in range(0, dim, SLAB):
        for j in range(i, dim, SLAB):
            upper = a[i : i + SLAB, j : j + SLAB]
            lower = a[j : j + SLAB, i : i + SLAB].conj().T
            defect = float(np.maximum(defect, max_norm(upper - lower)))
            out[i : i + SLAB, j : j + SLAB] = (upper + lower) / 2
            if j > i:
                out[j : j + SLAB, i : i + SLAB] = out[i : i + SLAB, j : j + SLAB].conj().T
    return out, defect


class HermitianOperator:
    """A Hermitian operator certified at construction, in one of two forms.

    - `matrix`: a dense square matrix, stored as exactly (A + A^dag) / 2,
      float64 where A is a float64 array and complex128 otherwise;
      construction rejects inputs whose anti-Hermitian part exceeds the
      `hermiticity` tolerance relative to the entry scale.
    - bit-flip terms: a `diagonal` d and `flips`, pairs (m, c) of a flip mask
      and a coefficient per basis state, for

          H = diag(d) + sum_(m, c) sum_x c[x] |x><x XOR m|,

      with the coefficients of equal masks summed.  H is Hermitian exactly
      when d is real and c[x XOR m] = conj(c[x]); that is gated on the terms
      with the same tolerance and message, and the terms are stored
      symmetrized the same way.  `matrix` is then built on first read,
      float64 where every term is real.

    `entries()` gives the nonzero entries of either form, from the terms in
    O(N dim) for N flip masks.  `sectors` are the momentum sectors of a
    translation the operator commutes with (set by build_hamiltonian);
    spectral_decompose then solves it sector by sector.
    """

    def __init__(self, matrix=None, sectors=None, *, diagonal=None, flips=()):
        if (matrix is None) == (diagonal is None):
            raise ValueError("provide a matrix, or a diagonal with its flips")
        self.sectors = sectors
        self._matrix = matrix
        self._terms = None
        if matrix is not None:
            self.__post_init__()
        else:
            self._terms = _hermitian_terms(diagonal, flips)

    def __post_init__(self):
        # the dense gate, under the hook name that wrappers of a certifying
        # class (the state gates are dataclasses) look for
        a = _as_square(self._matrix, "matrix", keep_real=True)
        # |a|.max() is finite exactly when every entry is
        scale = max_norm(a)
        _check_finite(np.isfinite(scale), "matrix")
        out, defect = hermitian_part(a)
        _check_hermitian(defect, scale)
        self._matrix = out

    @property
    def dim(self) -> int:
        if self._terms is not None:
            return self._terms[0].size
        return self._matrix.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """The dense matrix; built and kept on first read for the term form,
        float64 where every term is real."""
        if self._matrix is None:
            rows, cols, values = self.entries()
            real = not values.imag.any()
            m = np.zeros((self.dim, self.dim), dtype=np.float64 if real else np.complex128)
            m[rows, cols] = values.real if real else values
            self._matrix = m
        return self._matrix

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzero entries as (rows, cols, values)."""
        if self._terms is None:
            rows, cols = np.nonzero(self._matrix)
            return rows, cols, self._matrix[rows, cols]
        diagonal, flips = self._terms
        idx = np.arange(diagonal.size)
        parts = [(idx, idx, diagonal)] + [(idx, idx ^ m, c) for m, c in flips.items()]
        rows, cols, values = (np.concatenate(p) for p in zip(*parts))
        keep = values != 0
        return rows[keep], cols[keep], values[keep]


def _check_hermitian(defect: float, scale: float) -> None:
    gate(
        "hermiticity",
        defect,
        lambda _: f"matrix is not Hermitian: anti-Hermitian defect {defect:.3e} "
        f"exceeds {TOLERANCES['hermiticity']:g} * scale {scale:.3e}",
        scale,
    )


def _hermitian_terms(diagonal, flips) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """The certified terms of HermitianOperator: the real diagonal and
    {mask: (c + conj(c[x XOR mask])) / 2}, once the defects |d - conj(d)| and
    |c[x] - conj(c[x XOR mask])| pass the dense gate's test."""
    d = np.asarray(diagonal, dtype=np.complex128)
    if d.ndim != 1 or d.size < 1:
        raise ValueError(f"diagonal must be a nonempty 1d array, got shape {d.shape}")
    idx = np.arange(d.size)
    merged = {}
    for mask, c in flips:
        mask = int(mask)
        if mask < 1 or (idx ^ mask).max() >= d.size:
            raise ValueError(f"flip mask {mask} does not permute a basis of dimension {d.size}")
        c = np.broadcast_to(np.asarray(c, np.complex128), d.shape)
        merged[mask] = merged.get(mask, 0) + c
    # c[x XOR m] is the coefficient of the transposed entry
    adjoints = {m: c[idx ^ m].conj() for m, c in merged.items()}
    # np.max, unlike max, carries a NaN in any term through to the gates
    scale = float(np.max([max_norm(d), *(max_norm(c) for c in merged.values())]))
    _check_finite(np.isfinite(scale), "matrix")
    defect = float(
        np.max([2 * max_norm(d.imag), *(max_norm(merged[m] - a) for m, a in adjoints.items())])
    )
    _check_hermitian(defect, scale)
    return d.real.astype(np.complex128), {m: (merged[m] + a) / 2 for m, a in adjoints.items()}


class UnitaryOperator:
    """A unitary certified at construction, held in one of three forms.

    - `matrix`: a dense square matrix, certified by |U^dag U - 1| within
      the `unitarity` tolerance.
    - `permutation`: a basis permutation, U e_i = e_{permutation[i]}; a
      verified bijection is unitary by construction.
    - `factor` with `outer` = (L, R): U = 1_L x u x 1_R for a d x d unitary u.
      U^dag U - 1 = 1 x (u^dag u - 1) x 1, so checking u certifies U exactly
      as the dense check would.

    apply(a) = U a and conjugate(a) = U a U^dag never form U: a permutation
    reindexes, a factor acts on one axis of the reshaped array in O(d dim^2).
    `matrix` is built on first read for the two structured forms.
    """

    def __init__(self, matrix=None, permutation=None, *, factor=None, outer=(1, 1)):
        if sum(x is not None for x in (matrix, permutation, factor)) != 1:
            raise ValueError("provide exactly one of matrix, permutation or factor")
        self._matrix = None
        self.permutation = None
        self.factor = None
        self.outer = None
        if permutation is not None:
            perm = np.asarray(permutation, dtype=np.intp)
            if perm.ndim != 1 or not np.array_equal(np.sort(perm), np.arange(perm.size)):
                raise ValueError("permutation is not a bijection on the basis")
            self.permutation = perm
            self._inverse = np.empty_like(perm)
            self._inverse[perm] = np.arange(perm.size)
            self.dim = perm.size
            return
        if matrix is not None:
            u = self._matrix = as_square_complex(matrix)
            self.dim = u.shape[0]
        else:
            u = self.factor = as_square_complex(factor, "factor")
            left, right = (int(x) for x in outer)
            if left < 1 or right < 1:
                raise ValueError(f"outer dimensions must be >= 1, got {outer!r}")
            self.outer = (left, right)
            self.dim = left * u.shape[0] * right
        defect = max_norm(u.conj().T @ u - np.eye(u.shape[0]))
        gate(
            "unitarity",
            defect,
            lambda tolerance: f"matrix is not unitary: |U^dag U - 1| = {defect:.3e} "
            f"exceeds {tolerance:g}",
        )

    @property
    def matrix(self) -> np.ndarray:
        """The dense matrix; built and kept on first read for the structured forms."""
        if self._matrix is None:
            self._matrix = self._dense()
        return self._matrix

    def _dense(self) -> np.ndarray:
        if self.permutation is not None:
            m = np.zeros((self.dim, self.dim), dtype=np.complex128)
            m[self.permutation, np.arange(self.dim)] = 1.0
            return m
        left, right = self.outer
        return np.kron(
            np.kron(np.eye(left, dtype=complex), self.factor), np.eye(right, dtype=complex)
        )

    def apply(self, a: np.ndarray) -> np.ndarray:
        """U a for an array whose leading axis has length dim."""
        a = np.asarray(a)
        if a.shape[0] != self.dim:
            raise ValueError(f"dimension mismatch: array {a.shape}, unitary {self.dim}")
        if self.permutation is not None:
            return a[self._inverse]
        if self.factor is not None:
            left, _ = self.outer
            d = self.factor.shape[0]
            # the factor multiplies the site axis of (L, d, everything else)
            return (self.factor @ a.reshape(left, d, -1)).reshape(a.shape)
        return self._matrix @ a

    def conjugate(self, a: np.ndarray) -> np.ndarray:
        """U a U^dag for a dim x dim matrix."""
        a = np.asarray(a)
        if a.shape != (self.dim, self.dim):
            raise ValueError(f"dimension mismatch: array {a.shape}, unitary {self.dim}")
        if self.permutation is not None:
            return a[np.ix_(self._inverse, self._inverse)]
        if self.factor is not None:
            _, right = self.outer
            d = self.factor.shape[0]
            b = self.apply(a)
            # (b U^dag) takes conj(u) on the site axis of the column index
            return (self.factor.conj() @ b.reshape(-1, d, right)).reshape(a.shape)
        m = self._matrix
        return m @ a @ m.conj().T


class SpectralDecomposition:
    """Eigenvalues (ascending) and eigenvectors V = W P of a Hermitian operator.

    W = F (+)_k V_k is the momentum basis F of `sectors`
    (`lattice.MomentumSectors`) followed by a unitary block V_k inside each
    sector k, and P the permutation that sorts the columns of W by
    eigenvalue: V e_j = W e_{basis_permutation[j]}.  This class is the only
    code that maps between the order of W and the order of the spectrum.

    - For an operator that commutes with a translation, V is a joint
      eigenbasis of H and T.  `momenta` gives the momentum of each
      eigenvector.  The site reflection R_0 maps eigenvector j to eigenvector
      `partner[j]`, or to `reflection_sign[j]` (+1 or -1) times itself where
      the partner is j (momenta 0 and N/2); elsewhere the sign reads 0.
      `symmetry` holds the labels H was solved with (`lattice.
      ChainSymmetry`, with no letters where none were given).  Where they
      hold a global spin flip F, each eigenvector is also one of F, with
      eigenvalue `flip_sign[j]`, the same as its partner's; without one,
      the signs read 0.  Where they hold an antiunitary A = prod s K, A
      maps each eigenvector to its partner, or to itself where the partner
      is itself.
    - For any other operator `sectors` is None, W is one dense block
      (F = 1), and those six and `symmetry` read None.
      `SpectralDecomposition(w, eigenvectors=v)` holds v as that block with
      P = 1, and `eigenvectors` returns v.

    Rotations go through F, the blocks and index gathers, in O(dim^2 log N +
    dim^3 / N) in sector form: a dim x dim matrix is rotated into and out of
    the order of W by two one-sided passes, W^dag or W on slabs of its
    columns, then W or W^dag from the right on slabs of its rows, each
    slab through F and the blocks together (`MomentumSectors.
    rotate_to_sectors`), and `schur_multiplier` builds its weights in that
    order a slab of rows at a time; the dense V is built on first read of
    `eigenvectors`.  `columns` and `project` apply V and V^dag to a few
    columns at a time through the same column pass of W and W^dag
    (`MomentumSectors.from_sector_columns`, `to_sector_columns`).
    """

    def __init__(self, eigenvalues, eigenvectors):
        w = np.asarray(eigenvalues, dtype=np.float64)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("eigenvalues must form a nonempty 1d array")
        if np.any(np.diff(w) < 0):
            raise ValueError("eigenvalues must be sorted ascending")
        v = as_square_complex(eigenvectors, "eigenvectors")
        if v.shape[0] != w.size:
            raise ValueError(f"eigenvectors have dim {v.shape[0]}, spectrum {w.size}")
        self._hold(w, np.arange(w.size), None, [v])
        self._vectors = v

    @classmethod
    def _in_sectors(cls, w, sectors, blocks, partner, labels, symmetry) -> "SpectralDecomposition":
        """The sector form: the spectrum w and the `blocks` V_k in the order
        of W, the reflection partner of each column of W, and its labels,
        rows of (reflection sign, flip sign), solved with `symmetry`."""
        order = np.argsort(w, kind="stable")
        decomp = cls.__new__(cls)
        decomp._hold(w[order], order, sectors, blocks, partner, labels, symmetry)
        return decomp

    def _hold(self, w, perm, sectors, blocks, partner=None, labels=None, symmetry=None) -> None:
        """Keep both forms' fields; the labels of the columns of W are read
        in the order of the spectrum through perm."""
        self.eigenvalues = w
        self.basis_permutation = perm
        self.sectors = sectors
        self._blocks = blocks
        self._slices = _sector_slices((w.size,) if sectors is None else sectors.dims)
        self._vectors = None
        self.symmetry = symmetry
        self.momenta = self.partner = self.reflection_sign = self.flip_sign = None
        if sectors is not None:
            inv = self._spectrum_order()
            self.momenta = sectors.momenta[perm]
            self.partner = inv[partner[perm]]
            self.reflection_sign, self.flip_sign = np.asarray(labels, dtype=np.int8)[perm].T

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    @property
    def eigenvectors(self) -> np.ndarray:
        if self._vectors is None:
            idx = np.arange(self.dim)
            self._vectors = self.columns(idx, np.ones(self.dim), idx, np.zeros(self.dim))
        return self._vectors

    def columns(self, i, a, j, b) -> np.ndarray:
        """V (a e_i + b e_j) for each entry of (i, a, j, b), as the columns of
        a new complex dim-row array: W on these pair coefficients, each
        sector's rows built from the two columns of its block that an entry
        reads at most (`MomentumSectors.from_sector_columns`)."""
        perm = self.basis_permutation
        i, j = perm[i], perm[j]
        cols = np.arange(i.size)

        def piece(k):
            sl, v = self._slices[k], self._blocks[k]
            y = np.zeros((v.shape[0], i.size), dtype=np.complex128)
            for p, coefficient in ((i, a), (j, b)):
                inside = (p >= sl.start) & (p < sl.stop)
                y[:, cols[inside]] += v[:, p[inside] - sl.start] * coefficient[inside]
            return y

        if self.sectors is None:
            return piece(0)
        return self.sectors.from_sector_columns(piece, i.size)

    def project(self, y: np.ndarray, sets):
        """Q_p^dag V^dag y for each set Q_p of columns a e_i + b e_j of the
        eigenbasis, given as (i, a, j, b), yielded one set at a time from one
        pass of W^dag over the complex dim-row y, which it overwrites
        (`MomentumSectors.to_sector_columns`)."""
        if self.sectors is None:
            (v,) = self._blocks
            y[:] = v.conj().T @ y
        else:
            self.sectors.to_sector_columns(y, self._blocks, out=y)
        perm = self.basis_permutation
        for i, a, j, b in sets:
            yield project_pairs(y, (perm[i], a, perm[j], b))

    def _spectrum_order(self) -> np.ndarray:
        """The index in the spectrum of each column of W."""
        order = np.empty(self.dim, dtype=np.intp)
        order[self.basis_permutation] = np.arange(self.dim)
        return order

    def _rotate_in(self, a: np.ndarray) -> np.ndarray:
        """W^dag a W, a new complex array in the order of W: in sector form
        W^dag on slabs of a's columns, then W from the right on slabs of the
        result's rows (`MomentumSectors.rotate_to_sectors` with the blocks);
        with one block v, the product v^dag a v."""
        if self.sectors is not None:
            return self.sectors.rotate_to_sectors(a, self._blocks)
        (v,) = self._blocks
        return v.conj().T @ a @ v

    def _rotate_out(self, y: np.ndarray) -> np.ndarray:
        """W y W^dag for a complex y in the order of W: the reverse of
        `_rotate_in`, in sector form written into y and returned; with one
        block v, the new product v y v^dag."""
        if self.sectors is not None:
            return self.sectors.rotate_from_sectors(y, self._blocks)
        (v,) = self._blocks
        return v @ y @ v.conj().T

    def sector_blocks(self, a: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """The diagonal sector blocks of W^dag a W, for an `a` that commutes
        with the translation of the sectors, and the index in the spectrum
        of each block's rows.  One rotation in (`_rotate_in`); the entries
        between sectors, which commuting with T forbids, must pass
        `symmetry_gate` within the `reconstruction` tolerance of the largest
        entry.
        Without sectors the one block is V^dag a V in the order of W."""
        y = self._rotate_in(a)
        order = self._spectrum_order()
        blocks, off, scale = [], 0.0, 0.0
        for sl in self._slices:
            band = y[sl]
            blocks.append(band[:, sl].copy())
            band[:, sl] = 0.0
            # np.maximum, unlike max, carries a NaN through to the gate
            off = np.maximum(off, max_norm(band))
            scale = np.maximum(scale, max_norm(blocks[-1]))
        off, scale = float(off), float(np.maximum(scale, off))
        translation = "the translation of its sectors"
        symmetry_gate("reconstruction", off, scale, "matrix", translation, "cross-momentum")
        return blocks, [order[sl] for sl in self._slices]

    def to_eigenbasis(self, a: np.ndarray) -> np.ndarray:
        """V^dag a V, the rows and columns of W^dag a W gathered into the
        order of the spectrum."""
        p = self.basis_permutation
        return self._rotate_in(a)[np.ix_(p, p)]

    def from_eigenbasis(self, b: np.ndarray) -> np.ndarray:
        """V b V^dag, as W b' W^dag for b' = P b P^dag."""
        order = self._spectrum_order()
        b = np.asarray(b)[np.ix_(order, order)]
        return self._rotate_out(b.astype(np.complex128, copy=False))

    def schur_multiplier(self, weights) -> Callable[[np.ndarray], np.ndarray]:
        """The map X -> V (Omega o V^dag X V) V^dag, for Omega(i, l) =
        weights(i, l) on the eigenvector indices i, l of the spectrum (arrays
        of them; None for the identity, which returns a copy of X).

        (V^dag X V)_il = (W^dag X W)_(P i, P l), so Omega is built in the
        order of W, weights(o, o) for o the index in the spectrum of each
        column of W, a slab of SLAB rows at a time on each call and not
        held: each call is one rotation in, an in-place product and one
        rotation out, with no gather into the order of the spectrum.
        """

        def apply(x):
            x = np.asarray(x)
            if x.shape != (self.dim, self.dim):
                raise ValueError(f"dimension mismatch: matrix {x.shape}, spectrum {self.dim}")
            order = self._spectrum_order()
            if weights(order[:1], order[:1]) is None:
                return np.array(x, dtype=np.complex128)
            y = self._rotate_in(x)
            for r in range(0, self.dim, SLAB):
                y[r : r + SLAB] *= weights(order[r : r + SLAB], order)
            return self._rotate_out(y)

        return apply

    def diagonal_from_eigenbasis(self, values) -> np.ndarray:
        """V diag(values) V^dag as a dense matrix: W d W^dag for d the
        values on the diagonal in the order of W (`_rotate_out`)."""
        perm = self.basis_permutation
        y = np.zeros((self.dim, self.dim), dtype=np.complex128)
        y[perm, perm] = values
        return self._rotate_out(y)

    def reconstruct(self) -> np.ndarray:
        return self.diagonal_from_eigenbasis(self.eigenvalues)


def _sector_slices(dims) -> list[slice]:
    """The rows of each sector in sector-major order."""
    edges = np.cumsum((0, *dims))
    return [slice(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])]


def spectral_decompose(a: HermitianOperator, symmetry=None) -> SpectralDecomposition:
    """Full eigendecomposition of a Hermitian operator.

    An operator that carries momentum `sectors` (every chain Hamiltonian) is
    diagonalised sector by sector in the momentum basis
    (`_sector_decompose`), from its nonzero entries, so its eigenbasis is a
    joint eigenbasis with the translation, and with the labels of a given
    `symmetry` (`lattice.ChainSymmetry`): with its global spin flip, and
    phased for its antiunitary prod s K, so that A maps each eigenvector to
    its reflection partner.  Any other operator takes one dense eigensolve.
    """
    if a.sectors is not None:
        return _sector_decompose(a, a.sectors, symmetry)
    if symmetry is not None:
        raise ValueError("a symmetry label needs an operator that carries momentum sectors")
    m = a.matrix
    w, v = _certified_eigh(m, m.shape[0], max_norm(m))
    return SpectralDecomposition(w, eigenvectors=v)


def _certified_eigh(block: np.ndarray, dim: int, scale: float):
    """eigh of a Hermitian block behind the reconstruction gate, the one
    eigensolve of H: a LAPACK failure, or a residual max |V diag(w) V^dag -
    block| above the `reconstruction` tolerance of max(1, scale), raises
    EigensolverError(dim, scale), for the dim and entry scale of the whole
    operator."""
    try:
        w, v = np.linalg.eigh(block)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(dim, scale) from exc
    if block.size:
        resid = max_norm((v * w[np.newaxis, :]) @ v.conj().T - block)
        gate("reconstruction", resid, lambda _: EigensolverError(dim, scale), max(1.0, scale))
    return w, v


def _sector_decompose(h, sectors, symmetry=None) -> SpectralDecomposition:
    """One eigensolve per momentum sector pair of F^dag H F and label, for H
    a HermitianOperator, read as its nonzero entries.

    The blocks F_k^dag H F_k are built from the entries in the orbits'
    representative columns (`sectors.blocks_from_entries`), which stand for
    every column only if H commutes with the translation T; the translation
    gate is the residual T H T^-1 - H over all entries, which vanishes
    exactly when the blocks of F^dag H F between different sectors do.  The
    site reflection R_0 maps sector k onto sector N - k through a phased
    permutation Q (`sectors.mirror`), so for 0 < k < N/2 only sector k is
    solved and sector N - k takes the vectors Q V_k and the same eigenvalues,
    once its block equals Q H_k Q^dag.  Sectors 0 and N/2 map onto
    themselves, and the spin flip of a `symmetry` (`lattice.ChainSymmetry`),
    which commutes with T and R_0, maps every sector onto itself
    (`sectors.flip`): a sector is solved per label, its R_0 parity where it
    has one and then its flip sign (`symmetry_split`), and each block
    between two labels must vanish.  A flip sign is shared by R_0 partners.

    Where the symmetry holds an antiunitary A = prod s K that H commutes
    with, each block is solved in the basis that R_0 A (0 < k < N/2), or A
    (k = 0, N/2), maps onto itself sector by sector (`symmetry_split`), where
    it must be real; its eigenvectors v then obey A v = R_0 v, so A maps each
    eigenvector to its partner, or to itself.  Beside a flip, A commutes
    with it (`ChainSymmetry` refuses one that anticommutes, which would swap
    the flip signs), so each (parity, flip sign) label is solved as a real
    block.  Every solve must reconstruct its block; all gates hold within
    the `reconstruction` tolerance of max(1, scale).
    """
    rows, cols, values = h.entries()
    scale = max_norm(values) if values.size else 0.0
    tol_scale = max(1.0, scale)
    off = sectors.translation_defect(rows, cols, values)
    symmetry_gate(
        "reconstruction", off, tol_scale, "operator", "the translation of its sectors", "off-sector"
    )
    blocks = sectors.blocks_from_entries(rows, cols, values)
    slices = _sector_slices(sectors.dims)
    dim = h.dim
    if symmetry is None:
        # lattice builds on this module, so its symmetry value is read here
        from .lattice import ChainSymmetry

        symmetry = ChainSymmetry(sectors.n_terms)
    flips = None if symmetry.flip is None else sectors.flip(symmetry.flip)
    conj = None if symmetry.real is None else sectors.conjugation(symmetry.real)
    # the symmetry of each label and of the antiunitary, and the entries
    # that break it
    names = {
        0: ("the site reflection of its sectors", "off-parity"),
        1: (f"{symmetry.flip_name} of its sectors", "off-flip"),
        "real": (f"{symmetry.real_name} of its sectors", "imaginary"),
    }

    def solve(block):
        if conj is not None:
            imag = max_norm(block.imag) if block.size else 0.0
            symmetry_gate("reconstruction", imag, tol_scale, "operator", *names["real"])
            block = block.real
        return _certified_eigh(block, dim, scale)

    n = len(slices)
    values, vectors, labels = [None] * n, [None] * n, [None] * n
    partner = np.arange(sectors.dim)
    for k, sl in enumerate(slices):
        k_bar = (-k) % n
        if k_bar < k:
            continue
        block, _ = hermitian_part(blocks[k])
        mirror = sectors.mirror[sl] - slices[k_bar].start
        phase = sectors.mirror_phase[sl]
        # the involutions that map sector k onto itself, keyed by label
        involutions = {}
        if k_bar == k:
            involutions[0] = (mirror, phase)
        if flips is not None:
            involutions[1] = (flips[0][sl] - sl.start, flips[1][sl])
        anti = None
        if conj is not None:
            # A maps sector k onto N - k, so R_0 A maps it onto itself
            image, a_phase = conj[0][sl], conj[1][sl]
            if k_bar != k:
                image, a_phase = sectors.mirror[image], a_phase * sectors.mirror_phase[image]
            anti = (image - sl.start, a_phase)
        labels[k] = np.zeros((block.shape[0], 2), dtype=np.int8)
        if (involutions or anti) and block.size:
            unit = (np.arange(mirror.size), np.ones(mirror.size))
            split = symmetry_split([((), unit)], list(involutions.values()), anti)
            columns = [_dense_columns(mirror.size, *terms) for _, terms in split]
            keys = list(involutions)
            for p, q in combinations(range(len(split)), 2):
                # the first label the two sets differ in names the symmetry
                first = np.flatnonzero(np.subtract(split[p][0], split[q][0]))[0]
                off = max_norm(columns[p].conj().T @ block @ columns[q])
                symmetry_gate("reconstruction", off, tol_scale, "operator", *names[keys[first]])
            pieces = [(b, solve(b.conj().T @ block @ b)) for b in columns]
            values[k] = np.concatenate([w for _, (w, _) in pieces])
            vectors[k] = np.concatenate([b @ v for b, (_, v) in pieces], axis=1)
            sizes = [b.shape[1] for b in columns]
            labels[k][:, keys] = np.repeat([s for s, _ in split], sizes, axis=0)
        else:
            values[k], vectors[k] = solve(block)
        if k_bar == k:
            continue
        w, v = values[k], vectors[k]
        mirrored, _ = hermitian_part(blocks[k_bar])
        if block.size:
            expected = np.outer(phase, phase.conj()) * block
            off = max_norm(mirrored[np.ix_(mirror, mirror)] - expected)
            symmetry_gate("reconstruction", off, tol_scale, "operator", *names[0])
        v_bar = np.empty_like(v)
        v_bar[mirror] = phase[:, np.newaxis] * v
        values[k_bar], vectors[k_bar] = w, v_bar
        # R_0 commutes with the flip, so a partner keeps its flip sign
        labels[k_bar] = labels[k]
        partner[sl] = np.arange(slices[k_bar].start, slices[k_bar].stop)
        partner[slices[k_bar]] = np.arange(sl.start, sl.stop)
    return SpectralDecomposition._in_sectors(
        np.concatenate(values), sectors, vectors, partner, np.concatenate(labels), symmetry
    )


def _dense_columns(dim: int, *terms) -> np.ndarray:
    """The vectors sum_t c_t e_(i_t) as the columns of a dim-row matrix, for
    terms (i_0, c_0, i_1, c_1, ...) of one entry per column each."""
    out = np.zeros((dim, terms[0].size), dtype=np.complex128)
    cols = np.arange(terms[0].size)
    for i, c in zip(terms[0::2], terms[1::2]):
        out[i, cols] += c
    return out


def project_pairs(z: np.ndarray, columns) -> np.ndarray:
    """Q^dag z for the columns a e_i + b e_j of Q, given as (i, a, j, b)."""
    i, a, j, b = columns
    # in place on each gather, so that two row sets are alive at once
    out = z[i]
    np.multiply(a.conj()[:, np.newaxis], out, out=out)
    part = z[j]
    np.multiply(b.conj()[:, np.newaxis], part, out=part)
    out += part
    return out


def parity_vectors(partner: np.ndarray, phase: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """The +1 and then the -1 eigenvectors of an involution Q e_p =
    phase[p] e_{partner[p]}, whose phase is +-1 where partner[p] = p.

    Each sign gets arrays (i, a, j, b), one entry per eigenvector
    a e_i + b e_j in ascending i: e_p for each fixed p of that sign (j = p,
    b = 0), and (e_p +- phase[p] e_q) / sqrt(2) for each pair p < q = partner[p].
    """
    idx = np.arange(partner.size)
    fixed = partner == idx
    out = []
    for sign in (1, -1):
        i = idx[(fixed & (np.rint(phase.real) == sign)) | (partner > idx)]
        paired = partner[i] != i
        a = np.where(paired, np.sqrt(0.5), 1.0).astype(np.complex128)
        b = np.where(paired, sign * np.sqrt(0.5) * phase[i], 0.0)
        out.append((i, a, partner[i], b))
    return out


def symmetry_split(
    sets, involutions, antiunitary=None
) -> list[tuple[tuple[int, ...], tuple[np.ndarray, ...]]]:
    """The joint eigenvectors of commuting involutions inside labelled column
    sets: the one place that builds the vectors of a symmetry label.

    A set is (labels, terms), its columns sum_t c_t e_(i_t) for terms
    (i_0, c_0, i_1, c_1, ...), one entry per column each, the first
    coefficient nonzero, and no basis index in two columns.  An involution
    Q e_p = phase[p] e_image[p] must map each set onto itself and commute
    with those before it; then Q sends each column to a phase times another
    column of its set, checked on every term, and squares to 1 there
    (`_column_involution`); the set splits into the +1 and the -1
    eigenvectors of that column involution (`parity_vectors`), its labels
    extended by the sign and its terms doubled.  Empty sets are dropped.

    An `antiunitary` involution A (image, phase), A sum_p y_p e_p =
    sum_p conj(y_p) phase[p] e_image[p], which must commute with all of
    them, then makes each set real without a label: A sends column x to
    l_x times column y, and the set is spanned by the vectors A fixes,
    sqrt(l_x) times x where y = x, and (x + l_x y) / sqrt(2) and
    i (x - l_x y) / sqrt(2) for each pair x < y.  An operator that A fixes
    has real entries between them.
    """
    steps = [(image, phase, False) for image, phase in involutions]
    if antiunitary is not None:
        steps.append((*antiunitary, True))
    for image, phase, anti in steps:
        out = []
        for labels, terms in sets:
            idx, coef = terms[0::2], terms[1::2]
            target, q_phase = _column_involution(idx, coef, image, phase, anti)
            if anti:
                pieces = [(labels, _real_vectors(target, q_phase))]
            else:
                pieces = [
                    ((*labels, sign), v)
                    for sign, v in zip((1, -1), parity_vectors(target, q_phase))
                ]
            for new_labels, (i, a, j, b) in pieces:
                if i.size:
                    left = [x for t in zip(idx, coef) for x in (t[0][i], a * t[1][i])]
                    right = [x for t in zip(idx, coef) for x in (t[0][j], b * t[1][j])]
                    out.append((new_labels, (*left, *right)))
        sets = out
    return sets


def _column_involution(idx, coef, image, phase, anti: bool) -> tuple[np.ndarray, np.ndarray]:
    """The map a step Q of `symmetry_split` makes of a set's columns (terms
    idx[t], coef[t]): Q x = q[x] times column target[x], for every term of
    x, and Q^2 = 1 on the set, target an involution with q[x] q[target[x]]
    = 1 (conj(q[x]) q[target[x]] = 1 for an antiunitary Q), so a fixed
    column's phase is +-1 (of modulus 1 for an antiunitary Q).  The
    coefficients and phases pass `gate` within the `column` tolerance."""
    owner = np.full(image.size, -1)
    weight = np.zeros(image.size, dtype=np.complex128)
    cols = np.arange(idx[0].size)
    for i, c in zip(idx, coef):
        held = c != 0
        owner[i[held]] = cols[held]
        weight[i[held]] = c[held]
    off_set = "a symmetry does not map a labelled column set onto itself"
    target = owner[image[idx[0]]]
    if (target < 0).any():
        raise ValueError(off_set)
    lead = coef[0].conj() if anti else coef[0]
    q_phase = lead * phase[idx[0]] / weight[image[idx[0]]]
    misses = []
    for i, c in zip(idx, coef):
        held = c != 0
        to = image[i[held]]
        if (owner[to] != target[held]).any():
            raise ValueError(off_set)
        moved = (c.conj() if anti else c)[held] * phase[i[held]]
        misses.append(np.abs(moved - q_phase[held] * weight[to]))
    miss = float(np.max(np.concatenate(misses), initial=0.0))
    gate("column", miss, lambda _: f"{off_set}: coefficients miss by {miss:.3e}")
    unsquared = "a symmetry does not square to 1 on a labelled column set"
    if (target[target] != cols).any():
        raise ValueError(unsquared)
    square = (q_phase.conj() if anti else q_phase) * q_phase[target]
    defect = float(np.max(np.abs(square - 1.0), initial=0.0))
    gate("column", defect, lambda _: f"{unsquared}: phases miss 1 by {defect:.3e}")
    return target, q_phase


def _real_vectors(partner: np.ndarray, phase: np.ndarray) -> tuple[np.ndarray, ...]:
    """The vectors an antiunitary involution A e_p = phase[p] e_{partner[p]}
    fixes, as arrays (i, a, j, b) of a e_i + b e_j: sqrt(phase[p]) e_p for
    each fixed p, then (e_p + phase[p] e_q) / sqrt(2) and
    i (e_p - phase[p] e_q) / sqrt(2) for each pair p < q = partner[p]."""
    idx = np.arange(partner.size)
    fixed, lead = idx[partner == idx], idx[partner > idx]
    half = np.full(lead.size, np.sqrt(0.5), dtype=np.complex128)
    i = np.concatenate((fixed, lead, lead))
    a = np.concatenate((np.sqrt(phase[fixed]), half, 1j * half))
    j = np.concatenate((fixed, partner[lead], partner[lead]))
    b = np.concatenate((np.zeros(fixed.size), half * phase[lead], -1j * half * phase[lead]))
    return i, a, j, b


def matrix_function(decomp: SpectralDecomposition, f) -> HermitianOperator:
    """Apply a real scalar function through the eigendecomposition.

    f may be vectorized over a float array or a plain scalar function; the
    result is V f(Lambda) V^dag, Hermitian by construction.  Non-finite values
    of f on the spectrum raise MatrixFunctionDomainError naming the offending
    eigenvalue; callers that need a kernel convention (such as eta(0) = 0)
    clamp the spectrum before calling.
    """
    w = decomp.eigenvalues
    # non-finite values become a typed error below, so numpy need not warn
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        values = np.asarray(f(w), dtype=np.float64)
        if values.shape != w.shape:
            values = np.array([float(f(x)) for x in w], dtype=np.float64)
    bad = ~np.isfinite(values)
    if bad.any():
        raise MatrixFunctionDomainError(float(w[np.nonzero(bad)[0][0]]))
    return HermitianOperator(decomp.diagonal_from_eigenbasis(values))


@dataclass(frozen=True)
class BlockDensityMatrix:
    """A block-diagonal density matrix held as its diagonal blocks.

    The one positivity gate of the package: each block is certified
    Hermitian on its own entry scale, the traces sum to 1 within the
    `trace` tolerance, and no eigenvalue lies further below 0 than the
    `positivity` tolerance, which absorbs round-off from channel
    arithmetic.  The positivity check is the per-block eigvalsh itself,
    whose concatenated spectrum is kept as `eigenvalues`, so no state is
    eigensolved twice.  The blocks may be given by any iterable; each is
    dropped once its symmetrized copy is made, so a generator of blocks is
    held with one raw block at a time.
    """

    blocks: tuple[np.ndarray, ...]
    eigenvalues: np.ndarray = field(init=False)

    def __post_init__(self):
        blocks = []
        for b in self.blocks:
            blocks.append(HermitianOperator(b).matrix)
            del b
        blocks = tuple(blocks)
        if not blocks:
            raise ValueError("need at least one block")
        tr = sum(b.trace().real for b in blocks)
        gate("trace", abs(tr - 1.0), lambda tol: f"trace {tr!r} is not 1 within {tol:g}")
        w = np.concatenate([np.linalg.eigvalsh(b) for b in blocks])
        lo = float(w.min())
        gate(
            "positivity",
            -lo,
            lambda _: f"matrix is not positive semidefinite: min eigenvalue {lo:.3e}",
        )
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "eigenvalues", w)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size


class DensityMatrix(BlockDensityMatrix):
    """Hermitian, positive semidefinite, unit-trace operator: a
    BlockDensityMatrix of one block, certified by its gates.

    `matrix` is the block and `eigenvalues` its ascending spectrum.
    """

    def __init__(self, matrix):
        super().__init__((matrix,))

    @property
    def matrix(self) -> np.ndarray:
        return self.blocks[0]


def random_density_matrix(dim: int, seed: int) -> DensityMatrix:
    """Full-rank random state G G^dag / tr(G G^dag), G complex standard Gaussian."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace().real)


def random_unitary(dim: int, seed: int) -> UnitaryOperator:
    """Haar-style random unitary from the QR factorization of a Gaussian matrix.

    The R diagonal is rephased to unit modulus so the draw does not depend on
    the QR sign convention.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return UnitaryOperator(q * (d / np.abs(d))[np.newaxis, :])
