"""Dense Hermitian linear algebra kernel.

Spectral decompositions, matrix functions, operator norms, and seeded
generators for randomized property tests.  Operators are plain complex
numpy arrays wrapped in thin validated containers.  Every matrix function
goes through a full eigendecomposition, which keeps results exactly
Hermitian and is affordable at the dimensions this package targets.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# construction tolerances
HERMITICITY_RTOL = 1e-12
UNITARITY_ATOL = 1e-10
RECONSTRUCTION_RTOL = 1e-10
TRACE_ATOL = 1e-10
PSD_EIGENVALUE_FLOOR = -1e-12

# relative cutoff separating a genuine spectral kernel from round-off
SUPPORT_RTOL = 1e-14

# edge of the square tiles HermitianOperator symmetrizes at a time
_TILE = 256


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


def _as_square(matrix, name: str) -> np.ndarray:
    a = np.asarray(matrix, dtype=np.complex128)
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
    if max_norm(a - a.conj().T) <= 1e-12 * scale:
        return float(np.abs(np.linalg.eigvalsh((a + a.conj().T) / 2)).max())
    return float(np.linalg.norm(a, 2))


def commutator(a, b) -> np.ndarray:
    return a @ b - b @ a


def trace_product(a, b) -> complex:
    """tr(a @ b) without forming the product matrix."""
    return complex(np.einsum("ij,ji->", a, b))


def hermitian_part(a: np.ndarray) -> tuple[np.ndarray, float]:
    """(a + a^dag) / 2 and max|a - a^dag|, in one pass over square tiles.

    The tile at (j, i) of the output is the conjugate transpose of the one
    at (i, j), so each pair is formed once, and no transposed copy of the
    whole array is made.  The result equals (a + a.conj().T) / 2 bit for bit.
    """
    dim = a.shape[0]
    out = np.empty_like(a)
    defect = 0.0
    for i in range(0, dim, _TILE):
        for j in range(i, dim, _TILE):
            upper = a[i : i + _TILE, j : j + _TILE]
            lower = a[j : j + _TILE, i : i + _TILE].conj().T
            defect = max(defect, max_norm(upper - lower))
            out[i : i + _TILE, j : j + _TILE] = (upper + lower) / 2
            if j > i:
                out[j : j + _TILE, i : i + _TILE] = out[i : i + _TILE, j : j + _TILE].conj().T
    return out, defect


@dataclass(frozen=True)
class HermitianOperator:
    """Square complex matrix certified Hermitian at construction.

    The stored matrix is exactly (A + A^dag) / 2; construction rejects inputs
    whose anti-Hermitian part exceeds HERMITICITY_RTOL relative to the entry
    scale.
    """

    matrix: np.ndarray
    # momentum sectors of a translation the operator commutes with (set by
    # build_hamiltonian); spectral_decompose then solves it sector by sector
    sectors: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        a = _as_square(self.matrix, "matrix")
        # |a|.max() is finite exactly when every entry is
        scale = max_norm(a)
        _check_finite(np.isfinite(scale), "matrix")
        out, defect = hermitian_part(a)
        if defect > HERMITICITY_RTOL * scale:
            raise ValueError(
                f"matrix is not Hermitian: anti-Hermitian defect {defect:.3e} "
                f"exceeds {HERMITICITY_RTOL:g} * scale {scale:.3e}"
            )
        object.__setattr__(self, "matrix", out)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


class UnitaryOperator:
    """A unitary certified at construction, held in one of three forms.

    - `matrix`: a dense square matrix, certified by |U^dag U - 1| <= UNITARITY_ATOL.
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
        if matrix is not None:
            a = as_square_complex(matrix)
            _check_unitary(a)
            self._matrix = a
            self.dim = a.shape[0]
        elif permutation is not None:
            perm = np.asarray(permutation, dtype=np.intp)
            if perm.ndim != 1 or not np.array_equal(np.sort(perm), np.arange(perm.size)):
                raise ValueError("permutation is not a bijection on the basis")
            self.permutation = perm
            self._inverse = np.empty_like(perm)
            self._inverse[perm] = np.arange(perm.size)
            self.dim = perm.size
        else:
            u = as_square_complex(factor, "factor")
            left, right = (int(x) for x in outer)
            if left < 1 or right < 1:
                raise ValueError(f"outer dimensions must be >= 1, got {outer!r}")
            _check_unitary(u)
            self.factor = u
            self.outer = (left, right)
            self.dim = left * u.shape[0] * right

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


def _check_unitary(a: np.ndarray) -> None:
    defect = max_norm(a.conj().T @ a - np.eye(a.shape[0]))
    if defect > UNITARITY_ATOL:
        raise ValueError(
            f"matrix is not unitary: |U^dag U - 1| = {defect:.3e} "
            f"exceeds {UNITARITY_ATOL:g}"
        )


class SpectralDecomposition:
    """Eigenvalues (ascending) and eigenvectors of a Hermitian operator.

    Three forms share one interface:

    - `eigenvectors`: a dense eigenvector matrix V;
    - `basis_permutation` alone, for an operator diagonal in the
      computational basis: V e_j = e_{basis_permutation[j]};
    - `basis_permutation` with a `frame` W (`SectorFrame`), for an operator
      that commutes with a translation: V e_j = W e_{basis_permutation[j]},
      where W = F (+)_k V_k is the momentum basis F followed by the
      eigenvectors of each momentum sector.  `momenta` gives the momentum of
      each eigenvector, so this eigenbasis is a joint eigenbasis of H and T.

    The structured forms rotate through index gathers and, with a frame, an
    FFT over orbit shifts plus per-sector products, in O(dim^2 log N +
    dim^3 / N); their dense eigenvector matrix is built on first read of
    `eigenvectors`.
    """

    def __init__(self, eigenvalues, eigenvectors=None, basis_permutation=None, frame=None):
        w = np.asarray(eigenvalues, dtype=np.float64)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("eigenvalues must form a nonempty 1d array")
        if np.any(np.diff(w) < 0):
            raise ValueError("eigenvalues must be sorted ascending")
        if (eigenvectors is None) == (basis_permutation is None):
            raise ValueError("provide exactly one of eigenvectors or basis_permutation")
        if frame is not None and basis_permutation is None:
            raise ValueError("a frame goes with a basis_permutation")
        self.eigenvalues = w
        self._vectors = None
        self.basis_permutation = None
        self.frame = frame
        self.momenta = None
        if eigenvectors is not None:
            v = as_square_complex(eigenvectors, "eigenvectors")
            if v.shape[0] != w.size:
                raise ValueError("eigenvector block does not match eigenvalue count")
            self._vectors = v
        else:
            perm = np.asarray(basis_permutation, dtype=np.intp)
            if perm.shape != (w.size,) or np.bincount(perm, minlength=w.size).max() != 1:
                raise ValueError("basis_permutation is not a bijection")
            self.basis_permutation = perm
            if frame is not None:
                if frame.dim != w.size:
                    raise ValueError(f"frame has dim {frame.dim}, spectrum {w.size}")
                self.momenta = frame.momenta[perm]

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    @property
    def eigenvectors(self) -> np.ndarray:
        if self._vectors is None:
            v = np.zeros((self.dim, self.dim), dtype=np.complex128)
            v[self.basis_permutation, np.arange(self.dim)] = 1.0
            self._vectors = v if self.frame is None else self.frame.apply(v)
        return self._vectors

    def to_eigenbasis(self, a: np.ndarray) -> np.ndarray:
        """V^dag a V."""
        if self.basis_permutation is not None:
            if self.frame is not None:
                a = self.frame.to_frame(a)
            p = self.basis_permutation
            return a[np.ix_(p, p)]
        v = self._vectors
        return v.conj().T @ a @ v

    def from_eigenbasis(self, b: np.ndarray) -> np.ndarray:
        """V b V^dag."""
        if self.basis_permutation is not None:
            inv = np.empty(self.dim, dtype=np.intp)
            inv[self.basis_permutation] = np.arange(self.dim)
            b = b[np.ix_(inv, inv)]
            return b if self.frame is None else self.frame.from_frame(b)
        v = self._vectors
        return v @ b @ v.conj().T

    def diagonal_from_eigenbasis(self, values) -> np.ndarray:
        """V diag(values) V^dag as a dense matrix."""
        values = np.asarray(values)
        if self.basis_permutation is not None:
            d = np.zeros(self.dim, dtype=values.dtype)
            d[self.basis_permutation] = values
            if self.frame is not None:
                return self.frame.diagonal(d)
            return np.diag(d.astype(np.complex128))
        v = self._vectors
        return (v * values[np.newaxis, :]) @ v.conj().T

    def reconstruct(self) -> np.ndarray:
        return self.diagonal_from_eigenbasis(self.eigenvalues)


class SectorFrame:
    """The unitary W = F (+)_k V_k: a momentum basis F, then a unitary V_k
    inside each sector k.

    `sectors` supplies F as `to_sectors` (F^dag x) and `from_sectors` (F y)
    in sector-major order, with the sector dimensions `dims` and the
    momentum of each position `momenta` (`lattice.MomentumSectors`).  The
    rotations are O(dim log N) per column for F and O(dim^2 / N) per column
    for the sector blocks.
    """

    def __init__(self, sectors, vectors):
        self.sectors = sectors
        self.vectors = list(vectors)
        self.dim = sectors.dim
        self.momenta = sectors.momenta
        self.slices = _sector_slices(sectors.dims)
        if [v.shape for v in self.vectors] != [(d, d) for d in sectors.dims]:
            raise ValueError("sector vectors do not match the sector dimensions")

    def apply(self, x: np.ndarray) -> np.ndarray:
        """W x for x whose leading axis has length dim."""
        y = np.empty_like(x, dtype=np.complex128)
        for sl, v in zip(self.slices, self.vectors):
            y[sl] = v @ x[sl]
        return self.sectors.from_sectors(y)

    def adjoint(self, x: np.ndarray) -> np.ndarray:
        """W^dag x for x whose leading axis has length dim."""
        y = self.sectors.to_sectors(x)
        for sl, v in zip(self.slices, self.vectors):
            y[sl] = v.conj().T @ y[sl]
        return y

    def to_frame(self, a: np.ndarray) -> np.ndarray:
        """W^dag a W = (W^dag (W^dag a)^dag)^dag."""
        return self.adjoint(self.adjoint(a).conj().T).conj().T

    def from_frame(self, b: np.ndarray) -> np.ndarray:
        """W b W^dag = (W (W b)^dag)^dag."""
        return self.apply(self.apply(b).conj().T).conj().T

    def diagonal(self, d: np.ndarray) -> np.ndarray:
        """W diag(d) W^dag, through the block-diagonal F^dag W diag(d) W^dag F."""
        y = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for sl, v in zip(self.slices, self.vectors):
            y[sl, sl] = (v * d[sl][np.newaxis, :]) @ v.conj().T
        f = self.sectors.from_sectors
        return f(f(y).conj().T).conj().T


def _sector_slices(dims) -> list[slice]:
    """The rows of each sector in sector-major order."""
    edges = np.cumsum((0, *dims))
    return [slice(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])]


def spectral_decompose(a: HermitianOperator) -> SpectralDecomposition:
    """Full eigendecomposition of a Hermitian operator.

    Exactly diagonal inputs take a sort-only path that stores a basis
    permutation instead of a dense eigenvector matrix; the chain models with
    purely diagonal Hamiltonians rely on this to stay cheap at large dims.
    An operator that carries momentum `sectors` is diagonalised sector by
    sector in the momentum basis (`_sector_decompose`); everything else
    takes one dense eigensolve.
    """
    m = a.matrix
    diag = np.diagonal(m)
    if max_norm(m - np.diag(diag)) == 0.0:
        order = np.argsort(diag.real, kind="stable")
        return SpectralDecomposition(
            diag.real[order], basis_permutation=np.asarray(order, dtype=np.intp)
        )
    if a.sectors is not None:
        return _sector_decompose(m, a.sectors)
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(m.shape[0], max_norm(m)) from exc
    decomp = SpectralDecomposition(w, eigenvectors=v)
    resid = max_norm(decomp.reconstruct() - m)
    if resid > RECONSTRUCTION_RTOL * max(1.0, max_norm(m)):
        raise EigensolverError(m.shape[0], max_norm(m))
    return decomp


def _sector_decompose(m: np.ndarray, sectors) -> SpectralDecomposition:
    """One eigensolve per momentum sector of F^dag m F.

    The blocks of F^dag m F between different sectors must vanish (m
    commutes with the translation), and each sector's eigenpairs must
    reconstruct its block, both within RECONSTRUCTION_RTOL of the scale.
    """
    scale = max_norm(m)
    tol = RECONSTRUCTION_RTOL * max(1.0, scale)
    # F^dag m^dag F, which is F^dag m F for Hermitian m
    x = sectors.to_sectors(sectors.to_sectors(m).conj().T)
    values, vectors, off = [], [], 0.0
    for sl in _sector_slices(sectors.dims):
        rows = x[sl]
        outside = np.concatenate((rows[:, : sl.start], rows[:, sl.stop :]), axis=1)
        if outside.size:
            off = max(off, max_norm(outside))
        block, _ = hermitian_part(rows[:, sl])
        try:
            w, v = np.linalg.eigh(block)
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(m.shape[0], scale) from exc
        if block.size and max_norm((v * w[np.newaxis, :]) @ v.conj().T - block) > tol:
            raise EigensolverError(m.shape[0], scale)
        values.append(w)
        vectors.append(v)
    if off > tol:
        raise ValueError(
            "operator does not commute with the translation of its sectors: "
            f"off-sector entries reach {off:.3e}, above {tol:.3e}"
        )
    w = np.concatenate(values)
    order = np.argsort(w, kind="stable")
    return SpectralDecomposition(
        w[order], basis_permutation=order, frame=SectorFrame(sectors, vectors)
    )


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
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace operator.

    Positivity is checked by a shifted Cholesky factorization (fast) with an
    eigenvalue fallback near the boundary; eigenvalues may dip to
    PSD_EIGENVALUE_FLOOR to absorb round-off from channel arithmetic.
    """

    matrix: np.ndarray
    _spectrum: np.ndarray | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        a = HermitianOperator(self.matrix).matrix
        _check_unit_trace(a.trace().real)
        if not _shifted_cholesky_succeeds(a):
            w = np.linalg.eigvalsh(a)
            _check_psd_floor(float(w.min()))
            object.__setattr__(self, "_spectrum", w)
        object.__setattr__(self, "matrix", a)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def spectrum(self) -> np.ndarray:
        """Eigenvalues in ascending order, solved at most once per state (the
        positivity gate's fallback may already have solved them)."""
        if self._spectrum is None:
            object.__setattr__(self, "_spectrum", np.linalg.eigvalsh(self.matrix))
        return self._spectrum


def _shifted_cholesky_succeeds(a: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(a - 2 * PSD_EIGENVALUE_FLOOR * np.eye(a.shape[0]))
    except np.linalg.LinAlgError:
        return False
    return True


def _check_unit_trace(tr: float) -> None:
    if abs(tr - 1.0) > TRACE_ATOL:
        raise ValueError(f"trace {tr!r} is not 1 within {TRACE_ATOL:g}")


def _check_psd_floor(lo: float) -> None:
    if lo < PSD_EIGENVALUE_FLOOR:
        raise ValueError(f"matrix is not positive semidefinite: min eigenvalue {lo:.3e}")


@dataclass(frozen=True)
class BlockDensityMatrix:
    """A block-diagonal density matrix held as its diagonal blocks.

    Construction applies the DensityMatrix gates to the blocks: each block is
    certified Hermitian on its own entry scale, the traces sum to 1, and no
    eigenvalue lies below PSD_EIGENVALUE_FLOOR.  The positivity check is the
    per-block eigensolve itself, whose concatenated spectrum is kept.
    """

    blocks: tuple[np.ndarray, ...]
    eigenvalues: np.ndarray = field(init=False)

    def __post_init__(self):
        blocks = tuple(HermitianOperator(b).matrix for b in self.blocks)
        if not blocks:
            raise ValueError("need at least one block")
        _check_unit_trace(sum(b.trace().real for b in blocks))
        w = np.concatenate([np.linalg.eigvalsh(b) for b in blocks])
        _check_psd_floor(float(w.min()))
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "eigenvalues", w)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size


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
