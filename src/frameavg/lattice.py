"""Finite periodic spin chains.

Site-local operator embedding, the cyclic translation unitary and its
momentum sectors, and the model Hamiltonians.  Every site is a qubit.  Basis
convention: site 0 is the most significant bit of the computational-basis
index, so the index bits read left to right as sites 0 .. N-1.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import (
    RECONSTRUCTION_RTOL,
    SLAB,
    HermitianOperator,
    UnitaryOperator,
    _sector_slices,
    as_square_complex,
    max_norm,
)

DIM_GUARD = 2**14

# raised where a translation is used through its basis permutation
NEEDS_PERMUTATION = "the translation must carry its basis permutation, not only a dense matrix"

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


@dataclass(frozen=True)
class LatticeSpec:
    """Periodic chain geometry: N sites, each a qubit."""

    sites: int

    def __post_init__(self):
        if self.sites < 2:
            raise ValueError(f"need at least 2 sites, got {self.sites}")
        if self.dim > DIM_GUARD:
            raise LatticeSizeError(
                f"chain of {self.sites} sites has Hilbert dimension {self.dim}, "
                f"above the guard {DIM_GUARD}"
            )

    @property
    def dim(self) -> int:
        return 2**self.sites


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
    if op.local_matrix.shape[0] != 2:
        raise ValueError(f"local matrix has dim {op.local_matrix.shape[0]}, lattice expects 2")
    return 2**op.site, 2 ** (lattice.sites - 1 - op.site)


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
    indices T e_i = e_{perm[i]} with perm[i] = (i mod 2) * 2^(N-1) + i div 2.
    The operator is held as that permutation; its dense matrix is built only
    when read.  `build_hamiltonian` is its one caller in the package: H
    carries its momentum sectors, and every channel and reflection reads T
    and N from there.
    """
    dim = lattice.dim
    idx = np.arange(dim)
    return UnitaryOperator(permutation=(idx % 2) * (dim // 2) + idx // 2)


class MomentumSectors:
    """The momentum basis F of a translation, built from its basis permutation;
    `translation` and `n_terms` keep T and its order N.

    With r running over the orbits of the permutation and L_r the orbit
    length, sector k holds the orbits with N | k L_r, through the vectors

        |r, k> = (sqrt(L_r) / N) sum_{n < N} e^{-2 pi i k n / N} T^n |r>,

    which satisfy T |r, k> = e^{2 pi i k / N} |r, k>.  The sector dimensions
    sum to dim (Sandvik, arXiv:1101.3281, section 4).  The uniform average
    of X over the N translates is the projection onto the eigenspaces of T,
    so it keeps exactly the N diagonal blocks of F^dag X F.

    The site reflection R_0: j -> -j mod N satisfies R_0 T R_0 = T^-1, so it
    maps sector k onto sector N - k, |r, k> to a phase times |r', -k> with r'
    the reflected orbit (`reflection`, `mirror`, `mirror_phase`).

    `to_sector_columns` and `from_sector_columns` apply W^dag and W to the
    columns of an array, for W = F (+)_k B_k with a unitary block B_k inside
    each sector, through an FFT over the shifts on the shift-major grid of
    the orbits, in O(dim log N) per column plus the blocks; the sector-major
    order lists sector 0, then sector 1, and so on, and `momenta` gives the
    sector of each position.  They are the one statement of W and W^dag on
    columns: `rotate_to_sectors` and `rotate_from_sectors` apply W^dag a W
    and W y W^dag to a dim x dim matrix by two one-sided passes, those on
    slabs of its columns, then their mirror from the right on slabs of its
    rows.

    Every slot of the grid is held shift-major: T^m |r> at m n_orbits + r,
    which after the FFT over the shifts is |r, k> at k n_orbits + r.
    """

    def __init__(self, t: UnitaryOperator, n_terms: int):
        if n_terms < 1:
            raise ValueError("need at least one term")
        if t.permutation is None:
            raise ValueError(NEEDS_PERMUTATION)
        dim = t.dim
        self.translation = t
        self.n_terms = n_terms
        # shifts[n, i] is the basis index of T^n e_i
        shifts = np.empty((n_terms, dim), dtype=np.intp)
        shifts[0] = np.arange(dim)
        for n in range(1, n_terms):
            shifts[n] = t.permutation[shifts[n - 1]]
        if not np.array_equal(t.permutation[shifts[-1]], shifts[0]):
            raise ValueError(f"translation operator does not have order {n_terms}")
        reps = np.nonzero(shifts.min(axis=0) == shifts[0])[0]
        n_orbits = reps.size
        self.dim = dim
        self._orbits = shifts[:, reps].T
        returns = shifts[1:, reps] == reps
        lengths = np.where(returns.any(axis=0), returns.argmax(axis=0) + 1, n_terms)
        self._root_lengths = np.sqrt(lengths)
        k = np.arange(n_terms)
        allowed = np.outer(k, lengths) % n_terms == 0
        self._members = [np.nonzero(row)[0] for row in allowed]
        # the basis index on each slot of the grid, the slot of each basis
        # state (T^m |r> at its first shift m < L_r), and the slot of each
        # position of the sector-major order
        self._grid = self._orbits.T.ravel()
        first = (k[:, np.newaxis] < lengths).ravel()
        self._position = np.empty(dim, dtype=np.intp)
        self._position[self._grid[first]] = np.nonzero(first)[0]
        self._select = np.concatenate([q * n_orbits + m for q, m in enumerate(self._members)])
        self.momenta = np.repeat(k, self.dims)
        # the site reflection R_0 (j -> -j mod N) reverses T, so it maps
        # R_0 |r, k> = e^{-2 pi i k m / N} |r', -k> where R_0 |r> = T^m |r'>:
        # position p of the sector-major order goes to mirror[p] with that phase
        self.reflection = _site_reflection(dim, n_terms)
        r = self.reflection
        if not np.array_equal(r[t.permutation[r[t.permutation]]], shifts[0]):
            raise ValueError("the site reflection does not reverse the translation")
        self._place = np.empty(self._orbits.size, dtype=np.intp)
        self._place[self._select] = np.arange(dim)
        self.mirror, self.mirror_phase = self._image(r, np.ones(dim), reverse=True)
        self._slices = _sector_slices(self.dims)

    def _image(self, perm, phase, reverse: bool) -> tuple[np.ndarray, np.ndarray]:
        """Where a phased permutation G e_x = phase[x] e_perm[x] of the basis
        sends each |r, k> of the sector-major order, for G that commutes with
        T, or reverses it: G |r> = phase[r] T^m |r'> gives

            G |r, k> = phase[r] e^{+-2 pi i k m / N} |r', +-k>,

        the lower signs where G reverses T."""
        n_orbits, n = self._orbits.shape
        q, orbit = np.divmod(self._select, n_orbits)
        rep = self._orbits[orbit, 0]
        m, image = np.divmod(self._position[perm[rep]], n_orbits)
        angle = 2j * np.pi * ((q * m) % n) / n
        if reverse:
            return self._place[((-q) % n) * n_orbits + image], phase[rep] * np.exp(-angle)
        return self._place[q * n_orbits + image], phase[rep] * np.exp(angle)

    def flip(self, letter: str) -> tuple[np.ndarray, np.ndarray]:
        """The global spin flip F = prod_j sigma_j for the Pauli `letter`
        (`site_product`) in sector-major order: F |r, k> = phase[p] |r', k>
        sits at image[p], in the sector of p, for each position p."""
        return self._image(*site_product(self.n_terms, _local(letter)), reverse=False)

    def conjugation(self, letter: str) -> tuple[np.ndarray, np.ndarray]:
        """The antiunitary A = F K in sector-major order, for K the complex
        conjugation of the computational basis and F the flip of `letter`
        (I for none): K |r, k> = |r, -k>, so A |r, k> = phase[p] |r', -k>
        sits at image[p], in the sector mirror to that of p, and
        A sum_p y_p |p> = sum_p conj(y_p) phase[p] |image[p]>.  A must
        square to 1 and commute with any flip beside it, which
        `ChainSymmetry` checks."""
        n_orbits, n = self._orbits.shape
        q, orbit = np.divmod(self._select, n_orbits)
        negated = self._place[((-q) % n) * n_orbits + orbit]
        image, phase = self.flip(letter)
        return image[negated], phase[negated]

    @property
    def dims(self) -> tuple[int, ...]:
        """Sector dimensions in momentum order k = 0 .. N-1."""
        return tuple(m.size for m in self._members)

    def blocks_from_entries(self, rows, cols, values) -> list[np.ndarray]:
        """The N diagonal blocks of F^dag H F, in momentum order, for H given
        by its nonzero entries H[rows, cols] = values and commuting with T.

        Only the representative columns are read: with H|r> = sum_a H[a, r] |a>
        and a = T^n_a |r_a>,

            H |r, k> = sum_a H[a, r] e^{2 pi i k n_a / N} sqrt(L_r / L_a) |r_a, k>,

        summed over the a whose orbit belongs to sector k, in O(nnz) for all
        blocks together (Sandvik, arXiv:1101.3281, section 4).
        """
        n_orbits, n = self._orbits.shape
        column = np.full(self.dim, -1)
        column[self._orbits[:, 0]] = np.arange(n_orbits)
        keep = column[cols] >= 0
        r = column[cols[keep]]
        n_a, r_a = np.divmod(self._position[rows[keep]], n_orbits)
        amplitude = values[keep] * (self._root_lengths[r] / self._root_lengths[r_a])
        out = []
        for k, members in enumerate(self._members):
            index = np.full(n_orbits, -1)
            index[members] = np.arange(members.size)
            i, j = index[r_a], index[r]
            inside = (i >= 0) & (j >= 0)
            flat = i[inside] * members.size + j[inside]
            w = amplitude[inside] * np.exp(2j * np.pi * ((k * n_a[inside]) % n) / n)
            size = members.size**2
            block = np.bincount(flat, w.real, size) + 1j * np.bincount(flat, w.imag, size)
            out.append(block.reshape(members.size, members.size))
        return out

    def translation_defect(self, rows, cols, values) -> float:
        """max |T H T^-1 - H| over the entries of H, given as H[rows, cols] =
        values with no position listed twice; 0 exactly when H commutes with
        T, so that the blocks of F^dag H F between sectors vanish."""
        return conjugation_defect(self.translation.permutation, None, rows, cols, values)

    def to_sector_columns(self, x: np.ndarray, blocks, out=None) -> np.ndarray:
        """W^dag x in sector-major order, for W = F (+)_k B_k and the columns
        of a dim-row x, written to `out` (which may be x itself) or to a new
        complex array:

            <r, k| F^dag x = sqrt(L_r) / N sum_{n < N} e^{2 pi i k n / N} x[T^n r].

        x is gathered onto the shift-major (shift, orbit) grid, T^n |r> at
        row n, orbit r, inverse-transformed over the shifts in place, and
        each momentum k takes its member orbits' row of the grid into its
        sector through B_k^dag."""
        n_orbits, n = self._orbits.shape
        g = x[self._grid].astype(np.complex128, copy=False).reshape(n, n_orbits, -1)
        np.fft.ifft(g, axis=0, out=g)
        g *= self._root_lengths[:, np.newaxis]
        if out is None:
            out = np.empty((self.dim, g.shape[2]), dtype=np.complex128)
        for k, (members, sl) in enumerate(zip(self._members, self._slices)):
            np.matmul(blocks[k].conj().T, g[k, members], out=out[sl])
        return out

    def from_sector_columns(self, piece, width: int) -> np.ndarray:
        """F y for `width` columns y in sector-major order, given a sector at
        a time: piece(k) is y's d_k x width rows in sector k, B_k already
        applied for W y.  The pieces are laid onto the member orbits of the
        shift-major grid, transformed over the shifts in place and gathered
        into a new complex dim-row array:

            <T^n r| F y = 1 / sqrt(L_r) sum_k e^{-2 pi i k n / N} y[(r, k)],

        an orbit of length L_r < N repeating N / L_r times in each column of
        the grid."""
        n_orbits, n = self._orbits.shape
        z = np.zeros((n, n_orbits, width), dtype=np.complex128)
        for k, members in enumerate(self._members):
            z[k, members] = piece(k)
        np.fft.fft(z, axis=0, out=z)
        z /= self._root_lengths[:, np.newaxis]
        return z.reshape(n * n_orbits, width)[self._position]

    def rotate_to_sectors(self, a: np.ndarray, blocks) -> np.ndarray:
        """W^dag a W in sector-major order, for a dim x dim matrix a and W = F
        (+)_k B_k, as a new complex array:

            <r, k| a |s, q> = sqrt(L_r L_s) / N^2
                sum_{n, m < N} e^{2 pi i (k n - q m) / N} a[T^n r, T^m s],

        in two one-sided passes: `to_sector_columns` on each slab of SLAB
        columns of a, written straight into the result; then each slab of
        rows of the result the same from the right, gathered onto the grid
        along each row, transformed over the shifts and each momentum's
        member orbits taken through B_k."""
        dim = self.dim
        n_orbits, n = self._orbits.shape
        a = np.asarray(a)
        y = np.empty((dim, dim), dtype=np.complex128)
        for c in range(0, dim, SLAB):
            self.to_sector_columns(a[:, c : c + SLAB], blocks, out=y[:, c : c + SLAB])
        for r in range(0, dim, SLAB):
            g = np.take(y[r : r + SLAB], self._grid, axis=1).reshape(-1, n, n_orbits)
            np.fft.fft(g, axis=1, out=g)
            g *= self._root_lengths / n
            for k, (members, sl) in enumerate(zip(self._members, self._slices)):
                np.matmul(g[:, k, members], blocks[k], out=y[r : r + SLAB, sl])
            # freed before the next slab's gather, as below
            del g
        return y

    def rotate_from_sectors(self, y: np.ndarray, blocks) -> np.ndarray:
        """W y W^dag for a complex y in sector-major order, written into y and
        returned; the inverse of `rotate_to_sectors`, by the same passes
        backwards:

            <T^n r| y |T^m s> = 1 / sqrt(L_r L_s)
                sum_{k, q} e^{-2 pi i (k n - q m) / N} y[(r, k), (s, q)].

        Each slab of columns is taken out of the sectors through B_k and
        back to the basis (`from_sector_columns`); then each slab of rows
        the same from the right through B_k^dag."""
        dim = self.dim
        n_orbits, n = self._orbits.shape
        slices = self._slices
        for c in range(0, dim, SLAB):
            cols = slice(c, c + SLAB)
            y[:, cols] = self.from_sector_columns(
                lambda k: blocks[k] @ y[slices[k], cols], min(SLAB, dim - c)
            )
        for r in range(0, dim, SLAB):
            rows = slice(r, r + SLAB)
            z = np.zeros((min(SLAB, dim - r), n, n_orbits), dtype=np.complex128)
            for k, (members, sl) in enumerate(zip(self._members, slices)):
                z[:, k, members] = y[rows, sl] @ blocks[k].conj().T
            np.fft.ifft(z, axis=1, out=z)
            z *= n / self._root_lengths
            y[rows] = np.take(z.reshape(z.shape[0], -1), self._position, axis=1)
            del z
        return y


def conjugation_defect(perm, phase, rows, cols, values, antiunitary: bool = False) -> float:
    """max |G H G^dag - H| over the entries of H, given as H[rows, cols] =
    values with no position listed twice, for the phased permutation
    G e_x = phase[x] e_perm[x] (phase None for 1), or with `antiunitary`
    for G K, K the complex conjugation of the basis."""
    dim = perm.size
    moved = values.conj() if antiunitary else values
    if phase is not None:
        moved = phase[rows] * moved * phase[cols].conj()
    keys = np.concatenate((rows * dim + cols, perm[rows] * dim + perm[cols]))
    _, at = np.unique(keys, return_inverse=True)
    signed = np.concatenate((values, -moved))
    diff = np.bincount(at, signed.real) + 1j * np.bincount(at, signed.imag)
    return float(np.abs(diff).max(initial=0.0))


def site_product(n: int, local: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """prod_j a_j on n qubits, for a 2 x 2 matrix a with one nonzero entry per
    column (a Pauli matrix), as the phased permutation F e_x = phase[x]
    e_perm[x]: each site's bit b goes to the row of column b's entry, and
    the phase collects those entries."""
    idx = np.arange(2**n)
    image = np.abs(local).argmax(axis=0)
    entry = local[image, np.arange(2)]
    perm = np.zeros_like(idx)
    phase = np.ones(idx.size, dtype=np.complex128)
    for shift in range(n):
        bit = (idx >> shift) & 1
        perm |= image[bit] << shift
        phase *= entry[bit]
    return perm, phase


@dataclass(frozen=True)
class ChainSymmetry:
    """The symmetry labels a chain of `sites` sites is solved with: the
    global spin flip F = prod_j f_j of Pauli letter `flip`, and the
    antiunitary A = prod_j s_j K of letter `real` (I for K alone), K the
    complex conjugation of the computational basis; None for a label that
    is absent.  `chain_symmetry` picks them.

    The constructor holds the rules that pair them.  A must square to 1:
    (prod_j s_j K)^2 = (s s^*)^N, which only time reversal prod Y K at odd
    N breaks, and then no vector is fixed.  Beside a flip, A must commute
    with it: A F A^-1 = prod_j s f^* s^dag = eps^N F for the sign eps of
    s f^* s^dag = eps f, and where eps^N = -1, A would swap the flip's two
    sectors instead of fixing each.  `flip_name` and `real_name` name the
    two symmetries in every message that quotes one.
    """

    sites: int
    flip: str | None = None
    real: str | None = None

    def __post_init__(self):
        if self.real is None:
            return
        n, s, f = self.sites, _local(self.real), _local(self.flip or "I")
        if not (s @ s.conj())[0, 0].real ** n > 0:
            raise ValueError(f"prod {self.real} K squares to -1 on {n} sites: no real structure")
        # eps of s f^* s^dag = eps f, 1 where there is no flip
        if not (np.trace(f.conj().T @ s @ f.conj() @ s.conj().T).real / 2) ** n > 0:
            raise ValueError(
                f"prod {self.real} K anticommutes with {self.flip_name} on {n} sites: "
                "no real structure beside it"
            )

    @property
    def flip_name(self) -> str:
        return f"the spin flip prod {self.flip}"

    @property
    def real_name(self) -> str:
        return f"the antiunitary prod {self.real} K"


def chain_symmetry(h: HermitianOperator, generator) -> ChainSymmetry | None:
    """The labels that the chain Hamiltonian h and a kick exp(-i lambda g)
    generated by the 2 x 2 `generator` g are solved with, or None where h
    carries no momentum sectors of qubits: the first letter s of X, Y, Z
    whose global flip prod_j s_j commutes with both, and the first of I, X,
    Y, Z whose antiunitary prod_j s_j K commutes with both and pairs with
    that flip (`ChainSymmetry`); None for a label no letter passes.  H's
    entries and their tolerance are read once for both labels.

    Both are tested, never read off a model name: s against g (s g - g s,
    or s g^* s + g for the antiunitary, vanishing) within RECONSTRUCTION_RTOL
    of g's scale, and the global product against h's entries
    (`conjugation_defect`) within that fraction of theirs.  Only a
    degenerate chain or kick (a vanishing coupling, a generator
    proportional to 1) passes more than one flip.

    Alone, a Y kick is real (A = K) on every model; an X kick takes time
    reversal prod Y K on XXZ (prod Z K at odd N, where prod Y K squares to
    -1) and prod Z K on free spins, and none on the transverse-field Ising
    chain.  A generator with a trace part has none.  Beside the flip, on XXZ
    at even N the X, Y and Z kicks take (flip, A) = (X, prod Y K), (Y, K)
    and (Z, prod X K); at odd N every A that fixes XXZ and the kick
    anticommutes with the flip, and the flip stands alone.
    """
    if h.sectors is None or h.dim != 2**h.sectors.n_terms:
        return None
    g = as_square_complex(generator, "generator")
    rows, cols, values = h.entries()
    n = h.sectors.n_terms
    tol = RECONSTRUCTION_RTOL * max(1.0, max_norm(values) if values.size else 0.0)

    def fixes(letter: str, antiunitary: bool) -> bool:
        s = _local(letter)
        kick = s @ g.conj() @ s + g if antiunitary else s @ g - g @ s
        return not max_norm(kick) > RECONSTRUCTION_RTOL * max(1.0, max_norm(g)) and (
            conjugation_defect(*site_product(n, s), rows, cols, values, antiunitary) <= tol
        )

    flip = next((s for s in "XYZ" if fixes(s, False)), None)
    for letter in "IXYZ":
        try:
            symmetry = ChainSymmetry(n, flip, letter)
        except ValueError:
            continue
        if fixes(letter, True):
            return symmetry
    return ChainSymmetry(n, flip)


def _local(letter: str) -> np.ndarray:
    """The one-site factor of a global flip: a Pauli matrix, or 1 for I."""
    return np.eye(2, dtype=complex) if letter == "I" else pauli(letter)


def _site_reflection(dim: int, n: int) -> np.ndarray:
    """The basis permutation of R_0: |s_0 s_1 ... s_{N-1}> -> |s_0 s_{N-1} ... s_1>,
    the content of site j moved to site -j mod N, for a chain of dimension dim."""
    if 2**n != dim:
        raise ValueError(f"dimension {dim} is not that of a chain of {n} sites")
    powers = 2 ** np.arange(n - 1, -1, -1)
    digits = (np.arange(dim)[:, np.newaxis] // powers) % 2
    return digits[:, (-np.arange(n)) % n] @ powers


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

    H is held as its diagonal and its bit-flip terms, O(N dim) numbers, and
    its dense matrix is built only when read: X_s flips bit s, and
    X_i X_j + Y_i Y_j maps |..0..1..> to 2 |..1..0..> and annihilates aligned
    pairs, so it flips both bits where they differ.  The operator carries the
    momentum sectors of the chain's translation, so `spectral_decompose`
    diagonalises it sector by sector from those terms.  That solve is
    the one check that H commutes with the translation and with the site
    reflection of those sectors, and with a spin flip it is given: it
    refuses off-sector, off-parity and off-flip entries above its
    reconstruction tolerance.
    """
    c = spec.couplings
    n = lattice.sites
    idx = np.arange(lattice.dim)
    bits = [1 << (n - 1 - s) for s in range(n)]
    if spec.model == FREE_SPINS:
        diagonal, flips = _diagonal_zz_field(lattice, c["h"], 0.0), []
    elif spec.model == TRANSVERSE_FIELD_ISING:
        diagonal = _diagonal_zz_field(lattice, 0.0, -c["J"])
        flips = [(bit, -c["g"]) for bit in bits]
    else:
        diagonal = _diagonal_zz_field(lattice, 0.0, c["J"] * c["delta"])
        flips = []
        for i, j in _bonds(n):
            differ = ((idx & bits[i]) == 0) != ((idx & bits[j]) == 0)
            flips.append((bits[i] | bits[j], np.where(differ, 2 * c["J"], 0.0)))
    sectors = MomentumSectors(translation_operator(lattice), n)
    return HermitianOperator(diagonal=diagonal, flips=flips, sectors=sectors)


def reduce_to_site(lattice: LatticeSpec, matrix: np.ndarray, site: int) -> np.ndarray:
    """Partial trace down to one site's 2 x 2 operator."""
    if not 0 <= site < lattice.sites:
        raise ValueError(f"site {site} out of range for {lattice.sites} sites")
    n = lattice.sites
    a = np.asarray(matrix, dtype=complex).reshape([2] * (2 * n))
    letters = "abcdefghijklmnop"
    rows = letters[:n]
    cols = rows[:site] + "z" + rows[site + 1 :]
    return np.einsum(f"{rows}{cols}->{rows[site]}z", a)
