"""Irreversibility maps built from frame averaging.

Three channels: the uniform cyclic average over all chain translations, the
exponentially weighted spatial average at coarse-graining scale R, and the
temporal average with Lorentzian weight 1 / (1 + i omega tau) in the energy
eigenbasis (exact dephasing over degenerate blocks at tau = infinity).  Each
is a convex mixture of unitary conjugations that fix the Gibbs state, hence
trace preserving, positivity preserving, and entropy non-decreasing.

`KINDS` holds each kind's config key and the rule its parameter obeys, and
`AveragingKind.bind` turns a kind into a `Channel` for one chain, the one
place that dispatches on the kind tag (spatial or temporal).  A channel
applies itself densely in the computational basis, and it carries its form
in the joint H-T eigenbasis: H commutes with T, so one basis diagonalises
H, rho and T together, and there every channel is a Schur multiplier.  The
reflection about the kicked site commutes with all of them, and so does a
global spin flip that H and the kick commute with, so
`Channel.parity_blocks` maps the labelled blocks of a matrix
(`ReflectionParity`: its even and odd blocks, per flip sign where there is
a flip) straight to those of its average by one rule for all three kinds.

The module also builds the conjugated-kick pair u = e^{beta H/2} U e^{-beta H/2}
and E = u u^dag whose frame average tending to the identity controls how the
averaged entropy production dies off with system size, in the computational
basis (`conjugated_perturbation`) or, with rho', as labelled blocks in the
eigenbasis of H (`eigenbasis_kick`, `kicked_in_eigenbasis`,
`conjugated_in_eigenbasis`), which are never joined into whole matrices.

Summation order inside every average is fixed left to right, so repeated runs
produce bit-identical results.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .entropy import _eta_trace, _exp_guard
from .lattice import NEEDS_PERMUTATION
from .operators import (
    SLAB,
    BlockDensityMatrix,
    DensityMatrix,
    HermitianOperator,
    SpectralDecomposition,
    UnitaryOperator,
    gate,
    max_norm,
    symmetry_gate,
    symmetry_split,
)
from .thermal import ThermalState

UNIFORM_SPATIAL = "uniform-spatial"
WEIGHTED_SPATIAL = "weighted-spatial"
TEMPORAL = "temporal"

# each kind's config key for its parameter, the rule the parameter obeys,
# and that rule as a refusal states it
KINDS = {
    UNIFORM_SPATIAL: (None, lambda p: p is None, "takes no parameter"),
    WEIGHTED_SPATIAL: (
        "R", lambda p: p is not None and 0 < p < np.inf, "needs a finite R > 0, got {!r}"
    ),
    TEMPORAL: ("tau", lambda p: p is not None and p > 0, "needs tau > 0 (inf allowed), got {!r}"),
}

# below this, the Lorentzian weights are indistinguishable from 1
TAU_IDENTITY_FLOOR = 1e-12

# eigenvalues closer than this fraction of the spectral width dephase as one block
DEGENERACY_RTOL = 1e-10

# off-label entries a split tolerates, relative to the entry scale
PARITY_RTOL = 1e-10


@dataclass(frozen=True)
class AveragingKind:
    """Channel selector: kind tag plus its scale parameter.

    parameter is the coarse-graining scale R for weighted-spatial, the memory
    time tau for temporal (may be inf), and absent for uniform-spatial.
    """

    kind: str
    parameter: float | None = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in KINDS:
            raise ValueError(
                f"unknown averaging kind {self.kind!r}, expected one of "
                + ", ".join(repr(k) for k in KINDS)
            )
        key, holds, rule = KINDS[self.kind]
        if not holds(self.parameter):
            raise ValueError(f"{self.kind} {rule.format(self.parameter)}")
        if key is not None:
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

    def bind(self, state: ThermalState) -> "Channel":
        """This kind as a channel on the chain of `state`, with its Schur
        multiplier in the joint H-T eigenbasis H was solved in.  The spatial
        kinds read the translation T and its order N from the momentum
        sectors H carries, the one place the chain's frame is stated, and
        refuse an H without them; the temporal kind binds on any H."""
        decomp = state.hamiltonian_decomp
        if self.kind == TEMPORAL:
            # the dense map is the module's temporal average, looked up here
            # as the translate sums are below; it builds its weights a slab
            # of rows at a time on each call, and a sweep never calls it
            apply = partial(temporal_average_matrix, decomp=decomp, tau=self.parameter)
            return Channel(apply, partial(_temporal_weights, decomp.eigenvalues, self.parameter))
        if decomp.sectors is None:
            raise ValueError(f"{self.kind} needs H solved in its translation's momentum sectors")
        t, n, momenta = decomp.sectors.translation, decomp.sectors.n_terms, decomp.momenta
        # T^n has eigenvalue e^{2 pi i k / N} on momentum k, so the mixture
        # sum_n w_n T^n X T^-n scales entry (i, j) by w^(k_i - k_j) =
        # sum_n w_n e^{2 pi i (k_i - k_j) n / N}, real because w_n = w_{N-n};
        # for the uniform w_n = 1 / N, w^ is the unit impulse, held exactly.
        # The dense map is the module's translate sum, looked up here, so a
        # wrapper put on it (a traced run's span) sees every call
        uniform = self.kind == UNIFORM_SPATIAL
        if uniform:
            apply = partial(average_translates, t=t, n_terms=n)
            w_hat = np.eye(1, n)[0]
        else:
            apply = partial(weighted_average_translates, t=t, n_terms=n, scale=self.parameter)
            w_hat = np.fft.fft(distance_weights(n, self.parameter)).real

        def weights(rows, cols):
            return w_hat[np.subtract.outer(momenta[rows], momenta[cols]) % n]

        # the uniform average is the projection onto the momentum sectors: M X
        # vanishes between classes min(k, N - k), each the pair of partner
        # sectors k, N - k
        return Channel(apply, weights, np.minimum(momenta, n - momenta) if uniform else None)


@dataclass(frozen=True)
class Channel:
    """An averaging map M bound to one chain.

    apply(X) is the dense M X in the computational basis: sums of
    translates for the spatial channels, and for the temporal one the
    Schur multiplier of `SpectralDecomposition.schur_multiplier`, whose
    weights are built a slab of rows at a time on each call.  In the joint H-T
    eigenbasis M multiplies X~ = V^dag X V entry by entry by Omega(i, l), a
    Schur multiplier: delta(k_i, k_l) (uniform), w^(k_i - k_l) (weighted) or
    1 / (1 + i (E_i - E_l) tau) (temporal).  `weights(rows, cols)` gives
    Omega on those eigenvector indices (None for the identity), and
    `classes` the uniform average's |k|, between whose values M X vanishes
    (None for the other kinds).
    """

    apply: Callable[[np.ndarray], np.ndarray]
    weights: Callable[[np.ndarray, np.ndarray], np.ndarray | None]
    classes: np.ndarray | None = None

    def parity_blocks(
        self, x_blocks: list[np.ndarray], parity: ReflectionParity
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """The blocks of M X from the labelled blocks of a P_s-invariant X~
        (`ReflectionParity`), and the eigenvector i of each of their rows,
        where a diagonal operator such as H or rho takes its value there.

        With A = Omega(i, l) and B = Omega(i, pi(l)) over a block's rows i
        and columns l (pi the reflection partner),

            (M X)_ee = (A + B) / 2 o X_ee + (A - B) / 2 o X_oo,

        and the same with e and o swapped, where e and o are the P_s-even
        and P_s-odd blocks of one flip sign (`parity.mates`), the second term
        taken between partnered rows only: A = B where a row or column is
        fixed (w^ is even and 2k = 0 there) and everywhere for the temporal
        channel (partners share energies).  Every channel commutes with the
        flip, so blocks of different flip signs never mix.  With classes,
        the blocks are their class blocks.  Real blocks (a real structure)
        stay real under the real uniform and weighted weights, and turn
        complex under the Lorentzian, which is odd in time.
        """
        out, rows = [], []
        for q, x in enumerate(x_blocks):
            i, j = parity.rows[q], parity.partners[q]
            # the block of the same flip sign and the other parity; where
            # there is none, there are no partnered rows
            mate = parity.mates[q]
            pairs = 0 if mate is None else parity.pairs[q]
            labels = np.zeros(i.size) if self.classes is None else self.classes[i]
            for g in (np.flatnonzero(labels == c) for c in np.unique(labels)):
                y = x[np.ix_(g, g)]
                a = self.weights(i[g], i[g])
                if a is not None:
                    # real blocks under a complex multiplier (temporal) turn complex
                    y = y.astype(np.result_type(y, a), copy=False)
                    b = self.weights(i[g], j[g])
                    # g ascends and the partnered rows lead both mates in
                    # the same order, so g[:m] are those rows in both
                    m = np.count_nonzero(g < pairs)
                    diff = a[:m, :m] - b[:m, :m]
                    # in place, so that no more than four block-sized
                    # arrays are alive at once
                    a += b
                    del b
                    a /= 2
                    y *= a
                    del a
                    if m:
                        cross = x_blocks[mate][np.ix_(g[:m], g[:m])].astype(y.dtype, copy=False)
                        cross *= diff
                        del diff
                        cross /= 2
                        y[:m, :m] += cross
                out.append(y)
                rows.append(i[g])
        return out, rows


def _translate_conjugations(a: np.ndarray, t: UnitaryOperator, n_terms: int, weights):
    """sum_n w_n T^n a T^-n with fixed left-to-right accumulation, for the
    chain's T, which moves the content of every one of n_terms sites s
    sites on (`_site_shift`), and so has order n_terms; any other T is
    refused.  Each translate is a transpose: with a viewed as a tensor of
    one axis per site of its row and of its column, T^n a T^-n rolls the
    row axes and the column axes each by n s, and it is added SLAB rows at
    a time, each slab, the leading row axes fixed, made contiguous, so no
    whole translate is made.
    """
    dim = a.shape[0]
    if t.dim != dim:
        raise ValueError(f"dimension mismatch: matrix {dim}, translation {t.dim}")
    if t.permutation is None:
        raise ValueError(NEEDS_PERMUTATION)
    shift = _site_shift(np.argsort(t.permutation), n_terms)
    if shift is None:
        raise ValueError(f"translation operator is no roll of {n_terms} sites")
    rows = min(SLAB, dim)
    tensor = a.reshape((2,) * (2 * n_terms))
    # a slab of `rows` rows fixes the leading `lead` row axes
    lead = n_terms - (rows.bit_length() - 1)
    acc = weights[0] * a
    for n in range(1, n_terms):
        if weights[n] != 0.0:
            # in place, bit for bit acc + w_n * translate, with one slab of
            # one translate alive at a time
            axes = np.roll(np.arange(n_terms), n * shift)
            view = tensor.transpose(*axes, *(axes + n_terms))
            for start in range(0, dim, rows):
                g = view[np.unravel_index(start // rows, (2,) * lead)]
                g = np.ascontiguousarray(g, dtype=acc.dtype).reshape(rows, dim)
                g *= weights[n]
                acc[start : start + rows] += g
                del g
    return acc


def _site_shift(inv: np.ndarray, n_sites: int) -> int | None:
    """The s for which the basis permutation of T (given by its inverse
    inv) moves the content of each of n_sites qubits s sites on, site 0 the
    most significant bit: read off where T sends a lone bit at site 0, and
    checked against inv as a whole, as the roll of the sites' axes that
    `_translate_conjugations` makes.  None where T is no such roll."""
    dim = inv.size
    if n_sites < 2 or 2**n_sites != dim:
        return None
    digits = (np.flatnonzero(inv == 2 ** (n_sites - 1)) // 2 ** np.arange(n_sites - 1, -1, -1)) % 2
    moved = np.flatnonzero(digits)
    if moved.size != 1:
        return None
    shift = int(moved[0])
    axes = np.roll(np.arange(n_sites), shift)
    rolled = np.arange(dim).reshape((2,) * n_sites).transpose(axes).ravel()
    return shift if np.array_equal(rolled, inv) else None


def average_translates(a: np.ndarray, t: UnitaryOperator, n_terms: int) -> np.ndarray:
    """(1/N) sum_n T^n a T^-n for an arbitrary square matrix."""
    # formed elementwise, so n_terms = 0 reaches the translate sum's refusal
    return _translate_conjugations(a, t, n_terms, np.ones(n_terms) / n_terms)


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
    of the spectral width), the exact long-memory dephasing limit.  The
    weights are built a slab of rows at a time (`SpectralDecomposition.
    schur_multiplier`), as a bound temporal channel's are on each call.
    """
    return decomp.schur_multiplier(partial(_temporal_weights, decomp.eigenvalues, tau))(a)


def _temporal_weights(
    energies: np.ndarray, tau: float, rows=slice(None), cols=slice(None)
) -> np.ndarray | None:
    """The energy-basis weights of the temporal average on those rows and
    columns of the ascending spectrum; None for the identity."""
    if not np.isinf(tau) and tau < TAU_IDENTITY_FLOOR:
        return None
    gaps = energies[rows, np.newaxis] - energies[np.newaxis, cols]
    if np.isinf(tau):
        width = energies[-1] - energies[0]
        if width == 0.0:
            return None
        return (np.abs(gaps) < DEGENERACY_RTOL * width).astype(complex)
    return 1.0 / (1.0 + 1j * gaps * tau)


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
        # tr(rho E) as one contiguous pass: rho and E are Hermitian, so
        # sum_ij conj(rho_ij) E_ij is the trace of their product
        norm = np.vdot(self.state.rho.matrix, self.E.matrix).real
        _check_trace(norm, self.E.dim, max_norm(self.E.matrix))


def _check_trace(norm: float, dim: int, scale: float) -> None:
    """tr(rho E) = 1 within 1e-9 plus the round-off of a trace at E's scale."""
    slack = 1e-9 + dim * np.finfo(np.float64).eps * scale
    gate(abs(norm - 1.0), slack, lambda: f"tr(rho E) = {norm!r} is not 1 within {slack:.3e}")


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
    blocks = _kick_blocks(state.hamiltonian_decomp, u)
    return _normalization(state, blocks, [np.arange(state.dim)])


def _normalization(state: ThermalState, blocks: list[np.ndarray], rows) -> float:
    """sum_j p_j |u~ e_j|^2 over the blocks of u~, whose columns carry the
    populations of the eigenvectors `rows`."""
    # a column's i carries its population: partners share their energy
    p = state.populations
    return float(sum((p[r][np.newaxis, :] * np.abs(b) ** 2).sum() for b, r in zip(blocks, rows)))


def _unit_columns(dim: int) -> tuple[np.ndarray, ...]:
    """The unit vectors e_i as the column set (i, 1, i, 0)."""
    idx = np.arange(dim)
    return idx, np.ones(dim, dtype=np.complex128), idx, np.zeros(dim, dtype=np.complex128)


def _kick_blocks(
    decomp: SpectralDecomposition, u: UnitaryOperator, parity: ReflectionParity | None = None
) -> list[np.ndarray]:
    """The blocks Q_q^dag u~ Q_q of u~ = V^dag U V for the column sets Q_q of
    the eigenbasis, each given as (i, a, j, b): the labelled blocks of
    `parity`, or without one all unit vectors.  They are built SLAB columns
    at a time.

    A slab of V Q_q comes from `SpectralDecomposition.columns`, U acts on it
    through its own structured form and drops it, and `SpectralDecomposition.
    project` brings U's output back onto each set in turn, in place, so
    neither U, V nor the whole u~ is formed, and beside the blocks two
    complex dim x SLAB arrays are alive at most (one of them may be a slab
    of the shift-major grid, N n_orbits rows).  The set's own rows are
    written into its block, and
    each other set's rows are reduced to their largest entry for the
    off-label gate (`ReflectionParity.gate`); with a real structure the
    blocks are float64, each slab's imaginary part behind the real gate:
    where A = prod s K fixes the labelled basis, a matrix A fixes has real
    blocks.
    """
    sets = [_unit_columns(decomp.dim)] if parity is None else parity.vectors
    real = parity is not None and decomp.symmetry.real is not None
    blocks = []
    for q, (i, a, j, b) in enumerate(sets):
        block = np.empty((i.size, i.size), dtype=np.float64 if real else np.complex128)
        for start in range(0, i.size, SLAB):
            c = slice(start, start + SLAB)
            y = u.apply(decomp.columns(i[c], a[c], j[c], b[c]))
            offs = {}
            # not enumerate, whose reused result tuple would hold each set's
            # rows until the next set's are gathered
            projected = decomp.project(y, sets)
            for p in range(len(sets)):
                rows = next(projected)
                if p == q:
                    own = max_norm(rows)
                    if real:
                        imag = max_norm(rows.imag)
                        rows = rows.real
                    block[:, c] = rows
                else:
                    offs[(q, p)] = max_norm(rows)
                del rows
            del y, projected
            if parity is not None:
                scale = max(1.0, max(offs.values(), default=0.0), own)
                parity.gate(offs, scale)
                if real:
                    real_k = decomp.symmetry.real_name
                    symmetry_gate(imag, PARITY_RTOL * scale, "matrix", real_k, "imaginary")
        blocks.append(block)
    return blocks


def eigenbasis_kick(
    state: ThermalState, u: UnitaryOperator, parity: ReflectionParity | None = None
) -> tuple[list[np.ndarray], float]:
    """The blocks of u~ = V^dag U V and tr(rho E) from them, behind the
    overflow guard; the caller gates tr(rho E) against its own tolerance.

    With a `parity`, the blocks are the labelled blocks of u~, each slab
    behind the off-label gate; without, one block, the whole u~.  Both come
    from `_kick_blocks`, with no dense U and no dense eigenvector matrix.
    """
    if u.dim != state.dim:
        raise ValueError(f"dimension mismatch: state {state.dim}, unitary {u.dim}")
    _exp_guard(state)
    blocks = _kick_blocks(state.hamiltonian_decomp, u, parity)
    rows = [np.arange(state.dim)] if parity is None else parity.rows
    return blocks, _normalization(state, blocks, rows)


def _scale_to_u_beta(beta: float, energies: np.ndarray, u_tilde: np.ndarray) -> np.ndarray:
    """u~ scaled in place into the eigenbasis u_beta = G u~ S, with
    G = e^{beta H/2} and S = e^{-beta H/2} on these energies, read from
    their midpoint: a constant cancels between G and S, and from there each
    factor lies within e^{+-beta spread / 4}, inside float64's range
    wherever `entropy._exp_guard` admits the state."""
    energies = energies - (energies.min() + energies.max()) / 2
    u_tilde *= np.exp(beta * energies / 2)[:, np.newaxis]
    u_tilde *= np.exp(-beta * energies / 2)[np.newaxis, :]
    return u_tilde


class ReflectionParity:
    """The labelled blocks of the joint H-T eigenbasis of `decomp` under the
    reflection P_s = T^s R_0 T^-s about the kicked site s and, where H was
    solved with one, the global spin flip F of `decomp.symmetry`.

    P_s commutes with H, with a kick at site s and with every channel (the
    distance weights obey w_n = w_{N-n}, the Lorentzian is a function of H),
    and so does a flip chosen to commute with H and the kick
    (`lattice.chain_symmetry`), so rho', E, M rho' and ME split into one block
    per label (flip sign, P_s sign) in `labels`: two blocks, or four of
    about dim/4 with a flip.  R_0 maps eigenvector i to `decomp.partner[i]`,
    or to +-1 times itself, and T^s multiplies momentum k by
    e^{2 pi i k s / N}, so P_s e_i = c_i e_partner(i) with
    c_i = e^{-4 pi i k_i s / N} (times the sign where the partner is i).
    F is diagonal there, and partners share their flip sign, so the unit
    vectors of each flip sign split by P_s (`symmetry_split`): each pair
    i < j = partner(i) gives row (e_i + c_i e_j) / sqrt(2) of the even block
    and (e_i - c_i e_j) / sqrt(2) of the odd one.  In each block its
    `pairs[q]` partnered rows lead, in the same order as in the block of
    the same flip sign and the other parity, `mates[q]` (None where that
    block is empty), and the self-partnered e_i follow, each group in
    descending energy.  `rows` holds each block's i and `partners` its
    partner(i).  Partners have equal energies, so a diagonal operator such
    as H or rho splits into its values at i.

    `vectors` holds each block's columns as (i, a, j, b), the vectors
    a e_i + b e_j, from which `eigenbasis_kick` builds the blocks of u~,
    each slab behind the off-label gate (`gate`), which checks that the
    blocks between labels vanish.  `split` gives the values of a diagonal
    on the blocks.  For N = 2 the reflection is the identity and every
    block is even.

    Where H was solved with a real structure, alone or beside the flip, an
    antiunitary A = prod s K that H, the kick and any flip commute with
    (the same `symmetry`), A maps e_i to e_partner(i), and the
    vectors are scaled by sqrt(conj(c_i)), so that A fixes each even one
    and negates each odd one; A keeps each flip sign, so it does so inside
    every labelled block.  Every matrix A fixes (rho', E, and their uniform
    and weighted averages) then has real blocks, two or four, behind the
    real gate of `_kick_blocks`.
    """

    def __init__(self, decomp: SpectralDecomposition, site: int):
        if decomp.partner is None:
            raise ValueError("the reflection parity needs H solved in sector form")
        partner, sign, flip = decomp.partner, decomp.reflection_sign, decomp.flip_sign
        if not np.array_equal(decomp.eigenvalues[partner], decomp.eigenvalues):
            raise ValueError("reflection partners must carry equal energies")
        n = decomp.sectors.n_terms
        c = np.exp(-2j * np.pi * ((2 * decomp.momenta * site) % n) / n)
        c *= np.where(sign == 0, 1, sign)
        # the unit vectors of each flip sign (all of them without a flip)
        idx = np.arange(partner.size)
        sets = [((f,), (idx[flip == f], np.ones(np.count_nonzero(flip == f)))) for f in (1, 0, -1)]
        split = symmetry_split([s for s in sets if s[1][0].size], [(partner, c)])
        self.symmetry = decomp.symmetry
        if self.symmetry.real is not None:
            # A e_i = e_partner(i) sends (e_i +- c_i e_j) / sqrt(2) to
            # +-conj(c_i) times itself, so sqrt(conj(c_i)) times it to +-1
            # times itself; one root per pair keeps (A - B) / 2 o X_oo in
            # `Channel.parity_blocks` as it reads
            root = np.sqrt(c.conj())
            split = [(labels, (i, root[i] * a, j, root[i] * b)) for labels, (i, a, j, b) in split]
        self.labels = [labels for labels, _ in split]
        # the pairs first, each group in descending i, so in descending
        # energy: E_il scales like exp(beta (E_i + E_l) / 2), and eigh
        # resolves the small eigenvalues of such a graded block of ME best
        # with its large entries first
        self.vectors = [tuple(x[np.lexsort((-v[0], v[0] == v[2]))] for x in v) for _, v in split]
        self.rows = [v[0] for v in self.vectors]
        self.partners = [v[2] for v in self.vectors]
        self.pairs = [int(np.count_nonzero(v[0] != v[2])) for v in self.vectors]
        where = {labels: q for q, labels in enumerate(self.labels)}
        self.mates = [where.get((f, -s)) for f, s in self.labels]

    def gate(self, offs: dict[tuple[int, int], float], scale: float) -> None:
        """The off-label gate: offs[(p, q)] is the largest entry a matrix
        has between blocks p and q, and each must vanish within PARITY_RTOL
        of the scale; a pair whose flip signs differ is blamed on the flip,
        any other on the reflection."""
        tol = PARITY_RTOL * scale
        flips = [self.labels[p][0] != self.labels[q][0] for p, q in offs]
        for broken, what, entries in (
            (True, self.symmetry.flip_name, "flip"),
            (False, "the reflection about the kicked site", "parity"),
        ):
            # np.max, unlike max, carries a NaN through to the gate
            off = float(np.max([r for r, f in zip(offs.values(), flips) if f == broken], initial=0))
            symmetry_gate(off, tol, "matrix", what, f"off-{entries}")

    def split(self, x: np.ndarray) -> list[np.ndarray]:
        """The values of a diagonal, given as a 1d array, on the blocks."""
        x = np.asarray(x)
        return [x[i] for i in self.rows]


def kicked_in_eigenbasis(
    state: ThermalState, u_blocks: list[np.ndarray], parity: ReflectionParity
) -> BlockDensityMatrix:
    """rho' = u~ diag(p) u~^dag in the eigenbasis of H, one product per
    labelled block of u~, held as a BlockDensityMatrix of those blocks,
    whose eigensolves are both the positivity gate and the spectrum S(rho')
    reads, so no Cholesky runs.  The blocks reach the gate one at a time,
    so rho' is held with one block's copy at most beside u~."""
    populations = parity.split(state.populations)
    return BlockDensityMatrix(_kicked_block(u, p) for u, p in zip(u_blocks, populations))


def _kicked_block(u: np.ndarray, p: np.ndarray) -> np.ndarray:
    """u diag(p) u^dag, formed as the conjugate of conj(u) diag(p) u^T, so
    that one temporary sits beside the result where (u * p) @ u.conj().T
    made two."""
    t = np.conj(u)
    t *= p
    out = t @ u.T
    del t
    return np.conjugate(out, out=out)


def conjugated_in_eigenbasis(
    state: ThermalState, u_blocks: list[np.ndarray], parity: ReflectionParity
) -> list[np.ndarray]:
    """The labelled blocks of E = u_beta u_beta^dag in the eigenbasis of H,
    for u_beta = G u~ S: one product per labelled block of u~ (two blocks of
    about dim/2, or four of about dim/4 with a spin flip, float64 with a
    real structure), each passing the HermitianOperator gate, and
    tr(rho E) = sum p . diag(E_b) checked over them.  The blocks of u~ are
    taken off the list and scaled in place into those of u_beta, which are
    not kept."""
    blocks = []
    for h in parity.split(state.hamiltonian_decomp.eigenvalues):
        u_beta = _scale_to_u_beta(state.beta, h, u_blocks.pop(0))
        blocks.append(HermitianOperator(u_beta @ u_beta.conj().T).matrix)
        del u_beta
    populations = parity.split(state.populations)
    norm = sum(float(np.dot(p, np.diagonal(e).real)) for p, e in zip(populations, blocks))
    _check_trace(norm, state.dim, max(max_norm(e) for e in blocks))
    return blocks


def conjugated_kick(state: ThermalState, u: UnitaryOperator) -> tuple[np.ndarray, float]:
    """u = e^{beta H/2} U e^{-beta H/2} in the computational basis, and
    tr(rho E) from `eigenbasis_kick`, certified to 1e-9.

    In the energy eigenbasis the conjugation is the entrywise factor
    e^{beta (E_i - E_j) / 2}, so no matrix exponential or inverse square root
    of rho is ever formed: the kick is rotated into that basis once, scaled,
    and rotated back.
    """
    (u_tilde,), stable_norm = eigenbasis_kick(state, u)
    gate(abs(stable_norm - 1.0), 1e-9, lambda: f"tr(rho E) = {stable_norm!r} is not 1 within 1e-9")
    decomp = state.hamiltonian_decomp
    u_beta = _scale_to_u_beta(state.beta, decomp.eigenvalues, u_tilde)
    return decomp.from_eigenbasis(u_beta), stable_norm


def conjugated_perturbation(state: ThermalState, u: UnitaryOperator) -> ConjugatedPerturbation:
    """Build u (`conjugated_kick`) and E = u u^dag in the computational basis."""
    u_full, stable_norm = conjugated_kick(state, u)
    e = HermitianOperator(u_full @ u_full.conj().T)
    return ConjugatedPerturbation(u_full, e, state, stable_norm)


@dataclass(frozen=True)
class DeviationReport:
    """How far an averaged E sits from the identity.

    op_norm and frobenius_norm measure the raw operator distance;
    state_weighted is sqrt(tr(rho (ME - 1)^2)), the distance seen by the
    thermal state; state_trace is tr(rho ME), identically 1 up to round-off.
    bs_floor is b = eps ||ME||_op (1 + max|ln lambda(ME)|), the first-order
    float64 error of -tr[rho eta(ME)] read from this ME (criterion 4's floor).
    """

    op_norm: float
    frobenius_norm: float
    state_weighted: float
    state_trace: float
    bs_floor: float


def averaged_E_stats(
    e_blocks: list[np.ndarray], rho_blocks: list[np.ndarray]
) -> tuple[DeviationReport, float]:
    """Deviation report of ME plus -tr[rho eta(ME)], from one eigensolve per
    block of ME paired with the same block of rho (`entropy._eta_trace`): a
    matrix, or the populations where rho is diagonal in the joint
    eigenbasis of H.

    -tr[rho eta(ME)] equals the operator-convex relative entropy
    S_BS(M rho' | rho) because every function of rho is invariant under the
    averaging frames.  Sweeps take this route because the deviation report
    needs the same eigendecompositions.  The entries of ME grow like
    exp(beta (E_i + E_j) / 2), and holding ME in float64 costs an absolute
    error near eps ||ME||_op (1 + max|ln lambda(ME)|), which pairing ME with
    the exact populations of the joint eigenbasis keeps near its low end: at
    heisenberg-xxz N = 6, beta = 2 the parity blocks, rows in descending
    energy, land within 1.0e-10 of a 40-digit value, where a float64 rho in
    the computational basis added 4e-8.
    """
    w, q, bs_value = _eta_trace(e_blocks, rho_blocks)
    dev = w - 1.0
    report = DeviationReport(
        op_norm=float(np.abs(dev).max()),
        frobenius_norm=float(np.sqrt((dev**2).sum())),
        state_weighted=float(np.sqrt(max((q * dev**2).sum(), 0.0))),
        state_trace=float((q * w).sum()),
        bs_floor=_bs_floor(w),
    )
    return report, max(bs_value, 0.0)


def _bs_floor(spectrum: np.ndarray) -> float:
    """eps ||ME||_op (1 + max|ln lambda(ME)|) for ME positive definite."""
    with np.errstate(divide="ignore"):
        logs = np.abs(np.log(np.abs(spectrum)))
    return float(np.finfo(np.float64).eps * np.abs(spectrum).max() * (1.0 + logs.max()))


def deviation_report(averaged_e: np.ndarray, state: ThermalState) -> DeviationReport:
    """Distance of an already-averaged E from the identity."""
    return averaged_E_stats([averaged_e], [state.rho.matrix])[0]


def averaged_E_deviation(
    cp: ConjugatedPerturbation, t: UnitaryOperator, n_terms: int
) -> DeviationReport:
    """Deviation of the uniform frame average of E from the identity."""
    return deviation_report(average_translates(cp.E.matrix, t, n_terms), cp.state)
