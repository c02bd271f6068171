"""The rotations into and out of the joint H-T eigenbasis and the column
passes of W and W^dag they share with the kick, the temporal channel as a
Schur multiplier that builds its weights a slab of rows at a time, the memory
each dense kernel, the kick and the kicked state hold, and the memory
`verify` peaks at.

Each rotation and each temporal average is compared with the explicit
product V (Omega o V^dag X V) V^dag built from the dense eigenvectors V,
which `SpectralDecomposition.eigenvectors` assembles one column at a time
rather than through the two-sided pass.
"""
import math
import tracemalloc

import numpy as np
import pytest

from frameavg import averaging
from frameavg.averaging import (
    DEGENERACY_RTOL,
    TAU_IDENTITY_FLOOR,
    AveragingKind,
    ReflectionParity,
    average_translates,
    eigenbasis_kick,
    kicked_in_eigenbasis,
    temporal_average_matrix,
)
from frameavg.experiments import config_from_mapping, convergence_sweep, verify_identities
from frameavg.lattice import (
    HamiltonianSpec,
    LatticeSpec,
    ChainSymmetry,
    build_hamiltonian,
    chain_symmetry,
    sigma_x,
    sigma_y,
)
from frameavg.operators import SLAB, HermitianOperator, commutator, hermitian_part, max_norm
from frameavg.thermal import PerturbationSpec, local_kick, thermal_state

TFI = ("transverse-field-ising", {"J": 1.0, "g": 0.9})
XXZ = ("heisenberg-xxz", {"J": 1.0, "delta": 0.5})
# H solved with the spin flip prod X (an X kick), with the real structure K
# (a Y kick), with both labels (XXZ with an X kick: prod X and, at even N,
# prod Y K), with neither label, and as one dense block without sectors
SOLVES = ("flip", "real", "both", "neither", "dense")
TAUS = (1.5, math.inf, TAU_IDENTITY_FLOOR / 10)
RTOL = 1e-13


def _state(solve, n):
    h = build_hamiltonian(LatticeSpec(n), HamiltonianSpec(*TFI))
    if solve == "flip":
        assert chain_symmetry(h, sigma_x).flip == "X"
        return thermal_state(h, 1.0, ChainSymmetry(n, flip="X"))
    if solve == "real":
        symmetry = chain_symmetry(h, sigma_y)
        assert symmetry.flip is None and symmetry.real == "I"
        return thermal_state(h, 1.0, ChainSymmetry(n, real="I"))
    if solve == "both":
        h = build_hamiltonian(LatticeSpec(n), HamiltonianSpec(*XXZ))
        symmetry = chain_symmetry(h, sigma_x)
        assert (symmetry.flip, symmetry.real) == ("X", None if n % 2 else "Y")
        return thermal_state(h, 1.0, symmetry)
    if solve == "dense":
        state = thermal_state(HermitianOperator(h.matrix), 1.0)
        assert state.hamiltonian_decomp.sectors is None
        return state
    return thermal_state(h, 1.0)


def _explicit_weights(energies, tau):
    """The Lorentzian of the temporal channel on the ascending spectrum."""
    gaps = np.subtract.outer(energies, energies)
    if tau < TAU_IDENTITY_FLOOR:
        return np.ones_like(gaps)
    if math.isinf(tau):
        return (np.abs(gaps) < DEGENERACY_RTOL * (energies[-1] - energies[0])).astype(float)
    return 1.0 / (1.0 + 1j * gaps * tau)


def _probe(dim, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("solve", SOLVES)
def test_rotations_and_the_temporal_apply_match_the_explicit_products(solve, n):
    state = _state(solve, n)
    decomp = state.hamiltonian_decomp
    v = decomp.eigenvectors
    x = _probe(v.shape[0], n)
    tol = RTOL * max_norm(x)
    x_tilde = v.conj().T @ x @ v
    assert max_norm(decomp.to_eigenbasis(x) - x_tilde) <= tol
    assert max_norm(decomp.from_eigenbasis(x) - v @ x @ v.conj().T) <= tol
    values = np.random.default_rng(n).standard_normal(v.shape[0])
    assert max_norm(decomp.diagonal_from_eigenbasis(values) - (v * values) @ v.conj().T) <= tol
    for tau in TAUS:
        want = v @ (_explicit_weights(decomp.eigenvalues, tau) * x_tilde) @ v.conj().T
        channel = AveragingKind.temporal(tau).bind(state)
        # the second apply reads the weights the first one built and held
        for got in (channel.apply(x), channel.apply(x), temporal_average_matrix(x, decomp, tau)):
            assert got.dtype == np.complex128
            assert max_norm(got - want) <= tol, tau


def _dense_momentum_basis(sectors):
    """F from its definition, read off the translation's permutation alone:
    for each momentum k, each orbit r (by its least member, ascending) with
    N | k L_r gives the column (sqrt(L_r) / N) sum_n e^{-2 pi i k n / N} T^n e_r."""
    n, dim, perm = sectors.n_terms, sectors.dim, sectors.translation.permutation
    orbits = {}
    for x in range(dim):
        orbit = [x]
        while perm[orbit[-1]] != x:
            orbit.append(perm[orbit[-1]])
        orbits.setdefault(min(orbit), orbit)
    columns = []
    for k in range(n):
        for r in sorted(orbits):
            length = len(orbits[r])
            if k * length % n:
                continue
            v = np.zeros(dim, dtype=np.complex128)
            site = r
            for m in range(n):
                v[site] += np.exp(-2j * np.pi * k * m / n)
                site = perm[site]
            columns.append(np.sqrt(length) / n * v)
    return np.stack(columns, axis=1)


def _identity_blocks(dims):
    """W = F: the identity block inside each sector."""
    return [np.eye(d) for d in dims]


def _random_blocks(dims, seed):
    """A random unitary block inside each sector."""
    rng = np.random.default_rng(seed)
    return [np.linalg.qr(_probe(d, int(rng.integers(1 << 30))))[0] for d in dims]


# N = 9 (dim 512) spans two slabs of columns and of rows
@pytest.mark.parametrize("n", (2, 3, 4, 6, 9))
@pytest.mark.parametrize("with_blocks", (False, True))
def test_the_column_passes_are_w_and_its_adjoint(n, with_blocks):
    # W = F (+)_k B_k on columns and W^dag, the one statement of both that
    # the rotations, V's columns and the kick's projection use, against the
    # dense F built from its definition, which is unitary; and the rotations
    # through the same blocks against W^dag x W and W y W^dag
    sectors = build_hamiltonian(LatticeSpec(n), HamiltonianSpec(*TFI)).sectors
    dim, dims = sectors.dim, sectors.dims
    f = _dense_momentum_basis(sectors)
    assert max_norm(f.conj().T @ f - np.eye(dim)) <= 1e-14
    edges = np.cumsum((0, *dims))
    eye = np.eye(dim, dtype=np.complex128)
    f_alone = sectors.from_sector_columns(lambda k: eye[edges[k] : edges[k + 1]], dim)
    assert max_norm(f_alone - f) <= 1e-14
    blocks = _random_blocks(dims, n) if with_blocks else _identity_blocks(dims)
    b = np.zeros((dim, dim), dtype=np.complex128)
    for k, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        b[lo:hi, lo:hi] = blocks[k]
    w = f @ b
    x = _probe(dim, n)[:, :7]
    tol = RTOL * max_norm(x)
    assert max_norm(sectors.to_sector_columns(x, blocks) - w.conj().T @ x) <= tol
    assert max_norm(sectors.to_sector_columns(x.real, blocks) - w.conj().T @ x.real) <= tol
    # in place, as the kick's projection runs it
    y = x.copy()
    assert sectors.to_sector_columns(y, blocks, out=y) is y
    assert max_norm(y - w.conj().T @ x) <= tol

    def piece(k):
        return blocks[k] @ x[edges[k] : edges[k + 1]]

    assert max_norm(sectors.from_sector_columns(piece, x.shape[1]) - w @ x) <= tol
    a = _probe(dim, n + 1)
    tol = RTOL * max_norm(a)
    assert max_norm(sectors.rotate_to_sectors(a, blocks) - w.conj().T @ a @ w) <= tol
    # a real matrix is rotated like its complex copy
    assert max_norm(sectors.rotate_to_sectors(a.real, blocks) - w.conj().T @ a.real @ w) <= tol
    # in place: the rotation out returns its argument
    y = a.copy()
    assert sectors.rotate_from_sectors(y, blocks) is y
    assert max_norm(y - w @ a @ w.conj().T) <= tol


def test_the_temporal_channel_holds_no_dense_weights(monkeypatch):
    # N = 9 (dim 512) spans two slabs of rows: every weight array covers one
    # slab, each apply builds its own, and none outlives the call
    state = _state("flip", 9)
    dim = state.dim
    shapes = []
    weights = averaging._temporal_weights

    def record(energies, tau, rows=slice(None), cols=slice(None)):
        out = weights(energies, tau, rows, cols)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(averaging, "_temporal_weights", record)
    channel = AveragingKind.temporal(1.5).bind(state)
    assert shapes == []
    decomp = state.hamiltonian_decomp
    v = decomp.eigenvectors
    x = _probe(dim, 1)
    want = v @ (_explicit_weights(decomp.eigenvalues, 1.5) * (v.conj().T @ x @ v)) @ v.conj().T
    for calls in (1, 2):
        assert max_norm(channel.apply(x) - want) <= RTOL * max_norm(x)
        assert max(rows for rows, _ in shapes) < dim
        assert sum(rows for rows, cols in shapes if cols == dim) == calls * dim
    bound = (*channel.apply.args, *channel.apply.keywords.values())
    assert not any(isinstance(value, np.ndarray) and value.size >= dim**2 for value in bound)


@pytest.mark.parametrize("n", (3, 4, 5))
def test_a_sweep_builds_no_held_weights(n, monkeypatch):
    # a sweep reads the weights per labelled block and never calls the dense
    # apply, so no call covers the whole spectrum
    calls = []
    weights = averaging._temporal_weights

    def record(energies, tau, rows=slice(None), cols=slice(None)):
        calls.append(np.size(rows))
        return weights(energies, tau, rows, cols)

    monkeypatch.setattr(averaging, "_temporal_weights", record)
    model, couplings = TFI
    cfg = config_from_mapping(
        {
            "model": {"name": model, "couplings": couplings},
            "sizes": [n],
            "beta": 1.0,
            "kick": {"site": 0, "generator": "X", "strength": 0.7},
            "averaging": [{"kind": "temporal", "tau": 1.5}],
            "seed": 3,
        }
    )
    assert len(convergence_sweep(cfg)) == 1
    assert calls and max(calls) < 2**n


@pytest.mark.parametrize("dim", (5, 300))
@pytest.mark.parametrize("dtype", (np.float64, np.complex128))
def test_the_hermitian_part_in_place_equals_the_copy(dim, dtype):
    # 300 spans two tiles, so pairs of tiles and the diagonal ones are both met
    rng = np.random.default_rng(dim)
    a = rng.standard_normal((dim, dim))
    if dtype is np.complex128:
        a = a + 1j * rng.standard_normal((dim, dim))
    copy, defect = hermitian_part(a)
    assert np.array_equal(copy, (a + a.conj().T) / 2)
    same, in_place_defect = hermitian_part(a, out=a)
    assert same is a and np.array_equal(a, copy) and in_place_defect == defect


def test_a_chain_h_with_complex_terms_keeps_a_complex_matrix():
    real = HermitianOperator(diagonal=np.arange(4.0), flips=[(0b11, 0.5)])
    assert real.matrix.dtype == np.float64
    twisted = HermitianOperator(diagonal=np.arange(4.0), flips=[(0b11, [0.5j, 0.5, 0.5, -0.5j])])
    assert twisted.matrix.dtype == np.complex128
    assert max_norm(twisted.matrix - twisted.matrix.conj().T) == 0.0


def _traced_peak(f, *args):
    """f(*args) and the bytes traced at its peak, above those alive before."""
    tracemalloc.start()
    try:
        out = f(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_each_dense_kernel_holds_its_result_and_slabs():
    # N = 10 (dim 1024) spans four slabs: beside its argument, each kernel
    # holds its result (none for the rotation out, which writes into its
    # argument) and slab-sized temporaries, of at most three complex
    # dim x SLAB arrays here; a whole-matrix temporary would be four
    n = 10
    state = _state("flip", n)
    decomp = state.hamiltonian_decomp
    dim = state.dim
    h = state.hamiltonian.matrix
    sectors = decomp.sectors
    temporal = AveragingKind.temporal(1.5).bind(state)
    slabs = 3 * 16 * dim * SLAB
    unit = 16 * dim**2
    x = _probe(dim, 1)
    y = decomp._rotate_in(x)
    kernels = {
        "rotation in": (decomp._rotate_in, x),
        "rotation out": (decomp._rotate_out, y),
        "commutator": (commutator, h, x),
        "translate sum": (average_translates, x, sectors.translation, n),
        "temporal apply": (temporal.apply, x),
    }
    for name, (f, *args) in kernels.items():
        f(*args)  # FFT plans and other once-per-process tables
        out, peak = _traced_peak(f, *args)
        result = 0 if out is y else unit
        assert peak <= result + slabs, (name, peak / unit)


def _kicked(solve, n):
    """A state of `_state` with the kick at site 0 that keeps its labels,
    its reflection parity, and the labelled blocks of u~ after a warm-up
    build (FFT plans and other once-per-process tables)."""
    state = _state(solve, n)
    kick = local_kick(LatticeSpec(n), PerturbationSpec(0, "Y" if solve == "real" else "X", 0.7))
    parity = ReflectionParity(state.hamiltonian_decomp, 0)
    blocks, _ = eigenbasis_kick(state, kick, parity)
    return state, kick, parity, blocks


@pytest.mark.parametrize("solve", ("flip", "real", "both", "neither"))
def test_the_kick_holds_its_blocks_and_two_slabs(solve):
    # N = 10 (dim 1024) spans four slabs.  Beside the blocks of u~, a slab
    # holds at most two complex dim x SLAB arrays: V's columns and U's
    # output, or U's output and its slab of the shift-major grid (N n_orbits
    # rows, 5 % above dim here), plus one sector's rows, under 0.2 slab more;
    # building V's columns, applying U and projecting onto every set beside
    # them held about four
    state, kick, parity, _ = _kicked(solve, 10)
    (blocks, _), peak = _traced_peak(eigenbasis_kick, state, kick, parity)
    held = sum(b.nbytes for b in blocks)
    slab = 16 * state.dim * SLAB
    assert peak <= held + 2.25 * slab, (peak - held) / slab


@pytest.mark.parametrize("solve", ("real", "neither"))
def test_the_kicked_state_holds_one_block_beside_u(solve):
    # rho' reaches its gate a block at a time, each raw block dropped once
    # its symmetrized copy is made: beside u~ (alive before) and rho', one
    # block's copy and the Hermitian gate's tiles (two complex SLAB x SLAB
    # temporaries) at most, where every raw block beside its copy held twice
    # rho'.  Two blocks of about dim/2 at N = 10, real and complex
    state, _, parity, blocks = _kicked(solve, 10)
    kicked_in_eigenbasis(state, blocks, parity)
    rho, peak = _traced_peak(kicked_in_eigenbasis, state, blocks, parity)
    held = sum(b.nbytes for b in rho.blocks)
    largest = max(b.nbytes for b in rho.blocks)
    assert peak <= held + largest + 2 * 16 * SLAB**2, (peak - held) / largest


def _verify_config(n, generator):
    model, couplings = TFI
    return config_from_mapping(
        {
            "model": {"name": model, "couplings": couplings},
            "sizes": [n],
            "beta": 1.0,
            "kick": {"site": 0, "generator": generator, "strength": 0.7},
            "averaging": [
                {"kind": "uniform-spatial"},
                {"kind": "weighted-spatial", "R": 2.0},
                {"kind": "temporal", "tau": 1.5},
            ],
            "seed": 7,
        }
    )


# verify's traced peak at N = 8, in units of one complex dim x dim array
# (16 dim^2 bytes): 7.26 with either kick letter when this bound was set
# (8.14 with whole-matrix rotations and held temporal weights, 11.50 before
# those), plus a margin of 0.6
VERIFY_PEAK_UNITS = 7.26 + 0.6


@pytest.mark.parametrize("generator", ("X", "Y"))
def test_verify_traced_peak_stays_under_its_bound(generator):
    # a run at N = 3 first, so that allocations made once per process (FFT
    # plans, lazily built tables) are not counted against N = 8
    assert verify_identities(_verify_config(3, generator)).passed
    tracemalloc.start()
    try:
        report = verify_identities(_verify_config(8, generator))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak / (16 * 256**2) <= VERIFY_PEAK_UNITS
