"""The reflection about the kicked site, the global spin flip and the
antiunitary real structure: R_0, the flip and the phasing in the sector
solve of H, the choice of the flip and of the real structure by commutation,
the labelled split of joint-basis matrices and its gate, the even/odd rule
that averages parity blocks, and the kick-site invariance of every sweep row
that makes the split's phases observable."""
import numpy as np
import pytest

from frameavg import lattice, operators
from frameavg.averaging import (
    AveragingKind,
    ReflectionParity,
    conjugated_in_eigenbasis,
    conjugated_perturbation,
    kicked_in_eigenbasis,
)
from frameavg.experiments import _SizeContext, config_from_mapping, convergence_sweep
from frameavg.lattice import (
    ChainSymmetry,
    HamiltonianSpec,
    LatticeSpec,
    build_hamiltonian,
    chain_symmetry,
    pauli,
    site_product,
    translation_operator,
)
from frameavg.operators import (
    HermitianOperator,
    UnitaryOperator,
    max_norm,
    spectral_decompose,
    symmetry_split,
)
from frameavg.thermal import PerturbationSpec, local_kick, perturb, thermal_state
from parity_blocks import parity_split

MODELS = (
    ("free-spins", {"h": 1.0}),
    ("transverse-field-ising", {"J": 1.0, "g": 0.9}),
    ("heisenberg-xxz", {"J": 1.0, "delta": 0.5}),
)
THREE_CHANNELS = [
    {"kind": "uniform-spatial"},
    {"kind": "weighted-spatial", "R": 2.0},
    {"kind": "temporal", "tau": 1.5},
]
# a generic single-site generator, so no kick is special to X, Y or Z
GENERATOR = [[0.3, [0.5, -0.2]], [[0.5, 0.2], -0.1]]
# the kicks of the kick-site oracle: each Pauli letter, and the generic one
KICKS = ("X", "Y", "Z", GENERATOR)
PHYSICS = (
    "s_rho",
    "s_rho_prime",
    "s_m_rho_prime",
    "rel_ent_prime",
    "rel_ent_avg",
    "bs_rel_ent_avg",
    "beta_w",
    "me_deviation",
    "entropy_density",
)


def _hamiltonian(model, couplings, n):
    return build_hamiltonian(LatticeSpec(n), HamiltonianSpec(model, couplings))


def _generator(kick):
    """A kick of KICKS as a 2 x 2 matrix."""
    if isinstance(kick, str):
        return pauli(kick)
    return np.array([[complex(*np.atleast_1d(x)) for x in row] for row in kick])


def _labels(h, generator):
    """The (flip, real structure) pair a size's setup solves H with."""
    symmetry = chain_symmetry(h, generator)
    return symmetry.flip, symmetry.real


def _config(model, couplings, n, site, beta=1.0, generator=GENERATOR):
    return config_from_mapping(
        {
            "model": {"name": model, "couplings": couplings},
            "sizes": [n],
            "beta": beta,
            "kick": {"site": site, "generator": generator, "strength": 0.7},
            "averaging": THREE_CHANNELS,
            "seed": 5,
        }
    )


@pytest.mark.parametrize("model,couplings", MODELS)
@pytest.mark.parametrize("n", (2, 3, 4, 5, 6, 7, 8))
def test_reflection_maps_each_eigenvector_to_its_partner(model, couplings, n):
    # sector N - k holds the reflected vectors of sector k, and sectors 0 and
    # N/2 hold parity-pure vectors, checked on the dense V built on read
    h = _hamiltonian(model, couplings, n)
    decomp = spectral_decompose(h)
    v = decomp.eigenvectors
    reflected = np.empty_like(v)
    reflected[h.sectors.reflection] = v  # R_0 v
    k, partner, sign = decomp.momenta, decomp.partner, decomp.reflection_sign
    own = partner == np.arange(v.shape[0])
    assert np.array_equal(own, (2 * k) % n == 0)
    assert np.array_equal(k[partner], (-k) % n)
    assert set(sign[own]) <= {-1, 1} and not sign[~own].any()
    assert np.array_equal(decomp.eigenvalues[partner], decomp.eigenvalues)
    assert max_norm(reflected - v[:, partner] * np.where(own, sign, 1)) < 1e-13


XXZ = MODELS[2]
TFI = MODELS[1]
FREE = MODELS[0]


@pytest.mark.parametrize(
    "model,couplings,kick,flip",
    [
        (*XXZ, "X", "X"),
        (*XXZ, "Y", "Y"),
        (*XXZ, "Z", "Z"),
        (*TFI, "X", "X"),
        (*TFI, "Y", None),
        (*TFI, "Z", None),
        (*FREE, "X", None),
        (*FREE, "Y", None),
        (*FREE, "Z", "Z"),
        (*XXZ, GENERATOR, None),
        (*TFI, GENERATOR, None),
        (*FREE, GENERATOR, None),
    ],
)
def test_the_flip_is_chosen_by_commutation(model, couplings, kick, flip):
    # the flip that commutes with H's terms and with the kick's generator
    for n in (2, 3, 4, 5, 6):
        assert chain_symmetry(_hamiltonian(model, couplings, n), _generator(kick)).flip == flip


@pytest.mark.parametrize(
    "model,couplings,kick,real",
    [
        (*XXZ, "X", ("Y", "Z")),
        (*XXZ, "Y", "I"),
        (*XXZ, "Z", "X"),
        (*TFI, "X", None),
        (*TFI, "Y", "I"),
        (*TFI, "Z", "X"),
        (*FREE, "X", "Z"),
        (*FREE, "Y", "I"),
        (*FREE, "Z", None),
        (*XXZ, GENERATOR, None),
        (*TFI, GENERATOR, None),
        (*FREE, GENERATOR, None),
    ],
)
def test_the_real_structure_is_chosen_by_commutation(model, couplings, kick, real, monkeypatch):
    # the antiunitary prod s K that fixes H's terms and the kick, picked
    # alone: every flip is withheld, its defect on H's terms reading
    # infinite; given for even and odd N where they differ: time reversal
    # prod Y K squares to -1 at odd N; GENERATOR has a trace part, which K
    # cannot send to minus itself
    defect = lattice.conjugation_defect

    def withheld(perm, phase, rows, cols, values, antiunitary=False):
        return defect(perm, phase, rows, cols, values, antiunitary) if antiunitary else np.inf

    monkeypatch.setattr(lattice, "conjugation_defect", withheld)
    for n in (2, 3, 4, 5, 6):
        want = real[n % 2] if isinstance(real, tuple) else real
        symmetry = chain_symmetry(_hamiltonian(model, couplings, n), _generator(kick))
        assert symmetry.flip is None and symmetry.real == want


@pytest.mark.parametrize(
    "model,couplings,kick,even,odd",
    [
        (*XXZ, "X", ("X", "Y"), ("X", None)),
        (*XXZ, "Y", ("Y", "I"), ("Y", None)),
        (*XXZ, "Z", ("Z", "X"), ("Z", None)),
        (*XXZ, GENERATOR, (None, None), (None, None)),
        (*TFI, "X", ("X", None), ("X", None)),
        (*TFI, "Y", (None, "I"), (None, "I")),
        (*TFI, "Z", (None, "X"), (None, "X")),
        (*TFI, GENERATOR, (None, None), (None, None)),
        (*FREE, "X", (None, "Z"), (None, "Z")),
        (*FREE, "Y", (None, "I"), (None, "I")),
        (*FREE, "Z", ("Z", None), ("Z", None)),
        (*FREE, GENERATOR, (None, None), (None, None)),
    ],
)
def test_the_label_pair_is_chosen_by_commutation(model, couplings, kick, even, odd):
    # the (flip, real structure) pair a size's setup solves H with: the real
    # structure must also commute with the flip, A F A^-1 = eps^N F for
    # s f^* s^dag = eps f, so on XXZ both labels apply at even N and the flip
    # alone at odd N; TFI and free spins never take both
    for n in range(2, 10):
        want = odd if n % 2 else even
        assert _labels(_hamiltonian(model, couplings, n), _generator(kick)) == want, n


@pytest.mark.parametrize(
    "model,couplings,flip,real",
    [
        (*XXZ, None, "Y"),
        (*XXZ, None, "I"),
        (*XXZ, None, "X"),
        (*TFI, None, "I"),
        (*TFI, None, "X"),
        (*FREE, None, "Z"),
        (*XXZ, "X", "Y"),
        (*XXZ, "Y", "I"),
        (*XXZ, "Z", "X"),
    ],
)
@pytest.mark.parametrize("n", (2, 3, 4, 5, 6, 7, 8))
def test_a_real_structure_maps_each_eigenvector_to_its_partner(model, couplings, flip, real, n):
    # solved with A = prod s K, beside the flip F where one is given, A v_i
    # is v_partner(i), itself where the partner is i, on the dense V, each v_i
    # keeps its flip sign, and the spectrum is that of the plain solve;
    # prod Y K squares to -1 at odd N and is refused, and so is an A that
    # anticommutes with F, as every A beside a flip does on XXZ at odd N
    h = _hamiltonian(model, couplings, n)
    if real == "Y" and n % 2:
        with pytest.raises(ValueError, match="prod Y K squares to -1"):
            spectral_decompose(h, ChainSymmetry(n, flip, real))
        return
    if flip is not None and n % 2:
        with pytest.raises(ValueError, match=f"prod {real} K anticommutes with the spin flip"):
            spectral_decompose(h, ChainSymmetry(n, flip, real))
        return
    decomp = spectral_decompose(h, ChainSymmetry(n, flip, real))
    assert decomp.symmetry.real == real and decomp.symmetry.flip == flip
    v = decomp.eigenvectors
    local = np.eye(2, dtype=complex) if real == "I" else pauli(real)
    perm, phase = site_product(n, local)
    image = np.empty_like(v)
    image[perm] = phase[:, np.newaxis] * v.conj()  # A v
    assert max_norm(image - v[:, decomp.partner]) < 1e-13
    if flip is not None:
        perm, phase = site_product(n, pauli(flip))
        flipped = np.empty_like(v)
        flipped[perm] = phase[:, np.newaxis] * v  # F v
        assert max_norm(flipped - v * decomp.flip_sign) < 1e-13
    plain = spectral_decompose(h)
    assert np.abs(decomp.eigenvalues - plain.eigenvalues).max() < 1e-12
    assert plain.symmetry.real is None


def test_the_antiunitary_split_spans_each_set_with_fixed_vectors():
    # columns with complex coefficients, split by a unitary involution Q and
    # then made real by an antiunitary A that commutes with it: every vector
    # is fixed by A, each set keeps its label and span, and the whole is
    # orthonormal
    rng = np.random.default_rng(3)
    dim = 8
    # Q swaps 0 <-> 1 and 4 <-> 5 and fixes the rest; A swaps 0 <-> 4 and
    # 1 <-> 5 and fixes the rest, each with a phase constant on its orbits
    image_q = np.array([1, 0, 2, 3, 5, 4, 6, 7])
    image_a = np.array([4, 5, 2, 3, 0, 1, 6, 7])
    z = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
    phase_q = np.array([z[0], z[0].conj(), 1, -1, z[0].conj(), z[0], 1, -1])
    phase_a = np.array([z[1], z[1], z[2], z[3], z[1], z[1], 1j, -1j])
    coefficients = np.exp(1j * rng.uniform(0, 2 * np.pi, dim))
    sets = [((), (np.arange(dim), coefficients))]
    q_only = symmetry_split(sets, [(image_q, phase_q)])
    split = symmetry_split(sets, [(image_q, phase_q)], (image_a, phase_a))
    assert [labels for labels, _ in split] == [labels for labels, _ in q_only]
    columns = []
    for terms in (t for _, t in split):
        v = np.zeros((dim, terms[0].size), dtype=complex)
        for i, c in zip(terms[0::2], terms[1::2]):
            v[i, np.arange(i.size)] += c
        a_v = np.empty_like(v)
        a_v[image_a] = phase_a[:, np.newaxis] * v.conj()  # A v
        assert max_norm(a_v - v) < 1e-14
        columns.append(v)
    v = np.concatenate(columns, axis=1)
    assert max_norm(v.conj().T @ v - np.eye(dim)) < 1e-14


def test_the_split_refuses_an_antiunitary_that_swaps_the_flip_signs(monkeypatch):
    # XXZ at N = 5 with prod Z K beside prod X, past the refusal of
    # `ChainSymmetry`: A maps the first index of each column
    # of a flip sign onto a column of the same sign, but sends its other
    # term to the partner with the opposite coefficient, so the split itself
    # must raise
    h = _hamiltonian(*XXZ, 5)
    monkeypatch.setattr(ChainSymmetry, "__post_init__", lambda self: None)
    split, raised = operators.symmetry_split, []

    def spy(*args):
        try:
            return split(*args)
        except ValueError as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(operators, "symmetry_split", spy)
    with pytest.raises(ValueError, match="does not map a labelled column set onto itself") as info:
        spectral_decompose(h, ChainSymmetry(5, "X", "Z"))
    assert raised and raised[-1] is info.value


def test_the_split_checks_every_term_of_a_column():
    # Q fixes e_0 and swaps e_1 with e_2: it sends the first term of
    # (e_0 + e_1) / sqrt(2) home but its second into (e_2 + e_3) / sqrt(2)
    half = np.full(2, np.sqrt(0.5))
    pairs = (np.array([0, 2]), half, np.array([1, 3]), half)
    with pytest.raises(ValueError, match="does not map a labelled column set onto itself"):
        symmetry_split([((), pairs)], [(np.array([0, 2, 1, 3]), np.ones(4))])
    # K keeps every index of (e_0 + i e_1) / sqrt(2) but conjugates its
    # second coefficient, so it maps the column to no multiple of itself
    column = (np.array([0]), half[:1], np.array([1]), 1j * half[:1])
    with pytest.raises(ValueError, match="onto itself: coefficients miss by 1.414e\\+00"):
        symmetry_split([((), column)], [], (np.arange(2), np.ones(2)))


def test_the_split_refuses_a_step_that_does_not_square_to_one():
    # a fixed column of phase i, where Q^2 = -1, is an eigenvector of
    # neither sign; a three-cycle of unit columns is no involution at all
    unit = (np.arange(3), np.ones(3))
    with pytest.raises(ValueError, match="does not square to 1 .*: phases miss 1 by 2.000e\\+00"):
        symmetry_split([((), unit)], [(np.arange(3), np.array([1, 1j, -1]))])
    with pytest.raises(ValueError, match="does not square to 1 on a labelled column set$"):
        symmetry_split([((), unit)], [(np.array([1, 2, 0]), np.ones(3))])
    # an antiunitary step may fix a column with any phase of modulus 1
    ((_, (i, *_)),) = symmetry_split([((), unit)], [], (np.arange(3), np.array([1, 1j, -1])))
    assert i.size == 3


@pytest.mark.parametrize("n", (3, 4, 5, 6))
def test_sector_solve_refuses_a_real_structure_the_operator_breaks(n):
    # TFI is real, but prod Z K flips the sign of its transverse field
    h = _hamiltonian("transverse-field-ising", {"J": 1.0, "g": 0.9}, n)
    spectral_decompose(h, ChainSymmetry(n, real="I"))
    with pytest.raises(ValueError, match="antiunitary prod Z K of its sectors: imaginary"):
        spectral_decompose(h, ChainSymmetry(n, real="Z"))


@pytest.mark.parametrize(
    "model,couplings,flip,real",
    [
        (*XXZ, "X", None),
        (*XXZ, "Y", None),
        (*XXZ, "Z", None),
        (*TFI, "X", None),
        (*FREE, "Z", None),
        (*XXZ, "X", "Y"),
        (*XXZ, "Y", "I"),
        (*XXZ, "Z", "X"),
    ],
)
@pytest.mark.parametrize("n", (2, 3, 4, 5, 6, 7, 8))
def test_a_flip_labels_every_eigenvector(model, couplings, flip, real, n):
    # solved with a flip F, and beside it the real structure `real` at even
    # N, where it commutes with F, each dense eigenvector is one of F with
    # its flip_sign, R_0 partners share it, and the spectrum and momenta are
    # those of the solve without the flip
    h = _hamiltonian(model, couplings, n)
    real = None if n % 2 else real
    decomp = spectral_decompose(h, ChainSymmetry(n, flip, real))
    assert decomp.symmetry.flip == flip and decomp.symmetry.real == real
    v = decomp.eigenvectors
    perm, phase = site_product(n, pauli(flip))
    flipped = np.empty_like(v)
    flipped[perm] = phase[:, np.newaxis] * v  # F v
    assert max_norm(flipped - v * decomp.flip_sign) < 1e-13
    assert set(decomp.flip_sign) <= {-1, 1}
    assert np.array_equal(decomp.flip_sign[decomp.partner], decomp.flip_sign)
    plain = spectral_decompose(h)
    assert np.abs(decomp.eigenvalues - plain.eigenvalues).max() < 1e-12
    assert plain.symmetry.flip is None and not plain.flip_sign.any()


@pytest.mark.parametrize("n", (3, 4, 5, 6))
def test_sector_solve_refuses_a_flip_the_operator_breaks(n):
    # TFI commutes with prod X but not with prod Z, which flips the sign of
    # its transverse field: the off-flip gate of the sector solve trips
    h = _hamiltonian("transverse-field-ising", {"J": 1.0, "g": 0.9}, n)
    spectral_decompose(h, ChainSymmetry(n, "X"))
    with pytest.raises(ValueError, match="with the spin flip prod Z of its sectors: off-flip"):
        spectral_decompose(h, ChainSymmetry(n, "Z"))



def _tfi_with(n, extra):
    """TFI H plus a perturbation built from its sectors, still carrying them."""
    h = _hamiltonian("transverse-field-ising", {"J": 1.0, "g": 0.9}, n)
    return HermitianOperator(h.matrix + extra(h), sectors=h.sectors)


def _odd_bond_current(h):
    # 1e-3 sum_i (X_i Y_i+1 - Y_i X_i+1): it commutes with T, and R_0 maps
    # each bond term onto minus the mirrored one
    n = h.sectors.n_terms
    x, y = np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]])

    def bond(a, b, i):
        ops = [np.eye(2)] * n
        ops[i], ops[(i + 1) % n] = a, b
        out = ops[0]
        for op in ops[1:]:
            out = np.kron(out, op)
        return out

    return 1e-3 * sum(bond(x, y, i) - bond(y, x, i) for i in range(n))


def _sector_one_perturbation(h):
    # a Hermitian block in sector 1 only, so sector N - 1 no longer mirrors it
    sectors, dim = h.sectors, h.dim
    start = sectors.dims[0]
    rng = np.random.default_rng(4)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    y = np.zeros((dim, dim), dtype=complex)
    sl = slice(start, start + sectors.dims[1])
    y[sl, sl] = 1e-3 * (a + a.conj().T)[sl, sl]
    # F y F^dag, the rotation out through identity blocks
    return sectors.rotate_from_sectors(y, [np.eye(d) for d in sectors.dims])


@pytest.mark.parametrize("extra", [_odd_bond_current, _sector_one_perturbation])
@pytest.mark.parametrize("n", (3, 4, 5, 6))
def test_sector_solve_refuses_an_operator_the_reflection_does_not_fix(n, extra):
    # both perturbations commute with the translation, so only the reflection
    # gates (sector 0 per parity, sector N - k against sector k) can catch them
    h = _tfi_with(n, extra)
    with pytest.raises(ValueError, match="does not commute with the site reflection"):
        spectral_decompose(h)


@pytest.mark.parametrize("n", (3, 4, 5, 6))
def test_sector_solve_refuses_an_operator_the_translation_does_not_fix(n):
    # 1e-3 Z_0 is diagonal and fixed by R_0 but not by T; the sector solve in
    # thermal_state is the one check that H commutes with the translation
    h = _tfi_with(n, lambda h: 1e-3 * np.kron(np.diag([1.0, -1.0]), np.eye(h.dim // 2)))
    with pytest.raises(ValueError, match="does not commute with the translation of its sectors"):
        thermal_state(h, 1.0)


def _dense_reflection(n, site):
    """P_s = T^s R_0 T^-s as a dense permutation matrix."""
    h = _hamiltonian("free-spins", {"h": 1.0}, n)
    t = translation_operator(LatticeSpec(n)).matrix
    r = UnitaryOperator(permutation=h.sectors.reflection).matrix
    ts = np.linalg.matrix_power(t, site)
    return ts @ r @ ts.conj().T


@pytest.mark.parametrize("model,couplings", MODELS)
@pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
def test_the_reflection_itself_splits_into_plus_and_minus_one(model, couplings, n):
    # P_s commutes with itself, so its joint-basis matrix splits into +1 on
    # the even block and -1 on the odd block; the reflection about the next
    # site gives P_s+1 P_s = T^2, so it commutes with P_s only where T^4 = 1,
    # and elsewhere trips the gate
    decomp = spectral_decompose(_hamiltonian(model, couplings, n))
    v = decomp.eigenvectors
    for site in range(n):
        parity = ReflectionParity(decomp, site)
        blocks = parity_split(parity, v.conj().T @ _dense_reflection(n, site) @ v)
        assert len(blocks) == (1 if n == 2 else 2)
        for block, sign in zip(blocks, (1, -1)):
            assert max_norm(block - sign * np.eye(block.shape[0])) < 1e-13
        if n not in (2, 4):
            other = v.conj().T @ _dense_reflection(n, (site + 1) % n) @ v
            with pytest.raises(ValueError, match="off-parity entries reach"):
                parity_split(parity, other)


def test_split_gate_and_block_sizes():
    # E built densely in the computational basis and rotated into the joint
    # eigenbasis splits into the blocks the sweep builds from those of u~
    cfg = _config("heisenberg-xxz", {"J": 1.0, "delta": 0.5}, 5, 2)
    ctx = _SizeContext(cfg, 5)
    parity = ctx.parity
    decomp = ctx.state.hamiltonian_decomp
    e = decomp.to_eigenbasis(conjugated_perturbation(ctx.state, ctx.kick).E.matrix)
    halves = parity_split(parity, e)
    # the even block is larger by the 2^3 states the reflection fixes
    assert [b.shape[0] for b in halves] == [20, 12]
    blocks = conjugated_in_eigenbasis(ctx.state, ctx.u_blocks, parity)
    assert max(max_norm(h - b) for h, b in zip(halves, blocks)) < 1e-14 * max_norm(e)
    populations = parity.split(ctx.state.populations)
    assert sorted(np.concatenate(populations)) == sorted(ctx.state.populations)
    rng = np.random.default_rng(2)
    a = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    with pytest.raises(
        ValueError, match="does not commute with the reflection about the kicked site"
    ):
        parity_split(parity, e + 1e-6 * max_norm(e) * (a + a.conj().T))


def _dense_weights(kind, decomp, n):
    """Omega(i, l) of a channel over the whole joint eigenbasis, built entry
    by entry from the momenta and energies."""
    k, energies = decomp.momenta, decomp.eigenvalues
    dk = k[:, np.newaxis] - k[np.newaxis, :]
    if kind.kind == "uniform-spatial":
        return (dk == 0).astype(float)
    if kind.kind == "weighted-spatial":
        shifts = np.arange(n)
        w = np.exp(-np.minimum(shifts, n - shifts) / kind.parameter)
        w /= w.sum()
        return sum(w[m] * np.exp(2j * np.pi * dk * m / n) for m in shifts)
    return 1.0 / (1.0 + 1j * (energies[:, np.newaxis] - energies[np.newaxis, :]) * kind.parameter)


KINDS = (
    AveragingKind.uniform_spatial(),
    AveragingKind.weighted_spatial(2.0),
    AveragingKind.temporal(1.5),
)


@pytest.mark.parametrize("model,couplings", MODELS)
@pytest.mark.parametrize("n", (2, 3, 4, 5, 6, 7, 8))
def test_the_even_odd_rule_is_the_parity_split_of_the_schur_product(model, couplings, n):
    # every channel maps the labelled blocks of rho' and of E straight to
    # the labelled split of the dense W o X~, for every kick site and an X,
    # a Y, a Z and a generic kick, each with H solved under the labels a
    # size's setup picks: the spin flip that H and the kick commute with,
    # where one does, and their real structure, where one commutes with the
    # flip too, which makes rho' and E real in the labelled basis; the
    # uniform channel's class blocks hold all of it, and their spectra are
    # those of the dense average
    lattice = LatticeSpec(n)
    h = _hamiltonian(model, couplings, n)
    t = translation_operator(lattice)
    for letter in KICKS:
        generator = _generator(letter)
        symmetry = chain_symmetry(h, generator)
        state = thermal_state(h, 1.0, symmetry)
        decomp = state.hamiltonian_decomp
        channels = [
            (kind, kind.bind(state), _dense_weights(kind, decomp, n)) for kind in KINDS
        ]
        for site in range(n):
            parity = ReflectionParity(decomp, site)
            kick = local_kick(lattice, PerturbationSpec(site, generator, 0.7))
            rho_prime = perturb(state, kick).matrix
            e = conjugated_perturbation(state, kick).E.matrix
            for x in (rho_prime, e):
                x_tilde = decomp.to_eigenbasis(x)
                x_blocks = parity_split(parity, x_tilde)
                scale = max_norm(x_tilde)
                if symmetry.real is not None:
                    assert max(max_norm(b.imag) for b in x_blocks) <= 1e-13 * scale
                for kind, channel, w in channels:
                    blocks, rows = channel.parity_blocks(x_blocks, parity)
                    want = parity_split(parity, w * x_tilde)
                    if channel.classes is not None:
                        # the class blocks inside each parity block, and zero
                        # between classes
                        pieces = []
                        for q, block in enumerate(want):
                            labels = channel.classes[parity.rows[q]]
                            other = labels[:, np.newaxis] != labels[np.newaxis, :]
                            assert not block[other].any()
                            for c in np.unique(labels):
                                g = np.flatnonzero(labels == c)
                                pieces.append(block[np.ix_(g, g)])
                        want = pieces
                    assert [b.shape for b in blocks] == [b.shape for b in want]
                    assert sum(r.size for r in rows) == 2**n
                    worst = max(max_norm(b - c) for b, c in zip(blocks, want))
                    assert worst <= 1e-13 * scale, (site, letter, kind.kind)
                    if kind.kind == "uniform-spatial" and x is rho_prime:
                        union = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks]))
                        dense = np.linalg.eigvalsh(channel.apply(rho_prime))
                        assert np.abs(union - dense).max() <= 1e-13, (site, letter)


@pytest.mark.parametrize("kick,labels", [("X", ("X", "Y")), ("Y", ("Y", "I")), ("Z", ("Z", "X"))])
@pytest.mark.parametrize("n", (4, 6, 8))
def test_xxz_at_even_n_holds_four_real_blocks(kick, labels, n):
    # with the flip and the real structure both applied, u~, rho', E and the
    # uniform and weighted M rho' and ME are four float64 blocks that sum to
    # dim, equal to the labelled split of the dense matrices; the temporal
    # channel's Lorentzian is odd in time, so its averages stay complex
    ctx = _SizeContext(_config(*XXZ, n, 1, generator=kick), n)
    state, parity = ctx.state, ctx.parity
    decomp = state.hamiltonian_decomp
    assert (decomp.symmetry.flip, decomp.symmetry.real) == labels
    assert len(ctx.u_blocks) == 4 and all(u.dtype == np.float64 for u in ctx.u_blocks)
    dense = (perturb(state, ctx.kick).matrix, conjugated_perturbation(state, ctx.kick).E.matrix)
    rho_blocks = kicked_in_eigenbasis(state, ctx.u_blocks, parity).blocks
    e_blocks = conjugated_in_eigenbasis(state, ctx.u_blocks, parity)
    channels = [kind.bind(state) for kind in KINDS]
    for blocks, x in zip((rho_blocks, e_blocks), dense):
        assert len(blocks) == 4 and all(b.dtype == np.float64 for b in blocks)
        assert sum(b.shape[0] for b in blocks) == 2**n
        want = parity_split(parity, decomp.to_eigenbasis(x))
        assert max(max_norm(b - w) for b, w in zip(blocks, want)) <= 1e-13 * max_norm(x)
        for kind, channel in zip(KINDS, channels):
            averaged, _ = channel.parity_blocks(blocks, parity)
            dtype = np.complex128 if kind.kind == "temporal" else np.float64
            assert all(b.dtype == dtype for b in averaged), kind.kind


@pytest.mark.parametrize("model,couplings", MODELS)
@pytest.mark.parametrize("n", (2, 3, 4, 5, 6, 7))
def test_rows_do_not_depend_on_the_kick_site(model, couplings, n):
    # the chain is translation invariant, so kicking site s instead of 0
    # changes no physics column; every site takes its own reflection phases,
    # for an X, a Y, a Z and a generic kick, with the spin flip split where
    # one applies
    for kick in KICKS:
        reference = convergence_sweep(_config(model, couplings, n, 0, generator=kick))
        for site in range(1, n):
            rows = convergence_sweep(_config(model, couplings, n, site, generator=kick))
            for want, got in zip(reference, rows):
                assert (got.avg_kind, got.avg_param) == (want.avg_kind, want.avg_param)
                for column in PHYSICS:
                    a, b = getattr(want, column), getattr(got, column)
                    where = (kick, site, got.avg_kind, column)
                    assert abs(a - b) <= 1e-10 * max(1.0, abs(a)), where
