"""The reflection about the kicked site: R_0 in the sector solve of H, the
parity split of joint-basis matrices and its gate, the even/odd rule that
averages parity blocks, and the kick-site invariance of every sweep row that
makes the split's phases observable."""
import numpy as np
import pytest

from frameavg.averaging import (
    AveragingKind,
    ReflectionParity,
    conjugated_in_eigenbasis,
    conjugated_perturbation,
)
from frameavg.experiments import _SizeContext, config_from_mapping, convergence_sweep
from frameavg.lattice import (
    HamiltonianSpec,
    LatticeSpec,
    build_hamiltonian,
    pauli,
    translation_operator,
)
from frameavg.operators import (
    HermitianOperator,
    UnitaryOperator,
    max_norm,
    spectral_decompose,
)
from frameavg.thermal import PerturbationSpec, local_kick, perturb, thermal_state

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


def _config(model, couplings, n, site, beta=1.0):
    return config_from_mapping(
        {
            "model": {"name": model, "couplings": couplings},
            "sizes": [n],
            "beta": beta,
            "kick": {"site": site, "generator": GENERATOR, "strength": 0.7},
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
    f = sectors.from_sectors
    return f(f(y).conj().T).conj().T


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
        parity = ReflectionParity(decomp, site, n)
        blocks = parity.split(v.conj().T @ _dense_reflection(n, site) @ v)
        assert len(blocks) == (1 if n == 2 else 2)
        for block, sign in zip(blocks, (1, -1)):
            assert max_norm(block - sign * np.eye(block.shape[0])) < 1e-13
        if n not in (2, 4):
            other = v.conj().T @ _dense_reflection(n, (site + 1) % n) @ v
            with pytest.raises(ValueError, match="off-parity entries reach"):
                parity.split(other)


def test_split_gate_and_block_sizes():
    # E built densely in the computational basis and rotated into the joint
    # eigenbasis splits into the blocks the sweep builds from those of u~
    cfg = _config("heisenberg-xxz", {"J": 1.0, "delta": 0.5}, 5, 2)
    ctx = _SizeContext(cfg, 5)
    parity = ctx.parity
    decomp = ctx.state.hamiltonian_decomp
    e = decomp.to_eigenbasis(conjugated_perturbation(ctx.state, ctx.kick).E.matrix)
    halves = parity.split(e)
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
        parity.split(e + 1e-6 * max_norm(e) * (a + a.conj().T))


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
    # every channel maps the parity blocks of rho' and of E straight to the
    # parity split of the dense W o X~, for every kick site and an X and a Y
    # kick; the uniform channel's class blocks hold all of it, and their
    # spectra are those of the dense average
    lattice = LatticeSpec(n)
    state = thermal_state(_hamiltonian(model, couplings, n), 1.0)
    decomp = state.hamiltonian_decomp
    t = translation_operator(lattice)
    channels = [(kind, kind.bind(state, t, n), _dense_weights(kind, decomp, n)) for kind in KINDS]
    for site in range(n):
        parity = ReflectionParity(decomp, site, n)
        for letter in "XY":
            kick = local_kick(lattice, PerturbationSpec(site, pauli(letter), 0.7))
            rho_prime = perturb(state, kick).matrix
            e = conjugated_perturbation(state, kick).E.matrix
            for x in (rho_prime, e):
                x_tilde = decomp.to_eigenbasis(x)
                x_blocks = parity.split(x_tilde)
                scale = max_norm(x_tilde)
                for kind, channel, w in channels:
                    blocks, rows = channel.parity_blocks(x_blocks, parity)
                    want = parity.split(w * x_tilde)
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


@pytest.mark.parametrize("model,couplings", MODELS)
@pytest.mark.parametrize("n", (2, 3, 4, 5, 6, 7))
def test_rows_do_not_depend_on_the_kick_site(model, couplings, n):
    # the chain is translation invariant, so kicking site s instead of 0
    # changes no physics column; every site takes its own reflection phases
    reference = convergence_sweep(_config(model, couplings, n, 0))
    for site in range(1, n):
        rows = convergence_sweep(_config(model, couplings, n, site))
        for want, got in zip(reference, rows):
            assert (got.avg_kind, got.avg_param) == (want.avg_kind, want.avg_param)
            for column in PHYSICS:
                a, b = getattr(want, column), getattr(got, column)
                assert abs(a - b) <= 1e-10 * max(1.0, abs(a)), (site, got.avg_kind, column)
