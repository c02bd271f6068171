import numpy as np
import pytest

from frameavg import max_norm
from frameavg.lattice import (
    HamiltonianSpec,
    LatticeSizeError,
    LatticeSpec,
    SiteOperator,
    build_hamiltonian,
    embed_site_operator,
    _diagonal_zz_field,
    pauli,
    reduce_to_site,
    sigma_x,
    sigma_y,
    sigma_z,
    translation_operator,
)
from frameavg.thermal import PerturbationSpec, local_kick


def translation_defect(matrix, t):
    """max-norm of T A T^dag - A; a permutation T only reindexes A."""
    return max_norm(t.conjugate(matrix) - matrix)


class TestLatticeSpec:
    def test_dim(self):
        assert LatticeSpec(4).dim == 16

    def test_rejects_single_site(self):
        with pytest.raises(ValueError):
            LatticeSpec(1)

    def test_guard_refuses_blowup(self):
        with pytest.raises(LatticeSizeError):
            LatticeSpec(15)


class TestHamiltonianSpec:
    def test_unknown_model(self):
        with pytest.raises(ValueError):
            HamiltonianSpec("ising", {"J": 1.0})

    def test_missing_coupling(self):
        with pytest.raises(ValueError):
            HamiltonianSpec("transverse-field-ising", {"J": 1.0})

    def test_unknown_coupling(self):
        with pytest.raises(ValueError):
            HamiltonianSpec("free-spins", {"h": 1.0, "g": 2.0})

    def test_non_finite_coupling(self):
        with pytest.raises(ValueError):
            HamiltonianSpec("free-spins", {"h": float("nan")})


class TestEmbedding:
    def test_identity_embeds_to_identity(self):
        lat = LatticeSpec(2)
        out = embed_site_operator(lat, SiteOperator(0, np.eye(2)))
        assert max_norm(out - np.eye(4)) == 0.0

    def test_pauli_z_site0_fixes_basis_order(self):
        # site 0 is the most significant digit of the basis index
        lat = LatticeSpec(2)
        out = embed_site_operator(lat, SiteOperator(0, sigma_z))
        assert max_norm(out - np.diag([1.0, 1.0, -1.0, -1.0])) == 0.0

    def test_disjoint_sites_commute(self):
        lat = LatticeSpec(3)
        a = embed_site_operator(lat, SiteOperator(2, sigma_x))
        b = embed_site_operator(lat, SiteOperator(0, sigma_x))
        assert max_norm(a @ b - b @ a) == 0.0

    def test_site_out_of_range(self):
        with pytest.raises(ValueError):
            embed_site_operator(LatticeSpec(2), SiteOperator(2, sigma_x))

    def test_local_dim_mismatch(self):
        # every site is a qubit, so a 3 x 3 site operator or kick generator
        # is refused
        qutrit = np.diag([1.0, 0.0, -1.0])
        with pytest.raises(ValueError, match="local matrix has dim 3, lattice expects 2"):
            embed_site_operator(LatticeSpec(2), SiteOperator(0, qutrit))
        with pytest.raises(ValueError, match="generator has dim 3, lattice expects 2"):
            local_kick(LatticeSpec(2), PerturbationSpec(0, qutrit, 0.7))

    def test_pauli_lookup(self):
        assert max_norm(pauli("Y") - np.array([[0, -1j], [1j, 0]])) == 0.0
        with pytest.raises(ValueError):
            pauli("W")


class TestTranslation:
    def test_order_n(self):
        lat = LatticeSpec(4)
        t = translation_operator(lat).matrix
        power = np.eye(16)
        for _ in range(4):
            power = t @ power
        assert max_norm(power - np.eye(16)) == 0.0

    def test_shift_convention(self):
        # |01> is basis index 1; the right shift sends it to |10>, index 2
        t = translation_operator(LatticeSpec(2)).matrix
        e1 = np.zeros(4)
        e1[1] = 1.0
        np.testing.assert_array_equal(t @ e1, [0.0, 0.0, 1.0, 0.0])

    def test_covariance_moves_site_forward(self):
        lat = LatticeSpec(3)
        t = translation_operator(lat)
        rng = np.random.default_rng(17)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        for j in range(3):
            lhs = t.matrix @ embed_site_operator(lat, SiteOperator(j, a)) @ t.matrix.conj().T
            rhs = embed_site_operator(lat, SiteOperator((j + 1) % 3, a))
            assert max_norm(lhs - rhs) < 1e-12

    def test_permutation_rides_along(self):
        t = translation_operator(LatticeSpec(3))
        assert t.permutation is not None
        dense = np.zeros((8, 8))
        dense[t.permutation, np.arange(8)] = 1.0
        assert max_norm(t.matrix - dense) == 0.0


class TestHamiltonians:
    def test_free_spins_n2(self):
        h = build_hamiltonian(LatticeSpec(2), HamiltonianSpec("free-spins", {"h": 1.0}))
        assert max_norm(h.matrix - np.diag([2.0, 0.0, 0.0, -2.0])) == 0.0

    def test_ising_n2_single_bond(self):
        spec = HamiltonianSpec("transverse-field-ising", {"J": 1.0, "g": 0.0})
        h = build_hamiltonian(LatticeSpec(2), spec)
        np.testing.assert_allclose(np.linalg.eigvalsh(h.matrix), [-1.0, -1.0, 1.0, 1.0], atol=1e-14)

    def test_ising_matches_explicit_sum(self):
        lat = LatticeSpec(4)
        spec = HamiltonianSpec("transverse-field-ising", {"J": 1.3, "g": 0.7})
        h = build_hamiltonian(lat, spec).matrix
        ref = np.zeros((16, 16), dtype=complex)
        z = [embed_site_operator(lat, SiteOperator(i, sigma_z)) for i in range(4)]
        x = [embed_site_operator(lat, SiteOperator(i, sigma_x)) for i in range(4)]
        for i in range(4):
            ref -= 1.3 * z[i] @ z[(i + 1) % 4] + 0.7 * x[i]
        assert max_norm(h - ref) < 1e-12

    def test_xxz_matches_explicit_sum(self):
        lat = LatticeSpec(3)
        spec = HamiltonianSpec("heisenberg-xxz", {"J": 0.9, "delta": 1.4})
        h = build_hamiltonian(lat, spec).matrix
        ref = np.zeros((8, 8), dtype=complex)
        for name, coeff in (("X", 0.9), ("Y", 0.9), ("Z", 0.9 * 1.4)):
            ops = [embed_site_operator(lat, SiteOperator(i, pauli(name))) for i in range(3)]
            for i in range(3):
                ref += coeff * ops[i] @ ops[(i + 1) % 3]
        assert max_norm(h - ref) < 1e-12

    @pytest.mark.parametrize(
        "spec",
        [
            HamiltonianSpec("free-spins", {"h": 0.8}),
            HamiltonianSpec("transverse-field-ising", {"J": 1.0, "g": 0.6}),
            HamiltonianSpec("heisenberg-xxz", {"J": 1.0, "delta": 0.5}),
        ],
    )
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_translation_symmetry(self, spec, n):
        lat = LatticeSpec(n)
        h = build_hamiltonian(lat, spec)
        assert translation_defect(h.matrix, translation_operator(lat)) <= 1e-10


def _kronecker_hamiltonian(lat, spec):
    """H with every off-diagonal term summed as a dense Kronecker chain."""
    n, c = lat.sites, spec.couplings
    bonds = [(0, 1)] if n == 2 else [(i, (i + 1) % n) for i in range(n)]

    def chain(factors):
        out = np.eye(1, dtype=complex)
        for site in range(n):
            out = np.kron(out, factors.get(site, np.eye(2, dtype=complex)))
        return out

    if spec.model == "free-spins":
        return np.diag(_diagonal_zz_field(lat, c["h"], 0.0).astype(complex))
    if spec.model == "transverse-field-ising":
        h = np.diag(_diagonal_zz_field(lat, 0.0, -c["J"]).astype(complex))
        for i in range(n):
            h -= c["g"] * chain({i: sigma_x})
        return h
    h = np.diag(_diagonal_zz_field(lat, 0.0, c["J"] * c["delta"]).astype(complex))
    for i, j in bonds:
        h += c["J"] * chain({i: sigma_x, j: sigma_x})
        h += c["J"] * chain({i: sigma_y, j: sigma_y})
    return h


@pytest.mark.parametrize(
    "spec",
    [
        HamiltonianSpec("free-spins", {"h": 0.8}),
        HamiltonianSpec("transverse-field-ising", {"J": 1.3, "g": 0.7}),
        HamiltonianSpec("heisenberg-xxz", {"J": 0.9, "delta": 1.4}),
    ],
    ids=lambda spec: spec.model,
)
@pytest.mark.parametrize("n", [2, 3, 5])
def test_bit_flip_build_equals_kronecker_build(spec, n):
    lat = LatticeSpec(n)
    assert np.array_equal(build_hamiltonian(lat, spec).matrix, _kronecker_hamiltonian(lat, spec))


def test_reduce_to_site_product_state():
    lat = LatticeSpec(3)
    rng = np.random.default_rng(23)
    locals_ = []
    for _ in range(3):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m = g @ g.conj().T
        locals_.append(m / m.trace())
    full = np.kron(np.kron(locals_[0], locals_[1]), locals_[2])
    for site in range(3):
        got = reduce_to_site(lat, full, site)
        assert max_norm(got - locals_[site]) < 1e-12


def test_reduce_to_site_preserves_trace():
    lat = LatticeSpec(4)
    rng = np.random.default_rng(29)
    g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    m = g @ g.conj().T
    m /= m.trace()
    red = reduce_to_site(lat, m, 2)
    assert abs(red.trace() - 1.0) < 1e-12
