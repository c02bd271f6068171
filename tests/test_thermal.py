import numpy as np
import pytest

from frameavg import DensityMatrix, HermitianOperator, UnitaryOperator, max_norm, random_unitary
from frameavg.lattice import (
    HamiltonianSpec,
    LatticeSpec,
    SiteOperator,
    build_hamiltonian,
    embed_site_operator,
    reduce_to_site,
    sigma_x,
    sigma_z,
    translation_operator,
)
from frameavg.thermal import (
    PerturbationSpec,
    ThermalState,
    WorkReport,
    local_kick,
    perturb,
    thermal_state,
    work,
)


def series_expm(a, terms=60):
    """Plain Taylor series for exp(a), used as an independent reference."""
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ a / k
        out = out + term
    return out


class TestThermalState:
    def test_zero_hamiltonian_is_flat(self):
        state = thermal_state(HermitianOperator(np.zeros((4, 4))), beta=2.3)
        assert max_norm(state.rho.matrix - np.eye(4) / 4) < 1e-14
        assert abs(state.log_partition - np.log(4)) < 1e-12

    def test_rho_given_first_seeds_the_state(self):
        built = thermal_state(HermitianOperator(sigma_z), beta=1.0)
        rho = DensityMatrix(np.diag([0.25, 0.75]).astype(complex))
        given = ThermalState(
            rho, built.beta, built.log_partition, built.hamiltonian, built.hamiltonian_decomp
        )
        assert given.rho is rho
        assert given.dim == 2
        np.testing.assert_allclose(given.populations, built.populations, atol=0)

    def test_single_spin_populations(self):
        state = thermal_state(HermitianOperator(sigma_z), beta=1.0)
        # e^{-+beta} / (2 cosh beta) on the Z eigenvalues, ascending energy
        np.testing.assert_allclose(
            state.populations, [0.8807970779778824, 0.11920292202211756], atol=1e-12
        )
        assert abs(state.log_partition - 1.1269280110429725) < 1e-12

    def test_free_spins_factorizes(self):
        lat = LatticeSpec(3)
        h = build_hamiltonian(lat, HamiltonianSpec("free-spins", {"h": 1.0}))
        state = thermal_state(h, beta=0.7)
        one_site = thermal_state(HermitianOperator(sigma_z), beta=0.7).rho.matrix
        cube = np.kron(np.kron(one_site, one_site), one_site)
        assert max_norm(state.rho.matrix - cube) < 1e-12
        for site in range(3):
            assert max_norm(reduce_to_site(lat, state.rho.matrix, site) - one_site) < 1e-12

    def test_translation_invariance(self):
        lat = LatticeSpec(4)
        h = build_hamiltonian(lat, HamiltonianSpec("transverse-field-ising", {"J": 1.0, "g": 0.9}))
        state = thermal_state(h, beta=1.2)
        t = translation_operator(lat).matrix
        assert max_norm(t @ state.rho.matrix @ t.conj().T - state.rho.matrix) < 1e-10

    def test_large_beta_stays_finite(self):
        lat = LatticeSpec(4)
        h = build_hamiltonian(lat, HamiltonianSpec("free-spins", {"h": 1.0}))
        state = thermal_state(h, beta=50.0)
        assert np.isfinite(state.log_partition)
        assert abs(state.rho.matrix.trace().real - 1.0) < 1e-12
        # ground level of h * sum Z is -N at h=1
        assert abs(state.log_partition - 50.0 * 4) < 1e-6

    def test_beta_zero_admitted(self):
        state = thermal_state(HermitianOperator(sigma_z), beta=0.0)
        assert max_norm(state.rho.matrix - np.eye(2) / 2) == 0.0

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            thermal_state(HermitianOperator(sigma_z), beta=float("nan"))
        with pytest.raises(ValueError):
            thermal_state(HermitianOperator(sigma_z), beta=-1.0)

    def test_log_rho_is_analytic(self):
        # log rho + beta H + log Z must vanish identically
        lat = LatticeSpec(3)
        h = build_hamiltonian(lat, HamiltonianSpec("heisenberg-xxz", {"J": 1.0, "delta": 0.4}))
        state = thermal_state(h, beta=0.9)
        w, v = np.linalg.eigh(state.rho.matrix)
        log_rho = (v * np.log(w)[np.newaxis, :]) @ v.conj().T
        resid = log_rho + 0.9 * h.matrix + state.log_partition * np.eye(8)
        assert max_norm(resid) < 1e-9


class TestLocalKick:
    def test_zero_strength_is_identity(self):
        lat = LatticeSpec(2)
        u = local_kick(lat, PerturbationSpec(0, sigma_x, 0.0))
        assert max_norm(u.matrix - np.eye(4)) < 1e-14

    def test_one_parameter_group(self):
        lat = LatticeSpec(2)
        u1 = local_kick(lat, PerturbationSpec(0, sigma_x, 0.4)).matrix
        u2 = local_kick(lat, PerturbationSpec(0, sigma_x, 0.9)).matrix
        u12 = local_kick(lat, PerturbationSpec(0, sigma_x, 1.3)).matrix
        assert max_norm(u1 @ u2 - u12) < 1e-12

    def test_quarter_turn_is_phased_pauli(self):
        # exp(-i (pi/2) X) = -i X, and the scalar phase pulls through the embedding
        lat = LatticeSpec(2)
        u = local_kick(lat, PerturbationSpec(0, sigma_x, np.pi / 2))
        from frameavg.lattice import SiteOperator, embed_site_operator

        x0 = embed_site_operator(lat, SiteOperator(0, sigma_x))
        assert max_norm(u.matrix - (-1j) * x0) < 1e-12

    def test_half_turn_is_global_phase(self):
        lat = LatticeSpec(2)
        u = local_kick(lat, PerturbationSpec(0, sigma_x, np.pi))
        assert max_norm(u.matrix + np.eye(4)) < 1e-12

    def test_matches_series_oracle(self):
        lat = LatticeSpec(2)
        u = local_kick(lat, PerturbationSpec(0, sigma_x, 0.7))
        from frameavg.lattice import SiteOperator, embed_site_operator

        gen = embed_site_operator(lat, SiteOperator(0, sigma_x))
        ref = series_expm(-0.7j * gen)
        assert max_norm(u.matrix - ref) < 1e-12

    def test_generator_must_be_hermitian(self):
        with pytest.raises(ValueError):
            PerturbationSpec(0, np.array([[0.0, 1.0], [0.0, 0.0]]), 0.5)

    @pytest.mark.parametrize("letter,matrix", (("X", sigma_x), ("Z", sigma_z)))
    def test_generator_as_a_pauli_letter(self, letter, matrix):
        spec = PerturbationSpec(0, letter, 0.7)
        assert np.array_equal(spec.generator, matrix)
        lat = LatticeSpec(3)
        by_matrix = local_kick(lat, PerturbationSpec(0, matrix, 0.7))
        assert np.array_equal(local_kick(lat, spec).matrix, by_matrix.matrix)

    def test_unknown_letter_gives_the_config_parser_error(self):
        from frameavg.experiments import ConfigError, config_from_mapping

        with pytest.raises(ValueError) as direct:
            PerturbationSpec(0, "Q", 0.7)
        mapping = {
            "model": {"name": "free-spins", "couplings": {"h": 1.0}},
            "sizes": [2],
            "beta": 1.0,
            "kick": {"site": 0, "generator": "Q", "strength": 0.7},
            "averaging": [{"kind": "uniform-spatial"}],
            "seed": 1,
        }
        with pytest.raises(ConfigError) as parsed:
            config_from_mapping(mapping)
        assert str(direct.value) == "unknown Pauli name 'Q', expected one of X, Y, Z"
        assert str(parsed.value) == f"kick.generator: {direct.value}"


class TestPerturb:
    @pytest.fixture()
    def state(self):
        lat = LatticeSpec(3)
        h = build_hamiltonian(lat, HamiltonianSpec("transverse-field-ising", {"J": 1.0, "g": 0.8}))
        return lat, thermal_state(h, beta=1.0)

    def test_identity_is_fixed_point(self, state):
        lat, st = state
        u = local_kick(lat, PerturbationSpec(0, sigma_x, 0.0))
        assert max_norm(perturb(st, u).matrix - st.rho.matrix) < 1e-13

    def test_spectrum_preserved(self, state):
        lat, st = state
        u = local_kick(lat, PerturbationSpec(0, sigma_x, 0.7))
        before = np.linalg.eigvalsh(st.rho.matrix)
        after = np.linalg.eigvalsh(perturb(st, u).matrix)
        assert max_norm(before - after) < 1e-10

    def test_commuting_kick_leaves_state(self):
        lat = LatticeSpec(3)
        h = build_hamiltonian(lat, HamiltonianSpec("free-spins", {"h": 1.0}))
        st = thermal_state(h, beta=1.3)
        u = local_kick(lat, PerturbationSpec(1, sigma_z, 0.9))
        assert max_norm(perturb(st, u).matrix - st.rho.matrix) < 1e-10


def _random_generator(rng):
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return g + g.conj().T


def _kick_cases():
    rng = np.random.default_rng(41)
    return [
        (n, site, _random_generator(rng), float(rng.uniform(0.1, 2.0)))
        for n in (2, 3, 5)
        for site in range(n)
    ]


class TestKickForms:
    """The kick held as its single-site factor against its dense matrix."""

    @pytest.mark.parametrize("n,site,gen,strength", _kick_cases())
    def test_dense_matrix_is_the_embedded_factor(self, n, site, gen, strength):
        lat = LatticeSpec(n)
        u = local_kick(lat, PerturbationSpec(site, gen, strength))
        assert u.factor is not None
        assert np.array_equal(u.matrix, embed_site_operator(lat, SiteOperator(site, u.factor)))

    @pytest.mark.parametrize("n,site,gen,strength", _kick_cases())
    def test_apply_and_conjugate_match_the_dense_products(self, n, site, gen, strength):
        lat = LatticeSpec(n)
        rng = np.random.default_rng(n * 10 + site)
        a = rng.standard_normal((lat.dim, lat.dim)) + 1j * rng.standard_normal((lat.dim, lat.dim))
        structured = local_kick(lat, PerturbationSpec(site, gen, strength))
        m = UnitaryOperator(structured.matrix).matrix
        scale = max_norm(a)
        assert max_norm(structured.apply(a) - m @ a) <= 1e-14 * scale
        assert max_norm(structured.conjugate(a) - m @ a @ m.conj().T) <= 1e-14 * scale

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_permutation_apply_and_conjugate_match_the_dense_products(self, n):
        lat = LatticeSpec(n)
        t = translation_operator(lat)
        rng = np.random.default_rng(n)
        a = rng.standard_normal((lat.dim, lat.dim)) + 1j * rng.standard_normal((lat.dim, lat.dim))
        m = t.matrix
        assert np.array_equal(t.apply(a), m @ a)
        assert np.array_equal(t.conjugate(a), m @ a @ m.conj().T)

    def test_non_unitary_factor_rejected(self):
        with pytest.raises(ValueError, match="matrix is not unitary"):
            UnitaryOperator(factor=np.array([[1.0, 1.0], [0.0, 1.0]]), outer=(2, 4))

    def test_kick_site_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            local_kick(LatticeSpec(3), PerturbationSpec(3, sigma_x, 0.7))

    def test_perturb_takes_a_dense_unitary(self):
        lat = LatticeSpec(3)
        h = build_hamiltonian(lat, HamiltonianSpec("transverse-field-ising", {"J": 1.0, "g": 0.8}))
        st = thermal_state(h, beta=1.0)
        u = random_unitary(lat.dim, 5)
        assert u.factor is None and u.permutation is None
        expected = u.matrix @ st.rho.matrix @ u.matrix.conj().T
        assert np.array_equal(perturb(st, u).matrix, HermitianOperator(expected).matrix)


class TestWork:
    def test_no_kick_no_work(self):
        lat = LatticeSpec(2)
        h = build_hamiltonian(lat, HamiltonianSpec("free-spins", {"h": 1.0}))
        st = thermal_state(h, beta=1.0)
        assert work(h, st.rho, st.rho) == 0.0

    def test_frozen_value_n2(self):
        # single-site X kick on the two-site field chain; closed form
        # tanh(beta) * (1 - cos(2 lambda)) at h = 1
        lat = LatticeSpec(2)
        h = build_hamiltonian(lat, HamiltonianSpec("free-spins", {"h": 1.0}))
        st = thermal_state(h, beta=1.0)
        u = local_kick(lat, PerturbationSpec(0, sigma_x, 0.7))
        w = work(h, st.rho, perturb(st, u))
        assert abs(w - 0.6321481732184429) < 1e-12

    def test_thermal_states_are_passive(self):
        # unitary kicks never extract work from a Gibbs state
        rng = np.random.default_rng(31)
        for n in (2, 3, 4):
            lat = LatticeSpec(n)
            h = build_hamiltonian(lat, HamiltonianSpec("transverse-field-ising", {"J": 1.0, "g": 0.6}))
            st = thermal_state(h, beta=0.8)
            for _ in range(100 // n):
                g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                gen = (g + g.conj().T) / 2
                lam = rng.uniform(-2.0, 2.0)
                site = int(rng.integers(0, n))
                u = local_kick(lat, PerturbationSpec(site, gen, lam))
                assert work(h, st.rho, perturb(st, u)) >= -1e-10

    def test_work_report_consistency_gate(self):
        WorkReport(work=0.5, beta_work=1.0, relative_entropy_check=1.0)
        with pytest.raises(ValueError):
            WorkReport(work=0.5, beta_work=1.0, relative_entropy_check=1.1)
