import numpy as np
import pytest

from frameavg import DensityMatrix, HermitianOperator, random_density_matrix
from frameavg.averaging import frame_average
from frameavg.entropy import (
    EntropyValue,
    _thermal_bs_value,
    bs_relative_entropy,
    eta,
    relative_entropy,
    thermo_entropy_production,
    von_neumann_entropy,
)
from frameavg.lattice import HamiltonianSpec, LatticeSpec, build_hamiltonian, sigma_x
from frameavg.thermal import PerturbationSpec, local_kick, perturb, thermal_state

LN2 = 0.6931471805599453


def diag_state(*probs):
    return DensityMatrix(np.diag(probs).astype(complex))


class TestEntropyValue:
    def test_infinite_flag(self):
        v = EntropyValue(0.0, support_violation=True)
        assert v.as_float() == np.inf

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            EntropyValue(-0.1)


def test_eta_conventions():
    np.testing.assert_allclose(eta([0.0, 1.0]), [0.0, 0.0], atol=0)
    assert eta([-1e-14])[0] == 0.0
    assert abs(eta([0.5])[0] - LN2 / 2) < 1e-15


class TestVonNeumann:
    def test_maximally_mixed(self):
        s = von_neumann_entropy(diag_state(0.25, 0.25, 0.25, 0.25))
        assert abs(s.nats - 1.3862943611198906) < 1e-12

    def test_pure_state(self):
        assert von_neumann_entropy(diag_state(1.0, 0.0)).nats == 0.0

    def test_three_quarters(self):
        s = von_neumann_entropy(diag_state(0.75, 0.25))
        assert abs(s.nats - 0.5623351446188083) < 1e-12

    def test_thermal_route_matches_dense_route(self):
        lat = LatticeSpec(3)
        h = build_hamiltonian(lat, HamiltonianSpec("transverse-field-ising", {"J": 1.0, "g": 0.7}))
        state = thermal_state(h, beta=1.1)
        assert abs(von_neumann_entropy(state).nats - von_neumann_entropy(state.rho).nats) < 1e-10

    def test_range(self):
        for seed in range(20):
            rho = random_density_matrix(6, seed)
            s = von_neumann_entropy(rho).nats
            assert 0.0 <= s <= np.log(6) + 1e-10

    def test_each_state_is_eigensolved_once(self, monkeypatch):
        calls = []
        solve = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or solve(a))
        full_rank = random_density_matrix(6, 3)
        first = von_neumann_entropy(full_rank).nats
        assert von_neumann_entropy(full_rank).nats == first
        assert len(calls) == 1


class TestRelativeEntropy:
    def test_self_is_zero(self):
        for seed in range(10):
            rho = random_density_matrix(5, seed)
            assert relative_entropy(rho, rho).nats < 1e-10

    def test_pure_vs_mixed(self):
        v = relative_entropy(diag_state(1.0, 0.0), diag_state(0.5, 0.5))
        assert abs(v.nats - LN2) < 1e-12

    def test_support_violation(self):
        v = relative_entropy(diag_state(0.5, 0.5), diag_state(1.0, 0.0))
        assert v.support_violation
        assert v.as_float() == np.inf

    def test_klein_inequality(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            a = random_density_matrix(4, int(rng.integers(1 << 31)))
            b = random_density_matrix(4, int(rng.integers(1 << 31)))
            v = relative_entropy(a, b)
            assert not v.support_violation
            assert v.nats >= 0.0
            if v.nats < 1e-8:
                # zero only at equal states
                assert np.abs(a.matrix - b.matrix).max() < 1e-4

    def test_thermal_route_matches_generic(self):
        lat = LatticeSpec(3)
        h = build_hamiltonian(lat, HamiltonianSpec("heisenberg-xxz", {"J": 1.0, "delta": 0.6}))
        state = thermal_state(h, beta=0.9)
        sigma = perturb(state, local_kick(lat, PerturbationSpec(0, sigma_x, 0.7)))
        stable = relative_entropy(sigma, state).nats
        generic = relative_entropy(sigma, state.rho).nats
        assert abs(stable - generic) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            relative_entropy(diag_state(1.0, 0.0), diag_state(0.5, 0.25, 0.25))


class TestBsRelativeEntropy:
    def test_self_is_zero(self):
        for seed in range(10):
            rho = random_density_matrix(5, seed)
            assert bs_relative_entropy(rho, rho).nats < 1e-10

    def test_commuting_pair_collapses(self):
        sigma = diag_state(0.75, 0.25)
        rho = diag_state(0.5, 0.5)
        # scalar value (3/4) ln(3/2) + (1/4) ln(1/2)
        expected = 0.13081203594113697
        assert abs(bs_relative_entropy(sigma, rho).nats - expected) < 1e-12
        assert abs(relative_entropy(sigma, rho).nats - expected) < 1e-12

    def test_commuting_random_pairs_collapse(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            p = rng.dirichlet(np.ones(5))
            q = rng.dirichlet(np.ones(5)) + 0.01
            q /= q.sum()
            sigma, rho = diag_state(*p), diag_state(*q)
            a = relative_entropy(sigma, rho)
            b = bs_relative_entropy(sigma, rho)
            if not a.support_violation:
                assert abs(a.nats - b.nats) < 1e-9

    def test_upper_bounds_standard_form(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            dim = int(rng.integers(2, 9))
            sigma = random_density_matrix(dim, int(rng.integers(1 << 31)))
            rho = random_density_matrix(dim, int(rng.integers(1 << 31)))
            assert (
                relative_entropy(sigma, rho).nats
                <= bs_relative_entropy(sigma, rho).nats + 1e-9
            )

    def test_singular_rho_flags(self):
        v = bs_relative_entropy(diag_state(0.5, 0.5), diag_state(1.0, 0.0))
        assert v.support_violation

    def test_thermal_route_matches_generic(self):
        lat = LatticeSpec(3)
        h = build_hamiltonian(lat, HamiltonianSpec("transverse-field-ising", {"J": 1.0, "g": 0.8}))
        state = thermal_state(h, beta=1.0)
        sigma = perturb(state, local_kick(lat, PerturbationSpec(0, sigma_x, 0.7)))
        stable = bs_relative_entropy(sigma, state).nats
        generic = bs_relative_entropy(sigma, state.rho).nats
        assert abs(stable - generic) < 1e-8

    def test_sector_blocks_match_the_one_block_route(self):
        # a translate average is block diagonal in the momentum sectors of
        # H's frame, and S_BS read from those blocks is the dense value
        lat = LatticeSpec(4)
        h = build_hamiltonian(lat, HamiltonianSpec("transverse-field-ising", {"J": 1.0, "g": 0.8}))
        state = thermal_state(h, beta=1.0)
        rho_prime = perturb(state, local_kick(lat, PerturbationSpec(1, sigma_x, 0.7)))
        sigma = frame_average(rho_prime, h.sectors.translation, 4)
        blocks, rows = state.hamiltonian_decomp.sector_blocks(sigma.matrix)
        assert len(blocks) == 4
        blocked = _thermal_bs_value(blocks, rows, state)
        assert abs(blocked - bs_relative_entropy(sigma, state).nats) < 1e-12


class TestThermoProduction:
    def test_zero_work(self):
        assert thermo_entropy_production(1.7, 0.0) == 0.0

    def test_definition(self):
        assert thermo_entropy_production(1.0, 0.3) == 0.3

    def test_matches_relative_entropy_of_kicked_state(self):
        from frameavg.thermal import work

        lat = LatticeSpec(3)
        for model, couplings in (
            ("free-spins", {"h": 1.0}),
            ("transverse-field-ising", {"J": 1.0, "g": 0.9}),
            ("heisenberg-xxz", {"J": 1.0, "delta": 0.5}),
        ):
            h = build_hamiltonian(lat, HamiltonianSpec(model, couplings))
            for beta in (0.2, 1.0, 5.0):
                state = thermal_state(h, beta)
                sigma = perturb(state, local_kick(lat, PerturbationSpec(0, sigma_x, 0.7)))
                w = work(h, state.rho, sigma)
                lhs = thermo_entropy_production(beta, w)
                rhs = relative_entropy(sigma, state).nats
                assert abs(lhs - rhs) < 1e-9


def test_unitary_invariance_of_entropy():
    from frameavg import random_unitary

    for seed in range(20):
        rho = random_density_matrix(6, seed)
        u = random_unitary(6, seed + 1000).matrix
        rotated = DensityMatrix(u @ rho.matrix @ u.conj().T)
        assert abs(
            von_neumann_entropy(rotated).nats - von_neumann_entropy(rho).nats
        ) < 1e-9
