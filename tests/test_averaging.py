from functools import partial

import numpy as np
import pytest

from frameavg import averaging
from frameavg import (
    DensityMatrix,
    HermitianOperator,
    OverflowGuardError,
    commutator,
    max_norm,
    random_density_matrix,
    spectral_decompose,
)
from frameavg.averaging import (
    AveragingKind,
    ConjugatedPerturbation,
    ReflectionParity,
    _site_shift,
    averaged_E_deviation,
    average_translates,
    conjugate_normalization,
    conjugated_perturbation,
    deviation_report,
    distance_weights,
    frame_average,
    temporal_average,
    temporal_average_matrix,
    weighted_average_translates,
    weighted_frame_average,
)
from frameavg.entropy import relative_entropy, von_neumann_entropy
from frameavg.operators import BlockDensityMatrix, UnitaryOperator, random_unitary
from frameavg.lattice import (
    HamiltonianSpec,
    LatticeSpec,
    MomentumSectors,
    build_hamiltonian,
    sigma_x,
    translation_operator,
)
from frameavg.thermal import PerturbationSpec, local_kick, perturb, thermal_state
from parity_blocks import parity_split
from sector_blocks import sector_blocks


def ising_setup(n=4, beta=1.0, g=0.9, lam=0.7):
    lat = LatticeSpec(n)
    h = build_hamiltonian(lat, HamiltonianSpec("transverse-field-ising", {"J": 1.0, "g": g}))
    state = thermal_state(h, beta)
    u = local_kick(lat, PerturbationSpec(0, sigma_x, lam))
    return lat, state, u, perturb(state, u), translation_operator(lat)


def hamiltonian_without_sectors(case):
    """A chain-sized H that carries no momentum sectors, and its lattice."""
    if case == "random":
        rng = np.random.default_rng(17)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        return LatticeSpec(3), HermitianOperator((a + a.conj().T) / 2)
    if case == "diagonal":
        values = [0.3, -1.2, 0.3, 2.0, -0.5, 1.1, -1.2, 0.0]
        return LatticeSpec(3), HermitianOperator(np.diag(values).astype(complex))
    lat = LatticeSpec(4)
    spec = HamiltonianSpec("transverse-field-ising", {"J": 1.0, "g": 0.9})
    return lat, HermitianOperator(build_hamiltonian(lat, spec).matrix)


class TestAveragingKind:
    def test_uniform_takes_no_parameter(self):
        AveragingKind.uniform_spatial()
        with pytest.raises(ValueError):
            AveragingKind("uniform-spatial", 2.0)

    def test_weighted_needs_positive_finite(self):
        AveragingKind.weighted_spatial(2.0)
        for bad in (None, 0.0, -1.0, np.inf):
            with pytest.raises(ValueError):
                AveragingKind("weighted-spatial", bad)

    def test_temporal_allows_inf(self):
        AveragingKind.temporal(np.inf)
        AveragingKind.temporal(2.0)
        with pytest.raises(ValueError):
            AveragingKind("temporal", 0.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            AveragingKind("radial")

    @pytest.mark.parametrize(
        "kind, parameter, message",
        (
            ("uniform-spatial", 2.0, "uniform-spatial takes no parameter"),
            ("weighted-spatial", None, "weighted-spatial needs a finite R > 0, got None"),
            ("weighted-spatial", np.inf, "weighted-spatial needs a finite R > 0, got inf"),
            ("temporal", -1.0, "temporal needs tau > 0 (inf allowed), got -1.0"),
            ("temporal", np.nan, "temporal needs tau > 0 (inf allowed), got nan"),
            (
                "radial",
                None,
                "unknown averaging kind 'radial', expected one of "
                "'uniform-spatial', 'weighted-spatial', 'temporal'",
            ),
        ),
    )
    def test_each_refusal_states_the_rule_of_the_kind_table(self, kind, parameter, message):
        with pytest.raises(ValueError) as info:
            AveragingKind(kind, parameter)
        assert str(info.value) == message


class TestFrameAverage:
    def test_thermal_state_is_fixed_point(self):
        _, state, _, _, t = ising_setup()
        out = frame_average(state.rho, t, 4)
        assert max_norm(out.matrix - state.rho.matrix) < 1e-10

    def test_two_site_basis_state(self):
        lat = LatticeSpec(2)
        t = translation_operator(lat)
        rho = np.zeros((4, 4), dtype=complex)
        rho[1, 1] = 1.0  # |01><01|
        out = frame_average(DensityMatrix(rho), t, 2)
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[2, 2] = 0.5
        assert max_norm(out.matrix - expected) < 1e-14

    def test_entropy_never_decreases(self):
        lat = LatticeSpec(4)
        t = translation_operator(lat)
        for seed in range(100):
            rho = random_density_matrix(16, seed)
            out = frame_average(rho, t, 4)
            assert (
                von_neumann_entropy(out).nats
                >= von_neumann_entropy(rho).nats - 1e-10
            )

    def test_idempotent_and_translation_invariant(self):
        _, _, _, rho_prime, t = ising_setup()
        once = frame_average(rho_prime, t, 4)
        twice = frame_average(once, t, 4)
        assert max_norm(twice.matrix - once.matrix) < 1e-10
        inv = np.empty(16, dtype=int)
        inv[t.permutation] = np.arange(16)
        assert max_norm(once.matrix[np.ix_(inv, inv)] - once.matrix) < 1e-10

    def test_wrong_order_rejected(self):
        _, _, _, rho_prime, t = ising_setup()
        with pytest.raises(ValueError):
            frame_average(rho_prime, t, 3)

    def test_translation_without_permutation_rejected(self):
        # each translate is a reindexing by the permutation of T, so a
        # translation held only as its dense matrix is refused
        _, _, _, rho_prime, t = ising_setup()
        dense_t = UnitaryOperator(t.matrix)  # drop the permutation tag
        with pytest.raises(ValueError, match="basis permutation"):
            average_translates(rho_prime.matrix, dense_t, 4)

    @pytest.mark.parametrize("dtype", (float, complex))
    def test_translates_sum_left_to_right_bit_for_bit(self, dtype):
        # w_0 a + w_1 T a T^-1 + ... + w_{N-1} T^{N-1} a T^{-(N-1)}, summed
        # in that order, each translate an exact reindexing
        n = 5
        t = translation_operator(LatticeSpec(n))
        rng = np.random.default_rng(8)
        a = rng.standard_normal((32, 32)).astype(dtype)
        if dtype is complex:
            a += 1j * rng.standard_normal((32, 32))
        translates = [a]
        for _ in range(1, n):
            translates.append(t.conjugate(translates[-1]))
        for weights, average in (
            (np.full(n, 1.0 / n), lambda x: average_translates(x, t, n)),
            (distance_weights(n, 0.7), lambda x: weighted_average_translates(x, t, n, 0.7)),
            (distance_weights(n, 2.0), lambda x: weighted_average_translates(x, t, n, 2.0)),
        ):
            expected = weights[0] * translates[0]
            for w, g in zip(weights[1:], translates[1:]):
                expected = expected + w * g
            assert np.array_equal(average(a), expected)

    # N = 9 (dim 512) adds each translate in two slabs of rows
    @pytest.mark.parametrize("n", (4, 9))
    def test_a_translation_that_is_no_roll_is_refused(self, n):
        # the chain's T moves every site one on, so its translates are rolls
        # of the site axes and sum bit for bit like their explicit
        # conjugations; relabeled by a basis permutation it keeps its order
        # but is no roll, and the translate sums refuse it
        dim = 2**n
        t = translation_operator(LatticeSpec(n))
        rng = np.random.default_rng(3)
        sigma = rng.permutation(dim)
        relabeled = UnitaryOperator(permutation=sigma[t.permutation[np.argsort(sigma)]])
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        assert _site_shift(np.argsort(t.permutation), n) == 1
        assert _site_shift(np.argsort(relabeled.permutation), n) is None
        expected, g = a / n, a
        for _ in range(1, n):
            g = t.conjugate(g)
            expected = expected + g / n
        assert np.array_equal(average_translates(a, t, n), expected)
        with pytest.raises(ValueError, match=f"translation operator is no roll of {n} sites"):
            average_translates(a, relabeled, n)

    @pytest.mark.parametrize(
        "average",
        (average_translates, partial(weighted_average_translates, scale=1.0)),
        ids=("uniform", "weighted"),
    )
    def test_no_translates_are_refused_with_a_message(self, average):
        # zero terms reach the translate sum's refusal, not a division by zero
        t = translation_operator(LatticeSpec(3))
        with pytest.raises(ValueError, match="translation operator is no roll of 0 sites"):
            average(np.eye(8, dtype=complex), t, 0)

    def test_bit_stable_repetition(self):
        _, _, _, rho_prime, t = ising_setup()
        a = average_translates(rho_prime.matrix, t, 4)
        b = average_translates(rho_prime.matrix, t, 4)
        assert np.array_equal(a, b)


SECTOR_MODELS = (
    ("free-spins", {"h": 1.0}),
    ("transverse-field-ising", {"J": 1.0, "g": 0.9}),
    ("heisenberg-xxz", {"J": 1.0, "delta": 0.5}),
)


class TestChannel:
    @pytest.mark.parametrize(
        "kind, dense",
        (
            (AveragingKind.uniform_spatial(), lambda a, t, decomp: average_translates(a, t, 4)),
            (
                AveragingKind.weighted_spatial(2.0),
                lambda a, t, decomp: weighted_average_translates(a, t, 4, 2.0),
            ),
            (AveragingKind.temporal(1.5), lambda a, t, decomp: temporal_average_matrix(a, decomp, 1.5)),
        ),
        ids=("uniform-spatial", "weighted-spatial", "temporal"),
    )
    def test_blocks_carry_the_dense_average(self, kind, dense):
        # apply is the kind's dense average; in the joint eigenbasis the
        # blocks the channel makes of rho's parity blocks hold its spectrum,
        # and paired with diag(E) on their rows they give tr(H M rho')
        _, state, _, rho_prime, t = ising_setup()
        decomp = state.hamiltonian_decomp
        parity = ReflectionParity(decomp, 0)
        channel = kind.bind(state)
        averaged = channel.apply(rho_prime.matrix)
        assert np.array_equal(averaged, dense(rho_prime.matrix, t, decomp))
        blocks, rows = channel.parity_blocks(
            parity_split(parity, decomp.to_eigenbasis(rho_prime.matrix)), parity
        )
        spectrum = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks]))
        assert np.abs(spectrum - np.linalg.eigvalsh(averaged)).max() < 1e-12
        energy = sum(np.dot(decomp.eigenvalues[r], np.diagonal(b)) for r, b in zip(rows, blocks))
        assert abs(energy - np.trace(state.hamiltonian.matrix @ averaged)) < 1e-12
        if channel.classes is None:
            whole = parity_split(parity, decomp.to_eigenbasis(averaged))
            assert max(max_norm(b - w) for b, w in zip(blocks, whole)) < 1e-12

    @pytest.mark.parametrize("n", range(2, 10))
    def test_spatial_weights_are_the_momentum_rules_bit_for_bit(self, n):
        # both spatial kinds read one weight w^[(k_i - k_l) mod N]; the
        # uniform w^ is the exact unit impulse, so its weights are
        # delta(k_i, k_l), exactly 1.0 or 0.0, and its classes are |k|
        lat = LatticeSpec(n)
        spec = HamiltonianSpec("heisenberg-xxz", {"J": 1.0, "delta": 0.5})
        state = thermal_state(build_hamiltonian(lat, spec), 1.0)
        t = translation_operator(lat)
        k = state.hamiltonian_decomp.momenta
        rows, cols = np.arange(0, state.dim, 2), np.arange(state.dim)
        uniform = AveragingKind.uniform_spatial().bind(state)
        delta = (k[rows, np.newaxis] == k[np.newaxis, cols]).astype(float)
        assert uniform.weights(rows, cols).tobytes() == delta.tobytes()
        assert np.array_equal(uniform.classes, np.minimum(k, n - k))
        weighted = AveragingKind.weighted_spatial(2.0).bind(state)
        w_hat = np.fft.fft(distance_weights(n, 2.0)).real
        expected = w_hat[np.subtract.outer(k[rows], k[cols]) % n]
        assert weighted.weights(rows, cols).tobytes() == expected.tobytes()
        assert weighted.classes is None

    def test_spatial_channels_call_the_module_translates(self, monkeypatch):
        # the dense apply looks the module's translate sums, and the temporal
        # average, up when a kind is bound, so a wrapper put there (a
        # tracer's span) sees every call
        _, state, _, rho_prime, t = ising_setup()
        calls = []

        def spy(name):
            def record(a, *args, **kwargs):
                calls.append(name)
                return a

            return record

        monkeypatch.setattr(averaging, "average_translates", spy("uniform"))
        monkeypatch.setattr(averaging, "weighted_average_translates", spy("weighted"))
        monkeypatch.setattr(averaging, "temporal_average_matrix", spy("temporal"))
        AveragingKind.uniform_spatial().bind(state).apply(rho_prime.matrix)
        AveragingKind.weighted_spatial(2.0).bind(state).apply(rho_prime.matrix)
        AveragingKind.temporal(1.5).bind(state).apply(rho_prime.matrix)
        assert calls == ["uniform", "weighted", "temporal"]

    @pytest.mark.parametrize("n", range(2, 8))
    def test_spatial_apply_is_the_translate_sum_bit_for_bit(self, n):
        # the chain's T is stated once, by the sectors H carries; the dense
        # apply of each spatial kind is the translate sum over a T built
        # afresh for the chain, bit for bit
        lat = LatticeSpec(n)
        spec = HamiltonianSpec("transverse-field-ising", {"J": 1.0, "g": 0.9})
        state = thermal_state(build_hamiltonian(lat, spec), 1.0)
        t = translation_operator(lat)
        rng = np.random.default_rng(n)
        a = rng.standard_normal((lat.dim, lat.dim)) + 1j * rng.standard_normal((lat.dim, lat.dim))
        uniform = AveragingKind.uniform_spatial().bind(state)
        assert np.array_equal(uniform.apply(a), average_translates(a, t, n))
        weighted = AveragingKind.weighted_spatial(2.0).bind(state)
        assert np.array_equal(weighted.apply(a), weighted_average_translates(a, t, n, 2.0))

    def test_spatial_kinds_need_the_momentum_sectors(self):
        # an H without momentum sectors states no translation, so the
        # spatial kinds refuse it; the temporal kind is a function of H alone
        _, state, _, rho_prime, _ = ising_setup()
        plain = thermal_state(HermitianOperator(state.hamiltonian.matrix), 1.0)
        for kind in (AveragingKind.uniform_spatial(), AveragingKind.weighted_spatial(2.0)):
            with pytest.raises(ValueError) as info:
                kind.bind(plain)
            assert str(info.value) == (
                f"{kind.kind} needs H solved in its translation's momentum sectors"
            )
        temporal = AveragingKind.temporal(1.5).bind(plain)
        want = temporal_average_matrix(rho_prime.matrix, plain.hamiltonian_decomp, 1.5)
        assert np.array_equal(temporal.apply(rho_prime.matrix), want)


class TestMomentumSectors:
    @pytest.mark.parametrize("model,couplings", SECTOR_MODELS)
    @pytest.mark.parametrize("n", (2, 3, 4, 5, 6, 8))
    @pytest.mark.parametrize("beta", (0.2, 1.0, 2.0))
    def test_spectrum_matches_dense_average(self, model, couplings, n, beta):
        # N = 2..8 covers short orbits (the all-equal and period-dividing
        # configurations) and odd N
        lat = LatticeSpec(n)
        state = thermal_state(build_hamiltonian(lat, HamiltonianSpec(model, couplings)), beta)
        rho_prime = perturb(state, local_kick(lat, PerturbationSpec(0, sigma_x, 0.7)))
        t = translation_operator(lat)
        sectors = MomentumSectors(t, n)
        assert sum(sectors.dims) == lat.dim
        blocks = sector_blocks(sectors, rho_prime.matrix)
        assert [b.shape for b in blocks] == [(d, d) for d in sectors.dims]
        averaged = BlockDensityMatrix(tuple(blocks))
        dense = np.linalg.eigvalsh(average_translates(rho_prime.matrix, t, n))
        assert np.abs(np.sort(averaged.eigenvalues) - dense).max() <= 1e-12

    def test_blocks_are_invariant_under_the_average(self):
        # the uniform average is the projection onto the diagonal blocks, so
        # averaging first changes no block of an arbitrary matrix
        lat = LatticeSpec(6)
        t = translation_operator(lat)
        sectors = MomentumSectors(t, 6)
        rng = np.random.default_rng(3)
        a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        direct = sector_blocks(sectors, a)
        averaged = sector_blocks(sectors, average_translates(a, t, 6))
        assert max(max_norm(x - y) for x, y in zip(direct, averaged)) < 1e-12
        assert abs(sum(b.trace() for b in direct) - a.trace()) < 1e-12

    def test_non_hermitian_input_rejected(self):
        _, _, _, rho_prime, t = ising_setup()
        rng = np.random.default_rng(5)
        skew = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        blocks = sector_blocks(MomentumSectors(t, 4), rho_prime.matrix + 1e-6 * skew)
        with pytest.raises(ValueError, match="not Hermitian"):
            BlockDensityMatrix(tuple(blocks))

    def test_trace_off_one_rejected(self):
        _, _, _, rho_prime, t = ising_setup()
        blocks = sector_blocks(MomentumSectors(t, 4), 1.5 * rho_prime.matrix)
        with pytest.raises(ValueError, match="is not 1 within"):
            BlockDensityMatrix(tuple(blocks))

    def test_eigenvalue_below_floor_rejected(self):
        _, _, _, _, t = ising_setup()
        # |0000> is its own orbit, so its negative weight survives the average
        diag = np.full(16, 1.1 / 15)
        diag[0] = -0.1
        blocks = sector_blocks(MomentumSectors(t, 4), np.diag(diag).astype(complex))
        with pytest.raises(ValueError, match="not positive semidefinite: min eigenvalue"):
            BlockDensityMatrix(tuple(blocks))

    def test_translation_without_permutation_rejected(self):
        _, _, _, _, t = ising_setup()
        with pytest.raises(ValueError, match="permutation"):
            MomentumSectors(UnitaryOperator(t.matrix), 4)

    def test_wrong_order_rejected(self):
        _, _, _, _, t = ising_setup()
        with pytest.raises(ValueError, match="does not have order 3"):
            MomentumSectors(t, 3)


class TestWeightedAverage:
    def test_weights_n4_r1(self):
        w = distance_weights(4, 1.0)
        raw = np.array([1.0, np.exp(-1), np.exp(-2), np.exp(-1)])
        np.testing.assert_allclose(w, raw / raw.sum(), atol=1e-15)

    def test_flat_limit_recovers_uniform(self):
        _, _, _, rho_prime, t = ising_setup()
        uniform = frame_average(rho_prime, t, 4)
        # weights differ from flat by about dist/R, so the scale sets the error
        near = weighted_frame_average(rho_prime, t, 4, 1e9)
        assert max_norm(near.matrix - uniform.matrix) < 1e-9
        rough = weighted_frame_average(rho_prime, t, 4, 1e6)
        assert max_norm(rough.matrix - uniform.matrix) < 1e-6

    def test_delta_limit_recovers_input(self):
        _, _, _, rho_prime, t = ising_setup()
        out = weighted_frame_average(rho_prime, t, 4, 1e-6)
        assert max_norm(out.matrix - rho_prime.matrix) < 1e-9

    def test_gain_sits_between_limits(self):
        _, _, _, rho_prime, t = ising_setup()
        s0 = von_neumann_entropy(rho_prime).nats
        mid = von_neumann_entropy(weighted_frame_average(rho_prime, t, 4, 1.0)).nats
        full = von_neumann_entropy(frame_average(rho_prime, t, 4)).nats
        assert s0 < mid < full


class TestTemporalAverage:
    def test_energy_diagonal_state_is_fixed_point(self):
        _, state, _, _, _ = ising_setup()
        out = temporal_average(state.rho, state.hamiltonian_decomp, 3.0)
        assert max_norm(out.matrix - state.rho.matrix) < 1e-12

    def test_tiny_tau_is_identity_map(self):
        _, state, _, rho_prime, _ = ising_setup()
        out = temporal_average(rho_prime, state.hamiltonian_decomp, 1e-13)
        assert np.array_equal(out.matrix, rho_prime.matrix)

    def test_infinite_tau_dephases_nondegenerate(self):
        rng = np.random.default_rng(53)
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = HermitianOperator(g + g.conj().T)  # nondegenerate almost surely
        decomp = spectral_decompose(h)
        rho = random_density_matrix(8, 7)
        out = temporal_average(rho, decomp, np.inf)
        tilde = decomp.to_eigenbasis(rho.matrix)
        expected = decomp.from_eigenbasis(np.diag(np.diagonal(tilde)))
        assert max_norm(out.matrix - expected) < 1e-12
        gain = von_neumann_entropy(out).nats - von_neumann_entropy(rho).nats
        assert gain > 0.0

    def test_infinite_tau_keeps_degenerate_blocks(self):
        # free-spins spectra are massively degenerate; dephasing must not
        # touch elements inside a block or it would break the free dynamics
        lat = LatticeSpec(3)
        h = build_hamiltonian(lat, HamiltonianSpec("free-spins", {"h": 1.0}))
        state = thermal_state(h, beta=0.8)
        u = local_kick(lat, PerturbationSpec(0, sigma_x, 0.7))
        rho_prime = perturb(state, u)
        out = temporal_average_matrix(rho_prime.matrix, state.hamiltonian_decomp, np.inf)
        hm = h.matrix
        assert max_norm(commutator(hm, out)) < 1e-12
        # strictly more mixing than nothing, strictly less than full dephasing
        assert max_norm(out - rho_prime.matrix) > 1e-3

    def test_zero_width_spectrum_is_identity_map(self):
        decomp = spectral_decompose(HermitianOperator(np.zeros((4, 4))))
        rho = random_density_matrix(4, 11)
        out = temporal_average(rho, decomp, np.inf)
        assert max_norm(out.matrix - rho.matrix) == 0.0

    def test_channel_sanity(self):
        _, state, _, rho_prime, _ = ising_setup()
        for tau in (0.5, 5.0, np.inf):
            out = temporal_average(rho_prime, state.hamiltonian_decomp, tau)
            assert abs(out.matrix.trace().real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(out.matrix).min() > -1e-10
            assert (
                von_neumann_entropy(out).nats
                >= von_neumann_entropy(rho_prime).nats - 1e-10
            )


class TestGracefulness:
    """The maps commute with the free dynamics: M[H, rho] = [H, M rho]."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_spatial_kinds(self, n):
        lat = LatticeSpec(n)
        h = build_hamiltonian(lat, HamiltonianSpec("transverse-field-ising", {"J": 1.0, "g": 0.8}))
        t = translation_operator(lat)
        for seed in range(5):
            rho = random_density_matrix(lat.dim, seed).matrix
            c = commutator(h.matrix, rho)
            assert max_norm(average_translates(c, t, n) - commutator(h.matrix, average_translates(rho, t, n))) <= 1e-10
            assert max_norm(
                weighted_average_translates(c, t, n, 1.5)
                - commutator(h.matrix, weighted_average_translates(rho, t, n, 1.5))
            ) <= 1e-10

    @pytest.mark.parametrize("tau", [0.7, np.inf])
    def test_temporal_kind(self, tau):
        lat = LatticeSpec(3)
        h = build_hamiltonian(lat, HamiltonianSpec("heisenberg-xxz", {"J": 1.0, "delta": 0.5}))
        decomp = spectral_decompose(h)
        for seed in range(5):
            rho = random_density_matrix(8, seed).matrix
            c = commutator(h.matrix, rho)
            lhs = temporal_average_matrix(c, decomp, tau)
            rhs = commutator(h.matrix, temporal_average_matrix(rho, decomp, tau))
            assert max_norm(lhs - rhs) <= 1e-10


class TestConjugatedPerturbation:
    def test_identity_kick(self):
        lat, state, _, _, _ = ising_setup()
        u = local_kick(lat, PerturbationSpec(0, sigma_x, 0.0))
        cp = conjugated_perturbation(state, u)
        assert max_norm(cp.u - np.eye(16)) < 1e-12
        assert max_norm(cp.E.matrix - np.eye(16)) < 1e-12

    def test_infinite_temperature(self):
        lat = LatticeSpec(3)
        h = build_hamiltonian(lat, HamiltonianSpec("transverse-field-ising", {"J": 1.0, "g": 0.8}))
        state = thermal_state(h, beta=0.0)
        u = local_kick(lat, PerturbationSpec(0, sigma_x, 0.7))
        cp = conjugated_perturbation(state, u)
        assert max_norm(cp.u - u.matrix) < 1e-12
        assert max_norm(cp.E.matrix - np.eye(8)) < 1e-12

    def test_normalization_free_spins(self):
        lat = LatticeSpec(3)
        h = build_hamiltonian(lat, HamiltonianSpec("free-spins", {"h": 1.0}))
        state = thermal_state(h, beta=1.0)
        u = local_kick(lat, PerturbationSpec(0, sigma_x, 0.7))
        cp = conjugated_perturbation(state, u)
        from frameavg import trace_product

        assert abs(trace_product(state.rho.matrix, cp.E.matrix).real - 1.0) < 1e-9

    def test_matches_inverse_square_root_route(self):
        # E must agree with rho^{-1/2} rho' rho^{-1/2} while that route is
        # still well conditioned
        lat, state, u, rho_prime, _ = ising_setup(beta=1.0)
        cp = conjugated_perturbation(state, u)
        w, v = np.linalg.eigh(state.rho.matrix)
        inv_sqrt = (v * (w**-0.5)[np.newaxis, :]) @ v.conj().T
        ref = inv_sqrt @ rho_prime.matrix @ inv_sqrt
        assert max_norm(cp.E.matrix - ref) < 1e-8

    def test_carries_the_certified_normalization(self):
        lat, state, u, _, _ = ising_setup(beta=1.5)
        cp = conjugated_perturbation(state, u)
        assert cp.normalization == conjugate_normalization(state, u)
        assert ConjugatedPerturbation(cp.u, cp.E, state).normalization is None

    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize(
        "spec",
        [
            HamiltonianSpec("transverse-field-ising", {"J": 1.0, "g": 0.9}),
            HamiltonianSpec("free-spins", {"h": 1.0}),
        ],
        ids=lambda spec: spec.model,
    )
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_matches_the_dense_formula(self, n, spec, beta):
        # u = V G u~ S V^dag with u~ = V^dag U V from the dense U, and E = u u^dag
        lat = LatticeSpec(n)
        h = build_hamiltonian(lat, spec)
        state = thermal_state(h, beta)
        w, v = np.linalg.eigh(h.matrix)
        rng = np.random.default_rng(n)
        for site in range(n):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            kick = local_kick(lat, PerturbationSpec(site, g + g.conj().T, 0.7))
            dense = kick.matrix
            u_tilde = v.conj().T @ dense @ v
            conj = np.exp(beta * w / 2)[:, np.newaxis] * u_tilde * np.exp(-beta * w / 2)
            u_ref = v @ conj @ v.conj().T
            e_ref = u_ref @ u_ref.conj().T
            cp = conjugated_perturbation(state, kick)
            assert max_norm(cp.u - u_ref) <= 1e-12 * max_norm(u_ref)
            assert max_norm(cp.E.matrix - e_ref) <= 1e-12 * max_norm(e_ref)

    @pytest.mark.parametrize("case", ["random", "diagonal", "tfi-n4"])
    def test_hamiltonian_without_sectors_matches_the_dense_formula(self, case):
        # an H that carries no sectors takes one dense eigh, a one-block frame
        lat, h = hamiltonian_without_sectors(case)
        beta = 1.0
        state = thermal_state(h, beta)
        assert state.hamiltonian_decomp.momenta is None
        w, v = np.linalg.eigh(h.matrix)
        rng = np.random.default_rng(3)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        kicks = (random_unitary(h.dim, 8), local_kick(lat, PerturbationSpec(1, g + g.conj().T, 0.7)))
        for kick in kicks:
            assert abs(conjugate_normalization(state, kick) - 1.0) <= 1e-12
            u_tilde = v.conj().T @ kick.matrix @ v
            conj = np.exp(beta * w / 2)[:, np.newaxis] * u_tilde * np.exp(-beta * w / 2)
            u_ref = v @ conj @ v.conj().T
            e_ref = u_ref @ u_ref.conj().T
            cp = conjugated_perturbation(state, kick)
            assert max_norm(cp.u - u_ref) <= 1e-12 * max_norm(u_ref)
            assert max_norm(cp.E.matrix - e_ref) <= 1e-12 * max_norm(e_ref)

    def test_overflow_guard(self):
        lat = LatticeSpec(4)
        h = build_hamiltonian(lat, HamiltonianSpec("free-spins", {"h": 1.0}))
        state = thermal_state(h, beta=200.0)
        u = local_kick(lat, PerturbationSpec(0, sigma_x, 0.7))
        with pytest.raises(OverflowGuardError):
            conjugated_perturbation(state, u)

    @pytest.mark.parametrize("shift", (1500.0, 1e5))
    def test_a_shifted_h_gives_the_same_e(self, shift):
        # u = e^{beta H/2} U e^{-beta H/2} does not see where H's energy zero
        # sits: H + shift, far past exp's range at beta / 2 times its
        # energies, passes the spread guard (the spread is about 7) and gives
        # the E of H
        lat = LatticeSpec(3)
        h = build_hamiltonian(lat, HamiltonianSpec("transverse-field-ising", {"J": 1.0, "g": 0.9}))
        shifted = thermal_state(HermitianOperator(h.matrix + shift * np.eye(lat.dim)), beta=1.0)
        u = local_kick(lat, PerturbationSpec(0, sigma_x, 0.7))
        want = conjugated_perturbation(thermal_state(h, beta=1.0), u).E.matrix
        got = conjugated_perturbation(shifted, u).E.matrix
        assert max_norm(got - want) <= 1e-9 * max_norm(want)


class TestDeviation:
    def test_identity_kick_has_zero_deviation(self):
        lat, state, _, _, t = ising_setup()
        cp = conjugated_perturbation(state, local_kick(lat, PerturbationSpec(0, sigma_x, 0.0)))
        report = averaged_E_deviation(cp, t, 4)
        assert report.op_norm < 1e-10
        assert report.frobenius_norm < 1e-10
        assert abs(report.state_trace - 1.0) < 1e-12

    def test_infinite_temperature_deviation_vanishes(self):
        lat = LatticeSpec(3)
        h = build_hamiltonian(lat, HamiltonianSpec("transverse-field-ising", {"J": 1.0, "g": 0.8}))
        state = thermal_state(h, beta=0.0)
        cp = conjugated_perturbation(state, local_kick(lat, PerturbationSpec(0, sigma_x, 0.7)))
        report = averaged_E_deviation(cp, translation_operator(lat), 3)
        assert report.op_norm < 1e-10

    def test_trace_is_one_for_real_kick(self):
        lat, state, u, _, t = ising_setup()
        cp = conjugated_perturbation(state, u)
        report = averaged_E_deviation(cp, t, 4)
        assert abs(report.state_trace - 1.0) < 1e-9
        assert report.op_norm > 0.1  # a real kick leaves a visible deviation
        assert report.state_weighted <= report.op_norm + 1e-12

    def test_temporal_average_deviation_trace(self):
        lat, state, u, _, _ = ising_setup()
        cp = conjugated_perturbation(state, u)
        averaged = temporal_average_matrix(cp.E.matrix, state.hamiltonian_decomp, 2.0)
        report = deviation_report(averaged, state)
        assert abs(report.state_trace - 1.0) < 1e-9


class TestEntropyIdentities:
    def test_average_production_decomposition(self):
        # S(M rho' | rho) = -S(M rho') + S(rho') + S(rho' | rho) whenever
        # rho is translation invariant
        _, state, _, rho_prime, t = ising_setup()
        averaged = frame_average(rho_prime, t, 4)
        lhs = relative_entropy(averaged, state).nats
        rhs = (
            -von_neumann_entropy(averaged).nats
            + von_neumann_entropy(rho_prime).nats
            + relative_entropy(rho_prime, state).nats
        )
        assert abs(lhs - rhs) < 1e-9

    def test_bs_equality_through_averaged_E(self):
        # S_BS(M rho' | rho) = -tr[rho eta(M E)], by translation invariance
        # of every function of rho
        from frameavg import trace_product
        from frameavg.entropy import bs_relative_entropy, eta

        _, state, u, rho_prime, t = ising_setup()
        averaged = frame_average(rho_prime, t, 4)
        direct = bs_relative_entropy(averaged, state).nats

        cp = conjugated_perturbation(state, u)
        me = average_translates(cp.E.matrix, t, 4)
        w, v = np.linalg.eigh((me + me.conj().T) / 2)
        eta_me = (v * eta(w)[np.newaxis, :]) @ v.conj().T
        from_average = -trace_product(state.rho.matrix, eta_me).real
        assert abs(direct - from_average) < 1e-8

    def test_chain_ordering(self):
        from frameavg.entropy import bs_relative_entropy

        _, state, _, rho_prime, t = ising_setup()
        averaged = frame_average(rho_prime, t, 4)
        lhs = relative_entropy(averaged, state).nats
        upper = bs_relative_entropy(averaged, state).nats
        assert 0.0 <= lhs <= upper + 1e-9
