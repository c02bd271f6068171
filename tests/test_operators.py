import numpy as np
import pytest

from frameavg import (
    BlockDensityMatrix,
    DensityMatrix,
    HermitianOperator,
    MatrixFunctionDomainError,
    SpectralDecomposition,
    UnitaryOperator,
    commutator,
    matrix_function,
    max_norm,
    operator_norm,
    random_density_matrix,
    random_unitary,
    spectral_decompose,
    trace_product,
)
from frameavg.lattice import HamiltonianSpec, LatticeSpec, build_hamiltonian

PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


def random_hermitian(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator(g + g.conj().T)


class TestConstruction:
    def test_hermitian_rejects_skew(self):
        with pytest.raises(ValueError):
            HermitianOperator([[0.0, 1.0], [-1.0, 0.0]])

    def test_hermitian_symmetrizes_round_off(self):
        a = np.array([[1.0, 0.5 + 1e-14j], [0.5, 2.0]])
        h = HermitianOperator(a)
        assert max_norm(h.matrix - h.matrix.conj().T) == 0.0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            HermitianOperator(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            HermitianOperator([[np.inf, 0.0], [0.0, 1.0]])

    def test_unitary_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            UnitaryOperator(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))

    def test_unitary_permutation_mismatch(self):
        with pytest.raises(ValueError):
            UnitaryOperator(np.eye(2, dtype=complex), permutation=np.array([1, 0]))

    def test_density_rejects_traceless(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2, dtype=complex))

    def test_density_rejects_negative(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    def test_density_accepts_boundary_rank_deficient(self):
        DensityMatrix(np.diag([1.0, 0.0]).astype(complex))


class TestBlockGateParity:
    @pytest.mark.parametrize(
        "matrix",
        (
            [[0.5, 0.1], [0.0, 0.5]],
            [[0.5, 0.0], [0.0, 0.5 + 1e-9]],
            [[1.0 + 1e-9, 0.0], [0.0, -1e-9]],
            [[0.5, 0.0], [0.0, np.nan]],
            # below PSD_EIGENVALUE_FLOOR, above the -2e-12 a shifted Cholesky
            # gate would let through
            [[1.0 + 1.5e-12, 0.0], [0.0, -1.5e-12]],
        ),
        ids=(
            "non-hermitian",
            "trace-off",
            "negative-eigenvalue",
            "non-finite",
            "just-below-psd-floor",
        ),
    )
    def test_one_block_rejects_what_density_matrix_rejects(self, matrix):
        # the sweep gates every averaged state through BlockDensityMatrix
        with pytest.raises(ValueError) as dense:
            DensityMatrix(matrix)
        with pytest.raises(ValueError) as block:
            BlockDensityMatrix((np.asarray(matrix, dtype=complex),))
        assert str(block.value) == str(dense.value)


class TestSpectralDecompose:
    def test_identity_dim3(self):
        d = spectral_decompose(HermitianOperator(np.eye(3, dtype=complex)))
        np.testing.assert_allclose(d.eigenvalues, [1.0, 1.0, 1.0], atol=0)

    def test_pauli_z_diagonal_path(self):
        d = spectral_decompose(HermitianOperator(PAULI_Z))
        np.testing.assert_allclose(d.eigenvalues, [-1.0, 1.0], atol=0)
        # a diagonal input without sectors takes the one dense eigh, whose
        # vectors are the swapped basis up to phases
        np.testing.assert_array_equal(np.abs(d.eigenvectors), [[0, 1], [1, 0]])

    def test_eigenvectors_adapter_is_a_one_block_frame(self):
        v = random_unitary(3, 4).matrix
        d = SpectralDecomposition([-1.0, 0.5, 2.0], eigenvectors=v)
        # v is held as the one block, not copied
        assert d.eigenvectors is v
        np.testing.assert_array_equal(d.basis_permutation, [0, 1, 2])
        assert d.sectors is None and d.momenta is None and d.partner is None
        # a bare permutation does not stand for a diagonal operator: the
        # eigenvectors are required
        with pytest.raises(TypeError):
            SpectralDecomposition([-1.0, 1.0], basis_permutation=[1, 0])
        with pytest.raises(ValueError, match="eigenvectors have dim 3, spectrum 2"):
            SpectralDecomposition([-1.0, 1.0], eigenvectors=v)

    def test_random_reconstruction(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            h = random_hermitian(8, rng)
            d = spectral_decompose(h)
            assert max_norm(d.reconstruct() - h.matrix) < 1e-12
            assert np.all(np.diff(d.eigenvalues) >= 0)
            v = d.eigenvectors
            assert max_norm(v.conj().T @ v - np.eye(8)) < 1e-10

    def test_round_trip_rotations(self):
        rng = np.random.default_rng(3)
        h = random_hermitian(6, rng)
        d = spectral_decompose(h)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        assert max_norm(d.from_eigenbasis(d.to_eigenbasis(a)) - a) < 1e-12

    def test_permutation_rotations_match_dense(self):
        diag = HermitianOperator(np.diag([3.0, -1.0, 2.0, 0.0]).astype(complex))
        d = spectral_decompose(diag)
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        v = d.eigenvectors
        assert max_norm(d.to_eigenbasis(a) - v.conj().T @ a @ v) < 1e-14
        assert max_norm(d.from_eigenbasis(a) - v @ a @ v.conj().T) < 1e-14


class TestMatrixFunction:
    def test_identity_function_reconstructs(self):
        rng = np.random.default_rng(7)
        h = random_hermitian(5, rng)
        out = matrix_function(spectral_decompose(h), lambda s: s)
        assert max_norm(out.matrix - h.matrix) < 1e-12

    def test_exp_of_pauli_z(self):
        out = matrix_function(spectral_decompose(HermitianOperator(PAULI_Z)), np.exp)
        np.testing.assert_allclose(
            out.matrix, np.diag([2.718281828459045, 0.36787944117144233]), atol=1e-15
        )

    def test_eta_on_half_half(self):
        def eta(s):
            out = np.zeros_like(s)
            pos = s > 0
            out[pos] = -s[pos] * np.log(s[pos])
            return out

        d = spectral_decompose(HermitianOperator(np.diag([0.5, 0.5]).astype(complex)))
        out = matrix_function(d, eta)
        # scalar value -(1/2) ln(1/2)
        np.testing.assert_allclose(out.matrix, 0.34657359027997264 * np.eye(2), atol=1e-15)

    def test_exp_log_round_trip(self):
        rng = np.random.default_rng(13)
        h = random_hermitian(6, rng)
        scaled = HermitianOperator(h.matrix / max(1.0, max_norm(h.matrix) / 5.0))
        up = matrix_function(spectral_decompose(scaled), np.exp)
        back = matrix_function(spectral_decompose(up), np.log)
        assert max_norm(back.matrix - scaled.matrix) < 1e-9

    def test_domain_error_names_eigenvalue(self):
        d = spectral_decompose(HermitianOperator(np.diag([1.0, 0.0]).astype(complex)))
        with pytest.raises(MatrixFunctionDomainError) as err:
            matrix_function(d, np.log)
        assert err.value.eigenvalue == 0.0


class TestRandomGenerators:
    def test_density_dim1(self):
        rho = random_density_matrix(1, seed=99)
        np.testing.assert_allclose(rho.matrix, [[1.0]], atol=0)

    def test_density_deterministic(self):
        a = random_density_matrix(4, seed=42)
        b = random_density_matrix(4, seed=42)
        assert np.array_equal(a.matrix, b.matrix)

    def test_density_full_rank(self):
        # Gaussian G G^dag / tr is almost surely full rank
        for seed in range(100):
            rho = random_density_matrix(8, seed=seed)
            assert np.linalg.eigvalsh(rho.matrix).min() > 0.0

    def test_unitary_dim1(self):
        u = random_unitary(1, seed=3)
        assert abs(abs(u.matrix[0, 0]) - 1.0) < 1e-12

    def test_unitary_defect(self):
        u = random_unitary(4, seed=8)
        assert max_norm(u.matrix.conj().T @ u.matrix - np.eye(4)) < 1e-12

    def test_unitary_determinant_modulus(self):
        for seed in range(100):
            u = random_unitary(8, seed=seed)
            assert abs(abs(np.linalg.det(u.matrix)) - 1.0) < 1e-10

    def test_unitary_deterministic(self):
        assert np.array_equal(random_unitary(5, 7).matrix, random_unitary(5, 7).matrix)


def test_operator_norm_matches_svd():
    rng = np.random.default_rng(21)
    for _ in range(10):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        assert abs(operator_norm(a) - np.linalg.svd(a, compute_uv=False)[0]) < 1e-10
    h = random_hermitian(6, rng)
    assert abs(operator_norm(h.matrix) - np.abs(np.linalg.eigvalsh(h.matrix)).max()) < 1e-12


def test_trace_product_matches_full_product():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    assert abs(trace_product(a, b) - np.trace(a @ b)) < 1e-12


class TestCommutator:
    """a @ b - b @ a; for an a without imaginary part, from float64 GEMMs."""

    @staticmethod
    def operands(dim, rng):
        x = rng.standard_normal((2 * dim, 2 * dim)) + 1j * rng.standard_normal((2 * dim, 2 * dim))
        c = np.ascontiguousarray(x[:dim, :dim])
        return {
            "c-order": c,
            # the temporal channel's dense output is such a transpose
            "transpose": c.conj().T,
            "strided": x[::2, ::2],
        }

    @pytest.mark.parametrize(
        "model,couplings",
        [
            ("transverse-field-ising", {"J": 1.0, "g": 0.9}),
            ("heisenberg-xxz", {"J": 1.0, "delta": 0.5}),
        ],
    )
    # N = 9 (dim 512) takes b's parts in two slabs of rows
    @pytest.mark.parametrize("n", (7, 9))
    def test_real_h_matches_the_complex_products(self, model, couplings, n):
        # a chain H with real terms is held as float64, and a complex copy
        # with no imaginary part takes the same float64 GEMMs
        h = build_hamiltonian(LatticeSpec(n), HamiltonianSpec(model, couplings)).matrix
        assert h.dtype == np.float64
        rng = np.random.default_rng(3)
        for name, b in self.operands(h.shape[0], rng).items():
            for a in (h, h.astype(np.complex128)):
                out = commutator(a, b)
                assert out.dtype == np.complex128, name
                scale = max_norm(np.abs(h) @ np.abs(b))
                assert max_norm(out - (h @ b - b @ h)) <= 1e-15 * scale, name

    def test_real_dtype_a_matches_the_complex_products(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((96, 96))
        for name, b in self.operands(96, rng).items():
            scale = max_norm(np.abs(a) @ np.abs(b))
            assert max_norm(commutator(a, b) - (a @ b - b @ a)) <= 1e-15 * scale, name

    def test_complex_a_takes_the_dense_products(self):
        rng = np.random.default_rng(5)
        a = random_hermitian(64, rng).matrix
        for name, b in self.operands(64, rng).items():
            assert np.array_equal(commutator(a, b), a @ b - b @ a), name

    def test_real_b_takes_the_dense_products(self):
        rng = np.random.default_rng(6)
        a, b = rng.standard_normal((2, 32, 32))
        out = commutator(a, b)
        assert out.dtype == np.float64
        assert np.array_equal(out, a @ b - b @ a)
