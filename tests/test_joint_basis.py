"""The joint H-T eigenbasis: H diagonalised sector by sector in the momentum
basis of its translation, and every sweep, verify and probe path running
through that structured eigenbasis without a dense eigenvector matrix."""
import json

import numpy as np
import pytest

from frameavg.averaging import ReflectionParity
from frameavg.cli import main
from frameavg.experiments import (
    config_from_mapping,
    convergence_sweep,
    locality_probe,
    saturation_scan,
    verify_identities,
)
from frameavg.lattice import HamiltonianSpec, LatticeSpec, build_hamiltonian
from frameavg.operators import (
    BlockDensityMatrix,
    HermitianOperator,
    SpectralDecomposition,
    UnitaryOperator,
    _sector_decompose,
    max_norm,
    spectral_decompose,
)
from frameavg.thermal import thermal_state
from sector_blocks import sector_blocks

MODELS = (
    ("free-spins", {"h": 1.0}),
    ("transverse-field-ising", {"J": 1.0, "g": 0.9}),
    ("heisenberg-xxz", {"J": 1.0, "delta": 0.5}),
)
SIZES = (2, 3, 4, 5, 6, 8)


def _hamiltonian(model, couplings, n):
    return build_hamiltonian(LatticeSpec(n), HamiltonianSpec(model, couplings))


class TestSectorForm:
    @pytest.mark.parametrize("model,couplings", MODELS)
    @pytest.mark.parametrize("n", SIZES)
    def test_sector_spectrum_matches_dense_eigh(self, model, couplings, n):
        # every chain H carries its momentum sectors, so spectral_decompose
        # solves it in the joint H-T eigenbasis, the diagonal free-spins H too
        h = _hamiltonian(model, couplings, n)
        dense = np.linalg.eigvalsh(h.matrix)
        scale = max(1.0, max_norm(h.matrix))
        decomp = _sector_decompose(HermitianOperator(h.matrix), h.sectors)
        assert np.abs(decomp.eigenvalues - dense).max() <= 1e-12 * scale
        assert sorted(np.bincount(decomp.momenta, minlength=n)) == sorted(h.sectors.dims)
        chosen = spectral_decompose(h)
        assert chosen.sectors is h.sectors
        assert np.abs(chosen.eigenvalues - dense).max() <= 1e-12 * scale

    @pytest.mark.parametrize("model,couplings", MODELS[1:])
    @pytest.mark.parametrize("n", (3, 4, 6))
    def test_rotations_match_the_dense_eigenvectors(self, model, couplings, n):
        h = _hamiltonian(model, couplings, n)
        decomp = spectral_decompose(h)
        v = decomp.eigenvectors  # built on read, from the structured form
        dim = v.shape[0]
        assert max_norm(v.conj().T @ v - np.eye(dim)) < 1e-13
        assert max_norm(v.conj().T @ h.matrix @ v - np.diag(decomp.eigenvalues)) < 1e-12 * n
        rng = np.random.default_rng(n)
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        assert max_norm(decomp.to_eigenbasis(a) - v.conj().T @ a @ v) < 1e-13
        assert max_norm(decomp.from_eigenbasis(a) - v @ a @ v.conj().T) < 1e-13
        values = rng.standard_normal(dim)
        dense_diagonal = (v * values) @ v.conj().T
        assert max_norm(decomp.diagonal_from_eigenbasis(values) - dense_diagonal) < 1e-13
        # each eigenvector is a translation eigenvector of its momentum
        shifted = v[np.argsort(h.sectors.translation.permutation)]  # T V
        phases = np.exp(2j * np.pi * decomp.momenta / n)
        assert max_norm(shifted - v * phases[np.newaxis, :]) < 1e-13

    def test_non_commuting_operator_raises(self):
        h = _hamiltonian("transverse-field-ising", {"J": 1.0, "g": 0.9}, 4)
        broken = h.matrix.copy()
        broken[0, 1] += 1e-3
        broken[1, 0] += 1e-3
        with pytest.raises(ValueError, match="does not commute with the translation"):
            spectral_decompose(HermitianOperator(broken, sectors=h.sectors))


def _mapping(model, couplings, sizes, averaging, beta=1.0):
    return {
        "model": {"name": model, "couplings": couplings},
        "sizes": sizes,
        "beta": beta,
        "kick": {"site": 1, "generator": "X", "strength": 0.7},
        "averaging": averaging,
        "seed": 11,
    }


THREE_CHANNELS = [
    {"kind": "uniform-spatial"},
    {"kind": "weighted-spatial", "R": 2.0},
    {"kind": "temporal", "tau": 1.5},
]


def _dense_columns(dim, i, a, j, b):
    """The columns a e_i + b e_j of Q as a dense dim-row matrix."""
    q = np.zeros((dim, i.size), dtype=complex)
    q[i, np.arange(i.size)] += a
    q[j, np.arange(i.size)] += b
    return q


class TestSlabPrimitives:
    @pytest.mark.parametrize("model,couplings", MODELS)
    @pytest.mark.parametrize("n", range(2, 9))
    def test_columns_and_project_match_the_dense_eigenvectors(self, model, couplings, n):
        # the kick's slabs: columns(i, a, j, b) = V Q and project(y, sets) =
        # [Q_p^dag V^dag y], one set at a time, for the parity column sets at
        # two kick sites and for the unit columns; project overwrites y
        decomp = spectral_decompose(_hamiltonian(model, couplings, n))
        v = decomp.eigenvectors
        dim = v.shape[0]
        rng = np.random.default_rng(n)
        y = rng.standard_normal((dim, 7)) + 1j * rng.standard_normal((dim, 7))
        idx = np.arange(dim)
        unit = [(idx, np.ones(dim, dtype=complex), idx, np.zeros(dim, dtype=complex))]
        parity = [ReflectionParity(decomp, site).vectors for site in (0, n // 2)]
        for sets in [*parity, unit]:
            qs = [_dense_columns(dim, *c) for c in sets]
            for c, q in zip(sets, qs):
                expected = v @ q
                assert max_norm(decomp.columns(*c) - expected) <= 1e-13 * max_norm(expected)
            projected = list(decomp.project(y.copy(), sets))
            assert len(projected) == len(sets)
            for got, q in zip(projected, qs):
                expected = q.conj().T @ v.conj().T @ y
                assert max_norm(got - expected) <= 1e-13 * max_norm(expected)


class TestNoDenseEigenvectors:
    @pytest.mark.parametrize("model,couplings", MODELS)
    def test_every_path_runs_without_the_dense_eigenvectors(self, model, couplings, monkeypatch):
        def refuse(self):
            raise AssertionError("dense eigenvector matrix read")

        monkeypatch.setattr(SpectralDecomposition, "eigenvectors", property(refuse))

        def cfg(sizes, averaging=THREE_CHANNELS):
            return config_from_mapping(_mapping(model, couplings, sizes, averaging))

        assert len(convergence_sweep(cfg([4, 6]))) == 6
        # an odd chain kicked away from site 0
        odd = _mapping(model, couplings, [5], THREE_CHANNELS)
        odd["kick"]["site"] = 2
        assert len(convergence_sweep(config_from_mapping(odd))) == 3
        weighted = [{"kind": "weighted-spatial", "R": r} for r in (0.5, 2.0)]
        assert len(saturation_scan(cfg([6], weighted))) == 2
        assert verify_identities(cfg([4])).passed
        assert len(locality_probe(cfg([4]), 0.5)) == 4


def test_verify_passes_bs_equality_on_xxz_n6_beta2(tmp_path, capsys):
    # the operator route pairs the sector blocks of E, built in the joint
    # eigenbasis, with the exact populations; at this point it lands within
    # 1e-10 of the state route, where the computational-basis route missed
    # the default 1e-8 tolerance by 6e-8
    mapping = _mapping(
        "heisenberg-xxz", {"J": 1.0, "delta": 0.5}, [6], [{"kind": "uniform-spatial"}], 2.0
    )
    mapping["kick"]["site"] = 0
    path = tmp_path / "xxz.json"
    path.write_text(json.dumps(mapping))
    assert main(["verify", "--config", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    bs = next(line for line in lines if line.startswith("bs-equality"))
    assert bs.endswith("PASS")
    assert float(bs.split()[2]) < 1e-9


@pytest.mark.parametrize("model,couplings", MODELS)
def test_sweep_gates_rho_prime_by_its_one_eigensolve(model, couplings, monkeypatch):
    # rho' is held as its labelled blocks (the parity about the kicked
    # site, and the spin flip where one applies), whose eigvalsh are both
    # the positivity gate and S(rho'); the weighted and temporal M rho' and
    # ME split the same way, so from N = 3 on a sweep eigensolves no whole
    # dim x dim matrix and runs no Cholesky
    def refuse(*args, **kwargs):
        raise AssertionError("Cholesky factorization in a sweep")

    eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh
    sizes, spectra = [], []

    def record_eigh(a, *args, **kwargs):
        sizes.append(np.shape(a)[0])
        return eigh(a, *args, **kwargs)

    def record_eigvalsh(a, *args, **kwargs):
        sizes.append(np.shape(a)[0])
        spectra.append(eigvalsh(a, *args, **kwargs))
        return spectra[-1]

    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    monkeypatch.setattr(np.linalg, "eigh", record_eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", record_eigvalsh)
    for n in (3, 4, 5, 6):
        sizes.clear()
        spectra.clear()
        cfg = config_from_mapping(_mapping(model, couplings, [n], THREE_CHANNELS))
        assert len(convergence_sweep(cfg)) == 3
        assert max(sizes) < 2**n
        populations = np.sort(thermal_state(_hamiltonian(model, couplings, n), 1.0).populations)
        unions = [
            np.sort(np.concatenate(spectra[a:b]))
            for a in range(len(spectra))
            for b in range(a + 1, len(spectra) + 1)
            if sum(w.size for w in spectra[a:b]) == 2**n
        ]
        assert sum(np.abs(w - populations).max() < 1e-12 for w in unions) == 1


@pytest.mark.parametrize("model,couplings", MODELS)
def test_verify_and_probe_run_no_cholesky(model, couplings, monkeypatch):
    # every state is certified by the eigvalsh that also gives its spectrum,
    # and verify's gracefulness probes are plain matrices, so no path factors
    def refuse(*args, **kwargs):
        raise AssertionError("Cholesky factorization in verify or the probe")

    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    for n in (4, 5, 6):
        cfg = config_from_mapping(_mapping(model, couplings, [n], THREE_CHANNELS))
        assert verify_identities(cfg).passed
        assert len(locality_probe(cfg, 0.5)) == n


@pytest.mark.parametrize("model,couplings", MODELS)
def test_sweep_gates_no_whole_matrix_but_h(model, couplings, monkeypatch):
    # rho', E, M rho' and ME stay parity blocks from build to row, and H is
    # certified on its bit-flip terms, so no gate sees a dim x dim matrix
    gated = []

    def recorder(cls, shapes):
        check = cls.__post_init__

        def record(self):
            # the shapes are read off the certified operator: a state's gate
            # consumes its blocks when they come as a generator
            check(self)
            # H is the one gated operator that carries momentum sectors
            is_h = getattr(self, "sectors", None) is not None
            gated.extend((shape, is_h) for shape in shapes(self))

        monkeypatch.setattr(cls, "__post_init__", record)

    recorder(HermitianOperator, lambda op: [np.shape(op.matrix)])
    recorder(BlockDensityMatrix, lambda state: [np.shape(b) for b in state.blocks])
    for n in (6, 7, 8):
        gated.clear()
        cfg = config_from_mapping(_mapping(model, couplings, [n], THREE_CHANNELS))
        assert len(convergence_sweep(cfg)) == 3
        whole = [is_h for shape, is_h in gated if shape == (2**n, 2**n)]
        assert whole == [], (n, len(whole))


@pytest.mark.parametrize("model,couplings", MODELS)
def test_sweep_and_saturate_hold_no_dense_h_and_no_dense_kick(model, couplings, monkeypatch):
    # H is solved from its bit-flip terms and u~ is built in column slabs, so
    # the chain H's dense matrix is never read and U only ever acts on slabs
    dense = HermitianOperator.matrix.fget

    def refuse_chain_h(self):
        if self.sectors is not None:
            raise AssertionError("dense chain Hamiltonian read")
        return dense(self)

    applied = []
    apply = UnitaryOperator.apply

    def record_apply(self, a):
        applied.append(np.shape(a))
        return apply(self, a)

    monkeypatch.setattr(HermitianOperator, "matrix", property(refuse_chain_h))
    monkeypatch.setattr(UnitaryOperator, "apply", record_apply)
    weighted = [{"kind": "weighted-spatial", "R": r} for r in (0.5, 2.0)]
    for n in (6, 7, 8):
        applied.clear()
        sweep = config_from_mapping(_mapping(model, couplings, [n], THREE_CHANNELS))
        scan = config_from_mapping(_mapping(model, couplings, [n], weighted))
        assert len(convergence_sweep(sweep)) == 3
        assert len(saturation_scan(scan)) == 2
        assert applied and all(shape[0] == 2**n for shape in applied)
        assert (2**n, 2**n) not in applied, n


class TestTermBlocks:
    @pytest.mark.parametrize("model,couplings", MODELS)
    @pytest.mark.parametrize("n", (2, 3, 4, 5, 6, 7, 8))
    def test_term_blocks_equal_the_dense_sector_blocks(self, model, couplings, n):
        # the blocks built from H's representative columns against F_k^dag H F_k
        # of the dense H through the FFT; N = 2 is where the two bonds coincide
        h = _hamiltonian(model, couplings, n)
        rows, cols, values = h.entries()
        built = h.sectors.blocks_from_entries(rows, cols, values)
        dense = sector_blocks(h.sectors, h.matrix)
        scale = max(1.0, max_norm(h.matrix))
        assert [b.shape for b in built] == [b.shape for b in dense]
        assert max(max_norm(x - y) for x, y in zip(built, dense) if x.size) <= 1e-13 * scale
        assert h.sectors.translation_defect(rows, cols, values) == 0.0

    def test_a_non_hermitian_flip_coefficient_is_refused(self):
        h = _hamiltonian("heisenberg-xxz", {"J": 1.0, "delta": 0.5}, 4)
        diagonal = np.diagonal(h.matrix)
        coefficients = np.full(16, 2.0, dtype=complex)
        assert HermitianOperator(diagonal=diagonal, flips=[(0b0011, coefficients)]).dim == 16
        coefficients[5] += 1e-3j
        with pytest.raises(ValueError, match="matrix is not Hermitian: anti-Hermitian defect"):
            HermitianOperator(diagonal=diagonal, flips=[(0b0011, coefficients)])

    @pytest.mark.parametrize("model,couplings", MODELS)
    def test_terms_and_dense_h_solve_alike(self, model, couplings):
        # a dense HermitianOperator with sectors enters the same path as its
        # nonzero entries
        h = _hamiltonian(model, couplings, 6)
        from_terms = spectral_decompose(h)
        from_dense = spectral_decompose(HermitianOperator(h.matrix, sectors=h.sectors))
        scale = max_norm(h.matrix)
        assert np.abs(from_terms.eigenvalues - from_dense.eigenvalues).max() <= 1e-13 * scale
