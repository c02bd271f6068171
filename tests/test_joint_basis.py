"""The joint H-T eigenbasis: H diagonalised sector by sector in the momentum
basis of its translation, and every sweep, verify and probe path running
through that structured eigenbasis without a dense eigenvector matrix."""
import json

import numpy as np
import pytest

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
    HermitianOperator,
    SpectralDecomposition,
    _sector_decompose,
    max_norm,
    spectral_decompose,
)

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
        # the sector route is also forced on the diagonal free-spins H, which
        # spectral_decompose itself sends down the basis-permutation path
        h = _hamiltonian(model, couplings, n)
        dense = np.linalg.eigvalsh(h.matrix)
        scale = max(1.0, max_norm(h.matrix))
        decomp = _sector_decompose(h.matrix, h.sectors)
        assert np.abs(decomp.eigenvalues - dense).max() <= 1e-12 * scale
        assert sorted(np.bincount(decomp.momenta, minlength=n)) == sorted(h.sectors.dims)
        chosen = spectral_decompose(h)
        assert (chosen.frame is None) == (model == "free-spins")
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
        shifted = v[np.argsort(h.sectors.permutation)]  # T V
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


class TestNoDenseEigenvectors:
    @pytest.mark.parametrize("model,couplings", MODELS[1:])
    def test_every_path_runs_without_the_dense_eigenvectors(self, model, couplings, monkeypatch):
        def refuse(self):
            raise AssertionError("dense eigenvector matrix read")

        monkeypatch.setattr(SpectralDecomposition, "eigenvectors", property(refuse))

        def cfg(sizes, averaging=THREE_CHANNELS):
            return config_from_mapping(_mapping(model, couplings, sizes, averaging))

        assert len(convergence_sweep(cfg([4, 6]))) == 6
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
