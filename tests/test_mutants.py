"""Mutation tests: deliberately broken variants of the package that the
identity checks or the high-precision oracle must catch.

Each test first runs the clean program through the check and sees it pass,
then applies one mutation with monkeypatch and sees the same check fail:

- the operator side's kick strength scaled by (1 + 1e-6): `verify`'s
  bs-equality compares the two routes and fails;
- the operator side averaged with the weights of another R: the sweep row's
  bs_rel_ent_avg leaves the oracle while S(M rho') stays on it;
- the Lorentzian with the wrong sign of tau: the temporal row leaves the
  oracle;
- a translation of the wrong order (the two-site shift T^2, of order N / 2,
  which still passes T^N = 1): the weighted row leaves the oracle;
- the parity split about site s + 1 for a kick at site s: the kick does not
  commute with that reflection, and the off-parity gate raises;
- the even/odd rule without its (A - B) / 2 cross term, each parity block of
  M X taken from the same block of X alone: the uniform and weighted M rho'
  fail the trace gate, and their spectra leave the oracle at N = 3 and 4,
  while the temporal row, whose cross term is zero, stays on it.
- a channel whose dense `apply` conjugates by the kick, which does not
  commute with H: `verify`'s gracefulness line fails by orders of magnitude;
- the spin flip prod X forced on a Y kick, which does not commute with it:
  the off-label gate names the flip and raises;
- complex conjugation K declared the real structure of an X kick on the
  transverse-field Ising chain, which K does not fix: the real gate on the
  blocks of u~ raises;
- prod Z K forced beside the flip prod X on XXZ with an X kick at N = 5,
  where it anticommutes with the flip and swaps its sectors: the sector
  solve refuses the pair.
- verify's translate sum of rho' without its last translate, which is no
  longer T-invariant: the cross-momentum gate of its sector blocks names
  the translation and raises, and `frameavg verify` exits 1.

The mutations patch names that the sweep and verify go through in the joint
H-T eigenbasis, where every channel acts as a Schur multiplier.
"""
import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from frameavg import averaging, experiments, lattice
from frameavg.averaging import AveragingKind
from frameavg.cli import main
from frameavg.experiments import (
    _SizeContext,
    config_from_mapping,
    convergence_sweep,
    verify_identities,
)
from frameavg.operators import UnitaryOperator
from frameavg.thermal import PerturbationSpec, local_kick

mpmath = pytest.importorskip("mpmath")
from oracle_mp import channel_reference  # noqa: E402

TFI = {"name": "transverse-field-ising", "couplings": {"J": 1.0, "g": 0.9}}


def config(sizes, averaging_entries, beta=1.0):
    return config_from_mapping(
        {
            "model": TFI,
            "sizes": sizes,
            "beta": beta,
            "kick": {"site": 0, "generator": "X", "strength": 0.7},
            "averaging": averaging_entries,
            "seed": 17,
        }
    )


def reference(n, kind, parameter, beta=1.0):
    entropy, bs, _ = channel_reference(
        TFI["name"], TFI["couplings"], n, beta, 0.7, [(kind, parameter)]
    )[(kind, parameter)]
    return entropy, bs


def bs_equality(report):
    return next(c for c in report.checks if c.name == "bs-equality")


def test_operator_side_kick_strength_trips_bs_equality(monkeypatch):
    cfg = config([4], [{"kind": "uniform-spatial"}])
    assert bs_equality(verify_identities(cfg)).passed
    build = _SizeContext.__init__

    def mutated(self, cfg, n):
        build(self, cfg, n)
        kick = cfg.kick
        stronger_kick = PerturbationSpec(kick.site, kick.generator, kick.strength * (1 + 1e-6))
        stronger = replace(cfg, kick=stronger_kick)
        other = object.__new__(type(self))
        build(other, stronger, n)
        self.u_blocks = other.u_blocks

    monkeypatch.setattr(_SizeContext, "__init__", mutated)
    check = bs_equality(verify_identities(cfg))
    assert not check.passed
    assert check.residual > 10 * check.tolerance


def gracefulness(report):
    return next(c for c in report.checks if c.name == "gracefulness")


def test_a_channel_the_dynamics_do_not_fix_trips_gracefulness(monkeypatch):
    cfg = config([4], [{"kind": "uniform-spatial"}, {"kind": "temporal", "tau": 1.5}])
    assert gracefulness(verify_identities(cfg)).passed
    bind = AveragingKind.bind

    def kick_conjugation(self, state):
        # U X U^dag is a unitary channel, but U does not commute with H, so
        # M [H, X] and [H, M X] part; the parity blocks stay the clean ones
        kick = local_kick(lattice.LatticeSpec(state.hamiltonian.sectors.n_terms), cfg.kick)
        return replace(bind(self, state), apply=kick.conjugate)

    monkeypatch.setattr(AveragingKind, "bind", kick_conjugation)
    check = gracefulness(verify_identities(cfg))
    assert not check.passed
    assert check.residual > 1e6 * check.tolerance


def test_weighted_operator_side_with_another_r_trips_the_oracle(monkeypatch):
    cfg = config([3], [{"kind": "weighted-spatial", "R": 2.0}])
    entropy, bs = reference(3, "weighted-spatial", 2.0)
    (row,) = convergence_sweep(cfg)
    assert abs(row.s_m_rho_prime - entropy) <= 1e-11
    assert abs(row.bs_rel_ent_avg - bs) <= 1e-8

    bind = AveragingKind.bind
    calls = []

    def one_sided(self, state):
        clean = bind(self, state)
        other = bind(AveragingKind.weighted_spatial(3.0), state)

        def parity_blocks(x_blocks, parity):
            # a sweep row averages rho' first and E second, so the second
            # application is the operator side
            calls.append(None)
            return (clean if len(calls) == 1 else other).parity_blocks(x_blocks, parity)

        return SimpleNamespace(apply=clean.apply, parity_blocks=parity_blocks)

    monkeypatch.setattr(AveragingKind, "bind", one_sided)
    (row,) = convergence_sweep(cfg)
    assert len(calls) == 2
    assert abs(row.s_m_rho_prime - entropy) <= 1e-11
    assert abs(row.bs_rel_ent_avg - bs) > 1e-4


def test_lorentzian_with_the_wrong_sign_trips_the_oracle(monkeypatch):
    cfg = config([3], [{"kind": "temporal", "tau": 1.5}])
    entropy, _ = reference(3, "temporal", 1.5)
    (row,) = convergence_sweep(cfg)
    assert abs(row.s_m_rho_prime - entropy) <= 1e-11

    def wrong_sign_weights(energies, tau, rows=slice(None), cols=slice(None)):
        gaps = energies[rows, np.newaxis] - energies[np.newaxis, cols]
        return 1.0 / (1.0 - 1j * gaps * tau)

    def wrong_sign_average(a, decomp, tau):
        a = np.asarray(a, dtype=complex)
        weights = wrong_sign_weights(decomp.eigenvalues, tau)
        return decomp.from_eigenbasis(decomp.to_eigenbasis(a) * weights)

    # every Lorentzian of the package: the dense temporal average, and the
    # weights of the eigenbasis Schur multiplier where that helper exists
    monkeypatch.setattr(averaging, "temporal_average_matrix", wrong_sign_average)
    monkeypatch.setattr(averaging, "_temporal_weights", wrong_sign_weights, raising=False)
    (row,) = convergence_sweep(cfg)
    assert abs(row.s_m_rho_prime - entropy) > 1e-6


def test_translation_of_the_wrong_order_trips_the_oracle(monkeypatch):
    # T^2 has order 2 on four sites, so the weighted average runs over the
    # even shifts only, while (T^2)^4 = 1 passes every order check
    cfg = config([4], [{"kind": "weighted-spatial", "R": 2.0}])
    entropy, _ = reference(4, "weighted-spatial", 2.0)
    (row,) = convergence_sweep(cfg)
    assert abs(row.s_m_rho_prime - entropy) <= 1e-11

    translation = lattice.translation_operator

    def two_site_shift(lat):
        perm = translation(lat).permutation
        return UnitaryOperator(permutation=perm[perm])

    monkeypatch.setattr(lattice, "translation_operator", two_site_shift)
    (row,) = convergence_sweep(cfg)
    assert abs(row.s_m_rho_prime - entropy) > 1e-6


def test_reflection_about_the_next_site_trips_the_parity_gate(monkeypatch):
    cfg = config([4, 5], [{"kind": "weighted-spatial", "R": 2.0}])
    assert len(convergence_sweep(cfg)) == 2
    parity = experiments.ReflectionParity

    def next_site(decomp, site):
        return parity(decomp, site + 1)

    monkeypatch.setattr(experiments, "ReflectionParity", next_site)
    with pytest.raises(ValueError, match="does not commute with the reflection about the kick"):
        convergence_sweep(cfg)


def _unpaired(monkeypatch):
    parity = experiments.ReflectionParity

    def unpaired(decomp, site):
        # the rule reads each block's partnered rows from `pairs`; with
        # none, no block of M X takes its mate's (A - B) / 2 term
        p = parity(decomp, site)
        p.pairs = [0] * len(p.pairs)
        return p

    monkeypatch.setattr(experiments, "ReflectionParity", unpaired)


@pytest.mark.parametrize("n", (3, 4))
@pytest.mark.parametrize(
    "entry",
    ({"kind": "uniform-spatial"}, {"kind": "weighted-spatial", "R": 2.0}),
    ids=("uniform-spatial", "weighted-spatial"),
)
def test_rule_without_the_cross_term_trips_the_oracle(monkeypatch, n, entry):
    cfg = config([n], [entry])
    entropy, _ = reference(n, entry["kind"], entry.get("R"))
    (row,) = convergence_sweep(cfg)
    assert abs(row.s_m_rho_prime - entropy) <= 1e-11

    _unpaired(monkeypatch)
    # the trace gate of M rho' stops the row, and the spectrum it would
    # have read is off the oracle
    with pytest.raises(ValueError, match="is not 1 within"):
        convergence_sweep(cfg)
    ctx = _SizeContext(cfg, n)
    kicked = averaging.kicked_in_eigenbasis(ctx.state, ctx.u_blocks, ctx.parity)
    channel = AveragingKind(entry["kind"], entry.get("R")).bind(ctx.state)
    blocks, _ = channel.parity_blocks(kicked.blocks, ctx.parity)
    w = np.concatenate([np.linalg.eigvalsh(b) for b in blocks])
    w = w[w > 0]
    assert abs(-np.dot(w, np.log(w)) - entropy) > 1e-2


def test_temporal_rule_has_no_cross_term(monkeypatch):
    # partners share their energy, so A = B and the temporal row stays on
    # the oracle without the cross term
    cfg = config([4], [{"kind": "temporal", "tau": 1.5}])
    entropy, _ = reference(4, "temporal", 1.5)
    _unpaired(monkeypatch)
    (row,) = convergence_sweep(cfg)
    assert abs(row.s_m_rho_prime - entropy) <= 1e-11


def test_a_flip_the_kick_does_not_fix_trips_the_off_label_gate(monkeypatch):
    # TFI commutes with prod X, a Y kick does not, so no flip is chosen;
    # forced, the flip's blocks of u~ carry the kick's entries between them
    mapping = {
        "model": TFI,
        "sizes": [4, 5],
        "beta": 1.0,
        "kick": {"site": 1, "generator": "Y", "strength": 0.7},
        "averaging": [{"kind": "weighted-spatial", "R": 2.0}],
        "seed": 17,
    }
    cfg = config_from_mapping(mapping)
    assert len(convergence_sweep(cfg)) == 2
    monkeypatch.setattr(
        experiments, "chain_symmetry", lambda h, g: lattice.ChainSymmetry(h.sectors.n_terms, "X", "I")
    )
    with pytest.raises(
        ValueError, match="does not commute with the spin flip prod X: off-flip entries reach"
    ):
        convergence_sweep(cfg)


def test_a_real_structure_the_kick_breaks_trips_the_real_gate(monkeypatch):
    # TFI is real and an X kick is not, so no antiunitary prod s K fixes
    # both and the flip prod X applies; with the flip withheld and K
    # declared, the labelled blocks of u~ carry the kick's imaginary entries
    mapping = {
        "model": TFI,
        "sizes": [4, 5],
        "beta": 1.0,
        "kick": {"site": 1, "generator": "X", "strength": 0.7},
        "averaging": [{"kind": "weighted-spatial", "R": 2.0}],
        "seed": 17,
    }
    cfg = config_from_mapping(mapping)
    assert len(convergence_sweep(cfg)) == 2
    monkeypatch.setattr(
        experiments, "chain_symmetry", lambda h, g: lattice.ChainSymmetry(h.sectors.n_terms, real="I")
    )
    with pytest.raises(
        ValueError, match="does not commute with the antiunitary prod I K: imaginary entries reach"
    ):
        convergence_sweep(cfg)


def test_a_real_structure_that_anticommutes_with_the_flip_is_refused(monkeypatch):
    # XXZ and an X kick commute with prod X and with prod Z K, but at odd N
    # prod Z K anticommutes with prod X, so no real structure is chosen
    # beside the flip; forced, it would swap the flip's two sectors
    mapping = {
        "model": {"name": "heisenberg-xxz", "couplings": {"J": 1.0, "delta": 0.5}},
        "sizes": [5],
        "beta": 1.0,
        "kick": {"site": 1, "generator": "X", "strength": 0.7},
        "averaging": [{"kind": "weighted-spatial", "R": 2.0}],
        "seed": 17,
    }
    cfg = config_from_mapping(mapping)
    assert len(convergence_sweep(cfg)) == 1
    monkeypatch.setattr(
        experiments, "chain_symmetry", lambda h, g: lattice.ChainSymmetry(h.sectors.n_terms, "X", "Z")
    )
    with pytest.raises(ValueError, match="prod Z K anticommutes with the spin flip prod X"):
        convergence_sweep(cfg)


def test_an_average_without_one_translate_trips_the_translation_gate(
    monkeypatch, tmp_path, capsys
):
    mapping = {
        "model": TFI,
        "sizes": [4],
        "beta": 1.0,
        "kick": {"site": 0, "generator": "X", "strength": 0.7},
        "averaging": [{"kind": "uniform-spatial"}],
        "seed": 17,
    }
    path = tmp_path / "tfi.json"
    path.write_text(json.dumps(mapping))
    assert main(["verify", "--config", str(path)]) == 0

    def dropped(a, t, n_terms):
        # weights 1 / (N - 1) on all but the last translate: unit trace kept
        weights = np.append(np.ones(n_terms - 1) / (n_terms - 1), 0.0)
        return averaging._translate_conjugations(a, t, n_terms, weights)

    monkeypatch.setattr(experiments, "average_translates", dropped)
    with pytest.raises(ValueError, match="does not commute with the translation"):
        verify_identities(config_from_mapping(mapping))
    capsys.readouterr()
    assert main(["verify", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "matrix does not commute with the translation of its sectors" in captured.err
