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
  which still passes T^N = 1): the weighted row leaves the oracle.

The mutations patch names that both the computational-basis route and the
joint-eigenbasis route go through, so the tests hold for either.
"""
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from frameavg import averaging, experiments, lattice
from frameavg.averaging import AveragingKind
from frameavg.experiments import (
    _SizeContext,
    config_from_mapping,
    convergence_sweep,
    verify_identities,
)
from frameavg.operators import UnitaryOperator
from frameavg.thermal import PerturbationSpec

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
        self.conjugated = other.conjugated

    monkeypatch.setattr(_SizeContext, "__init__", mutated)
    check = bs_equality(verify_identities(cfg))
    assert not check.passed
    assert check.residual > 10 * check.tolerance


def test_weighted_operator_side_with_another_r_trips_the_oracle(monkeypatch):
    cfg = config([3], [{"kind": "weighted-spatial", "R": 2.0}])
    entropy, bs = reference(3, "weighted-spatial", 2.0)
    (row,) = convergence_sweep(cfg)
    assert abs(row.s_m_rho_prime - entropy) <= 1e-11
    assert abs(row.bs_rel_ent_avg - bs) <= 1e-8

    bind = AveragingKind.bind
    calls = []

    def second_from(clean, other):
        # a sweep row averages rho' first and E second, so the second
        # application is the operator side
        def blocks(x):
            calls.append(None)
            return (clean if len(calls) == 1 else other).blocks(x)

        return blocks

    def one_sided(self, state, t, n_terms):
        clean = bind(self, state, t, n_terms)
        other = bind(AveragingKind.weighted_spatial(3.0), state, t, n_terms)
        changes = {"blocks": second_from(clean, other)}
        if getattr(clean, "eigen", None) is not None:
            # the same map in the joint eigenbasis, where the sweep applies it
            changes["eigen"] = SimpleNamespace(
                blocks=second_from(clean.eigen, other.eigen),
                fixed_blocks=clean.eigen.fixed_blocks,
            )
        return replace(clean, **changes)

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

    def wrong_sign_weights(energies, tau, rows=slice(None)):
        gaps = energies[rows, np.newaxis] - energies[np.newaxis, :]
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
    monkeypatch.setattr(experiments, "translation_operator", two_site_shift)
    (row,) = convergence_sweep(cfg)
    assert abs(row.s_m_rho_prime - entropy) > 1e-6
