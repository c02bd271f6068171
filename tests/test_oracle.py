"""Every channel of the sweep and of verify's state route against an
independent 30-digit reference (oracle_mp.py): the uniform, weighted (R = 2)
and temporal (tau = 1.5 and tau = inf) averages of the kicked TFI and XXZ
chains at N = 3, 4 and beta = 1, 2.

The references share no code with the package, so they check the
Schur-multiplier form of each channel in the joint H-T eigenbasis (the
sector blocks, w^(k - k') and the Lorentzian) as well as the
computational-basis sums over translates.
"""
import math

import numpy as np
import pytest

from frameavg.averaging import frame_average, temporal_average, weighted_frame_average
from frameavg.entropy import bs_relative_entropy
from frameavg.experiments import _SizeContext, config_from_mapping, convergence_sweep
from frameavg.lattice import translation_operator
from frameavg.thermal import perturb

mpmath = pytest.importorskip("mpmath")
from oracle_mp import channel_reference  # noqa: E402

STRENGTH = 0.7
CHANNELS = (
    ("uniform-spatial", None),
    ("weighted-spatial", 2.0),
    ("temporal", 1.5),
    ("temporal", math.inf),
)
MODELS = {
    "transverse-field-ising": {"J": 1.0, "g": 0.9},
    "heisenberg-xxz": {"J": 1.0, "delta": 0.5},
}


def config(model, sizes, beta, channels=CHANNELS):
    averaging = []
    for kind, parameter in channels:
        entry = {"kind": kind}
        if kind == "weighted-spatial":
            entry["R"] = parameter
        elif kind == "temporal":
            entry["tau"] = "inf" if math.isinf(parameter) else parameter
        averaging.append(entry)
    return config_from_mapping(
        {
            "model": {"name": model, "couplings": MODELS[model]},
            "sizes": sizes,
            "beta": beta,
            "kick": {"site": 0, "generator": "X", "strength": STRENGTH},
            "averaging": averaging,
            "seed": 5,
        }
    )


def operator_route_bound(spectrum):
    """max(1e-8, eps ||ME||_op (1 + max|ln lambda(ME)|)), criterion 4's float64
    floor of -tr[rho eta(ME)]."""
    spectrum = np.asarray(spectrum)
    floor = np.finfo(np.float64).eps * spectrum.max() * (1.0 + np.abs(np.log(spectrum)).max())
    return max(1e-8, float(floor))


def state_route(ctx, kind, parameter, n):
    """The computational-basis state route: the channel applied to rho' by its
    public dense function, then bs_relative_entropy."""
    rho_prime = perturb(ctx.state, ctx.kick)
    t = translation_operator(ctx.lattice)
    if kind == "uniform-spatial":
        averaged = frame_average(rho_prime, t, n)
    elif kind == "weighted-spatial":
        averaged = weighted_frame_average(rho_prime, t, n, parameter)
    else:
        averaged = temporal_average(rho_prime, ctx.state.hamiltonian_decomp, parameter)
    return bs_relative_entropy(averaged, ctx.state).nats


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("beta", (1.0, 2.0))
def test_every_channel_matches_the_reference(model, beta):
    cfg = config(model, [3, 4], beta)
    rows = {(r.n, r.avg_kind, r.avg_param): r for r in convergence_sweep(cfg)}
    for n in (3, 4):
        reference = channel_reference(model, MODELS[model], n, beta, STRENGTH, CHANNELS)
        ctx = _SizeContext(cfg, n)
        for (kind, parameter), (entropy, bs, spectrum) in reference.items():
            row = rows[(n, kind, parameter)]
            where = f"{model} N={n} beta={beta} {kind} {parameter}"
            me_deviation = max(abs(v - 1.0) for v in spectrum)
            assert abs(row.s_m_rho_prime - entropy) <= 1e-11, where
            assert abs(state_route(ctx, kind, parameter, n) - bs) <= 1e-10, where
            assert abs(row.bs_rel_ent_avg - bs) <= operator_route_bound(spectrum), where
            assert abs(row.me_deviation - me_deviation) <= 1e-10 * max(1.0, me_deviation), where
