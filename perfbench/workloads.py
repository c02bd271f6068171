"""Benchmark workloads and their seeded config generator.

Each workload is one `frameavg` subcommand on one model.  The seed varies only
the kick site, the kick strength in [0.5, 0.9], the kick's Pauli letter and
the config's own `seed`; none of these changes the work one run does, so runs
with different seeds are comparable.  `tiny=True` gives the N <= 6 variant the
self-test uses.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass

DEFAULT_SEED = 1

_XXZ = {"name": "heisenberg-xxz", "couplings": {"J": 1.0, "delta": 0.5}}
_TFI = {"name": "transverse-field-ising", "couplings": {"J": 1.0, "g": 0.9}}
_FREE = {"name": "free-spins", "couplings": {"h": 1.0}}
_THREE_CHANNELS = (
    {"kind": "uniform-spatial"},
    {"kind": "weighted-spatial", "R": 2.0},
    {"kind": "temporal", "tau": 1.5},
)


@dataclass(frozen=True)
class Workload:
    command: str
    model: dict
    sizes: tuple
    tiny_sizes: tuple
    averaging: tuple
    why: str


WORKLOADS = {
    "xxz-sweep": Workload(
        "sweep", _XXZ, (8, 10), (4, 6), _THREE_CHANNELS,
        "interacting model at N = 8, 10: a dense H eigensolve plus all three channel paths",
    ),
    "free-ladder": Workload(
        "sweep", _FREE, (4, 6, 8, 10, 11), (4, 6), ({"kind": "uniform-spatial"},),
        "diagonal H up to N = 11: time goes to kick, perturb, state validation and "
        "entropy eigensolves at dim 2048; highest peak RSS",
    ),
    "tfi-saturation": Workload(
        "saturate", _TFI, (10,), (6,),
        tuple({"kind": "weighted-spatial", "R": r} for r in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)),
        "one N = 10 setup serves six weighted-spatial channels, which couple momentum sectors",
    ),
    "tfi-verify": Workload(
        "verify", _TFI, (10,), (6,), _THREE_CHANNELS,
        "identity suite at N = 10: the only path through relative_entropy, "
        "bs_relative_entropy and the matmul-bound gracefulness loop",
    ),
}


def generate_config(name: str, seed: int, tiny: bool = False) -> dict:
    """The config mapping of workload `name` for `seed`; equal seeds give equal configs."""
    w = WORKLOADS[name]
    sizes = w.tiny_sizes if tiny else w.sizes
    rng = random.Random(f"{name}/{seed}")
    return {
        "model": w.model,
        "sizes": list(sizes),
        "beta": 1.0,
        "kick": {
            "site": rng.randrange(sizes[0]),
            "generator": rng.choice("XY"),
            "strength": round(rng.uniform(0.5, 0.9), 4),
        },
        "averaging": list(w.averaging),
        "seed": rng.randrange(1 << 31),
    }


def write_config(path: str, config: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(config, handle, indent=1, sort_keys=True)
        handle.write("\n")
