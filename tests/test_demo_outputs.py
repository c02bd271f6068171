"""The demo configurations reproduce their recorded outputs.

Every file under tests/data was written by the CLI from demos/configs before
the sweep learned to evaluate the uniform channel per momentum sector, with

    frameavg sweep    --config demos/configs/sweep_free_spins.json --output sweep_free_spins.csv
    frameavg sweep    --config demos/configs/verify_tfi.json       --output sweep_verify_tfi.csv
    frameavg sweep    --config demos/configs/probe_xxz.json        --output sweep_probe_xxz.csv
    frameavg saturate --config demos/configs/saturate_tfi.json     --output saturate_tfi.csv
    frameavg verify   --config demos/configs/verify_tfi.json       --output verify_tfi.txt
    frameavg probe    --config demos/configs/probe_xxz.json --time 0.4 --probe Z --output probe_xxz.csv

A refactor must leave every cell in place.  Numbers compare within 1e-10
(relative once they exceed 1) rather than byte for byte, because another
BLAS build moves the twelfth printed digit; `wall_time_s` is not compared.
"""
import re
from pathlib import Path

import pytest

from frameavg.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "demos" / "configs"
DATA = Path(__file__).resolve().parent / "data"
TOLERANCE = 1e-10

CASES = (
    ("sweep", "sweep_free_spins.json", (), "sweep_free_spins.csv"),
    ("sweep", "verify_tfi.json", (), "sweep_verify_tfi.csv"),
    ("sweep", "probe_xxz.json", (), "sweep_probe_xxz.csv"),
    ("saturate", "saturate_tfi.json", (), "saturate_tfi.csv"),
    ("verify", "verify_tfi.json", (), "verify_tfi.txt"),
    ("probe", "probe_xxz.json", ("--time", "0.4", "--probe", "Z"), "probe_xxz.csv"),
)


def _cells(text: str) -> list[list[str]]:
    """Rows of cells split on commas and runs of blanks, minus `wall_time_s`."""
    rows = [re.split(r",|\s+", line.strip()) for line in text.strip().splitlines()]
    if "wall_time_s" in rows[0]:
        drop = rows[0].index("wall_time_s")
        rows = [row[:drop] + row[drop + 1 :] for row in rows]
    return rows


def _same(cell: str, reference: str) -> bool:
    try:
        value, expected = float(cell), float(reference)
    except ValueError:
        return cell == reference
    if value == expected:
        return True
    return abs(value - expected) <= TOLERANCE * max(1.0, abs(expected))


@pytest.mark.parametrize("command,config,extra,recorded", CASES, ids=[c[3] for c in CASES])
def test_demo_config_output_is_pinned(tmp_path, command, config, extra, recorded):
    out = tmp_path / recorded
    code = main([command, "--config", str(CONFIGS / config), "--output", str(out), *extra])
    assert code == 0
    got = _cells(out.read_text())
    want = _cells((DATA / recorded).read_text())
    assert [len(row) for row in got] == [len(row) for row in want]
    moved = [
        (i, j, cell, ref)
        for i, (row, ref_row) in enumerate(zip(got, want))
        for j, (cell, ref) in enumerate(zip(row, ref_row))
        if not _same(cell, ref)
    ]
    assert not moved, f"cells moved (row, column, now, recorded): {moved}"
