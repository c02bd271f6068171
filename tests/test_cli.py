import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from frameavg import experiments
from frameavg.cli import PROBE_HEADER, main

CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"


def write_config(tmp_path, name="cfg.json", **overrides):
    data = {
        "model": {"name": "free-spins", "couplings": {"h": 1.0}},
        "sizes": [4],
        "beta": 1.0,
        "kick": {"site": 0, "generator": "X", "strength": 0.7},
        "averaging": [{"kind": "uniform-spatial"}],
        "seed": 7,
    }
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestVerifyCommand:
    def test_success_exits_zero(self, tmp_path, capsys):
        code = main(["verify", "--config", write_config(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out
        assert "FAIL" not in out

    def test_no_residual_prints_a_sign(self, tmp_path, capsys):
        # at beta = 0 the averaged state's relative entropy is 0, and the
        # bs-chain residual, a max over -0 among others, reads 0
        xxz = {"name": "heisenberg-xxz", "couplings": {"J": 1.0, "delta": 0.5}}
        code = main(["verify", "--config", write_config(tmp_path, model=xxz, beta=0.0)])
        out = capsys.readouterr().out
        assert code == 0
        assert "bs-chain" in out
        assert "residual -" not in out

    def test_tampered_tolerance_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tolerance_overrides={"work-identity": 1e-18})
        code = main(["verify", "--config", cfg])
        captured = capsys.readouterr()
        assert code == 1
        assert "FAIL" in captured.out

    def test_bs_floor_goes_to_stderr(self, tmp_path, capsys):
        # criterion 4's floor b explains a bs-equality residual; stdout keeps
        # exactly the seven identity lines
        code = main(["verify", "--config", write_config(tmp_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert [line.split()[0] for line in captured.out.splitlines()] == [
            "unitary-invariance",
            "work-identity",
            "averaging-identity",
            "bs-chain",
            "bs-equality",
            "normalization",
            "gracefulness",
        ]
        (line,) = [line for line in captured.err.splitlines() if "floor" in line]
        assert line.startswith("bs-equality: float64 floor b = eps ||ME||_op")
        assert 0.0 < float(line.split()[-1]) < 1e-13

    def test_report_to_output_file(self, tmp_path):
        report = tmp_path / "report.txt"
        code = main(["verify", "--config", write_config(tmp_path), "--output", str(report)])
        assert code == 0
        assert "gracefulness" in report.read_text()


class TestConfigErrors:
    def test_unknown_key_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, bogus=1)
        code = main(["verify", "--config", cfg])
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code = main(["verify", "--config", str(tmp_path / "absent.json")])
        assert code == 2

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = main(["sweep", "--config", str(path)])
        assert code == 2
        assert "line" in capsys.readouterr().err

    def test_guard_refusal_names_size(self, tmp_path, capsys):
        cfg = write_config(tmp_path, sizes=[40])
        code = main(["sweep", "--config", cfg])
        assert code == 2
        assert "40" in capsys.readouterr().err

    def test_capacity_guard_refuses_with_the_estimate(self, tmp_path, monkeypatch, capsys):
        # a faked MemAvailable of 205 MB, below the N = 12 sweep's estimated
        # peak, so the config is refused before any work
        estimate = experiments.PEAK_FACTORS["sweep"] * 16 * 4096**2 / 1e6
        assert estimate > 205
        meminfo = tmp_path / "meminfo"
        meminfo.write_text("MemTotal:       8000000 kB\nMemAvailable:    200000 kB\n")
        monkeypatch.setattr(experiments, "MEMINFO", str(meminfo))
        code = main(["sweep", "--config", write_config(tmp_path, sizes=[4, 12])])
        assert code == 2
        err = capsys.readouterr().err
        expected = f"sweep at N=12 is estimated to peak at {estimate:.0f} MB, above the 205 MB"
        assert expected in err
        # verify and probe run at the first size, which fits
        cfg = write_config(tmp_path, sizes=[4, 12])
        assert experiments.load_config(cfg, "verify").sizes == (4, 12)
        with pytest.raises(experiments.ConfigError, match="sweep at N=12"):
            experiments.load_config(cfg)

    def test_capacity_guard_charges_the_largest_size_alone(self, tmp_path, monkeypatch, capsys):
        # sizes run one after another, so a sweep at N = 10 and 11 peaks at
        # N = 11's 194.6 MB, not at the sum 243.3 MB: it fits a faked 220 MB
        # and is refused against 150 MB, where N = 10's 48.7 MB would fit
        each = [experiments.PEAK_FACTORS["sweep"] * 16 * 4**n / 1e6 for n in (10, 11)]
        assert [round(x, 1) for x in each] == [48.7, 194.6]
        meminfo = tmp_path / "meminfo"
        monkeypatch.setattr(experiments, "MEMINFO", str(meminfo))
        cfg = write_config(tmp_path, sizes=[10, 11])
        meminfo.write_text(f"MemAvailable:    {int(220e6 / 1024)} kB\n")
        assert experiments.load_config(cfg, "sweep").sizes == (10, 11)
        meminfo.write_text(f"MemAvailable:    {int(150e6 / 1024)} kB\n")
        code = main(["sweep", "--config", cfg])
        assert code == 2
        err = capsys.readouterr().err
        assert f"sweep at N=11 is estimated to peak at {each[1]:.0f} MB" in err
        assert "above the 150 MB available" in err
        # verify runs only the first size, N = 10's 130.9 MB
        assert experiments.load_config(cfg, "verify").sizes == (10, 11)

    def test_capacity_guard_admits_verify_at_its_estimate(self, tmp_path, monkeypatch, capsys):
        # verify at N = 13 is admitted with 1 MB more than its estimated
        # peak available and refused with 1 MB less, before any work
        estimate = experiments.PEAK_FACTORS["verify"] * 16 * 8192**2
        assert round(estimate / 1e6) == 8375
        meminfo = tmp_path / "meminfo"
        monkeypatch.setattr(experiments, "MEMINFO", str(meminfo))
        cfg = write_config(tmp_path, sizes=[13])
        meminfo.write_text(f"MemAvailable:    {int((estimate + 1e6) / 1024)} kB\n")
        assert experiments.load_config(cfg, "verify").sizes == (13,)
        below = int((estimate - 1e6) / 1024)
        meminfo.write_text(f"MemAvailable:    {below} kB\n")
        code = main(["verify", "--config", cfg])
        assert code == 2
        err = capsys.readouterr().err
        assert f"verify at N=13 is estimated to peak at {estimate / 1e6:.0f} MB" in err
        assert f"above the {below * 1024 / 1e6:.0f} MB available" in err

    def test_capacity_guard_admits_probe_at_its_estimate(self, tmp_path, monkeypatch, capsys):
        # probe at N = 11, where its factor was fitted (451.9 MiB measured),
        # is admitted with 1 MB more than its estimated peak available and
        # refused with 1 MB less, before any work
        estimate = experiments.PEAK_FACTORS["probe"] * 16 * 2048**2
        assert round(estimate / 1e6) == 483
        meminfo = tmp_path / "meminfo"
        monkeypatch.setattr(experiments, "MEMINFO", str(meminfo))
        cfg = write_config(tmp_path, sizes=[11])
        meminfo.write_text(f"MemAvailable:    {int((estimate + 1e6) / 1024)} kB\n")
        assert experiments.load_config(cfg, "probe").sizes == (11,)
        below = int((estimate - 1e6) / 1024)
        meminfo.write_text(f"MemAvailable:    {below} kB\n")
        code = main(["probe", "--config", cfg])
        assert code == 2
        err = capsys.readouterr().err
        assert f"probe at N=11 is estimated to peak at {estimate / 1e6:.0f} MB" in err
        assert f"above the {below * 1024 / 1e6:.0f} MB available" in err

    def test_capacity_guard_passes_without_meminfo(self, tmp_path, monkeypatch):
        monkeypatch.setattr(experiments, "MEMINFO", str(tmp_path / "absent"))
        assert experiments.load_config(write_config(tmp_path, sizes=[12])).sizes == (12,)
        meminfo = tmp_path / "meminfo"
        meminfo.write_text("MemTotal:       8000000 kB\n")
        monkeypatch.setattr(experiments, "MEMINFO", str(meminfo))
        assert experiments.load_config(write_config(tmp_path, sizes=[12])).sizes == (12,)

    @pytest.mark.parametrize("jobs", ("0", "2"))
    def test_bad_jobs_exits_two(self, tmp_path, capsys, jobs):
        # sizes run one after another, so 1 is the only --jobs there is
        with pytest.raises(SystemExit) as exit_:
            main(["sweep", "--config", write_config(tmp_path), "--jobs", jobs])
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --jobs: invalid choice: {jobs} (choose from 1)" in captured.err

    def test_a_generator_that_is_not_one_qubit_exits_two(self, tmp_path, capsys):
        model = {"name": "transverse-field-ising", "couplings": {"J": 1.0, "g": 0.9}}
        kick = {"site": 0, "generator": [[1, 0, 0], [0, -1, 0], [0, 0, 0]], "strength": 0.7}
        code = main(["sweep", "--config", write_config(tmp_path, model=model, kick=kick)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: kick generator must act on one qubit (2 x 2), got shape (3, 3)\n"
        )

    @pytest.mark.parametrize(
        "model,message",
        [
            (
                {"name": "heisenberg-xxz", "couplings": {"J": "1.0", "delta": 0.5}},
                "model.couplings.J must be a number, got '1.0'",
            ),
            (
                {"name": "heisenberg-xxz", "couplings": {"J": 1.0, "delta": True}},
                "model.couplings.delta must be a number, got True",
            ),
            (
                {"name": "heisenberg-xxz", "couplings": {"J": [1.0], "delta": 0.5}},
                "model.couplings.J must be a number, got [1.0]",
            ),
            (
                {"name": ["heisenberg-xxz"], "couplings": {"J": 1.0, "delta": 0.5}},
                "model.name must be a string, got ['heisenberg-xxz']",
            ),
        ],
    )
    def test_a_model_field_of_the_wrong_type_exits_two(self, tmp_path, capsys, model, message):
        # each coupling goes through the number parser and the name must be
        # a string, so neither is coerced nor crashes on its type
        code = main(["verify", "--config", write_config(tmp_path, model=model)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("site", (2.7, "1", True))
    def test_kick_site_must_be_an_integer(self, tmp_path, capsys, site):
        kick = {"site": site, "generator": "X", "strength": 0.7}
        code = main(["sweep", "--config", write_config(tmp_path, kick=kick)])
        assert code == 2
        assert "kick.site must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ("verify", "sweep"))
    def test_negative_seed_exits_two(self, tmp_path, capsys, command):
        code = main([command, "--config", write_config(tmp_path, seed=-1)])
        assert code == 2
        assert "seed must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("value", (-1.0, float("nan")))
    def test_unpassable_tolerance_exits_two(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, tolerance_overrides={"bs-equality": value})
        code = main(["verify", "--config", cfg])
        assert code == 2
        assert "tolerance_overrides.bs-equality must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("value", (0.0, float("inf")))
    def test_zero_and_infinite_tolerances_load(self, tmp_path, value):
        cfg = write_config(tmp_path, tolerance_overrides={"bs-equality": value})
        assert experiments.load_config(cfg).tolerance("bs-equality") == value

    @staticmethod
    def _refused(capsys, path, message):
        # a config error exits 2 with one "error: " line naming what was
        # refused, and no traceback
        code = main(["verify", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert message in err
        assert "Traceback" not in err

    def test_a_file_that_is_not_utf8_exits_two(self, tmp_path, capsys):
        # a Latin-1 byte where the Pauli letter stands: 0xe9 opens no UTF-8 sequence
        path = Path(write_config(tmp_path))
        path.write_bytes(path.read_bytes().replace(b'"X"', b'"\xe9"'))
        self._refused(capsys, path, f"config {path} cannot be parsed: 'utf-8' codec can't decode")

    def test_an_integer_past_the_digit_limit_exits_two(self, tmp_path, capsys):
        path = Path(write_config(tmp_path))
        path.write_text(path.read_text().replace('"seed": 7', '"seed": 1' + "0" * 5000))
        self._refused(capsys, path, f"config {path} cannot be parsed: Exceeds the limit")

    def test_brackets_nested_past_the_recursion_limit_exit_two(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        self._refused(capsys, path, f"config {path} cannot be parsed: maximum recursion depth")

    @pytest.mark.parametrize(
        "overrides,field",
        [
            ({"beta": "BIG"}, "beta"),
            ({"kick": {"site": 0, "generator": "X", "strength": "BIG"}}, "kick.strength"),
            (
                {"kick": {"site": 0, "generator": [[0, "BIG"], [1, 0]], "strength": 0}},
                "kick.generator",
            ),
            (
                {"kick": {"site": 0, "generator": [[0, [0, "BIG"]], [1, 0]], "strength": 0}},
                "kick.generator",
            ),
            ({"averaging": [{"kind": "weighted-spatial", "R": "BIG"}]}, "averaging[0].R"),
            ({"averaging": [{"kind": "temporal", "tau": "BIG"}]}, "averaging[0].tau"),
            ({"model": {"name": "free-spins", "couplings": {"h": "BIG"}}}, "model.couplings.h"),
            ({"tolerance_overrides": {"gracefulness": "BIG"}}, "tolerance_overrides.gracefulness"),
        ],
        ids=("beta", "strength", "entry", "pair", "R", "tau", "coupling", "tolerance"),
    )
    def test_an_integer_beyond_float_range_exits_two(self, tmp_path, capsys, overrides, field):
        path = Path(write_config(tmp_path, **overrides))
        path.write_text(path.read_text().replace('"BIG"', "1" + "0" * 400))
        self._refused(capsys, path, f"error: {field} is beyond float range")


class TestSweepCommand:
    def test_csv_to_stdout(self, tmp_path, capsys):
        code = main(["sweep", "--config", write_config(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("model,N,beta")
        assert len(lines) == 2

    def test_csv_to_output_flag(self, tmp_path, capsys):
        target = tmp_path / "rows.csv"
        code = main(["sweep", "--config", write_config(tmp_path), "--output", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert len(target.read_text().splitlines()) == 2

    def test_deterministic_bytes_modulo_wall_time(self, tmp_path):
        cfg = write_config(tmp_path, sizes=[4, 6])
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["sweep", "--config", cfg, "--output", str(a)]) == 0
        assert main(["sweep", "--config", cfg, "--output", str(b)]) == 0
        strip = lambda text: [line.rsplit(",", 1)[0] for line in text.splitlines()]
        assert strip(a.read_text()) == strip(b.read_text())

    def test_an_eigensolver_failure_exits_one_with_its_message(self, monkeypatch, capsys):
        # LAPACK fails on every block wider than 3, so the first such solve
        # of H raises EigensolverError, which is a RuntimeError
        eigh = np.linalg.eigh

        def failing(a, *args, **kwargs):
            if a.shape[-1] > 3:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", failing)
        code = main(["sweep", "--config", str(CONFIGS / "sweep_free_spins.json")])
        assert code == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: eigensolver failed to converge on a 16x16 Hermitian matrix")

    def test_the_overflow_guard_refuses_the_sweep_as_it_does_verify(self, tmp_path, capsys):
        # beta (E_max - E_min) = 714.2 > 700, while beta max|E| stays below
        # 700: both routes refuse it by the one spread guard, before any row
        model = {"name": "heisenberg-xxz", "couplings": {"J": 1.0, "delta": 0.5}}
        kick = {"site": 1, "generator": "Y", "strength": 0.6}
        averaging = [{"kind": "uniform-spatial"}, {"kind": "temporal", "tau": 1.5}]
        cfg = write_config(
            tmp_path, model=model, sizes=[5], beta=60.0, kick=kick, averaging=averaging
        )
        message = (
            "error: beta times the spectral spread is 714.2, beyond the 700 overflow guard; "
            "reduce beta or the chain size\n"
        )
        for command in ("sweep", "verify"):
            code = main([command, "--config", cfg])
            captured = capsys.readouterr()
            assert code == 1, command
            assert captured.out == ""
            assert captured.err == message, command

    def test_unwritable_output_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = main(["sweep", "--config", cfg, "--output", str(tmp_path / "no" / "way.csv")])
        assert code == 1


class TestSaturateCommand:
    def test_happy_path(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            averaging=[
                {"kind": "weighted-spatial", "R": 0.5},
                {"kind": "weighted-spatial", "R": 2.0},
            ],
        )
        code = main(["saturate", "--config", cfg])
        out = capsys.readouterr().out
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_uniform_only_config_exits_two(self, tmp_path, capsys):
        code = main(["saturate", "--config", write_config(tmp_path)])
        assert code == 2
        assert "weighted" in capsys.readouterr().err

    def test_mixed_kinds_exit_two(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            averaging=[
                {"kind": "uniform-spatial"},
                {"kind": "weighted-spatial", "R": 2.0},
                {"kind": "temporal", "tau": 1.5},
            ],
        )
        code = main(["saturate", "--config", cfg])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "weighted-spatial entries only" in captured.err


class TestProbeCommand:
    def test_table_shape(self, tmp_path, capsys):
        code = main(["probe", "--config", write_config(tmp_path), "--time", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "site,distance,kick_commutator_norm,conjugated_commutator_norm"
        assert len(lines) == 5

    def test_z_probe_at_origin(self, tmp_path, capsys):
        code = main(
            ["probe", "--config", write_config(tmp_path), "--time", "0", "--probe", "Z"]
        )
        out = capsys.readouterr().out
        assert code == 0
        first = out.strip().splitlines()[1].split(",")
        # 2 |sin 0.7| from the one-site commutator
        assert first[0] == "0"
        assert abs(float(first[2]) - 1.2884353744753817) < 1e-10

    def test_multi_size_config_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, sizes=[4, 6])
        assert main(["probe", "--config", cfg]) == 2

    def test_normalization_override_reaches_the_kick_gate(self, tmp_path, capsys):
        # tr(rho E) misses 1 by 4.4e-16 here: the default 1e-9 passes it, and
        # an override below that residual refuses the probe, as it does a sweep
        assert main(["probe", "--config", write_config(tmp_path)]) == 0
        capsys.readouterr()
        tight = {"normalization": 1e-16}
        cfg = write_config(tmp_path, "tight.json", tolerance_overrides=tight)
        assert main(["probe", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "is not 1 within 1e-16" in captured.err
        assert main(["sweep", "--config", cfg]) == 1


# a tiny config each command accepts, and the first line of its output
COMMANDS = {
    "verify": ({}, "unitary-invariance"),
    "sweep": ({}, experiments.CSV_HEADER),
    "saturate": ({"averaging": [{"kind": "weighted-spatial", "R": 2.0}]}, experiments.CSV_HEADER),
    "probe": ({}, PROBE_HEADER),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_jobs_one_is_accepted(tmp_path, capsys, command):
    # the benchmark harness passes --jobs 1 to every child it runs
    overrides, first_line = COMMANDS[command]
    code = main([command, "--config", write_config(tmp_path, **overrides), "--jobs", "1"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0].startswith(first_line)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_config_output_path_takes_every_command(tmp_path, capsys, command):
    overrides, first_line = COMMANDS[command]
    target = tmp_path / "out.txt"
    cfg = write_config(tmp_path, output_path=str(target), **overrides)
    assert main([command, "--config", cfg]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text().splitlines()[0].startswith(first_line)


def test_module_entry_point(tmp_path):
    cfg = write_config(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "frameavg.cli", "verify", "--config", cfg],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout
