import json
import subprocess
import sys

import pytest

from frameavg import experiments
from frameavg.cli import main


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

    def test_capacity_guard_counts_the_sizes_jobs_run_at_once(self, tmp_path, monkeypatch, capsys):
        # --jobs 2 runs N = 10 and 11 at once: 48.7 + 194.6 MB against a
        # faked 220 MB, of which one size at a time fits
        each = [experiments.PEAK_FACTORS["sweep"] * 16 * 4**n / 1e6 for n in (10, 11)]
        assert [round(x, 1) for x in each] == [48.7, 194.6]
        meminfo = tmp_path / "meminfo"
        meminfo.write_text(f"MemAvailable:    {int(220e6 / 1024)} kB\n")
        monkeypatch.setattr(experiments, "MEMINFO", str(meminfo))
        cfg = write_config(tmp_path, sizes=[10, 11])
        assert experiments.load_config(cfg, "sweep", jobs=1).sizes == (10, 11)
        code = main(["sweep", "--config", cfg, "--jobs", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"sweep at N=10, 11 is estimated to peak at {sum(each):.0f} MB" in err
        assert "above the 220 MB available" in err
        # verify runs only the first size, whatever --jobs says
        assert experiments.load_config(cfg, "verify", jobs=2).sizes == (10, 11)

    def test_capacity_guard_passes_without_meminfo(self, tmp_path, monkeypatch):
        monkeypatch.setattr(experiments, "MEMINFO", str(tmp_path / "absent"))
        assert experiments.load_config(write_config(tmp_path, sizes=[12])).sizes == (12,)
        meminfo = tmp_path / "meminfo"
        meminfo.write_text("MemTotal:       8000000 kB\n")
        monkeypatch.setattr(experiments, "MEMINFO", str(meminfo))
        assert experiments.load_config(write_config(tmp_path, sizes=[12])).sizes == (12,)

    def test_bad_jobs_exits_two(self, tmp_path, capsys):
        code = main(["sweep", "--config", write_config(tmp_path), "--jobs", "0"])
        assert code == 2

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

    def test_config_output_path_honored(self, tmp_path):
        target = tmp_path / "from-config.csv"
        cfg = write_config(tmp_path, output_path=str(target))
        assert main(["sweep", "--config", cfg]) == 0
        assert target.exists()

    def test_deterministic_bytes_modulo_wall_time(self, tmp_path):
        cfg = write_config(tmp_path, sizes=[4, 6])
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["sweep", "--config", cfg, "--output", str(a)]) == 0
        assert main(["sweep", "--config", cfg, "--output", str(b)]) == 0
        strip = lambda text: [line.rsplit(",", 1)[0] for line in text.splitlines()]
        assert strip(a.read_text()) == strip(b.read_text())

    def test_jobs_flag_keeps_ordering(self, tmp_path):
        cfg = write_config(tmp_path, sizes=[4, 6])
        a = tmp_path / "serial.csv"
        b = tmp_path / "jobs.csv"
        assert main(["sweep", "--config", cfg, "--output", str(a)]) == 0
        assert main(["sweep", "--config", cfg, "--jobs", "2", "--output", str(b)]) == 0
        strip = lambda text: [line.rsplit(",", 1)[0] for line in text.splitlines()]
        assert strip(a.read_text()) == strip(b.read_text())

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


def test_module_entry_point(tmp_path):
    cfg = write_config(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "frameavg.cli", "verify", "--config", cfg],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout
