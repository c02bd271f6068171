import dataclasses
import json
import math
import time

import numpy as np
import pytest

from frameavg.averaging import (
    average_translates,
    averaged_E_stats,
    deviation_report,
    frame_average,
    temporal_average_matrix,
    weighted_average_translates,
)
from frameavg.entropy import bs_relative_entropy, von_neumann_entropy
from frameavg import averaging, experiments
from frameavg.cli import main
from frameavg.experiments import (
    CSV_HEADER,
    IDENTITY_TOLERANCES,
    ConfigError,
    ExperimentConfig,
    ExperimentRecord,
    _SizeContext,
    config_from_mapping,
    convergence_sweep,
    emit_csv,
    load_config,
    locality_probe,
    record_to_row,
    saturation_scan,
    verify_identities,
)
from frameavg.lattice import HamiltonianSpec, LatticeSpec, build_hamiltonian, pauli, translation_operator
from frameavg.operators import DensityMatrix, UnitaryOperator
from frameavg.thermal import PerturbationSpec, local_kick, perturb, thermal_state
from frameavg.averaging import conjugated_perturbation


def base_mapping(**overrides):
    data = {
        "model": {"name": "free-spins", "couplings": {"h": 1.0}},
        "sizes": [4],
        "beta": 1.0,
        "kick": {"site": 0, "generator": "X", "strength": 0.7},
        "averaging": [{"kind": "uniform-spatial"}],
        "seed": 7,
    }
    data.update(overrides)
    return data


class TestConfigParsing:
    def test_minimal_round_trip(self):
        cfg = config_from_mapping(base_mapping())
        assert cfg.sizes == (4,)
        assert cfg.beta == 1.0
        assert cfg.kick.strength == 0.7
        assert cfg.averaging[0].kind == "uniform-spatial"

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="extra_key"):
            config_from_mapping(base_mapping(extra_key=1))

    def test_unknown_nested_key_names_location(self):
        bad = base_mapping()
        bad["kick"]["sight"] = 0
        with pytest.raises(ConfigError, match="sight.*kick"):
            config_from_mapping(bad)

    def test_missing_seed(self):
        data = base_mapping()
        del data["seed"]
        with pytest.raises(ConfigError, match="seed"):
            config_from_mapping(data)

    def test_sizes_must_ascend(self):
        with pytest.raises(ConfigError, match="ascending"):
            config_from_mapping(base_mapping(sizes=[6, 4]))
        with pytest.raises(ConfigError, match="ascending"):
            config_from_mapping(base_mapping(sizes=[4, 4]))

    def test_sizes_guard_refusal_names_n(self):
        with pytest.raises(ConfigError, match="40"):
            config_from_mapping(base_mapping(sizes=[40]))

    def test_kick_site_must_fit_smallest_chain(self):
        bad = base_mapping(sizes=[4, 6])
        bad["kick"]["site"] = 4
        with pytest.raises(ConfigError, match="site 4"):
            config_from_mapping(bad)

    def test_beta_zero_allowed(self):
        cfg = config_from_mapping(base_mapping(beta=0))
        assert cfg.beta == 0.0

    def test_beta_negative_rejected(self):
        with pytest.raises(ConfigError):
            config_from_mapping(base_mapping(beta=-1.0))

    def test_unknown_model(self):
        with pytest.raises(ConfigError, match="model"):
            config_from_mapping(
                base_mapping(model={"name": "kagome", "couplings": {}})
            )

    def test_generator_as_matrix(self):
        data = base_mapping()
        # sigma_y spelled out with [re, im] entries
        data["kick"]["generator"] = [[0, [0, -1]], [[0, 1], 0]]
        cfg = config_from_mapping(data)
        assert np.allclose(cfg.kick.generator, np.array([[0, -1j], [1j, 0]]))

    def test_temporal_tau_inf_token(self):
        data = base_mapping(averaging=[{"kind": "temporal", "tau": "inf"}])
        cfg = config_from_mapping(data)
        assert math.isinf(cfg.averaging[0].parameter)

    def test_averaging_entry_unknown_kind(self):
        with pytest.raises(ConfigError, match="radial"):
            config_from_mapping(base_mapping(averaging=[{"kind": "radial"}]))

    def test_averaging_entry_unknown_key(self):
        with pytest.raises(ConfigError, match="R"):
            config_from_mapping(
                base_mapping(averaging=[{"kind": "uniform-spatial", "R": 2.0}])
            )

    def test_tolerance_override_unknown_name(self):
        with pytest.raises(ConfigError, match="work-identityy"):
            config_from_mapping(
                base_mapping(tolerance_overrides={"work-identityy": 1e-6})
            )

    def test_tolerance_override_applied(self):
        cfg = config_from_mapping(
            base_mapping(tolerance_overrides={"work-identity": 1e-6})
        )
        assert cfg.tolerance("work-identity") == 1e-6
        assert cfg.tolerance("bs-chain") == IDENTITY_TOLERANCES["bs-chain"]

    def test_seed_must_be_integer(self):
        with pytest.raises(ConfigError, match="seed"):
            config_from_mapping(base_mapping(seed=1.5))

    def test_load_config_reports_json_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"model": }')
        with pytest.raises(ConfigError, match="line 1"):
            load_config(str(path))

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="no-such"):
            load_config(str(tmp_path / "no-such.json"))


class TestRecordInvariants:
    def good_row(self):
        cfg = config_from_mapping(base_mapping())
        return convergence_sweep(cfg)[0]

    def test_sweep_rows_pass_construction(self):
        row = self.good_row()
        assert row.n == 4
        assert row.avg_kind == "uniform-spatial"

    def test_tampered_beta_w_rejected(self):
        row = self.good_row()
        fields = {k: getattr(row, k) for k in row.__dataclass_fields__}
        fields["beta_w"] = fields["beta_w"] + 1e-6
        with pytest.raises(ValueError, match="beta W"):
            ExperimentRecord(**fields)

    def test_tampered_entropy_rejected(self):
        row = self.good_row()
        fields = {k: getattr(row, k) for k in row.__dataclass_fields__}
        fields["s_rho_prime"] = fields["s_rho_prime"] + 1e-6
        with pytest.raises(ValueError):
            ExperimentRecord(**fields)

    def test_negative_production_rejected(self):
        row = self.good_row()
        fields = {k: getattr(row, k) for k in row.__dataclass_fields__}
        fields["rel_ent_avg"] = -1e-6
        with pytest.raises(ValueError, match="negative"):
            ExperimentRecord(**fields)


class TestSweep:
    def test_ordering_by_size_then_kind(self):
        cfg = config_from_mapping(
            base_mapping(
                sizes=[4, 6],
                averaging=[
                    {"kind": "weighted-spatial", "R": 2.0},
                    {"kind": "uniform-spatial"},
                    {"kind": "temporal", "tau": 3.0},
                ],
            )
        )
        rows = convergence_sweep(cfg)
        keys = [(r.n, r.avg_kind) for r in rows]
        assert keys == sorted(keys)
        assert [r.n for r in rows] == [4, 4, 4, 6, 6, 6]

    def test_deterministic_modulo_wall_time(self):
        cfg = config_from_mapping(base_mapping(sizes=[4, 6]))
        first = [record_to_row(r).rsplit(",", 1)[0] for r in convergence_sweep(cfg)]
        second = [record_to_row(r).rsplit(",", 1)[0] for r in convergence_sweep(cfg)]
        assert first == second

    def test_jobs_do_not_change_rows(self):
        cfg = config_from_mapping(base_mapping(sizes=[4, 6]))
        serial = [record_to_row(r).rsplit(",", 1)[0] for r in convergence_sweep(cfg)]
        threaded = [
            record_to_row(r).rsplit(",", 1)[0] for r in convergence_sweep(cfg, jobs=2)
        ]
        assert serial == threaded

    def test_beta_zero_kills_all_production(self):
        cfg = config_from_mapping(
            base_mapping(
                beta=0,
                sizes=[4],
                averaging=[
                    {"kind": "uniform-spatial"},
                    {"kind": "weighted-spatial", "R": 2.0},
                    {"kind": "temporal", "tau": 1.0},
                ],
            )
        )
        for row in convergence_sweep(cfg):
            assert row.rel_ent_prime <= 1e-12
            assert row.rel_ent_avg <= 1e-12
            assert row.bs_rel_ent_avg <= 1e-10
            assert row.beta_w == 0.0

    def test_identity_kick_gives_zero_production(self):
        data = base_mapping()
        data["kick"]["strength"] = 0.0
        cfg = config_from_mapping(data)
        row = convergence_sweep(cfg)[0]
        assert row.rel_ent_prime <= 1e-12
        assert row.rel_ent_avg <= 1e-12
        assert abs(row.me_deviation) <= 1e-10

    def test_free_spins_entropy_density_size_independent(self):
        cfg = config_from_mapping(base_mapping(sizes=[4, 6, 8]))
        rows = convergence_sweep(cfg)
        densities = [r.entropy_density for r in rows]
        assert max(densities) - min(densities) < 1e-9


class TestSaturation:
    def test_requires_single_size(self):
        cfg = config_from_mapping(
            base_mapping(
                sizes=[4, 6],
                averaging=[{"kind": "weighted-spatial", "R": 1.0}],
            )
        )
        with pytest.raises(ConfigError, match="single"):
            saturation_scan(cfg)

    def test_requires_weighted_entries(self):
        cfg = config_from_mapping(base_mapping())
        with pytest.raises(ConfigError, match="weighted"):
            saturation_scan(cfg)

    def test_requires_ascending_scales(self):
        cfg = config_from_mapping(
            base_mapping(
                averaging=[
                    {"kind": "weighted-spatial", "R": 4.0},
                    {"kind": "weighted-spatial", "R": 1.0},
                ]
            )
        )
        with pytest.raises(ConfigError, match="ascend"):
            saturation_scan(cfg)

    def test_tiny_scale_is_identity_map(self):
        # R -> 0 leaves the state untouched, so the entropy gain vanishes
        cfg = config_from_mapping(
            base_mapping(averaging=[{"kind": "weighted-spatial", "R": 1e-6}])
        )
        row = saturation_scan(cfg)[0]
        assert abs(row.s_m_rho_prime - row.s_rho_prime) < 1e-9

    def test_huge_scale_matches_uniform(self):
        # weights flatten as exp(-2/R); R = 1e9 pushes the gap below 1e-9
        cfg = config_from_mapping(
            base_mapping(
                averaging=[
                    {"kind": "uniform-spatial"},
                    {"kind": "weighted-spatial", "R": 1e9},
                ],
                sizes=[4],
            )
        )
        rows = convergence_sweep(cfg)
        uniform = next(r for r in rows if r.avg_kind == "uniform-spatial")
        flat = next(r for r in rows if r.avg_kind == "weighted-spatial")
        assert abs(uniform.s_m_rho_prime - flat.s_m_rho_prime) < 1e-9
        assert abs(uniform.rel_ent_avg - flat.rel_ent_avg) < 1e-9

    def test_gain_nondecreasing_in_scale(self):
        cfg = config_from_mapping(
            base_mapping(
                model={"name": "transverse-field-ising", "couplings": {"J": 1.0, "g": 0.9}},
                sizes=[6],
                averaging=[
                    {"kind": "weighted-spatial", "R": float(r)}
                    for r in (0.5, 1.0, 2.0, 4.0, 8.0)
                ],
            )
        )
        rows = saturation_scan(cfg)
        gains = [r.s_m_rho_prime - r.s_rho_prime for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(gains, gains[1:]))


class TestLocalityProbe:
    def test_requires_single_size(self):
        cfg = config_from_mapping(base_mapping(sizes=[4, 6]))
        with pytest.raises(ConfigError, match="single"):
            locality_probe(cfg, 0.5)

    def test_t0_off_site_commutators_vanish(self):
        cfg = config_from_mapping(base_mapping())
        for row in locality_probe(cfg, 0.0):
            if row.site != 0:
                assert row.kick_commutator <= 1e-12

    def test_t0_z_probe_on_kick_site(self):
        # one-site check: || [exp(-i 0.7 X), Z] ||_op = 2 |sin 0.7|
        cfg = config_from_mapping(base_mapping())
        row = locality_probe(cfg, 0.0, probe="Z")[0]
        assert abs(row.kick_commutator - 2 * math.sin(0.7)) < 1e-12

    def test_free_spins_never_propagate(self):
        # single-site Hamiltonian terms keep every probe on its own site
        cfg = config_from_mapping(base_mapping(sizes=[6]))
        for t in (0.3, 1.7):
            for row in locality_probe(cfg, t):
                if row.site != 0:
                    assert row.kick_commutator <= 1e-12
                    assert row.conjugated_commutator <= 1e-12

    def test_interacting_chain_spreads_with_distance(self):
        cfg = config_from_mapping(
            base_mapping(
                model={"name": "heisenberg-xxz", "couplings": {"J": 1.0, "delta": 0.5}},
                sizes=[6],
            )
        )
        rows = locality_probe(cfg, 0.1)
        by_distance = {}
        for row in rows:
            by_distance.setdefault(row.distance, []).append(row.kick_commutator)
        # short times: the front has barely reached the far sites
        profile = [max(by_distance[d]) for d in (1, 2, 3)]
        assert profile[0] > profile[1] > profile[2]
        assert profile[0] > 10 * profile[2]


class TestVerifyIdentities:
    def test_all_pass_on_free_spins(self):
        cfg = config_from_mapping(
            base_mapping(
                averaging=[
                    {"kind": "uniform-spatial"},
                    {"kind": "weighted-spatial", "R": 2.0},
                    {"kind": "temporal", "tau": "inf"},
                ]
            )
        )
        report = verify_identities(cfg)
        assert report.passed
        names = [c.name for c in report.checks]
        assert names == [
            "unitary-invariance",
            "work-identity",
            "averaging-identity",
            "bs-chain",
            "bs-equality",
            "normalization",
            "gracefulness",
        ]

    def test_zero_kick_productions_vanish(self):
        data = base_mapping()
        data["kick"]["strength"] = 0.0
        report = verify_identities(config_from_mapping(data))
        assert report.passed

    def test_tampered_tolerance_fails(self):
        cfg = config_from_mapping(
            base_mapping(tolerance_overrides={"work-identity": 1e-18})
        )
        report = verify_identities(cfg)
        assert not report.passed
        failed = [c.name for c in report.checks if not c.passed]
        assert failed == ["work-identity"]

    def test_report_lines_carry_verdicts(self):
        report = verify_identities(config_from_mapping(base_mapping()))
        lines = report.lines()
        assert len(lines) == len(report.checks)
        assert all(("PASS" in line) or ("FAIL" in line) for line in lines)

    def test_each_state_is_eigensolved_once(self, monkeypatch):
        # rho, rho' and the frame average of rho' each get one dense eigvalsh,
        # their positivity gate, however many identities read their entropy;
        # the gracefulness probes are not states and get none
        cfg = config_from_mapping(
            base_mapping(
                model={"name": "transverse-field-ising", "couplings": {"J": 1.0, "g": 0.9}}
            )
        )
        calls = []
        solve = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or solve(a))
        assert verify_identities(cfg).passed
        assert calls == [(16, 16), (16, 16), (16, 16)]

    def test_work_identity_is_reported_against_its_tolerance(self, monkeypatch, tmp_path, capsys):
        # a beta W off by 1e-8 reaches the work-identity line instead of
        # stopping verify before it reports
        shift = 1e-8
        work = experiments.work
        monkeypatch.setattr(experiments, "work", lambda *args: work(*args) + shift)
        loose = config_from_mapping(base_mapping(tolerance_overrides={"work-identity": 1e-6}))
        report = verify_identities(loose)
        assert report.passed
        check = {c.name: c for c in report.checks}["work-identity"]
        assert abs(check.residual - shift) < 1e-10
        path = tmp_path / "verify.json"
        path.write_text(json.dumps(base_mapping()))
        assert main(["verify", "--config", str(path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 7
        verdicts = {line.split()[0]: line.split()[-1] for line in lines}
        assert verdicts.pop("work-identity") == "FAIL"
        assert set(verdicts.values()) == {"PASS"}

    def test_normalization_is_reported_against_its_tolerance(
        self, monkeypatch, tmp_path, capsys
    ):
        # a tr(rho E) off by 1e-8 reaches the normalization line instead of
        # stopping verify at a fixed 1e-9 before it reports
        shift = 1e-8
        normalization = averaging._normalization
        monkeypatch.setattr(averaging, "_normalization", lambda *a: normalization(*a) + shift)
        loose = config_from_mapping(base_mapping(tolerance_overrides={"normalization": 1e-6}))
        report = verify_identities(loose)
        assert report.passed
        check = {c.name: c for c in report.checks}["normalization"]
        assert abs(check.residual - shift) < 1e-10
        path = tmp_path / "verify.json"
        path.write_text(json.dumps(base_mapping()))
        assert main(["verify", "--config", str(path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 7
        verdicts = {line.split()[0]: line.split()[-1] for line in lines}
        assert verdicts.pop("normalization") == "FAIL"
        assert set(verdicts.values()) == {"PASS"}
        # a sweep gates the same value once per size, against the same tolerance
        assert len(convergence_sweep(loose)) == 1
        with pytest.raises(ValueError, match="drifted from 1 at N=4"):
            convergence_sweep(config_from_mapping(base_mapping()))


class TestStructuredUnitaries:
    def test_no_path_builds_a_dense_kick_or_translation(self, monkeypatch):
        def refuse(self):
            raise AssertionError("dense matrix of a structured unitary")

        monkeypatch.setattr(UnitaryOperator, "_dense", refuse)
        tfi = {"name": "transverse-field-ising", "couplings": {"J": 1.0, "g": 0.9}}
        channels = [
            {"kind": "uniform-spatial"},
            {"kind": "weighted-spatial", "R": 2.0},
            {"kind": "temporal", "tau": 1.5},
        ]
        sweep = config_from_mapping(base_mapping(model=tfi, sizes=[4, 6], averaging=channels))
        assert len(convergence_sweep(sweep)) == 6
        scan = config_from_mapping(
            base_mapping(
                model=tfi,
                sizes=[6],
                averaging=[{"kind": "weighted-spatial", "R": r} for r in (0.5, 2.0)],
            )
        )
        assert len(saturation_scan(scan)) == 2
        assert verify_identities(config_from_mapping(base_mapping(model=tfi, averaging=channels))).passed
        # the probe reads [U, A] as U A U^dag - A, through the kick's factor
        assert len(locality_probe(config_from_mapping(base_mapping(model=tfi)), 0.4)) == 4


class TestDeviationReport:
    @pytest.mark.parametrize(
        "average",
        (
            lambda a, t, decomp: average_translates(a, t, 4),
            lambda a, t, decomp: weighted_average_translates(a, t, 4, 2.0),
            lambda a, t, decomp: temporal_average_matrix(a, decomp, 1.5),
        ),
        ids=("uniform-spatial", "weighted-spatial", "temporal"),
    )
    def test_matches_numpy_and_the_state_route(self, average):
        # each field against a direct numpy evaluation on the dense ME, and
        # the operator route -tr[rho eta(ME)] against the state route
        lat = LatticeSpec(4)
        h = build_hamiltonian(
            lat, HamiltonianSpec("transverse-field-ising", {"J": 1.0, "g": 0.9})
        )
        state = thermal_state(h, 1.3)
        u = local_kick(lat, PerturbationSpec(1, pauli("X"), 0.7))
        t = translation_operator(lat)
        decomp = state.hamiltonian_decomp
        rho = state.rho.matrix
        me = average(conjugated_perturbation(state, u).E.matrix, t, decomp)

        report = deviation_report(me, state)
        dev = me - np.eye(lat.dim)
        dev = (dev + dev.conj().T) / 2
        assert abs(report.op_norm - np.abs(np.linalg.eigvalsh(dev)).max()) < 1e-10
        assert abs(report.frobenius_norm - np.linalg.norm(dev)) < 1e-10
        assert abs(report.state_weighted - np.sqrt(np.trace(rho @ dev @ dev).real)) < 1e-10
        assert abs(report.state_trace - np.trace(rho @ me).real) < 1e-10

        _, bs_from_me = averaged_E_stats([me], [rho])
        averaged = DensityMatrix(average(perturb(state, u).matrix, t, decomp))
        assert abs(bs_from_me - bs_relative_entropy(averaged, state).nats) < 1e-9


class TestWallTime:
    def test_rows_exclude_the_size_setup(self, monkeypatch):
        # every row of a size shares one setup, built before any row's timer
        build = _SizeContext.__init__

        def slow_build(self, cfg, n):
            time.sleep(0.3)
            build(self, cfg, n)

        monkeypatch.setattr(_SizeContext, "__init__", slow_build)
        cfg = config_from_mapping(
            base_mapping(averaging=[{"kind": "uniform-spatial"}, {"kind": "temporal", "tau": 1.0}])
        )
        rows = convergence_sweep(cfg)
        assert len(rows) == 2
        assert all(row.wall_time_s < 0.3 for row in rows)

    def test_rows_exclude_the_blocks_of_e(self, monkeypatch):
        # E's blocks serve every row of a size, so the row that sorts first
        # (temporal) must not pay for building them
        build = experiments.conjugated_in_eigenbasis

        def slow_build(*args):
            time.sleep(0.3)
            return build(*args)

        monkeypatch.setattr(experiments, "conjugated_in_eigenbasis", slow_build)
        cfg = config_from_mapping(
            base_mapping(averaging=[{"kind": "uniform-spatial"}, {"kind": "temporal", "tau": 1.0}])
        )
        rows = convergence_sweep(cfg)
        assert [row.avg_kind for row in rows] == ["temporal", "uniform-spatial"]
        assert all(row.wall_time_s < 0.3 for row in rows)


class TestUniformSectorRoute:
    @pytest.mark.parametrize(
        "model",
        (
            {"name": "free-spins", "couplings": {"h": 1.0}},
            {"name": "transverse-field-ising", "couplings": {"J": 1.0, "g": 0.9}},
            {"name": "heisenberg-xxz", "couplings": {"J": 1.0, "delta": 0.5}},
        ),
        ids=lambda m: m["name"],
    )
    @pytest.mark.parametrize("beta", (0.2, 1.0, 2.0))
    def test_record_matches_dense_route(self, model, beta):
        # the sweep evaluates the uniform frame per momentum sector; the
        # dense average of rho' and of E is the reference
        cfg = config_from_mapping(base_mapping(model=model, sizes=[2, 3, 4, 5, 6, 8], beta=beta))
        # at beta = 2 the BS value carries the dense-ME floor of criterion 4
        bs_tol = 1e-8 if beta == 2.0 else 1e-10

        def close(value, reference, tol=1e-10):
            # ||ME - 1|| reaches 4.5e6 for XXZ at beta = 2, so the tolerance
            # is relative once a value exceeds 1
            return abs(value - reference) <= tol * max(1.0, abs(reference))

        for record in convergence_sweep(cfg):
            n = record.n
            ctx = _SizeContext(cfg, n)
            averaged = frame_average(perturb(ctx.state, ctx.kick), ctx.translation, n)
            s_m = von_neumann_entropy(averaged).nats
            rel_ent_avg = max(
                0.0, -s_m + beta * ctx.state.energy(averaged.matrix) + ctx.state.log_partition
            )
            e = conjugated_perturbation(ctx.state, ctx.kick).E.matrix
            me = average_translates(e, ctx.translation, n)
            report, bs_value = averaged_E_stats([me], [ctx.state.rho.matrix])
            assert close(record.s_m_rho_prime, s_m)
            assert close(record.rel_ent_avg, rel_ent_avg)
            assert close(record.me_deviation, report.op_norm)
            assert close(record.bs_rel_ent_avg, bs_value, bs_tol)


class TestCsv:
    def test_header_and_field_count(self, tmp_path):
        cfg = config_from_mapping(base_mapping())
        records = convergence_sweep(cfg)
        path = tmp_path / "out.csv"
        emit_csv(records, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        assert len(lines[1].split(",")) == 17

    def test_header_names_the_record_fields_in_order(self):
        # record_to_row writes the fields in declaration order under this header
        names = [f.name for f in dataclasses.fields(ExperimentRecord)]
        assert [h.lower() for h in CSV_HEADER.split(",")] == names

    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], str(path))
        assert path.read_text() == CSV_HEADER + "\n"

    def test_round_trip_numeric_fields(self, tmp_path):
        cfg = config_from_mapping(
            base_mapping(
                sizes=[4, 6],
                averaging=[
                    {"kind": "uniform-spatial"},
                    {"kind": "temporal", "tau": "inf"},
                ],
            )
        )
        records = convergence_sweep(cfg)
        path = tmp_path / "round.csv"
        emit_csv(records, str(path))
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        for line, record in zip(lines[1:], records):
            cells = dict(zip(header, line.split(",")))
            assert cells["model"] == record.model
            assert int(cells["N"]) == record.n
            for name, value in (
                ("S_rho", record.s_rho),
                ("S_M_rho_prime", record.s_m_rho_prime),
                ("rel_ent_avg", record.rel_ent_avg),
                ("bs_rel_ent_avg", record.bs_rel_ent_avg),
                ("beta_W", record.beta_w),
                ("ME_deviation", record.me_deviation),
                ("entropy_density", record.entropy_density),
            ):
                parsed = float(cells[name])
                # 12 significant digits survive the round trip
                assert parsed == pytest.approx(value, rel=1e-11, abs=1e-300)

    def test_infinite_parameter_rendered_as_inf(self, tmp_path):
        cfg = config_from_mapping(
            base_mapping(averaging=[{"kind": "temporal", "tau": "inf"}])
        )
        records = convergence_sweep(cfg)
        path = tmp_path / "inf.csv"
        emit_csv(records, str(path))
        row = path.read_text().splitlines()[1].split(",")
        assert row[6] == "inf"

    def test_uniform_parameter_rendered_empty(self, tmp_path):
        cfg = config_from_mapping(base_mapping())
        path = tmp_path / "uniform.csv"
        emit_csv(convergence_sweep(cfg), str(path))
        row = path.read_text().splitlines()[1].split(",")
        assert row[5] == "uniform-spatial"
        assert row[6] == ""

    def test_unwritable_path_names_path(self, tmp_path):
        cfg = config_from_mapping(base_mapping())
        records = convergence_sweep(cfg)
        bad = tmp_path / "missing-dir" / "out.csv"
        with pytest.raises(OSError, match="missing-dir"):
            emit_csv(records, str(bad))
