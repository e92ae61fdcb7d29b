import csv
import io
import json
import math
import pathlib
import sys
from fractions import Fraction

import numpy as np
import pytest

from cvmet import bch, cli, cvspace, qfi, strategies
from cvmet.cvspace import ProbeSpec, as_dim
from cvmet.qfi import fock_start
from cvmet.strategies import StrategyConfig

ROOT = pathlib.Path(__file__).resolve().parents[1]


def rows_of(text: str):
    body = text.split("\n", 1)[1]
    return list(csv.reader(io.StringIO(body)))


class TestConfigHandling:
    def test_defaults_load(self):
        config = cli.load_config("qfi", None, [])
        assert config["command"] == "qfi"
        assert config["strategy"] == "switch"

    def test_set_override_with_dot_path(self):
        config = cli.load_config("sweep", None, [("sweep.param", "theta2"),
                                                 ("theta1", "0.25")])
        assert config["sweep"]["param"] == "theta2"
        assert config["theta1"] == 0.25

    def test_config_file_merges(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"theta1": 0.2, "sweep": {"values": [3, 5]}}))
        config = cli.load_config("sweep", str(path), [])
        assert config["theta1"] == 0.2
        assert config["sweep"]["values"] == [3, 5]
        assert config["sweep"]["param"] == "n_queries"

    def test_command_conflict_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"command": "ratio"}))
        with pytest.raises(cli.ValidationError):
            cli.load_config("sweep", str(path), [])

    def test_malformed_set_is_validation_failure(self):
        assert cli.main(["qfi", "--set", "nonsense"]) == 1

    @pytest.mark.parametrize("section, partial", [
        ("sweep", {"values": [2, 3]}),
        ("ratio", {"theta1": 0.5, "n_values": [24]}),
        ("optomech", {"g": 0.05, "probe": {"kind": "fock", "n": 1}}),
    ])
    def test_set_section_dot_paths_and_config_file_agree(self, section, partial,
                                                         tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({section: partial}))
        whole = cli.load_config(section, None, [(section, json.dumps(partial))])
        dotted = cli.load_config(section, None, [(f"{section}.{key}", json.dumps(value))
                                                 for key, value in partial.items()])
        from_file = cli.load_config(section, str(path), [])
        assert whole == dotted == from_file
        assert whole[section] == {**cli.DEFAULT_CONFIG[section], **partial}


class TestRendering:
    def test_float_17_significant_digits(self):
        assert cli.format_value(0.1) == "0.10000000000000001"
        assert cli.format_value(34.56) == "34.560000000000002"

    def test_fraction_decimal_when_finite(self):
        assert cli.render_fraction(Fraction(-1, 2)) == "-0.5"
        assert cli.render_fraction(Fraction(3, 8)) == "0.375"
        assert cli.render_fraction(Fraction(2)) == "2"

    def test_fraction_ratio_when_not_finite(self):
        assert cli.render_fraction(Fraction(-1, 3)) == "-1/3"
        assert cli.render_fraction(Fraction(5, 6)) == "5/6"


class TestCommands:
    def test_sweep_columns_frozen(self):
        config = cli.load_config("sweep", None,
                                 [("sweep", '{"param": "n_queries", "values": [2, 3]}')])
        out = cli.cmd_sweep(config)
        assert out.columns == ("N", "m", "theta1", "theta2", "strategy", "F_fd",
                               "F_gen", "F_asym", "delta_theta", "converged",
                               "dim_used")
        assert len(out.rows) == 2

    def test_sweep_determinism_byte_identical_bodies(self):
        config = cli.load_config("sweep", None,
                                 [("sweep", '{"param": "n_queries", "values": [2, 3]}')])
        a = cli.cmd_sweep(config).csv_text().split("\n", 1)[1]
        b = cli.cmd_sweep(config).csv_text().split("\n", 1)[1]
        assert a == b

    def test_sweep_empty_values_exits_1(self, capsys):
        code = cli.main(["sweep", "--set", "sweep.values=[]"])
        assert code == 1
        assert "validation" in capsys.readouterr().err

    def test_sweep_non_increasing_rejected(self):
        with pytest.raises(cli.ValidationError):
            cli.cmd_sweep(cli.load_config(
                "sweep", None, [("sweep", '{"param": "n_queries", "values": [4, 2]}')]))

    def test_qfi_single_row(self, tmp_path):
        out_path = tmp_path / "row.csv"
        code = cli.main(["qfi", "--set", "n_queries=2", "--out", str(out_path)])
        assert code == 0
        rows = rows_of(out_path.read_text())
        header, row = rows[0], rows[1]
        record = dict(zip(header, row))
        assert record["strategy"] == "switch"
        assert record["converged"] == "true"
        assert float(record["F"]) == pytest.approx(8.16, rel=1e-4)

    def test_ratio_shipped_regime_hits_quarter(self):
        config = cli.load_config(
            "ratio", None,
            [("ratio", '{"m_values": [1], "theta1": 0.75, "n_values": [8, 24]}')])
        out = cli.cmd_ratio(config)
        by_n = {row[1]: row for row in out.rows}
        assert by_n[8][2] == ""  # below the large-N gate: flagged, not faked
        assert (1, 8) in out.extras["skipped_below_gate"]
        assert float(by_n[24][2]) == pytest.approx(0.25, rel=0.02)
        assert by_n[24][3] == pytest.approx(0.25)

    def test_ratio_grid_refusals(self, tmp_path, capsys):
        # m = 2 F passes the float range at N = 1e60; the rest of the grid
        # is then not printed, and without it N = 4 stays skipped, N = 24 not
        argv = ["ratio", "--set", "ratio.n_values=[4, 24, 1e60]"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.endswith(
            "overflows the float range at m=2, N=1e+60\n")
        out_path, json_path = tmp_path / "ratio.csv", tmp_path / "ratio.json"
        assert cli.main(["ratio", "--set", "ratio.n_values=[4, 24]",
                         "--out", str(out_path), "--json", str(json_path)]) == 0
        rows = rows_of(out_path.read_text())[1:]
        assert [(row[1], row[2] == "") for row in rows] == [("4", True), ("24", False)] * 3
        assert json.loads(json_path.read_text())["skipped_below_gate"] == [[1, 4], [2, 4], [3, 4]]

    def test_bch_table_exact_coefficients(self, tmp_path):
        out_path = tmp_path / "bch.csv"
        code = cli.main(["bch-table", "--set", 'bch={"m_values": [2], "variants": ["AB"]}',
                         "--out", str(out_path)])
        assert code == 0
        rows = rows_of(out_path.read_text())
        assert rows[0] == ["m", "n", "variant", "power", "coeff_re", "coeff_im"]
        assert ["2", "2", "AB", "1", "0", "-1"] in rows
        assert ["2", "3", "AB", "0", "-1/3", "0"] in rows

    def test_factorization_check_rows(self):
        config = cli.load_config(
            "factorization-check", None,
            [("factorization", '{"cases": [[1, 0.3, 64, "AB"]]}')])
        out = cli.cmd_factorization_check(config)
        assert out.rows[0][0] == 1
        assert out.rows[0][4] < 1e-8

    def test_optomech_emits_fit_summary(self):
        config = cli.load_config(
            "optomech", None, [("optomech.n_values", "[8, 10, 12, 14]")])
        out = cli.cmd_optomech(config)
        assert out.columns == ("N", "delta2_g")
        assert len(out.rows) == 4
        assert "slope" in out.extras["scaling_fit"]

    def test_json_mirror_written(self, tmp_path):
        out_path = tmp_path / "x.csv"
        json_path = tmp_path / "x.json"
        code = cli.main(["qfi", "--set", "n_queries=2",
                         "--out", str(out_path), "--json", str(json_path)])
        assert code == 0
        payload = json.loads(json_path.read_text())
        assert payload["columns"][0] == "strategy"
        assert payload["query_accounting"]["total_queries"] == 4

    def test_sweep_json_names_the_route_of_each_row(self, tmp_path):
        # N = 4 stays in the Fock basis; N = 24 carries <P> past its reach
        json_path = tmp_path / "sweep.json"
        assert cli.main(["sweep", "--set", "m=2", "--set", "theta1=1.2",
                         "--set", "theta2=0.05", "--set", "strategy=coherent_superposition",
                         "--set", "sweep.values=[4, 24]", "--out", str(tmp_path / "sweep.csv"),
                         "--json", str(json_path)]) == 0
        payload = json.loads(json_path.read_text())
        assert payload["columns"] == list(cli.SWEEP_COLUMNS)
        assert payload["methods"] == ["exact_fock", "exact_nodes"]

    def test_version_line_precedes_csv(self, capsys):
        assert cli.main(["bch-table", "--set", 'bch={"m_values": [1], "variants": ["AB"]}']) == 0
        out = capsys.readouterr().out
        assert out.startswith("# cvmet ")


class TestExitCodes:
    def test_envelope_violation_exits_2(self, capsys):
        code = cli.main(["factorization-check", "--set",
                         'factorization={"cases": [[3, 0.3, 32, "AB"]]}'])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "cvmet: outside the numerical envelope: no column of d=32 stays inside")

    def test_factorization_basis_inside_the_guard_band_exits_1(self, capsys):
        # at d <= FACTORIZATION_GUARD every level lies in the guarded boundary
        # band, so no column can qualify at any lambda, lambda = 0 included
        bound = bch.FACTORIZATION_GUARD + 1
        assert cli.main(["factorization-check", "--set",
                         'factorization={"cases": [[1, 0.0, 16, "AB"]]}']) == 1
        assert capsys.readouterr().err == (
            f"cvmet: validation error: invalid config value: expected an integer >= {bound}, "
            "got 16\n")
        assert cli.main(["factorization-check", "--set",
                         'factorization={"cases": [[1, 0.0, 17, "AB"]]}']) == 0

    def test_node_cap_refusal_exits_2_as_a_refusal(self, capsys):
        # nothing here failed to converge: the probe needs more nodes than the cap
        assert cli.main(["optomech", "--set", 'optomech.probe={"kind": "fock", "n": 600}']) == 2
        err = capsys.readouterr().err
        assert err == ("cvmet: outside the numerical envelope: fock probe needs 602 "
                       "Gauss-Hermite nodes, beyond 512\n")

    @pytest.mark.parametrize("argv", [
        ["qfi", "--set", "nu=0"],
        ["sweep", "--set", 'sweep={"param": "m", "values": [0, 1]}'],
        ["optomech", "--set", "optomech.mass=-1"],
        ["optomech", "--set", "optomech.mirror_dim=256"],
        ["ratio", "--set", "ratio.m_values=[0]"],
        ["qfi", "--set", "theta1=abc"],
        ["qfi", "--set", 'probe={"kind": "fock"}'],
        ["qfi", "--set", "n_queries=2.5"],
        ["qfi", "--set", "estimate=theta3"],
        ["qfi", "--set", "probe=3"],
        ["qfi", "--set", "n_querys=3"],
        ["qfi", "--set", 'probe={"kind": "coherent", "alpha": 1}'],
        ["optomech", "--set", "optomech.cavity_dim=3"],
        ["bch-table", "--set", 'bch.variants=["XY"]'],
        ["bch-table", "--set", 'bch.variants="AB"'],
        ["factorization-check", "--set", 'factorization={"cases": [[2, 0.1, 64, "XY"]]}'],
        ["optomech", "--set", "optomech.n_values=[8, 10]"],
        ["optomech", "--set", "optomech.n_values=[10, 8, 8, 12]"],
        ["qfi", "--set", "theta1=NaN"],
        ["qfi", "--set", "theta2=-Infinity"],
        ["sweep", "--set", 'sweep={"param": "theta1", "values": [0.1, NaN]}'],
        ["qfi", "--set", 'probe={"kind": "coherent", "alpha_re": NaN}'],
        ["qfi", "--set", 'probe={"kind": "coherent", "alpha_im": Infinity}'],
        ["qfi", "--set", 'probe={"kind": "squeezed_vacuum", "r": NaN}'],
        ["ratio", "--set", "ratio.theta1=NaN"],
        ["factorization-check", "--set", 'factorization={"cases": [[1, NaN, 64, "AB"]]}'],
        ["optomech", "--set", "optomech.g=NaN"],
        ["optomech", "--set", "optomech.mass=Infinity"],
        ["optomech", "--set", "optomech.omega_c=NaN"],
        ["optomech", "--set", "optomech.tau=Infinity"],
        ["qfi", "--set", "strategy=composite", "--set", "m=2"],
        ["sweep", "--set", "strategy=composite",
         "--set", 'sweep={"param": "m", "values": [1, 2]}'],
        ["factorization-check", "--set", 'factorization={"cases": [[1, 0.01, 1, "AB"]]}'],
        ["qfi", "--set", "n_queries=true"],
        ["qfi", "--set", "theta2=false"],
        ["qfi", "--set", 'probe={"kind": "fock", "n": true}'],
        ["factorization-check", "--set", 'factorization={"cases": [[1, true, 64, "AB"]]}'],
    ], ids=lambda argv: " ".join(argv))
    def test_bad_config_value_exits_1(self, argv, capsys):
        assert cli.main(argv) == 1
        assert "validation" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["optomech.tau=1.2", "optomech.mass=0.05"])
    def test_large_mirror_position_shift_runs(self, setting, tmp_path):
        # g (N tau)^2 / 2m outgrows what 64 momentum nodes resolve within the
        # default sweep; the closed-form overlap does not alias there
        out_path = tmp_path / "optomech.csv"
        with pytest.warns(UserWarning, match="far from a power law"):
            assert cli.main(["optomech", "--set", setting, "--out", str(out_path)]) == 0
        _, *rows = rows_of(out_path.read_text())
        assert len(rows) == len(cli.DEFAULT_CONFIG["optomech"]["n_values"])
        assert all(0 < float(d2) < math.inf for _, d2 in rows)

    def test_underflowing_slope_exits_2(self, capsys):
        # at tau = 2 the overlap falls as e^{-(gT^2/2m)^2/4}: from N = 18 on
        # the square of d<X_cav>/dg underflows, so no finite delta^2 g exists
        assert cli.main(["optomech", "--set", "optomech.tau=2"]) == 2
        err = capsys.readouterr().err
        assert "unidentifiable" in err
        assert "d<X_cav>/dg underflows" in err

    def test_fock_mirror_beyond_the_node_cap_exits_2(self, capsys):
        assert cli.main(["optomech", "--set", 'optomech.probe={"kind": "fock", "n": 600}']) == 2
        assert "Gauss-Hermite nodes" in capsys.readouterr().err

    def test_vanishing_step_time_runs(self, tmp_path):
        # the slope is tiny but exact: delta^2 g ~ 1e35 and falls as N^-4
        out_path = tmp_path / "optomech.csv"
        json_path = tmp_path / "optomech.json"
        assert cli.main(["optomech", "--set", "optomech.tau=1e-9", "--out", str(out_path),
                         "--json", str(json_path)]) == 0
        _, *rows = rows_of(out_path.read_text())
        assert all(1e33 < float(d2) < 1e36 for _, d2 in rows)
        fit = json.loads(json_path.read_text())["scaling_fit"]
        assert float(fit["slope"]) == pytest.approx(-4.0, abs=1e-9)

    @pytest.mark.parametrize("probe", ['{"kind": "fock", "n": 1024}'])
    def test_truncation_leakage_exits_2(self, probe, capsys):
        # no basis of the doubling loop, up to d = 1024, holds this probe, and
        # its momentum-node rule needs m + 1 + 1024 nodes, beyond NODE_CAP
        assert cli.main(["qfi", "--set", f"probe={probe}"]) == 2
        assert "Gauss-Hermite nodes" in capsys.readouterr().err

    @pytest.mark.parametrize("probe", ['{"kind": "fock", "n": 70}',
                                       '{"kind": "coherent", "alpha_re": 6}'])
    def test_probe_leaking_at_d64_starts_the_loop_where_it_fits(self, probe, tmp_path):
        out_path = tmp_path / "row.csv"
        assert cli.main(["qfi", "--set", f"probe={probe}", "--out", str(out_path)]) == 0
        header, row = rows_of(out_path.read_text())
        record = dict(zip(header, row))
        assert record["converged"] == "true"
        assert record["dim_used"] == "256"
        assert float(record["F"]) == pytest.approx(float(record["F_gen"]), rel=1e-9)

    @pytest.mark.parametrize("probe", ['{"kind": "coherent", "alpha_re": 0.4, "alpha_im": 0.3}',
                                       '{"kind": "squeezed_vacuum", "r": 0.3}',
                                       '{"kind": "fock", "n": 1}'])
    def test_optomech_mirror_probes_run_on_the_default_sweep(self, probe, tmp_path):
        out_path = tmp_path / "optomech.csv"
        assert cli.main(["optomech", "--set", f"optomech.probe={probe}",
                         "--out", str(out_path)]) == 0
        header, *rows = rows_of(out_path.read_text())
        assert header == ["N", "delta2_g"]
        assert [int(n) for n, _ in rows] == list(cli.DEFAULT_CONFIG["optomech"]["n_values"])
        assert all(float(d2) > 0 for _, d2 in rows)

    @pytest.mark.parametrize("probe", [[], ["--set", 'optomech.probe={"kind": "coherent", '
                                                   '"alpha_re": 0.3, "alpha_im": 0.2}']],
                             ids=["vacuum", "coherent"])
    def test_unidentifiable_coupling_exits_2_with_its_reason(self, probe, capsys):
        # the homodyne signal does not depend on g at this operating point, so
        # g cannot be estimated there: an input error of the physics, not a bug.
        # At g = 0 the phase omega_c T = 2 pi N leaves d<X_cav>/dg exactly 0,
        # and only the rounding of that angle (~1e-14 of |o'|) in floating point
        assert cli.main(["optomech", "--set", "optomech.g=0"] + probe) == 2
        err = capsys.readouterr().err
        assert "unidentifiable" in err
        assert "d<X_cav>/dg vanished" in err

    def test_imprecise_readout_exits_2_with_its_bound(self, capsys):
        # just above the vanished bound the slope Re(o') still carries the
        # phase rounding, 3e-2 of it at g = 1e-12 with this mirror, so
        # delta^2 g would print off by about that share
        mirror = '{"kind": "coherent", "alpha_re": 0.3, "alpha_im": 0.2}'
        assert cli.main(["optomech", "--set", "optomech.g=1e-12",
                         "--set", f"optomech.probe={mirror}"]) == 2
        err = capsys.readouterr().err
        assert "unidentifiable" in err
        assert "d<X_cav>/dg is imprecise" in err
        assert "limit 1e-06" in err

    def test_set_section_runs_like_dot_path(self, capsys):
        assert cli.main(["sweep", "--set", 'sweep={"values": [2, 3]}']) == 0
        whole = capsys.readouterr().out
        assert cli.main(["sweep", "--set", "sweep.values=[2, 3]"]) == 0
        assert capsys.readouterr().out == whole

    def test_internal_contract_violation_exits_3(self, monkeypatch, capsys):
        def broken(config):
            raise cli.ContractViolationError("norm drift")

        monkeypatch.setitem(cli.COMMAND_TABLE, "qfi", broken)
        assert cli.main(["qfi"]) == 3
        assert "contract" in capsys.readouterr().err


CS_M3_N24 = ["qfi", "--set", "m=3", "--set", "n_queries=24", "--set", "theta1=1.2",
             "--set", "theta2=0.05", "--set", "strategy=coherent_superposition"]


def row_config(argv) -> StrategyConfig:
    """The StrategyConfig a `cvmet qfi` command line runs."""
    overrides = [tuple(item.split("=", 1)) for item in argv[2::2]]
    return cli._estimate_settings(cli.load_config("qfi", None, overrides))[0]


def qfi_record(argv, tmp_path) -> dict:
    out_path = tmp_path / "row.csv"
    assert cli.main(argv + ["--out", str(out_path)]) == 0
    header, row = rows_of(out_path.read_text())
    return dict(zip(header, row))


class TestNodeRoute:
    def test_m3_n24_row_matches_the_exact_rational_value(self, tmp_path, exact_theta2_qfi):
        record = qfi_record(CS_M3_N24, tmp_path)
        exact = exact_theta2_qfi(row_config(CS_M3_N24))
        assert float(exact) == pytest.approx(2.1124582336e13, rel=1e-10)
        assert (record["method"], record["converged"]) == ("exact_nodes", "true")
        assert record["dim_used"] == "4"   # m + 1 nodes on the vacuum
        assert abs(float(record["F"]) - float(exact)) <= 1e-10 * float(exact)
        assert abs(float(record["F_gen"]) - float(exact)) <= 1e-9 * float(exact)

    @pytest.mark.parametrize("strategy", ["switch", "coherent_superposition"])
    def test_m5_n200_row_converges(self, strategy, tmp_path):
        record = qfi_record(["qfi", "--set", "m=5", "--set", "n_queries=200", "--set",
                             "theta1=1.0", "--set", f"strategy={strategy}"], tmp_path)
        assert (record["method"], record["converged"]) == ("exact_nodes", "true")
        assert float(record["F"]) == pytest.approx(float(record["F_gen"]), rel=1e-10)
        # the node derivative is exact: no step to report
        assert record["step_used"] == ""

    def test_node_row_runs_no_eigendecomposition(self, monkeypatch, tmp_path):
        calls = []

        def counted(generator):
            calls.append(generator.d)
            return real(generator)

        real = cvspace.spectrum
        monkeypatch.setattr(cvspace, "spectrum", counted)
        monkeypatch.setattr(strategies, "spectrum", counted)
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append("eigh"))
        qfi_record(CS_M3_N24, tmp_path)
        assert calls == []

    @pytest.mark.parametrize("probe", ['{"kind": "squeezed_vacuum", "r": 2.5}',
                                       '{"kind": "coherent", "alpha_re": 40}'])
    def test_probe_no_basis_holds_runs_on_nodes(self, probe, tmp_path):
        # both leak past d = 1024; the basis-free node route takes the row
        record = qfi_record(["qfi", "--set", f"probe={probe}"], tmp_path)
        assert (record["method"], record["converged"]) == ("exact_nodes", "true")
        assert float(record["F"]) == pytest.approx(float(record["F_gen"]), rel=1e-6)

    def test_theta1_beyond_reach_exits_2_with_its_reason(self, capsys):
        assert cli.main(CS_M3_N24 + ["--set", "estimate=theta1"]) == 2
        assert "covers theta2 only" in capsys.readouterr().err

    def test_fock_450_row_fits_its_node_grid(self, tmp_path, exact_theta2_qfi):
        # m + 1 + 450 = 453 nodes, within NODE_CAP = 512
        argv = ["qfi", "--set", "m=2", "--set", "n_queries=40", "--set", "theta1=1.2",
                "--set", 'probe={"kind": "fock", "n": 450}']
        record = qfi_record(argv, tmp_path)
        exact = float(exact_theta2_qfi(row_config(argv)))
        assert (record["method"], record["converged"]) == ("exact_nodes", "true")
        assert record["dim_used"] == "453"
        assert float(record["F"]) == pytest.approx(exact, rel=1e-12)
        assert float(record["F_gen"]) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("m, probe, nodes", [
        (3, '{"kind": "fock", "n": 510}', 514),
        (2, '{"kind": "fock", "n": 510}', 513),
        (600, '{"kind": "vacuum"}', 601),
    ], ids=["fock510-m3", "fock510-m2", "vacuum-m600"])
    def test_row_no_route_holds_exits_2_with_its_node_count(self, m, probe, nodes, capsys):
        # <P> - theta1 2N = -57.6 lies beyond the Fock reach, and the node
        # grid m + 1 + n passes NODE_CAP = 512
        argv = CS_M3_N24 + ["--set", f"m={m}", "--set", f"probe={probe}"]
        assert cli.main(argv) == 2
        assert f"needs {nodes} Gauss-Hermite nodes" in capsys.readouterr().err

    def test_default_coherent_1e6_row_is_exact(self, tmp_path, exact_theta2_qfi):
        # <P> = 1.4e6, where <Phi^2> and <Phi>^2 agree to 11 digits unless
        # the generator is centred first
        argv = ["qfi", "--set", "m=2",
                "--set", 'probe={"kind": "coherent", "alpha_re": 1e6, "alpha_im": 1e6}']
        record = qfi_record(argv, tmp_path)
        exact = exact_theta2_qfi(row_config(argv))
        assert float(exact) == pytest.approx(2.7647992179969e14, rel=1e-13)
        assert (record["method"], record["converged"]) == ("exact_nodes", "true")
        assert float(record["F"]) == pytest.approx(float(exact), rel=1e-9)
        assert float(record["F_gen"]) == pytest.approx(float(exact), rel=1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv", [
        ["qfi", "--set", "m=5", "--set", "n_queries=1e60", "--set", "theta1=1.2"],
        ["qfi", "--set", "m=5", "--set", "n_queries=1e60", "--set", "theta1=1.2",
         "--set", "strategy=coherent_superposition"],
        ["qfi", "--set", "m=5", "--set", 'probe={"kind": "squeezed_vacuum", "r": 200}'],
        ["ratio", "--set", "ratio.n_values=[1e60]"],
    ], ids=["switch", "coherent_superposition", "squeezed", "ratio"])
    def test_overflowing_rows_exit_2_naming_the_overflow(self, argv, capsys):
        # F itself passes the float range: no row can be printed
        assert cli.main(argv) == 2
        assert "overflows the float range" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv", [
        ["qfi", "--set", "m=5", "--set", "n_queries=1e60", "--set", "theta1=1e-50"],
        ["qfi", "--set", "n_queries=1e80", "--set", "theta1=1e-78"],
    ], ids=["m5", "m1"])
    def test_huge_n_row_is_exact_where_f_fits(self, argv, tmp_path, exact_theta2_qfi):
        # F fits a float, and so do both cross-check columns, although N^(m+1)
        # or N^4 alone would pass the float range on the way
        record = qfi_record(argv, tmp_path)
        cfg = row_config(argv)
        exact = float(exact_theta2_qfi(cfg))
        theta1, n = Fraction(cfg.theta1), cfg.n_queries
        asymptote = (theta1 ** 2 * n ** 4 + 2 * n ** 2 if cfg.m == 1
                     else theta1 ** (2 * cfg.m) * n ** (2 * (cfg.m + 1)))  # switch, vacuum
        assert (record["method"], record["converged"]) == ("exact_nodes", "true")
        assert float(record["F"]) == pytest.approx(exact, rel=1e-12)
        assert float(record["F_gen"]) == pytest.approx(exact, rel=1e-12)
        assert float(record["F_asym"]) == pytest.approx(float(asymptote), rel=1e-12)

    def test_huge_theta2_row_prints_its_f(self, tmp_path, exact_theta2_qfi):
        # theta2 Phi_b passes the float range, but F does not depend on theta2
        argv = ["qfi", "--set", "m=5", "--set", "n_queries=1e3", "--set", "theta1=3",
                "--set", "theta2=1e300"]
        record = qfi_record(argv, tmp_path)
        exact = float(exact_theta2_qfi(row_config(argv)))
        assert (record["method"], record["converged"]) == ("exact_nodes", "true")
        assert float(record["F"]) == pytest.approx(exact, rel=1e-12)
        assert float(record["F_gen"]) == pytest.approx(exact, rel=1e-12)

    def test_reach_rule_keeps_recorded_rows_on_the_fock_route(self):
        """Every benchmark case with a recorded dim_used stays a Fock row, at
        its nominal thetas and at both ends of the jitter band; the m = 3,
        N = 24 case does not.  The default CSV bodies are those the Fock-only
        route gave before the node route existed."""
        sys.path.insert(0, str(ROOT / "perfbench"))
        try:
            import workloads
        finally:
            sys.path.remove(str(ROOT / "perfbench"))
        refs = json.loads((ROOT / "perfbench" / "references.json").read_text())
        cases = [(f"m={m},N={n}", workloads.CS, m, n, t1, t2)
                 for m, n, t1, t2 in workloads.QFI_CASES]
        recorded = set(refs["qfi_dim_used"])
        for key, dims in refs["sweep_dim_used"].items():
            strategy, m = key.split(",m=")
            cases += [(key, strategy, int(m), n, workloads.SWEEP_THETA, workloads.SWEEP_THETA)
                      for n in workloads.SWEEP_N[:len(dims)]]
            recorded.add(key)
        checked = set()
        for key, strategy, m, n, theta1, theta2 in cases:
            for jitter in (1 - workloads.JITTER, 1.0, 1 + workloads.JITTER):
                cfg = StrategyConfig(theta1=theta1 * jitter, theta2=theta2, n_queries=n,
                                     m=m, strategy=strategy, probe=ProbeSpec.vacuum())
                assert (fock_start(cfg) is not None) == (key != "m=3,N=24"), (key, n, jitter)
            checked.add(key)
        assert recorded <= checked

        bodies = json.loads((ROOT / "tests" / "data" / "default_csv_bodies.json").read_text())
        for command, body in bodies.items():
            text = cli.COMMAND_TABLE[command](cli.load_config(command, None, [])).csv_text()
            assert text.split("\n", 1)[1] == body, command


class TestNSweep:
    @staticmethod
    def body(overrides) -> list:
        config = cli.load_config("sweep", None, overrides)
        return cli.COMMAND_TABLE["sweep"](config).csv_text().splitlines()[2:]

    @pytest.mark.parametrize("settings", [
        ("strategy=coherent_superposition", "m=1"),
        ("strategy=coherent_superposition", "m=2"),
        ("strategy=composite",),
        ("strategy=coherent_superposition", "estimate=theta1"),
        ("strategy=coherent_superposition",
         'probe={"kind": "coherent", "alpha_re": 0.5, "alpha_im": -0.3}'),
    ], ids=["cs-m1", "cs-m2", "composite", "theta1", "coherent-probe"])
    def test_n_sweep_is_byte_identical_row_by_row(self, settings, cold_spectra):
        # the rows of one sweep share cached branch spectra; each row run
        # alone on cold caches gives the same bytes
        overrides = [tuple(setting.split("=", 1)) for setting in settings]
        swept = self.body(overrides + [("sweep.values", "[2, 3, 5]")])
        alone = []
        for n in (2, 3, 5):
            cold_spectra()
            alone += self.body(overrides + [("sweep.values", f"[{n}]")])
        assert len(swept) == 3
        assert swept == alone

    def test_n_sweep_decomposes_each_generator_once(self, monkeypatch, capsys, cold_spectra):
        decomposed, generators, builds = [], set(), []
        spectrum, output_derivative = cvspace.spectrum, qfi.output_derivative

        def counted(gen):
            decomposed.append(gen.d)
            return spectrum(gen)

        def recorded(cfg, dim, which):
            generators.add((as_dim(dim).d, cfg.theta1, cfg.theta2))
            builds.append(cfg.n_queries)
            return output_derivative(cfg, dim, which)

        monkeypatch.setattr(cvspace, "spectrum", counted)
        monkeypatch.setattr(strategies, "spectrum", counted)
        monkeypatch.setattr(qfi, "output_derivative", recorded)
        assert cli.main(["sweep", "--set", "strategy=coherent_superposition", "--set", "m=2",
                         "--set", "sweep.values=[2, 3, 5, 6]"]) == 0
        assert set(builds) == {2, 3, 5, 6}
        # one + branch generator per coupling; the - branch is its mirror
        assert len(decomposed) == len(generators) < len(builds)
