import csv
import io
import json
import subprocess
import sys

import pytest

from mocktheta.cli import main, parse_complex
from mocktheta.suites import SUITES


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "mocktheta", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestParsing:
    @pytest.mark.parametrize(
        "text,want",
        [("i", 1j), ("-i", -1j), ("0.5", 0.5), ("1+2i", 1 + 2j),
         ("-0.3-0.8i", -0.3 - 0.8j), ("0+1i", 1j)],
    )
    def test_complex(self, text, want):
        assert parse_complex(text) == want

    @pytest.mark.parametrize("args", [
        ("chartable", "--case", "sl21", "--k", "abc"),
        ("eval", "phi", "--tau", "1+x"),
        ("chartable", "--case", "sl21", "--k", "1", "--params", "a"),
        ("table", "omega", "--case", "sl", "--params", "1,a"),
        ("smatrix", "--case", "osp_level1", "--params", "a"),
    ])
    def test_parse_error_exits_2_with_its_message(self, args, capsys):
        assert main(list(args)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot parse") and captured.out == ""

    @pytest.mark.parametrize("args,message", [
        (("eval", "phi", "--tau", "i", "--z1", "0.3", "--m", "0"), "degree m must be positive"),
        (("eval", "theta-jm", "--tau", "i", "--j", "1.5"), "invalid literal for int()"),
        (("eval", "theta-ab", "--tau", "i", "--a", "2"), "theta_ab indices must be 0 or 1"),
        (("eval", "r-jm-signed", "--tau", "i", "--z", "0.1", "--m", "1/3"),
         "m must lie in (1/2)Z_{>0}"),
        (("verify", "thm1.1a", "--m", "0"), "degree m must be positive"),
        (("verify", "thm6.14", "--n", "0"), "level 0 is not -pqn/(p+q) for integer n"),
        (("verify", "thm6.14", "--p", "2", "--q", "4"), "D(2,1;a) needs coprime positive p, q"),
    ])
    def test_configuration_error_exits_2_with_its_message(self, args, message, capsys):
        assert main(list(args)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}") and captured.out == ""

    @pytest.mark.parametrize("command", [("verify", "lem2.3")], ids=lambda c: c[0])
    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "abc", "inf"])
    def test_tol_must_be_positive(self, command, tol, capsys):
        assert main([*command, "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --tol must be a positive number, got {tol!r}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("args", [
        ("eval", "phi", "--m=1/0", "--tau=0.1+1.1i", "--z1=0.3+0.05i"),
        ("table", "omega", "--case", "sl21", "--k=1/0"),
        ("chartable", "--case", "sl21", "--k=1/0"),
        ("smatrix", "--case", "sl21", "--k=1/0"),
    ], ids=lambda a: a[0])
    def test_zero_denominator_exits_2(self, args, capsys):
        assert main(list(args)) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: cannot parse rational '1/0'\n" and captured.out == ""

    def test_eval_takes_no_tol(self, capsys):
        # every series truncates at core.ABS_TOL
        assert main(["eval", "phi", "--tau", "i", "--z1", "0.3", "--tol", "1e-15"]) == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --tol 1e-15" in captured.err and captured.out == ""


class TestEval:
    def test_phi_matches_library(self):
        rc, out, _ = run_cli(
            "eval", "phi", "--m", "1", "--s", "0", "--tau", "i",
            "--z1", "0.23", "--z2", "0.41",
        )
        assert rc == 0
        doc = json.loads(out)
        from mocktheta.mock import MockIndex, phi

        want = phi(MockIndex(1, 0), 1j, 0.23, 0.41)
        assert abs(complex(doc["value"]["re"], doc["value"]["im"]) - want.value) < 1e-15
        assert doc["err_bound"] <= 1e-12

    def test_eta(self):
        rc, out, _ = run_cli("eval", "eta", "--tau", "2i")
        assert rc == 0 and json.loads(out)["value"]["re"] > 0

    def test_low_tau_rejected(self):
        rc, _, err = run_cli("eval", "eta", "--tau", "0.01i")
        assert rc == 2

    @pytest.mark.parametrize("function", ["eta", "phi", "r-jm"])
    def test_tau_below_the_floor_exits_2_with_one_error_line(self, function, capsys):
        # the command line and the evaluators share one floor check and its message
        assert main(["eval", function, "--tau=0.3+0.01i"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: Im tau = 0.01 below policy minimum 0.05\n"
        assert captured.out == ""

    @pytest.mark.parametrize("function", ["theta-jm-signed", "r-jm-signed"])
    def test_signed_default_sign_is_plus(self, function, capsys):
        # the default, unsigned, is the + series, as mock.SIGNS reads it
        argv = ["eval", function, "--j=1/2", "--m=1/2", "--tau=0.1+1i", "--z=0.1"]
        outs = {}
        for sign in (None, "unsigned", "plus", "minus"):
            assert main(argv + ([f"--sign={sign}"] if sign else [])) == 0
            outs[sign] = capsys.readouterr().out
        assert outs[None] == outs["unsigned"] == outs["plus"] != outs["minus"]

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_sign_has_one_spelling(self, sign, capsys):
        assert main(["eval", "phi", "--tau", "i", "--z1", "0.3", f"--sign={sign}"]) == 2
        captured = capsys.readouterr()
        assert "argument --sign: invalid choice" in captured.err and captured.out == ""

    @pytest.mark.parametrize("function,unread", [
        ("phi", "--j=1"), ("phi-tilde", "--z=0.1"), ("phi-add", "--a=1"),
        ("theta-jm", "--s=1"), ("theta-jm-signed", "--b=1"), ("theta-ab", "--j=1"),
        ("eta", "--z1=3"), ("r-jm", "--sign=plus"), ("r-jm-signed", "--z2=0.2"),
    ])
    def test_unread_option_exits_2_naming_it(self, function, unread, capsys):
        # the option is set to a value the function would accept if it read it
        assert main(["eval", function, "--tau=0.1+1.1i", unread]) == 2
        captured = capsys.readouterr()
        option = unread.split("=")[0]
        assert captured.err == f"error: eval {function} takes no {option}\n"
        assert captured.out == ""

    def test_every_unread_option_is_named(self, capsys):
        assert main(["eval", "eta", "--tau=1i", "--m=5", "--sign=minus", "--z1=3"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: eval eta takes no --m, --sign, --z1\n"
        assert captured.out == ""

    def test_writes_json_only(self, capsys):
        # refused before tau is checked: a tau below the floor is not reached
        assert main(["eval", "eta", "--tau=0.01i", "--output", "csv"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: eval writes JSON only\n" and captured.out == ""

    def test_unknown_function(self):
        rc, _, err = run_cli("eval", "zeta", "--tau", "i")
        assert rc == 2 and "unknown function" in err

    def test_pole_reported(self):
        rc, out, _ = run_cli(
            "eval", "phi", "--m", "1", "--s", "0", "--tau", "i",
            "--z1", "0", "--z2", "0.41",
        )
        assert rc == 1 and "PoleAtZ1" in out


class TestVerify:
    def test_pass_exit_zero(self):
        rc, out, err = run_cli("verify", "cor1.2")
        assert rc == 0
        doc = json.loads(out)
        assert doc["pass"] and doc["anchor"] == "cor1.2"

    def test_full_writes_json_only(self, capsys, monkeypatch):
        # refused before any suite runs; without --full each report is one flat row
        import mocktheta.suites

        def never(*args, **kwargs):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(mocktheta.suites, "run_suite", never)
        assert main(["verify", "theta-quasi", "--full", "--output", "csv"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: verify --full writes JSON only\n" and captured.out == ""

    def test_all_as_csv(self):
        # the header is every report's keys: eq1.19's report has one the others lack
        rc, out, err = run_cli("verify", "all", "--output", "csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rc == 0 and len(rows) == len(SUITES) == 40
        assert {row["suite"] for row in rows} == set(SUITES)
        assert [r["suite"] for r in rows if r["single_product_residuals"]] == ["eq1.19"]

    def test_unknown_suite_exit_two(self):
        rc, _, err = run_cli("verify", "does-not-exist")
        assert rc == 2 and "valid ids" in err

    def test_catalog_contains_required_ids(self):
        rc, out, _ = run_cli("list-suites")
        ids = {row["suite"] for row in json.loads(out)}
        assert {"eq1.20", "prop3.3b", "osp-level1-S"} <= ids

    def test_catalog_ids_unique_and_dispatchable(self):
        rc, out, _ = run_cli("list-suites")
        rows = json.loads(out)
        ids = [row["suite"] for row in rows]
        assert len(ids) == len(set(ids))
        assert set(ids) == set(SUITES)

    @pytest.mark.parametrize("argv", [
        ("verify", "theta-quasi", "--seed", "-1"),
        ("verify", "theta-quasi", "--seed", "4294967296"),
        ("verify", "all", "--seed", "-1"),
        ("chartable", "--case", "sl21", "--k", "1", "--seed", "-1"),
        ("chartable", "--case", "sl21", "--k", "1", "--seed", "4294967296"),
    ])
    def test_seed_outside_the_stream_range_exits_2(self, argv, capsys):
        assert main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --seed must be in [0, 2**32 - 1], got {argv[-1]}\n"
        assert captured.out == ""

    def test_seed_range_ends_are_accepted(self, capsys):
        for seed in ("0", "4294967295"):
            assert main(["verify", "theta-quasi", "--seed", seed]) == 0
            assert json.loads(capsys.readouterr().out)["seed"] == int(seed)

    @pytest.mark.parametrize("argv,unused", [
        (("theta-quasi", "--p", "3", "--n", "2"), "--p, --n"),
        (("thm6.14", "--m", "1"), "--m"),
        (("cor1.2", "--q", "1"), "--q"),
        (("thm1.1a", "--m", "1", "--p", "2"), "--p"),
        (("d21a-omega", "--seed", "7"), "--seed"),
    ])
    def test_option_no_selected_suite_takes_exits_2(self, argv, unused, capsys, monkeypatch):
        import mocktheta.suites

        ran = []
        monkeypatch.setattr(mocktheta.suites, "run_suite", lambda *a, **kw: ran.append(a))
        assert main(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: no selected suite takes {unused}\n"
        assert captured.out == "" and ran == []

    @pytest.mark.parametrize("argv,taken", [
        (("--m", "1"), {"thm1.1a": {"m": 1}}),
        (("--p", "2", "--q", "1"), {"thm6.14": {"p": 2, "q": 1}}),
    ])
    def test_all_passes_an_option_to_the_suites_that_take_it(self, argv, taken, capsys,
                                                             monkeypatch):
        import mocktheta.suites

        calls = {}

        def fake(sid, seed=None, tol=None, **kwargs):
            calls[sid] = kwargs
            return {"pass": True, "anchor": "", "max_residual": 0.0, "tol": 1.0}

        monkeypatch.setattr(mocktheta.suites, "run_suite", fake)
        assert main(["verify", "all", *argv]) == 0
        capsys.readouterr()
        assert set(calls) == set(SUITES)
        assert {sid: kw for sid, kw in calls.items() if kw} == taken

    def test_seed_reaches_only_a_suite_that_takes_one(self):
        # d21a-omega draws no points; verify all --seed 7 still runs it
        from mocktheta.suites import run_suite

        assert run_suite("d21a-omega", seed=7) == run_suite("d21a-omega")
        assert "seed" not in run_suite("d21a-omega", seed=7)

    def test_byte_stability(self):
        rc1, out1, _ = run_cli("verify", "theta-quasi", "--seed", "5")
        rc2, out2, _ = run_cli("verify", "theta-quasi", "--seed", "5")
        assert out1 == out2


class TestTables:
    def test_omega_table(self):
        rc, out, _ = run_cli("table", "omega", "--case", "sl21", "--k", "2")
        assert rc == 0
        rows = json.loads(out)
        assert [r["labels"] for r in rows] == ["0", "1", "2"]
        assert all(r["integrable"] for r in rows)

    def test_smatrix_csv(self):
        rc, out, err = run_cli("smatrix", "--case", "d21a", "--params", "1,1", "--output", "csv")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "col,im,re,row"
        assert len(lines) == 1 + 16
        assert "unitarity_defect" in err

    def test_smatrix_json(self):
        rc, out, _ = run_cli("smatrix", "--case", "osp42", "--k", "1")
        doc = json.loads(out)
        assert doc["unitarity_defect"] < 1e-12
        assert len(doc["labels"]) == 4

    def test_smatrix_params_reach_the_span(self, capsys):
        from fractions import Fraction

        from mocktheta.smatrix import smatrix

        assert main(["smatrix", "--case", "d21a", "--params", "1,2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        want = smatrix("d21a", Fraction(-2, 3), (1, 2))
        assert doc["k"] == "-2/3" and doc["labels"] == list(want.labels)
        assert len(doc["labels"]) == 6
        got = [[complex(v["re"], v["im"]) for v in row] for row in doc["entries"]]
        assert got == [list(row) for row in want.entries]

    @pytest.mark.parametrize("args", [
        ("--case", "osp_level1", "--k", "2"),
        ("--case", "osp_level1", "--params", "3,3"),
        ("--case", "osp_level1", "--params", "3"),
        ("--case", "osp32_sub", "--k=-3/4", "--params", "1"),
        ("--case", "osp42", "--k", "1", "--params", "2"),  # osp42's own parameters are 1
        ("--case", "sl21", "--k", "1", "--params", "1,2"),
        ("--case", "d21a", "--params", "2"),
        ("--case", "d21a", "--k", "0"),
        # p = 0 or q = 0 is the family's to refuse
        ("--case", "d21a", "--params", "0,2"),
        ("--case", "d21a", "--params", "1,0"),
        ("--case", "d21a", "--params", "0,1"),
        ("--case", "sl21"),
        ("--case", "sl32", "--k", "1"),
    ])
    def test_smatrix_refusal_exits_2(self, args, capsys):
        assert main(["smatrix", *args]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""

    @pytest.mark.parametrize("argv", [
        ("table", "omega", "--case", "sl21", "--k", "1", "--p", "3"),
        ("table", "preset", "--case", "d21a", "--q", "2"),
        ("chartable", "--case", "d21a", "--k=-1/2", "--labels", "0,1", "--params", "1,2",
         "--p", "1", "--points", "1"),
        ("smatrix", "--case", "osp42", "--k", "1", "--p", "2"),
        ("smatrix", "--case", "d21a", "--params", "1,2", "--k=-2/3", "--n", "5"),
        ("smatrix", "--case", "osp_level1", "--n", "3"),
        # no prefix stands for a longer option
        ("smatrix", "--case", "d21a", "--p", "1,2"),
        ("smatrix", "--case", "d21a", "--para", "1,2"),
    ])
    def test_removed_parameter_flags_exit_2(self, argv, capsys):
        assert main(list(argv)) == 2
        captured = capsys.readouterr()
        assert "error: unrecognized arguments: --" in captured.err and captured.out == ""

    def test_preset_writes_json_only(self, capsys):
        assert main(["table", "preset", "--case", "sl21", "--output", "csv"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: table preset writes JSON only\n" and captured.out == ""

    def test_preset_refuses_a_level(self, capsys):
        assert main(["table", "preset", "--case", "sl21", "--k", "7"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: table preset takes no --k\n" and captured.out == ""

    def test_family_flags_only_on_verify(self):
        from mocktheta.cli import build_parser

        (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
        declared = {name: {o for a in parser._actions for o in a.option_strings}
                    for name, parser in sub.choices.items()}
        assert {name for name, opts in declared.items() if opts & {"--p", "--q", "--n"}} == {
            "verify"}

    @pytest.mark.parametrize("table,case,params", [
        ("omega", "sl", "2"), ("preset", "d21a", "1"), ("preset", "f4", "1"),
    ])
    def test_table_wrong_parameter_count_exits_2(self, table, case, params, capsys):
        assert main(["table", table, "--case", case, "--params", params]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: case ") and captured.out == ""


class TestMainEntry:
    def test_in_process_call(self, capsys):
        rc = main(["list-suites"])
        assert rc == 0
        assert "eq1.20" in capsys.readouterr().out


class TestCharTable:
    def test_rows_and_schema(self):
        rc, out, _ = run_cli(
            "chartable", "--case", "sl21", "--k", "1", "--points", "3",
        )
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "err_bound,im,re,t,tau,z"
        assert len(lines) == 4

    @pytest.mark.parametrize("args", [
        # a wrong label count
        ("--case", "osp42", "--k", "1"),
        ("--case", "sl21", "--k", "1", "--labels", "1,2"),
        # a variant the case does not wire (osp32_sub wires only the denominator)
        ("--case", "osp32_sub", "--k=-3/4"),
        ("--case", "osp32", "--k", "1", "--variant", "ch_minus"),
        ("--case", "d21a", "--k=-1/2", "--labels", "0,1", "--variant", "ch_minus"),
        ("--case", "osp42", "--k", "1", "--labels", "1/2,1/2",
         "--variant", "ch_plus_modified"),
        # parameters for a case that takes none
        ("--case", "sl21", "--k", "1", "--params", "1,2"),
        ("--case", "sl21", "--k", "1", "--params", "1"),
        ("--case", "osp32_sub", "--k=-3/4", "--variant", "denominator_only",
         "--params", "0"),
        # a level off the case's rule
        ("--case", "osp42", "--k", "3/2", "--labels", "0,0"),
        ("--case", "sl21", "--k", "1/2"),
        # one of the two family parameters of D(2,1;a); (2, 1) takes k = -2/3
        ("--case", "d21a", "--k=-2/3", "--labels", "0,1", "--params", "2"),
        # parameters the preset refuses
        ("--case", "sl21", "--k", "1", "--params", "2,1"),
        ("--case", "d21a", "--k=-1/2", "--labels", "0,1", "--params", "2,2"),
    ])
    def test_configuration_error_exits_2_before_any_row(self, args, capsys):
        assert main(["chartable", *args, "--points", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""

    @pytest.mark.parametrize("points", ["-1", "0"])
    def test_point_count_below_one_exits_2(self, points, capsys):
        args = ["chartable", "--case", "sl21", "--k", "1", "--points", points, "--output", "json"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --points must be at least 1, got {points}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv,own", [
        (("chartable", "--case", "sl21", "--k", "1", "--points", "1"), "1,1"),
        (("smatrix", "--case", "sl21", "--k", "1"), "1,1"),
        (("smatrix", "--case", "osp42", "--k", "1"), "1"),
        (("table", "omega", "--case", "sl21", "--k", "1"), "1,1"),
    ])
    def test_alias_takes_its_own_parameters_on_every_command(self, argv, own, capsys):
        # every command resolves an alias's parameters through the one preset()
        assert main(list(argv)) == 0
        plain = capsys.readouterr().out
        assert main([*argv, "--params", own]) == 0
        assert capsys.readouterr().out == plain

    def test_unknown_variant_is_a_usage_error(self, capsys):
        args = ["chartable", "--case", "sl21", "--k", "1", "--variant", "bogus"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert "invalid choice: 'bogus'" in captured.err and captured.out == ""

    @pytest.mark.parametrize("k", ["-1", "-1/2"])
    def test_d21a_level_off_the_family_is_a_configuration_error(self, k, capsys):
        # (p, q) = (1, 2) takes only k = -2n/3
        args = ["chartable", "--case", "d21a", "--params", "1,2", f"--k={k}",
                "--labels", "0,1", "--points", "1"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: level {k} is not -pqn/(p+q) for integer n\n"
        assert captured.out == ""

    @pytest.mark.parametrize("p", ["0", "-1"])
    def test_d21a_nonpositive_p_is_a_configuration_error(self, p, capsys):
        args = ["chartable", "--case", "d21a", f"--params={p},1", "--k=-1/2",
                "--labels", "0,1", "--points", "1"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""

    def test_alias_with_its_own_parameters(self, capsys):
        assert main(["table", "preset", "--case", "sl21"]) == 0
        plain = capsys.readouterr().out
        assert main(["table", "preset", "--case", "sl21", "--params", "1,1"]) == 0
        assert capsys.readouterr().out == plain
        assert main(["table", "preset", "--case", "sl21", "--params", "2,1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: case sl21 does not take the parameters (2, 1)\n"

    def test_preset_export(self):
        rc, out, _ = run_cli("table", "preset", "--case", "sl21")
        assert rc == 0
        doc = json.loads(out)
        assert doc["h_dual"] == "1" and doc["defect"] == 1
        assert doc["simple_roots"][0]["odd"] is True
