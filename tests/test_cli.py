import hashlib
import json
import re

import pytest

import orbitlat.cli as cli
import orbitlat.groups as groups
from orbitlat.verification import ClaimResult


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_fully_coherent_group(self, capsys):
        code, out, err = run(capsys, "check", "sym:5")
        assert code == 0 and err == ""
        data = json.loads(out)
        assert data["group"] == "sym:5"
        assert data["join_coherent"] and data["meet_coherent"]
        assert data["is_chain"] is False
        assert data["order"] == 120

    def test_single_check_leaves_others_null(self, capsys):
        code, out, _ = run(capsys, "check", "alt:4", "--join")
        data = json.loads(out)
        assert code == 0
        assert data["join_coherent"] is False
        assert data["meet_coherent"] is None and data["is_chain"] is None
        assert data["join_witness"] == ["{1,2,3|4}", "{1,2,4|3}"]

    def test_deterministic_up_to_timing(self, capsys):
        runs = []
        for _ in range(2):
            _, out, _ = run(capsys, "check", "wr:(cyclic:2,cyclic:3)")
            data = json.loads(out)
            data.pop("ms_elapsed")
            runs.append(data)
        assert runs[0] == runs[1]

    def test_parse_error(self, capsys):
        code, out, err = run(capsys, "check", "nope:3")
        assert code == 1 and out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "argv,header,message",
        [
            (["check", "cent:(1 2)@99999999999"], "", "99999999999 exceeds cap 64"),
            (["check", "file:GENS"], "degree 99999999999", "99999999999 exceeds cap 64"),
            (["witness-cent", "(1 2)@99999999999", "{1,2}"], "", "99999999999 exceeds cap 64"),
            # More digits than int() converts by default.
            (["check", "file:GENS"], "degree " + "9" * 5000, "degree of 5000 digits exceeds cap 64"),
        ],
        ids=["cent", "file", "witness-cent", "file-5000-digits"],
    )
    def test_oversized_degree_fails_before_allocating(
        self, capsys, tmp_path, argv, header, message
    ):
        gens = tmp_path / "huge.gens"
        gens.write_text(header + "\n(1 2)\n")
        code, out, err = run(capsys, *(arg.replace("GENS", str(gens)) for arg in argv))
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["check", "cent:(1 2)@²"], "cent expects <cycles>@N, got '(1 2)@²'"),
            (["check", "file:GENS"], "expected 'degree n' header, got 'degree ²'"),
            (["witness-cent", "(1 2)@²", "{1,2}"], "element spec expects <cycles>@N"),
        ],
        ids=["cent", "file", "witness-cent"],
    )
    def test_non_decimal_degree_is_a_typed_error(self, capsys, tmp_path, argv, message):
        # "²" is a digit to str.isdigit but not a decimal int() can read.
        gens = tmp_path / "square.gens"
        gens.write_text("degree ²\n(1 2)\n")
        code, out, err = run(capsys, *(arg.replace("GENS", str(gens)) for arg in argv))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize(
        "spec,message",
        [
            ("sym:" + "9" * 5000, "sym: parameter of 5000 digits exceeds cap 64"),
            ("frob:7," + "9" * 5000, "frob: parameter of 5000 digits exceeds cap 64"),
            ("cent:(1 2)@" + "9" * 5000, "cent: degree of 5000 digits exceeds cap 64"),
            # int() would read "1_0" as 10.
            ("sym:1_0", "sym: non-integer parameter '1_0'"),
        ],
        ids=["sym-5000-digits", "frob-5000-digits", "cent-5000-digits", "underscore"],
    )
    def test_integer_parameters_read_as_ascii_digits(self, capsys, spec, message):
        code, out, err = run(capsys, "check", spec)
        assert code == 1 and out == ""
        assert err == "error: %s\n" % message and len(err) < 200

    @pytest.mark.parametrize(
        "argv,message",
        [
            # int() would read "1_0" as 10, "+4" as 4 and the Arabic-Indic
            # digit four as 4.
            (["orbits", "cent:(1_0 2)@12"], "cent: non-integer point in '(1_0 2)'"),
            (["witness-cent", "(1_2)@4", "{1,2|3|4}"], "element spec: non-integer point in '(1_2)'"),
            (["witness-cent", "(1 2)@4", "{1,2|3|\u0664}"], "non-integer point in '\u0664'"),
            (["witness-cent", "(1 2)@4", "{1,2|3|+4}"], "non-integer point in '+4'"),
            (["orbits", "cent:(1 %s)@12" % ("1" * 5000)], "cent: point of 5000 digits exceeds cap 255"),
            (["witness-cent", "(1 2)@4", "{1,2|%s}" % ("3" * 5000)], "point of 5000 digits exceeds cap 255"),
            (["orbits", "cent:(1 2)(3 4444)@12"], "cent: point 4444 exceeds cap 255"),
            # Refused with the same message as before the digit rule.
            (["orbits", "cent:(1 256)@12"], "cent: point 256 outside 1..12"),
            (["orbits", "cent:(1 -2)@12"], "cent: point -2 outside 1..12"),
            (["orbits", "cent:(1 x)@12"], "cent: non-integer point in '(1 x)'"),
            (["witness-cent", "(1 2)@4", "{1,2|3|4.0}"], "non-integer point in '4.0'"),
            # Partition points are named as typed, 1-based.
            (["witness-cent", "(1 2)@4", "{1,2|3|4|0}"], "point 0 outside 1..4"),
            (["witness-cent", "(1 2)@4", "{1,2|3|-4}"], "point -4 outside 1..4"),
            (["witness-cent", "(1 2)@4", "{1,2|3|4|9}"], "point 9 outside 1..4"),
            (["witness-cent", "(1 2)@4", "{1,2|2|3|4}"], "point 2 in two blocks"),
            (["witness-cent", "(1 2)@4", "{1,2|3}"], "point 4 not covered"),
        ],
        ids=[
            "cycle-underscore",
            "element-underscore",
            "partition-arabic-indic",
            "partition-plus",
            "cycle-5000-digits",
            "partition-5000-digits",
            "cycle-4-digits",
            "cycle-256",
            "cycle-negative",
            "cycle-letter",
            "partition-decimal-point",
            "partition-zero",
            "partition-negative",
            "partition-above-degree",
            "partition-repeated",
            "partition-uncovered",
        ],
    )
    def test_points_read_as_ascii_digits(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == "error: %s\n" % message

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["orbits", "cent:(%s 2)@4" % ("x" * 5000)], "cent: non-integer point in '(xxx"),
            (["orbits", "cent:(1 2)%s@4" % ("q" * 5000)], "cent: unexpected text outside cycles: '(1 2)qqq"),
            (["witness-cent", "(1 2)@4", "{1,2|3|%s}" % ("z" * 5000)], "non-integer point in 'zzz"),
        ],
        ids=["cycle-point", "cycle-outside", "partition-point"],
    )
    def test_long_text_quoted_in_part(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: %s" % message)
        assert err.endswith(" characters)\n") and err.count("\n") == 1 and len(err) < 200

    @pytest.mark.parametrize(
        "spec", ["dsum:(sym:60,sym:10)", "dprod:(sym:8,sym:9)", "wr:(sym:9,sym:8)"]
    )
    def test_combined_degree_fails_before_any_build(self, capsys, monkeypatch, spec):
        def add(self, g):
            pytest.fail("a stabilizer chain was built for %s" % spec)

        monkeypatch.setattr(groups._Chain, "add", add)
        code, out, err = run(capsys, "check", spec)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "exceeds cap 64" in err

    def test_deep_nesting_is_a_typed_error(self, capsys):
        # Deep enough to exhaust the interpreter stack if parsing recursed.
        spec = "sym:1"
        for _ in range(1200):
            spec = "wr:(%s,sym:1)" % spec
        code, out, err = run(capsys, "check", spec)
        assert code == 1 and out == ""
        assert err == "error: wr: spec nested deeper than 64 levels\n"

    def test_cap_exceeded(self, capsys):
        code, out, err = run(capsys, "check", "sym:8", "--cap", "100")
        assert code == 2 and out == ""
        assert "cap exceeded" in err and "requires cap >= 40320" in err


class TestPi:
    def test_cyclic_4(self, capsys):
        code, out, _ = run(capsys, "pi", "cyclic:4")
        assert code == 0
        assert out.splitlines() == ["{1,2,3,4}", "{1,3|2,4}", "{1|2|3|4}"]

    def test_cap(self, capsys):
        code, _, err = run(capsys, "pi", "sym:6", "--cap", "10")
        assert code == 2 and "cap exceeded" in err


class TestOrbits:
    def test_intransitive(self, capsys):
        code, out, _ = run(capsys, "orbits", "dsum:(sym:3,cyclic:2)")
        assert code == 0 and out == "{1,2,3|4,5}\n"

    def test_transitive(self, capsys):
        code, out, _ = run(capsys, "orbits", "sym:4")
        assert code == 0 and out == "{1,2,3,4}\n"


class TestCensus:
    def test_stream_shape(self, capsys):
        code, out, _ = run(capsys, "census", "3")
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert len(lines) == 7
        assert all("index" in rec for rec in lines[:-1])
        assert "summary" in lines[-1]

    def test_worker_count_does_not_change_output(self, capsys):
        for argv in (["census", "4"], ["check", "sym:6"], ["pi", "alt:5"]):
            runs = [run(capsys, *argv, *extra) for extra in ([], ["--workers", "2"])]
            masked = [(code, re.sub(r'"ms_elapsed": \d+', "", out)) for code, out, _ in runs]
            assert masked[0] == masked[1]

    @pytest.mark.parametrize("degree", ["0", "9"])
    def test_unsupported_degree(self, capsys, degree):
        code, _, err = run(capsys, "census", degree)
        assert code == 1 and err.startswith("error:")


class TestWitnessCommands:
    def test_centralizer_feasible(self, capsys):
        code, out, _ = run(capsys, "witness-cent", "(1 2)(3 4)@4", "{1,3|2,4}")
        assert code == 0
        assert json.loads(out) == {"feasible": True, "element": "(1 3)(2 4)"}

    def test_centralizer_infeasible(self, capsys):
        code, out, _ = run(capsys, "witness-cent", "(1 2 3)@3", "{1,2|3}")
        assert code == 0
        assert json.loads(out) == {"feasible": False, "element": None}

    def test_centralizer_malformed(self, capsys):
        assert run(capsys, "witness-cent", "(1 2@4", "{1,2|3,4}")[0] == 1
        assert run(capsys, "witness-cent", "(1 2)@4", "{1,2|3")[0] == 1

    def test_wreath_feasible(self, capsys):
        code, out, _ = run(capsys, "witness-wreath", "cyclic:2", "cyclic:2", "{1,2,3,4}")
        assert code == 0
        data = json.loads(out)
        assert data["c1"] and data["c2"] and data["c4"] and data["overall"]
        assert data["element"] in ("(1 3 2 4)", "(1 4 2 3)")

    def test_wreath_product_over_the_degree_cap(self, capsys, monkeypatch):
        def add(self, g):
            pytest.fail("a stabilizer chain was built")

        monkeypatch.setattr(groups._Chain, "add", add)
        partition = "{%s}" % "|".join(map(str, range(1, 401)))
        code, out, err = run(capsys, "witness-wreath", "cyclic:20", "cyclic:20", partition)
        assert code == 1 and out == ""
        assert err == "error: degree 400 exceeds cap 64\n"

    def test_wreath_product_over_the_cap_after_the_build(self, capsys):
        # A frob spec fixes its degree only when built.
        code, out, err = run(capsys, "witness-wreath", "frob:11,5", "frob:11,5", "{1}")
        assert code == 1 and out == ""
        assert err == "error: degree 121 exceeds cap 64\n"

    def test_wreath_infeasible_reports_conditions(self, capsys):
        code, out, _ = run(
            capsys, "witness-wreath", "cyclic:2", "cyclic:3", "{1,3|2,4|5,6}"
        )
        assert code == 0
        data = json.loads(out)
        assert data["c1"] is False and data["overall"] is False
        assert data["element"] is None


class TestConstruct:
    def test_stdout(self, capsys):
        code, out, _ = run(capsys, "construct", "cyclic:3")
        assert code == 0
        assert out == "degree 3\n# cyclic:3\n(1 2 3)\n"

    def test_file_round_trip(self, capsys, tmp_path):
        path = tmp_path / "w.gens"
        code, out, _ = run(capsys, "construct", "wr:(sym:3,cyclic:2)", "-o", str(path))
        assert code == 0 and out == ""
        code, out, _ = run(capsys, "check", "file:%s" % path)
        assert code == 0
        assert json.loads(out)["order"] == 72

    @pytest.mark.parametrize(
        "where,reason", [("missing/x.gens", "No such file or directory"), ("", "Is a directory")]
    )
    def test_unwritable_output_is_one_error_line(self, capsys, tmp_path, where, reason):
        path = tmp_path / where
        code, out, err = run(capsys, "construct", "sym:3", "-o", str(path))
        assert code == 1 and out == ""
        assert err == "error: cannot write %s: %s\n" % (path, reason)


class TestOutputPins:
    # One spec of every family; `file` reads a generator file from the
    # working directory so that the comment `construct` echoes is stable.
    SPECS = [
        "sym:5",
        "alt:6",
        "cyclic:6",
        "dihedral:5",
        "dsum:(sym:3,cyclic:4)",
        "dprod:(sym:3,cyclic:3)",
        "wr:(sym:3,cyclic:2)",
        "cent:(1 2 3)(4 5 6)(7 8)@9",
        "frob:7,3",
        "gamma:2,3",
        "lin:3,2,GL,points",
        "lin:2,4,SL·Frob,lines",
        "lin:3,3,SL,hyperplanes",
        "file:x.gens",
    ]

    def test_construct_and_orbits_are_pinned(self, capsys, tmp_path, monkeypatch):
        # sha256 over the stdout of `construct` then `orbits` for each spec
        # in order, recorded from the tree whose permutations were image
        # tuples composed by itemgetter.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "x.gens").write_text("degree 7\n(1 2 3)\n(4 5)(6, 7)\n(2 3)\n")
        h = hashlib.sha256()
        for spec in self.SPECS:
            for command in ("construct", "orbits"):
                code, out, err = run(capsys, command, spec)
                assert code == 0 and err == ""
                h.update(out.encode())
        assert h.hexdigest() == "5f8f05c3712fec093ec9d72616fe06813554a512e2e5adc6b67c53c42ca626bf"


class TestVerifyPaper:
    def test_all_pass(self, capsys, monkeypatch):
        results = [
            ClaimResult("first", True, "ok", 0.0),
            ClaimResult("second", True, "fine", 0.0),
        ]
        seen = {}

        def stub(slow=False):
            seen.update(slow=slow)
            return results

        monkeypatch.setattr(cli, "run_verify_paper", stub)
        code, out, _ = run(capsys, "verify-paper", "--workers", "3")
        assert code == 0
        assert seen == {"slow": False}
        assert out.splitlines() == ["PASS first: ok", "PASS second: fine", "2 passed, 0 failed"]

    def test_failure_sets_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli,
            "run_verify_paper",
            lambda slow=False: [ClaimResult("only", False, "broken", 0.0)],
        )
        code, out, _ = run(capsys, "verify-paper", "--slow")
        assert code == 1
        assert out.splitlines() == ["FAIL only: broken", "0 passed, 1 failed"]


class TestParserBehavior:
    @pytest.mark.parametrize(
        "argv", [[], ["unknown-command"], ["census", "x"], ["check"]]
    )
    def test_argument_errors_exit_1(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_worker_count_below_one_rejected(self, capsys, count):
        for argv in (["check", "sym:3"], ["verify-paper"]):
            with pytest.raises(SystemExit) as info:
                cli.main(argv + ["--workers", count])
            assert info.value.code == 1
            err = capsys.readouterr().err
            errors = [line for line in err.splitlines() if line.startswith("error:")]
            assert errors == [
                "error: argument --workers: expected a worker count of at least 1, got %r" % count
            ]
