import argparse
import json
import math

import pytest

from cycle_integrals import melnikov
from cycle_integrals.cli import main

PAPER = {"f": [0, 0, 1, 1], "g": [0, 1, 3], "cycle": [1, 1, -2],
         "epsilon": None, "seed": 7, "precision_bits": None}


@pytest.fixture
def paper_instance(tmp_path):
    path = tmp_path / "paper.json"
    path.write_text(json.dumps(PAPER))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestBounds:
    def test_table_row(self, capsys):
        code, out = run(capsys, "bounds", "--m", "3", "--n", "4")
        assert code == 0
        data = json.loads(out)
        assert data["result"] == {"tangential": 8, "infinitesimal": 18,
                                  "simple": 3}
        assert data["seed"] == 0


class TestReduce:
    def test_example(self, capsys):
        code, out = run(capsys, "reduce", "--f", "[0,0,1]", "--g", "[0,1,1]")
        assert code == 0
        data = json.loads(out)
        assert data["result"]["g_tilde"] == ["0", "1"]
        assert data["result"]["subtracted"] == [{"coefficient": "1", "power": 1}]


class TestInstanceCommands:
    def test_tangential_paper_example(self, capsys, paper_instance):
        code, out = run(capsys, "tangential", "--instance", paper_instance)
        assert code == 0
        data = json.loads(out)
        assert data["result"]["count"] == 0
        assert data["seed"] == 7
        assert "config" in data
        # the instance file carries "precision_bits": null, which runs and
        # is not echoed: the oracles choose their own precision
        assert "precision_bits" not in data["instance"]

    def test_infinitesimal_with_epsilon_flag(self, capsys, paper_instance):
        code, out = run(capsys, "infinitesimal", "--instance", paper_instance,
                        "--epsilon", "1/100")
        assert code == 0
        assert json.loads(out)["result"]["count"] == 2

    def test_strict_schema(self, tmp_path, capsys):
        bad = dict(PAPER)
        bad["cycel"] = [1, -1, 0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, _ = run(capsys, "tangential", "--instance", str(path))
        assert code == 2

    def test_precision_bits_must_be_null(self, tmp_path, capsys):
        # an instance may still carry the field, but only as null
        bad = dict(PAPER, precision_bits=200)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["tangential", "--instance", str(path)]) == 2
        assert "precision_bits" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--precision-bits", "--tol-root",
                                      "--tol-cluster", "--tol-fit",
                                      "--degree-cap"])
    def test_precision_bits_flag_rejected(self, capsys, paper_instance, flag):
        # precision and tolerances are constants: no flag sets them
        with pytest.raises(SystemExit) as exc:
            main(["tangential", "--instance", paper_instance, flag, "200"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["bounds", "--m", "3", "--n", "4"],
        ["tangential"],
    ], ids=["bounds", "tangential"])
    def test_seed_flag_rejected(self, capsys, paper_instance, argv):
        # only `experiment` draws random inputs, so only it takes a seed
        if argv[0] == "tangential":
            argv = argv + ["--instance", paper_instance]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "5"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["alien", "--schedule", "1/50,abc"],
        ["alien", "--schedule", "1/0,1/2,1/3"],
        ["infinitesimal", "--epsilon", "x"],
        ["experiment", "--m", "3", "--n", "2", "--epsilon", "1/0"],
        ["monodromy", "--f", "[0,0,1]", "--basepoint=a,b"],
        ["monodromy", "--f", "[0,0,1]", "--basepoint=1e400,0"],
        ["monodromy", "--f", "[0,0,1]", "--basepoint=1.5,0.2,99"],
        ["monodromy", "--f", "[0,0,1]", "--basepoint="],
        ["design-g", "--f", "[0,0,1,1]", "--cycle", "[1,2,-3]", "--n", "4",
         "--targets", "nan"],
        ["design-g", "--f", "[0,0,1,1]", "--cycle", "[1,2,-3]", "--n", "4",
         "--targets", ""],
        ["design-g", "--f", "[0,0,1,1]", "--cycle", "[1,2,-3]", "--n", "4",
         "--targets", ","],
        ["experiment", "--m", "3", "--n", "2", "--trials", "-3"],
        ["experiment", "--m", "3", "--n", "2", "--kind", "infinitesimal",
         "--epsilon", "0"],
    ], ids=["schedule-word", "schedule-zero-denominator", "epsilon-word",
            "experiment-zero-denominator", "basepoint-word",
            "basepoint-overflow", "basepoint-three-parts", "basepoint-empty",
            "design-target-nan", "design-targets-empty",
            "design-targets-comma", "experiment-negative-trials",
            "experiment-zero-epsilon"])
    def test_malformed_number_exits_2(self, capsys, paper_instance, argv):
        if argv[0] in ("alien", "infinitesimal"):
            argv = argv + ["--instance", paper_instance]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", ["monodromy", "tangential",
                                         "design-g"])
    def test_coefficient_outside_doubles_exits_2(self, capsys, tmp_path,
                                                 command):
        # 10^400 overflows a double; the message gives its degree and
        # order of magnitude, not its 401 digits
        f = [0, 0, 10 ** 400, 1]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(dict(PAPER, f=f)))
        argv = {"monodromy": ["monodromy", "--f", json.dumps(f)],
                "tangential": ["tangential", "--instance", str(path)],
                "design-g": ["design-g", "--f", json.dumps(f), "--cycle",
                             "[1,2,-3]", "--n", "4", "--targets", "1,2"]}
        assert main(argv[command]) == 2
        assert capsys.readouterr().err == (
            "error: coefficient of degree 2 is about 1e400, outside the "
            "double range\n")

    @pytest.mark.parametrize("command, bad", [
        ("monodromy", "long-integer"), ("tangential", "long-integer"),
        ("tangential", "not-utf8"), ("plot-data", "not-utf8")])
    def test_unparsable_json_exits_2(self, capsys, tmp_path, command, bad):
        # an integer literal beyond Python's 4,300-digit limit, and a file
        # that is not UTF-8, are malformed JSON like any syntax error
        f = "[0,0,%s,1]" % ("1" * 4400)
        path = tmp_path / "input.json"
        if bad == "long-integer":
            path.write_text(json.dumps(PAPER).replace(
                '"f": [0, 0, 1, 1]', f'"f": {f}'))
        else:
            path.write_bytes(b"\xff\xfe" + json.dumps(PAPER).encode())
        argv = {"monodromy": ["monodromy", "--f", f],
                "tangential": ["tangential", "--instance", str(path)],
                "plot-data": ["plot-data", "--report", str(path)]}
        assert main(argv[command]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_identically_zero_product_exits_2(self, tmp_path, capsys):
        # f = x^4 - x^2 and g = x^2 are both polynomials in x^2, so the
        # branch factor pairing z with -z vanishes identically
        path = tmp_path / "composite.json"
        path.write_text(json.dumps(dict(PAPER, f=[0, 0, -1, 0, 1],
                                        g=[0, 0, 1], cycle=[1, -1, 0, 0])))
        assert main(["tangential", "--instance", str(path)]) == 2
        assert "vanishes identically" in capsys.readouterr().err

    def test_rejected_fit_exits_3(self, capsys, paper_instance, monkeypatch):
        # no rung of the precision ladder verifies its zeros
        monkeypatch.setattr(melnikov, "_split_regular",
                            lambda clusters, crit_values: (tuple(clusters), ()))
        monkeypatch.setattr(melnikov._ProductSampler, "ring_ratio",
                            lambda *args: math.inf)
        assert main(["tangential", "--instance", paper_instance]) == 3
        assert capsys.readouterr().err.startswith("numerical failure: ")

    def test_alien_report_states_the_last_epsilon(self, capsys, tmp_path):
        # classify_alien counts at the end of the schedule, whatever
        # epsilon the instance file carries
        path = tmp_path / "paper.json"
        path.write_text(json.dumps(dict(PAPER, epsilon="1/100")))
        code, out = run(capsys, "alien", "--instance", str(path),
                        "--schedule", "1/50,1/100,1/200")
        assert code == 0
        assert json.loads(out)["instance"]["epsilon"] == "1/200"

    def test_invalid_cycle_rejected(self, tmp_path, capsys):
        bad = dict(PAPER)
        bad["cycle"] = [1, 1, 1]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, _ = run(capsys, "tangential", "--instance", str(path))
        assert code == 2


class TestParser:
    def test_built_once_per_process(self, capsys, monkeypatch):
        main(["bounds", "--m", "3", "--n", "4"])
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert main(["bounds", "--m", "3", "--n", "4"]) == 0
        assert built == []

    def test_flag_does_not_carry_over(self, capsys):
        argv = ["monodromy", "--f", "[0,0,-1,0,1]", "--basepoint=-0.125,0"]
        code, out = run(capsys, *argv, "--real-order")
        assert code == 0
        assert json.loads(out)["result"]["ordering"] == "real"
        code, out = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["result"]["ordering"] == "lex"


class TestCertify:
    def test_failing_certificate_named(self, capsys):
        code, out = run(capsys, "certify-cycle", "--cycle", "[1,2,-3]", "--n", "3")
        assert code == 0
        data = json.loads(out)
        assert data["result"]["certificate"]["regular_at_infinity"] is False
        assert data["result"]["certificate"]["failing_permutations"]

    @pytest.mark.parametrize("cycle", ["[1.5,-1.5]", "[true,false,-1]",
                                       '["1","-1"]'])
    def test_non_integer_weights_rejected(self, capsys, cycle):
        # a weight of 1.5 must not be truncated and certified as 1
        assert main(["certify-cycle", "--cycle", cycle, "--n", "3"]) == 2

    def test_regular_certificate(self, capsys):
        code, out = run(capsys, "certify-cycle", "--cycle", "[1,2,-3]", "--n", "4")
        assert code == 0
        data = json.loads(out)
        assert data["result"]["certificate"]["regular_at_infinity"] is True
        assert data["result"]["symmetry_order"] == 1


class TestMonodromyCommand:
    def test_square(self, capsys):
        # x^2 and x^3 have one critical value each, whose loop is the loop
        # around infinity: a transposition, then a 3-cycle
        for f, perm in (("[0,0,1]", [2, 1]), ("[0,0,0,1]", [2, 3, 1])):
            code, out = run(capsys, "monodromy", "--f", f)
            assert code == 0
            data = json.loads(out)
            assert data["result"]["loops"][0]["permutation"] == perm
            assert data["result"]["infinity_permutation"] == perm

    def test_negative_basepoint(self, capsys):
        code, out = run(capsys, "monodromy", "--f", "[0,0,-1,0,1]",
                        "--basepoint=-0.125,0")
        assert code == 0
        data = json.loads(out)
        assert data["result"]["basepoint"] == ["-0.125", "0.0"]
        assert len(data["result"]["loops"]) == 2


class TestDesignCommand:
    def test_coefficients_are_plain_floats(self, capsys):
        code, out = run(capsys, "design-g", "--f", "[0,0,1,1]", "--cycle",
                        "[1,2,-3]", "--n", "4", "--targets", "1,2")
        assert code == 0
        g = json.loads(out)["result"]["g"]
        assert g and all(isinstance(float(part), float)
                         for coeff in g for part in coeff)

    def test_overflowing_target_exits_3(self, capsys):
        assert main(["design-g", "--f", "[0,0,0,1]", "--cycle", "[1,-1,0]",
                     "--n", "4", "--targets", "1e300"]) == 3
        assert capsys.readouterr().err.startswith("numerical failure: ")


class TestBrieskornCommand:
    def test_dimension_only(self, capsys):
        code, out = run(capsys, "brieskorn", "--m", "3", "--n", "4")
        assert code == 0
        assert json.loads(out)["result"]["dimension"] == 3

    def test_generators(self, capsys):
        code, out = run(capsys, "brieskorn", "--f", "[0,0,1,1]", "--n", "4")
        assert code == 0
        data = json.loads(out)
        assert data["result"]["generator_degrees"] == [1, 2, 4]


class TestOutput:
    @pytest.mark.parametrize("command", ["tangential", "plot-data"])
    def test_unwritable_output_exits_2(self, capsys, paper_instance, tmp_path,
                                       command):
        # a JSON report and a CSV table, each computed and then written
        # into a directory that does not exist
        argv = ["tangential", "--instance", paper_instance]
        if command == "plot-data":
            report = str(tmp_path / "report.json")
            assert main(argv + ["--output", report]) == 0
            argv = ["plot-data", "--report", report, "--format", "csv"]
        missing = str(tmp_path / "missing" / "out")
        assert main(argv + ["--output", missing]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        # 1999! has 5,733 digits
        ["bounds", "--m", "2000", "--n", "2001"],
        # g = x^10 reduced by f = x + 1 + c x^2, c = 10^1000 + 1, subtracts
        # f^5 / c^5, whose denominator has 5,001 digits
        ["reduce", "--f", "[1,1,1%s1]" % ("0" * 999), "--g",
         json.dumps([0] * 10 + [1])],
    ], ids=["bounds-integer", "reduce-fraction"])
    def test_number_beyond_digit_limit_exits_2(self, capsys, argv):
        # Python refuses to write an integer of more than 4,300 digits
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "4300 digits" in err


class TestPlotData:
    def test_round_trip_counts(self, capsys, paper_instance, tmp_path):
        report_path = str(tmp_path / "report.json")
        code, _ = run(capsys, "infinitesimal", "--instance", paper_instance,
                      "--epsilon", "1/100", "--output", report_path)
        assert code == 0
        code, out = run(capsys, "plot-data", "--report", report_path)
        assert code == 0
        lines = [line for line in out.strip().splitlines() if line]
        assert lines[0] == "re_t,im_t,multiplicity,class"
        regular = [line for line in lines[1:] if line.endswith(",regular")]
        report = json.load(open(report_path))
        assert len(regular) == report["result"]["count"]

    def test_alien_polylines(self, capsys, paper_instance, tmp_path):
        report_path = str(tmp_path / "alien.json")
        code, _ = run(capsys, "alien", "--instance", paper_instance,
                      "--schedule", "1/50,1/100,1/200",
                      "--output", report_path)
        assert code == 0
        code, out = run(capsys, "plot-data", "--report", report_path)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "branch,epsilon,re_t,im_t,class"
        assert all(line.endswith(",alien") for line in lines[1:])
        assert len(lines) - 1 == 2 * 3  # two branches, three schedule points

    def test_json_rows_equal_csv_rows(self, capsys, paper_instance, tmp_path):
        report_path = str(tmp_path / "alien.json")
        code, _ = run(capsys, "alien", "--instance", paper_instance,
                      "--schedule", "1/50,1/100,1/200",
                      "--output", report_path)
        assert code == 0
        code, csv = run(capsys, "plot-data", "--report", report_path)
        assert code == 0
        code, out = run(capsys, "plot-data", "--report", report_path,
                        "--format", "json")
        assert code == 0
        result = json.loads(out)["result"]
        assert [",".join(result["header"])] + [
            ",".join(str(v) for v in row) for row in result["rows"]
        ] == csv.strip().splitlines()
        assert len(result["rows"]) == 2 * 3

    def test_empty_report(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({
            "command": "tangential",
            "result": {"count": 0, "distinct_regular_zeros": [],
                       "excluded_near_critical": []}}))
        code, out = run(capsys, "plot-data", "--report", str(path))
        assert code == 0
        assert out.strip() == "re_t,im_t,multiplicity,class"

    def test_malformed_report(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("[1, 2]")
        code, _ = run(capsys, "plot-data", "--report", str(path))
        assert code == 2

    @pytest.mark.parametrize("report", [
        pytest.param({"command": "alien",
                      "result": {"branches": [{"class": "alien"}]}},
                     id="alien-without-schedule"),
        pytest.param({"command": "tangential",
                      "result": {"distinct_regular_zeros": [
                          {"t": ["x", "0"], "multiplicity": 1}]}},
                     id="zero-not-a-number"),
        pytest.param({"command": "alien",
                      "result": {"epsilon_schedule": ["1/100"],
                                 "branches": [{"class": "alien",
                                               "trajectory": [["1.0", "0.0"],
                                                              ["2.0", "0.0"]]}]}},
                     id="trajectory-longer-than-schedule"),
    ])
    def test_malformed_report_fields(self, capsys, tmp_path, report):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps(report))
        code, _ = run(capsys, "plot-data", "--report", str(path))
        assert code == 2


class TestExperimentCommand:
    def test_suite_report_is_reproducible(self, capsys, tmp_path):
        paths = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        for path in paths:
            code, _ = run(capsys, "experiment", "--m", "3", "--n", "2",
                          "--trials", "2", "--seed", "2026", "--output", path)
            assert code == 0
        data = json.loads(open(paths[0]).read())
        assert data["seed"] == 2026
        assert data["result"]["counts"]
        assert open(paths[0], "rb").read() == open(paths[1], "rb").read()


class TestDeterminism:
    def test_bit_identical_reports(self, capsys, paper_instance, tmp_path):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        run(capsys, "infinitesimal", "--instance", paper_instance,
            "--epsilon", "1/100", "--output", a)
        run(capsys, "infinitesimal", "--instance", paper_instance,
            "--epsilon", "1/100", "--output", b)
        assert open(a, "rb").read() == open(b, "rb").read()
