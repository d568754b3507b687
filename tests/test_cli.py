import io
import json

import jsonschema
import pytest

from fjump import JobFileError, cli, load_job
from fjump.cli import REPORT_SCHEMA, run

EXAMPLE = """\
# toy inputs
ring p=2 vars=x,y
ideal a = x^3*y^2
ideal m = x, y
ideal f = x^2 + y^3
ideal zero = 0
"""

CUSP7 = """\
ring p=7 vars=x,y
ideal f = x^2+y^3
ideal m = x, y
"""


@pytest.fixture
def job_path(tmp_path):
    path = tmp_path / "example.fj"
    path.write_text(EXAMPLE)
    return str(path)


@pytest.fixture
def cusp_path(tmp_path):
    path = tmp_path / "cusp.fj"
    path.write_text(CUSP7)
    return str(path)


def invoke(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def invoke_json(argv):
    code, out, err = invoke(argv + ["--format", "json"])
    assert code == 0, err
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    return report


def test_job_file_parsing():
    job = load_job(EXAMPLE)
    assert job.ring.p == 2 and job.ring.var_names == ("x", "y")
    assert set(job.ideals) == {"a", "m", "f", "zero"}


@pytest.mark.parametrize("text,line", [
    ("ideal a = x\nring p=2 vars=x", 1),
    ("ring p=2 vars=x\nring p=3 vars=y", 2),
    ("ring p=4 vars=x", 1),
    ("ring p=2 vars=x\nideal a = x\nideal a = x", 3),
    ("ring p=2 vars=x\nideal a = q", 2),
    ("ring p=2 vars=x\nwhat now", 2),
    ("", 1),
])
def test_job_file_errors(text, line):
    with pytest.raises(JobFileError) as exc:
        load_job(text)
    assert exc.value.line == line


def test_job_file_error_column():
    with pytest.raises(JobFileError) as exc:
        load_job("ring p=2 vars=x,y\nideal a = x, y^\n")
    assert exc.value.line == 2
    assert exc.value.column == 16


def test_root_command(job_path):
    report = invoke_json(["root", "-i", job_path, "--ideal", "a", "--e", "1"])
    assert report["result"]["generators"] == ["x*y"]
    code, out, _ = invoke(["root", "-i", job_path, "--ideal", "a", "--e", "1"])
    assert code == 0 and "x*y" in out


def test_root_oracle_mode(job_path):
    report = invoke_json(["root", "-i", job_path, "--ideal", "a", "--e", "1",
                          "--oracle"])
    assert report["result"]["oracle_agreement"] is True


def test_bracket_command(job_path):
    report = invoke_json(["bracket", "-i", job_path, "--ideal", "m", "--e", "2"])
    assert report["result"]["generators"] == ["x^4", "y^4"]


def test_tau_command(job_path):
    report = invoke_json(["tau", "-i", job_path, "--ideal", "m", "--c", "2"])
    assert report["result"]["generators"] == ["x", "y"]
    assert report["meta"]["certified"] is True
    assert report["meta"]["stabilized_at"] is not None


def test_tau_oracle_mode(job_path):
    report = invoke_json(["tau", "-i", job_path, "--ideal", "m", "--c", "2",
                          "--oracle"])
    assert report["result"]["oracle_agreement"] is True


def test_tau_oracle_replays_the_chain_at_stabilized_at(cusp_path):
    # tau of the cusp at its F-pure threshold 5/6 over F_7 is proved at
    # level 2; the oracle expands f^41 and takes its level-2 root.
    report = invoke_json(["tau", "-i", cusp_path, "--ideal", "f", "--c", "5/6",
                          "--oracle"])
    assert report["result"]["generators"] == ["y", "x"]
    assert report["result"]["oracle_agreement"] is True
    assert report["meta"]["stabilized_at"] == 2
    assert report["meta"]["certified"] is True


def test_tau_past_the_level_cap_is_a_resource_limit():
    # tau(f^(100/101)) over F_2 needs blocks of ord_101(2) = 100 levels,
    # past the level cap (--e-cap, default 64), and no chain term within the
    # cap is R, so it stops before the first block.
    code, out, err = invoke(["tau", "-i", "-", "--ideal", "f", "--c", "100/101"],
                            "ring p=2 vars=x,y\nideal f = x^2 + y^3\n")
    assert code == 4, err
    assert out == "" and "exceeds the cap 64" in err


def test_tau_oracle_on_monomial_ideal_replays_by_the_floor_formula():
    # The chain level stabilized_at = 6 needs I^708, far past the
    # generator cap; the floor formula reaches it without expanding.
    code, out, err = invoke(["tau", "-i", "-", "--ideal", "a", "--c", "97/100",
                             "--oracle", "--format", "json"],
                            "ring p=3 vars=x,y\nideal a = x^3, x*y, y^4\n")
    assert code == 0, err
    report = json.loads(out)
    assert report["result"]["generators"] == ["1"]
    assert report["result"]["oracle_agreement"] is True


def test_bad_rational_is_input_error(job_path):
    code, _, err = invoke(["tau", "-i", job_path, "--ideal", "a", "--c", "1/0"])
    assert code == 2
    assert "denominator zero" in err


def test_taumixed_command(job_path):
    report = invoke_json(["taumixed", "-i", job_path, "--pair", "a=1/2",
                          "--pair", "m=1"])
    assert report["result"]["pairs"] == [
        {"ideal": "a", "c": "1/2"}, {"ideal": "m", "c": "1"}]


def test_nu_command(job_path):
    report = invoke_json(["nu", "-i", job_path, "--ideal", "m", "--J", "m",
                          "--e", "2", "--oracle"])
    assert report["result"]["nu"] == 6
    assert report["meta"]["records"] == [{"e": 2, "nu": 6}]


def test_nu_precondition_exit(job_path):
    code, _, err = invoke(["nu", "-i", job_path, "--ideal", "f", "--J", "a",
                           "--e", "1"])
    assert code == 3
    assert "rad" in err


def test_fpt_command(cusp_path):
    report = invoke_json(["fpt", "-i", cusp_path, "--ideal", "f",
                          "--e-max", "2", "--oracle"])
    assert report["result"]["guess"] == "5/6"
    assert report["meta"]["certified"] is False
    assert report["meta"]["records"] == [{"e": 1, "nu": 5}, {"e": 2, "nu": 40}]


def test_fthreshold_command(job_path):
    report = invoke_json(["fthreshold", "-i", job_path, "--ideal", "a",
                          "--J", "m", "--e-max", "3"])
    assert report["result"]["lower"] is not None


def test_fthreshold_oracle_names_the_replayed_levels(job_path):
    report = invoke_json(["fthreshold", "-i", job_path, "--ideal", "a",
                          "--J", "m", "--e-max", "3", "--oracle"])
    assert report["result"]["guess"] == "1/3"
    assert report["meta"]["certified"] is True
    assert report["result"]["oracle_agreement"] is True
    assert report["result"]["oracle_levels"] == [1, 2]
    assert len(report["meta"]["records"]) == 3


def test_jumps_command(job_path):
    report = invoke_json(["jumps", "-i", job_path, "--ideal", "m", "--B", "3"])
    assert report["result"]["jumps"] == ["0", "2", "3"]
    assert report["meta"]["certified"] is True


def test_gb_command(job_path):
    report = invoke_json(["gb", "-i", job_path, "--ideal", "f"])
    assert report["result"]["generators"] == ["y^3 + x^2"]
    again = invoke_json(["gb", "-i", job_path, "--ideal", "f"])
    assert report["result"] == again["result"]


def test_denombound_command(job_path):
    report = invoke_json(["denombound", "-i", job_path, "--ideal", "m"])
    assert report["result"]["N"] == 6
    capped = invoke_json(["denombound", "-i", job_path, "--ideal", "m",
                          "--cap", "7"])
    assert "warning" in capped["result"]


def test_usage_errors(job_path):
    code, _, err = invoke([])
    assert code == 1
    code, _, err = invoke(["frobulate", "-i", job_path])
    assert code == 1
    code, _, err = invoke(["gb", "-i", job_path, "--ideal", "f", "--oracle"])
    assert code == 1 and "--oracle" in err


@pytest.mark.parametrize("argv", [
    ["tau", "--ideal", "m", "--c", "1", "--e-max", "0"],
    ["jumps", "--ideal", "m", "--B", "1", "--e-max", "0"],
    ["fpt", "--ideal", "f", "--e-max", "0"],
    ["nu", "--ideal", "m", "--J", "m", "--e", "0"],
    ["root", "--ideal", "f", "--e", "1", "--oracle"],
    ["jumps", "--ideal", "m", "--B", "1", "--cap", "0"],
    ["denombound", "--ideal", "m", "--cap", "-5"],
    ["fpt", "--ideal", "f", "--cap", "5"],
])
def test_bad_flag_values_are_usage_errors(job_path, argv):
    code, out, err = invoke(argv + ["-i", job_path])
    assert code == 1, err
    assert out == "" and "usage error" in err and "e_min" not in err


def test_missing_ideal_is_input_error(job_path):
    code, _, err = invoke(["gb", "-i", job_path, "--ideal", "nope"])
    assert code == 2
    assert "nope" in err


def test_missing_file_is_input_error():
    code, _, err = invoke(["gb", "-i", "/does/not/exist.fj", "--ideal", "a"])
    assert code == 2


def test_resource_limit_exit(cusp_path):
    # 5/6 is the cusp's F-pure threshold at p=7; its descent state first
    # repeats after two blocks of one level, past a cap of one block.
    code, _, err = invoke(["tau", "-i", cusp_path, "--ideal", "f", "--c", "5/6",
                           "--e-max", "1"])
    assert code == 4
    assert "stabilize" in err


def test_overlong_number_is_input_error():
    code, out, err = invoke(["gb", "-i", "-", "--ideal", "a"],
                            stdin_text="ring p=2 vars=x\nideal a = x^" + "9" * 5000 + "\n")
    assert code == 2, err
    assert out == ""
    assert "number too long" in err and "Traceback" not in err


def test_stdin_input():
    code, out, _ = invoke(["gb", "-i", "-", "--ideal", "a", "--format", "json"],
                          stdin_text="ring p=3 vars=t\nideal a = t^2\n")
    assert code == 0
    assert json.loads(out)["result"]["generators"] == ["t^2"]


def test_zero_ideal_round_trip(job_path):
    report = invoke_json(["gb", "-i", job_path, "--ideal", "zero"])
    assert report["result"]["generators"] == ["0"]


def test_reports_reparse_to_equal_ideals(job_path, cusp_path):
    # every ideal string a report prints must parse back to the same ideal
    from fjump import Ideal, load_job as load

    job = load(EXAMPLE)
    for args, name in [
        (["root", "-i", job_path, "--ideal", "a", "--e", "1"], None),
        (["tau", "-i", job_path, "--ideal", "m", "--c", "3/2"], None),
        (["gb", "-i", job_path, "--ideal", "f"], None),
    ]:
        report = invoke_json(args)
        gens = report["result"]["generators"]
        reparsed = Ideal.of(job.ring, *[g for g in gens if g != "0"])
        direct = Ideal.of(job.ring, *[g for g in gens if g != "0"])
        assert reparsed == direct


@pytest.mark.parametrize("first,first_code,second", [
    (["taumixed", "--pair", "a=1/2", "--pair", "m=1"], 0, ["taumixed", "--pair", "m=1"]),
    (["jumps", "--ideal", "a", "--B", "1", "--cap", "7"], 0,
     ["jumps", "--ideal", "a", "--B", "1"]),
    (["tau", "--ideal", "m", "--c"], 1, ["tau", "--ideal", "m", "--c", "2"]),
])
def test_reused_parser_keeps_no_state_between_runs(job_path, first, first_code, second):
    def report(argv):
        code, out, err = invoke(argv + ["-i", job_path, "--format", "json"])
        assert code == 0, err
        rep = json.loads(out)
        del rep["meta"]["wall_time_ms"]
        return rep

    cli._build_parser.cache_clear()
    alone = report(second)
    alone_args = cli._build_parser().parse_args(second + ["-i", job_path])
    cli._build_parser.cache_clear()
    assert invoke(first + ["-i", job_path, "--format", "json"])[0] == first_code
    assert report(second) == alone
    assert cli._build_parser().parse_args(second + ["-i", job_path]) == alone_args
    assert cli._build_parser.cache_info().misses == 1
