"""Command-line interface: exit codes, report schema, generators, verify."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import wreath_dio
from wreath_dio.abelian import COORD_CAP, GroupPresentation
from wreath_dio.cli import (
    EXIT_NEGATIVE,
    EXIT_PARSE,
    EXIT_POSITIVE,
    EXIT_PRECONDITION,
    EXIT_UNKNOWN,
    _budget_from_args,
    build_parser,
    main,
)
from wreath_dio.codec import (
    canonical_json,
    decode_equation,
    decode_instance,
    digest,
    encode_certificate,
    encode_equation,
    encode_group,
    encode_instance,
)
from wreath_dio.group_ring import SupportedFunction
from wreath_dio.qsp import Certificate, QspInstance
from wreath_dio.solvers import DEFAULT_BUDGET
from wreath_dio.wreath import OrientableEquation, WreathElement, gen_solvable

Z = GroupPresentation(1)
ZxZ = GroupPresentation(2)
Z2 = GroupPresentation(0, (2,))

REPORT_KEYS = {
    "format",
    "input_digest",
    "decision",
    "method",
    "certificate",
    "wall_time_s",
    "counters",
    "reason",
}


def atom(A, B, coeff, point):
    return SupportedFunction.atom(A.element(coeff), B.element(point))


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(canonical_json(payload))
    return path


def _positive_pair_instance(h=0):
    """Two unit atoms of opposite sign; delta (0, 5) gives a plain zero."""
    fs = (atom(Z, Z, (1,), (0,)), atom(Z, Z, (-1,), (5,)))
    return QspInstance(Z, Z, fs, h)


def _negative_instance():
    """A single atom with nonzero total stays nonzero in every quotient."""
    return QspInstance(Z, Z, (atom(Z, Z, (1,), (0,)),), 0)


def _mod4_instance(h=1):
    """Two unit lamps four steps apart over Z_2: zero mod <4> and only there."""
    f = atom(Z2, Z, (1,), (0,)) + atom(Z2, Z, (1,), (4,))
    return QspInstance(Z2, Z, (f,), h)


def _delta_sum_equation():
    """One constant with nonzero base shift; no assignment can cancel it."""
    c = WreathElement(Z.element((1,)), SupportedFunction.zero(Z2, Z))
    return OrientableEquation(Z2, Z, 1, (c,))


def _report_from(capsys):
    out = capsys.readouterr().out
    report = json.loads(out)
    assert set(report) == REPORT_KEYS
    assert report["format"] == 1
    assert isinstance(report["wall_time_s"], float)
    assert report["wall_time_s"] >= 0
    assert isinstance(report["counters"], dict)
    return report


# ---------------------------------------------------------------------------
# qsp solve


def test_qsp_solve_positive_report_schema(tmp_path, capsys):
    path = _write(tmp_path, "inst.json", encode_instance(_positive_pair_instance()))
    code = main(["qsp", "solve", str(path)])
    report = _report_from(capsys)
    assert code == EXIT_POSITIVE
    assert report["decision"] == "positive"
    assert report["method"] == "general"
    assert report["certificate"] is not None
    assert report["input_digest"] == digest(path.read_bytes())


def test_qsp_solve_negative_exit(tmp_path, capsys):
    path = _write(tmp_path, "inst.json", encode_instance(_negative_instance()))
    code = main(["qsp", "solve", str(path)])
    report = _report_from(capsys)
    assert code == EXIT_NEGATIVE
    assert report["decision"] == "negative"
    assert report["certificate"] is None


def test_qsp_solve_output_file_atomic(tmp_path, capsys):
    path = _write(tmp_path, "inst.json", encode_instance(_positive_pair_instance()))
    out = tmp_path / "report.json"
    code = main(["qsp", "solve", str(path), "--output", str(out)])
    assert code == EXIT_POSITIVE
    assert capsys.readouterr().out == ""
    text = out.read_text()
    assert text.endswith("\n")
    report = json.loads(text)
    assert set(report) == REPORT_KEYS
    assert report["decision"] == "positive"
    # no temp files left behind
    assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.json", "report.json"]


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask022", "umask077"])
def test_output_file_gets_the_mode_open_would_give(tmp_path, umask):
    # a new file gets 0o666 less the umask, a replaced one keeps its mode,
    # as open(path, "w") leaves them; the atomic write's temporary file
    # starts at 0o600
    out = tmp_path / "zoe.json"
    argv = ["gen", "zoe", "--matrix", "1,0;0,1", "--output", str(out)]
    old = os.umask(umask)
    try:
        assert main(argv) == EXIT_POSITIVE
        assert out.stat().st_mode & 0o777 == 0o666 & ~umask
        out.chmod(0o640)
        assert main(argv) == EXIT_POSITIVE
        assert out.stat().st_mode & 0o777 == 0o640
    finally:
        os.umask(old)


@pytest.mark.parametrize("command", [
    ["qsp", "solve", "inst.json"],
    ["solve", "eq.json"],
    ["gen", "zoe", "--matrix", "1,0;0,1"],
])
def test_unwritable_output_is_a_precondition_error(tmp_path, capsys, command):
    _write(tmp_path, "inst.json", encode_instance(_positive_pair_instance()))
    _write(tmp_path, "eq.json", encode_equation(gen_solvable(7, Z2, Z2, 1, 1)[0]))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in command]
    # a target in a missing directory, and a target that is a directory
    for out in (tmp_path / "nodir" / "r.json", tmp_path):
        code = main([*argv, "--output", str(out)])
        cap = capsys.readouterr()
        assert code == EXIT_PRECONDITION
        assert cap.err.startswith("error: cannot write ")
        assert "Traceback" not in cap.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["eq.json", "inst.json"]


@pytest.mark.parametrize("command", [
    ["qsp", "solve", "inst.json"],
    ["solve", "eq.json"],
])
def test_unwritable_output_is_rejected_before_solving(
    tmp_path, capsys, monkeypatch, command
):
    def no_solve(*args, **kwargs):
        raise AssertionError("dispatch ran despite an unwritable --output")

    monkeypatch.setattr(wreath_dio.cli, "dispatch", no_solve)
    _write(tmp_path, "inst.json", encode_instance(_positive_pair_instance()))
    _write(tmp_path, "eq.json", encode_equation(gen_solvable(7, Z2, Z2, 1, 1)[0]))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in command]
    # an empty --output names the working directory's parent: work there
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    outs = (
        str(tmp_path / "missing" / "r.json"),
        str(tmp_path),
        "",
        str(tmp_path / "missing") + os.sep,
        str(tmp_path / "inst.json") + os.sep,
    )
    for out in outs:
        code = main([*argv, "--output", out])
        assert code == EXIT_PRECONDITION
        assert capsys.readouterr().err.startswith("error: cannot write ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["eq.json", "inst.json", "work"]
    assert not any(work.iterdir())


def test_qsp_solve_unknown_budget_exit(tmp_path, capsys):
    fs = tuple(
        atom(Z, ZxZ, (1,), (k, -k)) - atom(Z, ZxZ, (1,), (k + 5, k)) for k in range(4)
    )
    path = _write(tmp_path, "inst.json", encode_instance(QspInstance(Z, ZxZ, fs, 1)))
    code = main(["qsp", "solve", str(path), "--budget-delta-tuples", "5"])
    report = _report_from(capsys)
    assert code == EXIT_UNKNOWN
    assert report["decision"] == "unknown-budget"
    assert report["certificate"] is None
    assert report["reason"]


@pytest.mark.parametrize(
    "text, expected",
    [
        ('{"A": [1,\n  oops', ("line 2", "column")),
        ("[" * 200_000, ("recursion",)),
        ('{"A": ' + "9" * 5000 + "}", ("digits",)),
    ],
    ids=["syntax", "deep-nesting", "long-number"],
)
def test_qsp_solve_malformed_json_exit(tmp_path, capsys, text, expected):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code = main(["qsp", "solve", str(path)])
    cap = capsys.readouterr()
    assert code == EXIT_PARSE
    for fragment in expected:
        assert fragment in cap.err


def test_qsp_solve_missing_file_exit(tmp_path, capsys):
    code = main(["qsp", "solve", str(tmp_path / "nope.json")])
    assert code == EXIT_PARSE
    assert "error:" in capsys.readouterr().err


def test_qsp_solve_wrong_schema_exit(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text('{"A": {"free_rank": 1, "torsion": []}}')
    code = main(["qsp", "solve", str(path)])
    assert code == EXIT_PARSE


def test_qsp_solve_bad_budget_flag_exit(tmp_path, capsys):
    path = _write(tmp_path, "inst.json", encode_instance(_negative_instance()))
    for flag in (["--budget-delta-tuples", "0"], ["--budget-seconds", "nan"]):
        code = main(["qsp", "solve", str(path), *flag])
        cap = capsys.readouterr()
        assert code == EXIT_PRECONDITION
        assert "--budget-" in cap.err


@pytest.mark.parametrize(
    "seconds", ["1_0", "+5", "٥", "1e3", "inf", "Infinity", ".5", "1.", "nan"]
)
@pytest.mark.parametrize("command", ["solve", "qsp-solve"])
def test_budget_seconds_must_be_a_decimal_number(tmp_path, capsys, command, seconds):
    # float() alone reads every one of these; the equation reduces to an
    # unsolvable one, so a budget read only before the search went unread
    if command == "solve":
        equation = encode_equation(_delta_sum_equation())
        argv = ["solve", _write(tmp_path, "eq.json", equation)]
    else:
        instance = encode_instance(_positive_pair_instance())
        argv = ["qsp", "solve", _write(tmp_path, "inst.json", instance)]
    code = main([*map(str, argv), "--budget-seconds", seconds])
    cap = capsys.readouterr()
    assert code == EXIT_PRECONDITION
    assert "--budget-" in cap.err and cap.out == ""


@pytest.mark.parametrize("seconds", ["60", "0.5", "60.0", " 60.0 ", "007.250"])
def test_budget_seconds_reads_decimal_numbers(tmp_path, capsys, seconds):
    path = _write(tmp_path, "inst.json", encode_instance(_positive_pair_instance()))
    code = main(["qsp", "solve", str(path), "--budget-seconds", seconds])
    assert code == EXIT_POSITIVE
    assert _report_from(capsys)["decision"] == "positive"


@pytest.mark.parametrize("command", [["solve"], ["qsp", "solve"]])
def test_removed_ball_budget_flag_is_a_usage_error(tmp_path, capsys, command):
    path = _write(tmp_path, "inst.json", encode_instance(_negative_instance()))
    with pytest.raises(SystemExit) as exc:
        main([*command, str(path), "--budget-ball-elements", "1"])
    assert exc.value.code == EXIT_PRECONDITION
    assert "--budget-ball-elements" in capsys.readouterr().err


@pytest.mark.parametrize("kind", [
    ["3part-h0", "--values", "1,1,1", "--k", "1"],
    ["3part-midh", "--values", "1,1,1", "--k", "1", "--rank", "2"],
    ["zoe", "--matrix", "1"],
])
def test_removed_seed_of_a_deterministic_generator_is_a_usage_error(capsys, kind):
    with pytest.raises(SystemExit) as exc:
        main(["gen", *kind, "--seed", "1"])
    assert exc.value.code == EXIT_PRECONDITION
    assert "--seed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# qsp verify


def test_verify_valid_certificate(tmp_path, capsys):
    inst = _mod4_instance(h=1)
    cert = Certificate((Z.zero(),), (Z.element((4,)),))
    ipath = _write(tmp_path, "inst.json", encode_instance(inst))
    cpath = _write(tmp_path, "cert.json", encode_certificate(cert))
    code = main(["qsp", "verify", str(ipath), str(cpath)])
    assert code == EXIT_POSITIVE
    assert capsys.readouterr().out == "valid\n"


def test_verify_invalid_certificate(tmp_path, capsys):
    inst = _mod4_instance(h=1)
    cert = Certificate((Z.zero(),), ())  # plain sum is nonzero
    ipath = _write(tmp_path, "inst.json", encode_instance(inst))
    cpath = _write(tmp_path, "cert.json", encode_certificate(cert))
    code = main(["qsp", "verify", str(ipath), str(cpath)])
    assert code == EXIT_NEGATIVE
    assert capsys.readouterr().out == "invalid\n"


def test_verify_rank_violation_is_invalid(tmp_path, capsys):
    inst = _mod4_instance(h=0)
    cert = Certificate((Z.zero(),), (Z.element((4,)),))  # rank 1 > h = 0
    ipath = _write(tmp_path, "inst.json", encode_instance(inst))
    cpath = _write(tmp_path, "cert.json", encode_certificate(cert))
    code = main(["qsp", "verify", str(ipath), str(cpath)])
    assert code == EXIT_NEGATIVE
    assert capsys.readouterr().out == "invalid\n"


def test_verify_shape_mismatch_exit(tmp_path, capsys):
    inst = _mod4_instance(h=1)
    cert = Certificate((Z.zero(), Z.zero()), ())  # two deltas, one function
    ipath = _write(tmp_path, "inst.json", encode_instance(inst))
    cpath = _write(tmp_path, "cert.json", encode_certificate(cert))
    code = main(["qsp", "verify", str(ipath), str(cpath)])
    cap = capsys.readouterr()
    assert code == EXIT_PRECONDITION
    assert "delta count" in cap.err


def test_verify_malformed_certificate_exit(tmp_path, capsys):
    ipath = _write(tmp_path, "inst.json", encode_instance(_mod4_instance()))
    cpath = tmp_path / "cert.json"
    cpath.write_text('{"deltas": [[0]]}')
    code = main(["qsp", "verify", str(ipath), str(cpath)])
    assert code == EXIT_PARSE


# ---------------------------------------------------------------------------
# solve (equations)


def test_solve_equation_positive(tmp_path, capsys):
    eq, _ = gen_solvable(7, Z2, Z2, 1, 1)
    path = _write(tmp_path, "eq.json", encode_equation(eq))
    code = main(["solve", str(path)])
    report = _report_from(capsys)
    assert code == EXIT_POSITIVE
    assert report["decision"] == "positive"
    assert report["input_digest"] == digest(path.read_bytes())


def test_solve_equation_delta_sum_negative(tmp_path, capsys):
    path = _write(tmp_path, "eq.json", encode_equation(_delta_sum_equation()))
    code = main(["solve", str(path)])
    report = _report_from(capsys)
    assert code == EXIT_NEGATIVE
    assert report["decision"] == "negative"
    assert report["method"] == "reduction"
    assert report["reason"] == "delta-sum nonzero"


def test_solve_equation_malformed_exit(tmp_path, capsys):
    path = tmp_path / "eq.json"
    path.write_text("[]")
    code = main(["solve", str(path)])
    assert code == EXIT_PARSE


def test_solve_equation_oversized_genus_exit(tmp_path, capsys):
    """A genus past the int-string digit limit is a parse error, not a crash."""
    text = canonical_json(encode_equation(_delta_sum_equation()))
    assert '"genus":1' in text
    path = tmp_path / "eq.json"
    path.write_text(text.replace('"genus":1', '"genus":' + "7" * 5000))
    code = main(["solve", str(path)])
    assert code == EXIT_PARSE
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gen


def test_gen_zoe_provenance_and_decode(tmp_path, capsys):
    out = tmp_path / "zoe.json"
    code = main(["gen", "zoe", "--matrix", "1,0;0,1", "--output", str(out)])
    assert code == EXIT_POSITIVE
    obj = json.loads(out.read_text())
    prov = obj["provenance"]
    assert prov["generator"] == "zoe"
    assert prov["params"]["matrix"] == [[1, 0], [0, 1]]
    instance, _ = decode_instance(obj)
    assert instance.A.free_rank == 2
    assert instance.B.torsion == (2,)
    assert instance.h == 0


def test_gen_3part_h0_stdout_decodes(capsys):
    code = main(["gen", "3part-h0", "--values", "1,1,1", "--k", "1"])
    assert code == EXIT_POSITIVE
    obj = json.loads(capsys.readouterr().out)
    instance, _ = decode_instance(obj)
    assert len(instance.fs) == 4  # three value blocks plus the target
    assert instance.h == 0


def test_gen_3part_midh_decodes(capsys):
    code = main(["gen", "3part-midh", "--values", "1,1,1", "--k", "1", "--rank", "2"])
    assert code == EXIT_POSITIVE
    obj = json.loads(capsys.readouterr().out)
    instance, _ = decode_instance(obj)
    assert instance.B.free_rank == 2
    assert instance.h == 1
    assert obj["provenance"]["params"]["h"] == 2


def test_gen_deterministic_bytes(tmp_path, capsys):
    args = ["gen", "3part-h0", "--values", "1,1,1", "--k", "1"]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(args + ["--output", str(a)]) == EXIT_POSITIVE
    assert main(args + ["--output", str(b)]) == EXIT_POSITIVE
    assert a.read_bytes() == b.read_bytes()

    assert main(["gen", "zoe", "--matrix", "1"]) == EXIT_POSITIVE
    first = capsys.readouterr().out
    assert main(["gen", "zoe", "--matrix", "1"]) == EXIT_POSITIVE
    assert capsys.readouterr().out == first


def test_gen_solvable_equation_decodes(capsys):
    code = main(["gen", "solvable", "--genus", "1", "--m", "1", "--seed", "3"])
    assert code == EXIT_POSITIVE
    obj = json.loads(capsys.readouterr().out)
    assert obj["provenance"]["generator"] == "solvable"
    eq, prov = decode_equation(obj)
    assert eq.genus == 1
    assert eq.m == 1
    assert prov["seed"] == 3


def test_gen_solvable_provenance_encodes_large_torsion_as_string(capsys):
    # FORMATS.md: integers past 2^53 - 1 are strings, in provenance too
    big = 2**54
    code = main(["gen", "solvable", "--coeff-torsion", str(big)])
    assert code == EXIT_POSITIVE
    obj = json.loads(capsys.readouterr().out)
    assert obj["A"]["torsion"] == [str(big)]
    assert obj["provenance"]["params"]["coeff_group"] == {
        "free_rank": 0, "torsion": [str(big)]
    }
    assert obj["provenance"]["params"]["base_group"] == {"free_rank": 1, "torsion": []}


def test_gen_window_violation_exit(capsys):
    # L = 6: 1 and 3 fall outside (1.5, 3)
    code = main(["gen", "3part-h0", "--values", "1,2,3", "--k", "1"])
    cap = capsys.readouterr()
    assert code == EXIT_PRECONDITION
    assert cap.err.startswith("error:")


def test_gen_bad_values_string_exit(capsys):
    code = main(["gen", "3part-h0", "--values", "1,x,1", "--k", "1"])
    assert code == EXIT_PRECONDITION
    assert "--values" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["3part-h0", "--values", "1_1,+11, 11", "--k", "1"],
        ["3part-h0", "--values", "11,11,\u0661\u0661", "--k", "1"],
        ["3part-h0", "--values", "9" * 5000 + ",1,1", "--k", "1"],
        ["3part-h0", "--values", "1,1,1", "--k", "1", "--base-torsion", "+2"],
        ["zoe", "--matrix", "\u0661,0;0,1"],
    ],
    ids=["underscore-and-plus", "arabic-indic", "past-digit-limit", "plus-torsion", "zoe"],
)
def test_gen_list_integer_must_be_decimal(capsys, argv):
    # FORMATS.md's integer convention: int() alone reads 1_1, +11 and
    # Arabic-Indic digits, and fails only past its digit limit
    code = main(["gen", *argv])
    err = capsys.readouterr().err
    assert code == EXIT_PRECONDITION
    assert "expected comma-separated integers" in err


def test_gen_list_integers_are_stripped(capsys):
    code = main(["gen", "3part-h0", "--values", " 11, 11,,11 ", "--k", "1"])
    assert code == EXIT_POSITIVE
    assert json.loads(capsys.readouterr().out)["provenance"]["params"]["values"] == [11] * 3


@pytest.mark.parametrize("k", ["1_1", "+1", "\u0661", "1.0"])
def test_gen_integer_option_must_be_decimal(capsys, k):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "3part-h0", "--values", "1,1,1", "--k", k])
    assert exc.value.code == EXIT_PRECONDITION
    assert "argument --k" in capsys.readouterr().err


@pytest.mark.parametrize("n", [COORD_CAP + 1, 100_000], ids=["cap+1", "100000"])
@pytest.mark.parametrize(
    "flags",
    [
        ["3part-midh", "--values", "1,1,1", "--k", "1", "--rank"],
        ["3part-h0", "--values", "1,1,1", "--k", "1", "--base-free"],
        ["3part-h0", "--values", "1,1,1", "--k", "1", "--coeff-free"],
        ["solvable", "--base-free"],
    ],
    ids=["midh-rank", "h0-base", "h0-coeff", "solvable-base"],
)
def test_gen_past_the_coordinate_cap_exits_before_building(capsys, flags, n):
    code = main(["gen", *flags, str(n)])
    cap = capsys.readouterr()
    assert code == EXIT_PRECONDITION
    assert cap.out == "" and f"{n} coordinates, past the cap {COORD_CAP}" in cap.err


def test_gen_zoe_past_the_coordinate_cap_exits_4(capsys):
    # A = Z^n for an n-column matrix
    n = COORD_CAP + 1
    rows = [",".join("1" if i == j else "0" for j in range(n)) for i in range(n)]
    code = main(["gen", "zoe", "--matrix", ";".join(rows)])
    cap = capsys.readouterr()
    assert code == EXIT_PRECONDITION
    assert cap.out == "" and f"{n} coordinates, past the cap {COORD_CAP}" in cap.err


PAST_THE_CAP = {
    "free": {"free_rank": COORD_CAP + 1, "torsion": []},
    "torsion": {"free_rank": 0, "torsion": [2] * (COORD_CAP + 1)},
}


@pytest.mark.parametrize("group", sorted(PAST_THE_CAP))
@pytest.mark.parametrize("side", ["A", "B"])
@pytest.mark.parametrize(
    "command, payload",
    [
        (["qsp", "solve"], {"fs": [], "h": 0}),
        (["solve"], {"constants": [], "genus": 1}),
    ],
    ids=["qsp-solve", "solve"],
)
def test_decoded_group_past_the_coordinate_cap_exits_3(
    tmp_path, capsys, command, payload, side, group
):
    payload = {"A": encode_group(Z2), "B": encode_group(Z), **payload}
    payload[side] = PAST_THE_CAP[group]
    code = main([*command, str(_write(tmp_path, "input.json", payload))])
    cap = capsys.readouterr()
    assert code == EXIT_PARSE
    assert cap.out == "" and f"{COORD_CAP + 1} coordinates, past the cap {COORD_CAP}" in cap.err


def test_gen_trivial_coefficient_group_exit(capsys):
    code = main(
        ["gen", "3part-h0", "--values", "1,1,1", "--k", "1",
         "--coeff-free", "0", "--coeff-torsion", ""]
    )
    assert code == EXIT_PRECONDITION
    assert "nontrivial" in capsys.readouterr().err


def test_gen_finite_base_group_exit(capsys):
    code = main(
        ["gen", "3part-h0", "--values", "1,1,1", "--k", "1",
         "--base-free", "0", "--base-torsion", "2"]
    )
    assert code == EXIT_PRECONDITION
    assert "infinite-order" in capsys.readouterr().err


def test_gen_midh_rank_zero_exit(capsys):
    code = main(["gen", "3part-midh", "--values", "1,1,1", "--k", "1", "--rank", "0"])
    assert code == EXIT_PRECONDITION


def test_gen_ragged_matrix_exit(capsys):
    code = main(["gen", "zoe", "--matrix", "1,0;1"])
    assert code == EXIT_PRECONDITION


@pytest.mark.parametrize("shape", [["--m", "-1"], ["--genus", "-1"]])
def test_gen_solvable_negative_shape_exit(capsys, shape):
    code = main(["gen", "solvable", *shape])
    cap = capsys.readouterr()
    assert code == EXIT_PRECONDITION
    assert cap.err.startswith("error:") and "nonnegative" in cap.err
    assert "Traceback" not in cap.err and cap.out == ""


# ---------------------------------------------------------------------------
# oracle


def test_oracle_positive(tmp_path, capsys):
    eq, _ = gen_solvable(11, Z2, Z2, 1, 1)
    path = _write(tmp_path, "eq.json", encode_equation(eq))
    code = main(["oracle", str(path), "--radius", "2"])
    report = _report_from(capsys)
    assert code == EXIT_POSITIVE
    assert report["decision"] == "positive"
    assert report["method"] == "equation-brute-force"
    assert report["counters"] == {"radius": 2}


def test_oracle_negative(tmp_path, capsys):
    path = _write(tmp_path, "eq.json", encode_equation(_delta_sum_equation()))
    code = main(["oracle", str(path), "--radius", "1"])
    report = _report_from(capsys)
    assert code == EXIT_NEGATIVE
    assert report["decision"] == "negative"
    assert "radius 1" in report["reason"]


def test_oracle_budget_exit(tmp_path, capsys):
    path = _write(tmp_path, "eq.json", encode_equation(_delta_sum_equation()))
    code = main(["oracle", str(path), "--radius", "1", "--max-assignments", "1"])
    report = _report_from(capsys)
    assert code == EXIT_UNKNOWN
    assert report["decision"] == "unknown-budget"


@pytest.mark.parametrize(
    "flags", [["--radius", "-1"], ["--max-assignments", "0"], ["--max-assignments", "-5"]]
)
def test_oracle_empty_window_or_budget_exit(tmp_path, capsys, flags):
    path = _write(tmp_path, "eq.json", encode_equation(_delta_sum_equation()))
    code = main(["oracle", str(path), *flags])
    cap = capsys.readouterr()
    assert code == EXIT_PRECONDITION
    assert cap.err.startswith("error:") and cap.out == ""


def test_oracle_oversized_window_exits_unknown(tmp_path, capsys):
    # the window holds 16001 * 2^16001 elements: more digits than Python
    # formats, so the cap is compared without building that count
    path = tmp_path / "eq.json"
    code = main(
        ["gen", "solvable", "--genus", "1", "--m", "1", "--coeff-torsion", "2",
         "--base-free", "1", "--seed", "3", "--output", str(path)]
    )
    assert code == EXIT_POSITIVE
    code = main(["oracle", str(path), "--radius", "8000"])
    report = _report_from(capsys)
    assert code == EXIT_UNKNOWN
    assert report["decision"] == "unknown-budget"
    assert report["reason"] == "window holds more than 200000 wreath elements"


def test_oracle_radius_zero_searches_the_identity_shift(tmp_path, capsys):
    path = _write(tmp_path, "eq.json", encode_equation(_delta_sum_equation()))
    code = main(["oracle", str(path), "--radius", "0"])
    report = _report_from(capsys)
    assert code == EXIT_NEGATIVE
    assert report["counters"] == {"radius": 0}


# ---------------------------------------------------------------------------
# plumbing


def test_missing_subcommand_raises_systemexit():
    with pytest.raises(SystemExit):
        main([])


def test_usage_error_exits_precondition_not_unknown(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve"])
    assert exc.value.code == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert err.startswith("usage: wreath-dio solve")
    assert "the following arguments are required: equation" in err


@pytest.mark.parametrize(
    "method",
    ["fastest", "finite-b", "bounded-m", "single-f", "auto", "big-h", "general"],
)
def test_bad_method_choice_exits_precondition(method, tmp_path, capsys):
    # dispatch picks the rule from the instance; there is no --method
    path = _write(tmp_path, "inst.json", encode_instance(_positive_pair_instance()))
    with pytest.raises(SystemExit) as exc:
        main(["qsp", "solve", str(path), "--method", method])
    assert exc.value.code == EXIT_PRECONDITION
    assert "unrecognized arguments: --method" in capsys.readouterr().err


def test_reused_parser_gives_each_call_the_defaults(tmp_path, capsys):
    path = _write(tmp_path, "inst.json", encode_instance(_positive_pair_instance()))
    out = tmp_path / "report.json"
    code = main(
        ["qsp", "solve", str(path), "--output", str(out), "--budget-delta-tuples", "1"]
    )
    assert code == EXIT_UNKNOWN
    assert json.loads(out.read_text())["decision"] == "unknown-budget"
    assert capsys.readouterr().out == ""
    # no flags: the default budget, and the report goes to stdout
    code = main(["qsp", "solve", str(path)])
    assert code == EXIT_POSITIVE
    assert _report_from(capsys)["decision"] == "positive"
    assert json.loads(out.read_text())["decision"] == "unknown-budget"


def test_budget_flag_defaults_are_the_solver_defaults():
    args = build_parser().parse_args(["qsp", "solve", "inst.json"])
    assert _budget_from_args(args) == DEFAULT_BUDGET


def test_build_parser_returns_a_fresh_parser():
    assert build_parser() is not build_parser()


def test_module_entrypoint_and_log_env(tmp_path):
    inst = _write(tmp_path, "inst.json", encode_instance(_negative_instance()))
    # The child imports the same package as this process: src/ on a plain
    # checkout, site-packages on an install. Nothing else leaks in from the
    # outer environment (a relative PYTHONPATH, an outer WREATH_DIO_LOG).
    package_root = pathlib.Path(wreath_dio.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "wreath_dio.cli", "qsp", "solve", str(inst)],
        capture_output=True,
        text=True,
        env={
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": str(package_root),
            "WREATH_DIO_LOG": "INFO",
        },
    )
    # A crash on import also exits 1, the same code as EXIT_NEGATIVE.
    for marker in ("Traceback", "ModuleNotFoundError"):
        assert marker not in proc.stderr, proc.stderr
    assert proc.returncode == EXIT_NEGATIVE
    assert json.loads(proc.stdout)["decision"] == "negative"
    assert "decision=negative" in proc.stderr
