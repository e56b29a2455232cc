"""Command-line interface: exit codes, report schema, generators, verify."""

import json
import pathlib
import subprocess
import sys

import pytest

import wreath_dio
from wreath_dio.abelian import GroupPresentation
from wreath_dio.cli import (
    EXIT_NEGATIVE,
    EXIT_PARSE,
    EXIT_POSITIVE,
    EXIT_PRECONDITION,
    EXIT_UNKNOWN,
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
    encode_instance,
)
from wreath_dio.group_ring import SupportedFunction
from wreath_dio.qsp import Certificate, QspInstance
from wreath_dio.solvers import dispatch
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


def test_qsp_solve_forced_method(tmp_path, capsys):
    path = _write(tmp_path, "inst.json", encode_instance(_positive_pair_instance(h=1)))
    code = main(["qsp", "solve", str(path), "--method", "big-h"])
    report = _report_from(capsys)
    assert code == EXIT_POSITIVE
    assert report["method"] == "big-h"


def test_qsp_solve_forced_method_precondition_exit(tmp_path, capsys):
    # big-h needs h >= rank(B); this instance has h = 0 over Z
    path = _write(tmp_path, "inst.json", encode_instance(_positive_pair_instance(h=0)))
    code = main(["qsp", "solve", str(path), "--method", "big-h"])
    cap = capsys.readouterr()
    assert code == EXIT_PRECONDITION
    assert cap.out == ""
    assert cap.err.startswith("error: --method big-h")


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
    code = main(["qsp", "solve", str(path), "--budget-delta-tuples", "0"])
    cap = capsys.readouterr()
    assert code == EXIT_PRECONDITION
    assert "--budget-" in cap.err


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
    assert prov["seed"] == 0
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


@pytest.mark.parametrize("method", ["fastest", "finite-b", "bounded-m"])
def test_bad_method_choice_exits_precondition(method, tmp_path, capsys):
    path = _write(tmp_path, "inst.json", encode_instance(_positive_pair_instance()))
    with pytest.raises(SystemExit) as exc:
        main(["qsp", "solve", str(path), "--method", method])
    assert exc.value.code == EXIT_PRECONDITION
    assert f"invalid choice: '{method}'" in capsys.readouterr().err


def test_reused_parser_gives_each_call_the_defaults(tmp_path, capsys):
    instance = _positive_pair_instance(h=1)
    auto_method = dispatch(instance).method
    assert auto_method != "general"
    path = _write(tmp_path, "inst.json", encode_instance(instance))
    out = tmp_path / "report.json"
    code = main(
        ["qsp", "solve", str(path), "--output", str(out), "--method", "general"]
    )
    assert code == EXIT_POSITIVE
    assert json.loads(out.read_text())["method"] == "general"
    assert capsys.readouterr().out == ""
    # no --output and no --method: the report goes to stdout, from dispatch
    code = main(["qsp", "solve", str(path)])
    assert code == EXIT_POSITIVE
    assert _report_from(capsys)["method"] == auto_method
    assert json.loads(out.read_text())["method"] == "general"


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
