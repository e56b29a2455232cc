"""A fault in the program exits EXIT_INTERNAL, never a decision's code."""

import inspect
import logging
import sys

import pytest

import wreath_dio
from wreath_dio.abelian import GroupPresentation
from wreath_dio.cli import EXIT_INTERNAL, EXIT_POSITIVE, main
from wreath_dio.codec import canonical_json, encode_equation, encode_instance
from wreath_dio.group_ring import SupportedFunction
from wreath_dio.qsp import QspInstance
from wreath_dio.solvers import _Level, dispatch
from wreath_dio.wreath import gen_solvable

Z = GroupPresentation(1)
Z2 = GroupPresentation(0, (2,))


def _pairs_instance(pairs):
    """pairs copies of +1 at 0 and -1 at 5 over Z: positive, and the search
    goes one node deeper per function."""
    plus = SupportedFunction.atom(Z.element((1,)), Z.element((0,)))
    minus = SupportedFunction.atom(Z.element((-1,)), Z.element((5,)))
    return QspInstance(Z, Z, (plus, minus) * pairs, 0)


def _input(tmp_path, command):
    """argv for command on an input whose solve reaches dispatch."""
    path = tmp_path / "input.json"
    if command == "solve":
        eq, _ = gen_solvable(7, Z2, Z2, 1, 1)
        path.write_text(canonical_json(encode_equation(eq)))
        return ["solve", str(path)]
    path.write_text(canonical_json(encode_instance(_pairs_instance(1))))
    return ["qsp", "solve", str(path)]


@pytest.mark.parametrize("fault", [RuntimeError, AssertionError])
@pytest.mark.parametrize("command", ["qsp solve", "solve"])
def test_solver_fault_exits_internal(tmp_path, capsys, monkeypatch, command, fault):
    def broken(*_args):
        raise fault("certificate fails to verify")

    monkeypatch.setattr(wreath_dio.cli, "dispatch", broken)
    output = tmp_path / "report.json"
    code = main(_input(tmp_path, command) + ["--output", str(output)])
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL
    assert captured.out == ""
    assert captured.err == (
        f"error: internal: {fault.__name__}: certificate fails to verify\n"
    )
    assert not output.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["input.json"]


def _solve_under_shallow_stack(tmp_path, pairs):
    path = tmp_path / f"pairs-{pairs}.json"
    path.write_text(canonical_json(encode_instance(_pairs_instance(pairs))))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 120)
    try:
        return main(["qsp", "solve", str(path)])
    finally:
        sys.setrecursionlimit(limit)


def test_recursion_fault_exits_internal(tmp_path, capsys, monkeypatch):
    # the search keeps its own stack, so 200 functions fit under the limit
    assert _solve_under_shallow_stack(tmp_path, 100) == EXIT_POSITIVE
    capsys.readouterr()

    def unbounded(instance, budget):
        return unbounded(instance, budget)

    monkeypatch.setattr(wreath_dio.cli, "dispatch", unbounded)
    assert _solve_under_shallow_stack(tmp_path, 1) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("error: internal: RecursionError: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_pairs_build_no_reach_set_for_a_child_that_vanishes(monkeypatch):
    # each placement of a pair's second atom cancels the partial sum, so
    # only the child that keeps a point needs a reach set: one per pair
    builds = []
    reachable = _Level._reachable

    def spy(level, ids):
        builds.append(ids)
        return reachable(level, ids)

    monkeypatch.setattr(_Level, "_reachable", spy)
    assert dispatch(_pairs_instance(100)).decision == "positive"
    assert len(builds) <= 100


def test_shallow_search_under_the_same_limit_decides(tmp_path, capsys):
    assert _solve_under_shallow_stack(tmp_path, 20) == EXIT_POSITIVE
    assert capsys.readouterr().err == ""


def test_internal_fault_traceback_goes_to_the_debug_log(
    tmp_path, capsys, caplog, monkeypatch
):
    def broken(*_args):
        raise RuntimeError("boom")

    monkeypatch.setattr(wreath_dio.cli, "dispatch", broken)
    caplog.set_level(logging.DEBUG, logger="wreath_dio")
    assert main(_input(tmp_path, "qsp solve")) == EXIT_INTERNAL
    faults = [r for r in caplog.records if r.exc_info is not None]
    assert len(faults) == 1
    assert faults[0].levelno == logging.DEBUG
    assert faults[0].exc_info[0] is RuntimeError
    assert "Traceback" not in capsys.readouterr().err
