"""Command-line front end: solve, verify, and generate instances as JSON.

Commands
    solve EQUATION.json            decide an orientable quadratic equation
    qsp solve INSTANCE.json        decide a quotient sum instance
    qsp verify INSTANCE.json CERT.json
                                   check a certificate
    gen {3part-h0,3part-midh,zoe,solvable}
                                   emit a generated instance/equation
    oracle EQUATION.json           brute-force an equation over a window

Exit codes: 0 positive / certificate valid; 1 negative / certificate invalid;
2 budget exhausted before a decision; 3 unreadable or malformed input;
4 precondition or shape violation, any argument the library rejects, or a
command-line usage error; 5 internal error, a fault in the program and never
a decision.  main maps exceptions to these codes in one place.  Reports are
canonical JSON on stdout (or --output, written atomically).  Set
WREATH_DIO_LOG=DEBUG|INFO|WARNING for diagnostics on stderr; DEBUG adds the
traceback of an internal error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import stat
import sys
import tempfile
import time
from functools import lru_cache
from typing import NoReturn, Optional

from .abelian import BudgetExceeded, GroupPresentation
from .codec import (
    _DECIMAL,
    CodecError,
    canonical_json,
    decode_certificate,
    decode_equation,
    decode_instance,
    digest,
    encode_certificate,
    encode_equation,
    encode_group,
    encode_instance,
)
from .hardness import (
    ThreePartInstance,
    ZoeInstance,
    gen_3part_h0,
    gen_3part_midh,
    gen_zoe,
)
from .qsp import verify_certificate
from .solvers import DEFAULT_BUDGET, SolveResult, SolverBudget, dispatch
from .wreath import Unsolvable, equation_brute_force, gen_solvable, reduce_to_qsp

EXIT_POSITIVE = 0
EXIT_NEGATIVE = 1
EXIT_UNKNOWN = 2
EXIT_PARSE = 3
EXIT_PRECONDITION = 4
EXIT_INTERNAL = 5

_DECISION_EXIT = {
    "positive": EXIT_POSITIVE,
    "negative": EXIT_NEGATIVE,
    "unknown-budget": EXIT_UNKNOWN,
}

log = logging.getLogger("wreath_dio")


class _CliError(Exception):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# plumbing


def _json_object(pairs: list) -> dict:
    """A JSON object as a dict; json would keep a repeated key's last copy
    unchecked, so a repeated key is an error that names it."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        raise CodecError(f"repeated key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


def _read_json(path: str) -> tuple[bytes, object]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise _CliError(EXIT_PARSE, f"cannot read {path}: {exc}") from None
    try:
        return raw, json.loads(raw.decode("utf-8"), object_pairs_hook=_json_object)
    except UnicodeDecodeError as exc:
        raise _CliError(EXIT_PARSE, f"{path}: not UTF-8 ({exc})") from None
    except json.JSONDecodeError as exc:
        raise _CliError(
            EXIT_PARSE,
            f"{path}: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}",
        ) from None
    except (ValueError, RecursionError) as exc:
        # a repeated key, integers past the int-string digit limit, or
        # nesting past the recursion limit
        raise _CliError(EXIT_PARSE, f"{path}: cannot parse JSON ({exc})") from None


def _output_mode(output: str) -> int:
    """The permission bits open(output, "w") leaves: a replaced file keeps
    its own, a new one gets 0o666 less the umask."""
    try:
        return stat.S_IMODE(os.stat(output).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


def _emit(text: str, output: Optional[str]) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(output))
    try:
        mode = _output_mode(output)
        fd, tmp = tempfile.mkstemp(prefix=".wreath-dio-", dir=directory)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            # mkstemp creates the file 0o600, and os.replace would keep that
            os.chmod(tmp, mode)
            os.replace(tmp, output)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        reason = exc.strerror or exc
        raise _CliError(EXIT_PRECONDITION, f"cannot write {output}: {reason}") from None


def _check_output(output: Optional[str]) -> None:
    """Reject, before any work, an --output that is empty, ends in a path
    separator, is a directory or lies in a missing one; _emit still reports
    a write that fails later."""
    if output is None:
        return
    if not os.path.basename(output):
        raise _CliError(EXIT_PRECONDITION, f"cannot write {output!r}: no file name")
    if os.path.isdir(output):
        raise _CliError(EXIT_PRECONDITION, f"cannot write {output}: Is a directory")
    if not os.path.isdir(os.path.dirname(os.path.abspath(output))):
        raise _CliError(EXIT_PRECONDITION, f"cannot write {output}: no such directory")


# --budget-seconds, once stripped: ASCII digits with an optional fraction;
# float() alone also reads "1_0", "+5", "1e3", "inf", "nan" and "٥"
_SECONDS = re.compile(r"[0-9]+(\.[0-9]+)?")


def _budget_from_args(args: argparse.Namespace) -> SolverBudget:
    seconds = args.budget_seconds.strip()
    try:
        if not _SECONDS.fullmatch(seconds):
            raise ValueError(f"max_seconds must be a decimal number, got {seconds!r}")
        return SolverBudget(
            max_delta_tuples=args.budget_delta_tuples,
            max_subgroup_tuples=args.budget_subgroup_tuples,
            max_seconds=float(seconds),
        )
    except ValueError as exc:
        raise _CliError(EXIT_PRECONDITION, f"--budget-*: {exc}") from None


def _finish(
    input_bytes: bytes, result: SolveResult, wall: float, output: Optional[str]
) -> int:
    """Log the decision, emit its report and return its exit code."""
    log.info("decision=%s method=%s", result.decision, result.method)
    cert = (
        encode_certificate(result.certificate)
        if result.certificate is not None
        else None
    )
    report = {
        "format": 1,
        "input_digest": digest(input_bytes),
        "decision": result.decision,
        "method": result.method,
        "certificate": cert,
        "wall_time_s": round(wall, 6),
        "counters": result.counters,
        "reason": result.reason,
    }
    _emit(canonical_json(report), output)
    return _DECISION_EXIT[result.decision]


def _decimal(text: str) -> int:
    """A command-line integer: once stripped, a decimal string as FORMATS.md
    spells one.  int() alone also reads "1_1", "+11" and non-ASCII digits;
    a ValueError here is a usage error, exit 4, from argparse or _csv_ints."""
    text = text.strip()
    if not _DECIMAL.fullmatch(text):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def _csv_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(_decimal(part) for part in text.split(",") if part.strip() != "")
    except ValueError:  # not a decimal, or past the int-string digit limit
        raise _CliError(EXIT_PRECONDITION, f"{what}: expected comma-separated integers") from None


def _group_from_args(prefix: str, args: argparse.Namespace) -> GroupPresentation:
    free = getattr(args, f"{prefix}_free")
    torsion = _csv_ints(getattr(args, f"{prefix}_torsion"), f"--{prefix}-torsion")
    try:
        return GroupPresentation(free, torsion)
    except ValueError as exc:
        raise _CliError(EXIT_PRECONDITION, f"--{prefix}-*: {exc}") from None


# ---------------------------------------------------------------------------
# commands


def cmd_solve_equation(args: argparse.Namespace) -> int:
    budget = _budget_from_args(args)  # a usage error comes before any work
    raw, obj = _read_json(args.equation)
    eq, _ = decode_equation(obj)
    start = time.monotonic()
    reduced = reduce_to_qsp(eq)
    if isinstance(reduced, Unsolvable):
        result = SolveResult("negative", "reduction", None, {}, reduced.reason)
    else:
        log.info(
            "reduced to QSP over %s functions, h=%s", len(reduced.fs), reduced.h
        )
        result = dispatch(reduced, budget)
    wall = time.monotonic() - start
    return _finish(raw, result, wall, args.output)


def cmd_qsp_solve(args: argparse.Namespace) -> int:
    budget = _budget_from_args(args)
    raw, obj = _read_json(args.instance)
    instance, _ = decode_instance(obj)
    start = time.monotonic()
    result = dispatch(instance, budget)
    wall = time.monotonic() - start
    return _finish(raw, result, wall, args.output)


def cmd_verify(args: argparse.Namespace) -> int:
    _, inst_obj = _read_json(args.instance)
    _, cert_obj = _read_json(args.certificate)
    instance, _ = decode_instance(inst_obj)
    cert = decode_certificate(instance.B, cert_obj)
    ok = verify_certificate(instance, cert)
    print("valid" if ok else "invalid")
    return EXIT_POSITIVE if ok else EXIT_NEGATIVE


def _gen_payload(args: argparse.Namespace) -> dict:
    if args.kind in ("3part-h0", "3part-midh"):
        values = _csv_ints(args.values, "--values")
        T = ThreePartInstance(values, args.k)
        params = {"values": list(values), "k": args.k}
    if args.kind == "3part-h0":
        A = _group_from_args("coeff", args)
        B = _group_from_args("base", args)
        if A.is_trivial():
            raise _CliError(EXIT_PRECONDITION, "coefficient group must be nontrivial")
        if B.free_rank == 0:
            raise _CliError(EXIT_PRECONDITION, "base group needs an infinite-order element")
        a = A.standard_generators()[0]
        b = B.standard_generators()[len(B.torsion)]
        payload = gen_3part_h0(T, a, b)
        params.update(coeff_group=encode_group(A), base_group=encode_group(B))
    elif args.kind == "3part-midh":
        payload = gen_3part_midh(T, args.rank)
        params["h"] = args.rank
    elif args.kind == "zoe":
        rows = tuple(
            _csv_ints(row, "--matrix") for row in args.matrix.split(";") if row.strip()
        )
        payload = gen_zoe(ZoeInstance(rows))
        params = {"matrix": [list(r) for r in rows]}
    else:
        A = _group_from_args("coeff", args)
        B = _group_from_args("base", args)
        payload, _ = gen_solvable(args.seed, A, B, args.genus, args.m)
        params = {
            "genus": args.genus,
            "m": args.m,
            "coeff_group": encode_group(A),
            "base_group": encode_group(B),
        }
    provenance = {"generator": args.kind, "params": params}
    if args.kind != "solvable":
        return encode_instance(payload, provenance)
    return encode_equation(payload, {**provenance, "seed": args.seed})


def cmd_gen(args: argparse.Namespace) -> int:
    payload = _gen_payload(args)
    _emit(canonical_json(payload), args.output)
    return EXIT_POSITIVE


def cmd_oracle(args: argparse.Namespace) -> int:
    raw, obj = _read_json(args.equation)
    eq, _ = decode_equation(obj)
    start = time.monotonic()
    try:
        found = equation_brute_force(eq, args.radius, args.max_assignments)
        decision = "positive" if found else "negative"
        reason = None if found else f"no solution within radius {args.radius}"
    except BudgetExceeded as exc:
        decision, reason = "unknown-budget", str(exc)
    wall = time.monotonic() - start
    result = SolveResult(
        decision, "equation-brute-force", None, {"radius": args.radius}, reason
    )
    return _finish(raw, result, wall, args.output)


# ---------------------------------------------------------------------------
# argument parsing


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    b = DEFAULT_BUDGET
    p.add_argument("--budget-delta-tuples", type=_decimal, default=b.max_delta_tuples)
    p.add_argument("--budget-subgroup-tuples", type=_decimal, default=b.max_subgroup_tuples)
    p.add_argument("--budget-seconds", default=str(b.max_seconds))


def _add_output_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", help="write the report here atomically instead of stdout")


def _add_group_flags(
    p: argparse.ArgumentParser, coeff_default: tuple[int, str], base_default: tuple[int, str]
) -> None:
    p.add_argument("--coeff-free", type=_decimal, default=coeff_default[0])
    p.add_argument("--coeff-torsion", default=coeff_default[1],
                   help="comma-separated invariant factors, e.g. 2,4")
    p.add_argument("--base-free", type=_decimal, default=base_default[0])
    p.add_argument("--base-torsion", default=base_default[1])


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit EXIT_PRECONDITION: code 2 means unknown-budget."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_PRECONDITION, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="wreath-dio",
        description="Decide orientable quadratic equations over wreath products"
        " of finitely generated abelian groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="decide an equation JSON file")
    p_solve.add_argument("equation")
    _add_budget_flags(p_solve)
    _add_output_flag(p_solve)
    p_solve.set_defaults(func=cmd_solve_equation)

    p_qsp = sub.add_parser("qsp", help="quotient-sum instance commands")
    qsp_sub = p_qsp.add_subparsers(dest="qsp_command", required=True)

    p_qsolve = qsp_sub.add_parser("solve", help="decide an instance JSON file")
    p_qsolve.add_argument("instance")
    _add_budget_flags(p_qsolve)
    _add_output_flag(p_qsolve)
    p_qsolve.set_defaults(func=cmd_qsp_solve)

    p_verify = qsp_sub.add_parser("verify", help="check a certificate")
    p_verify.add_argument("instance")
    p_verify.add_argument("certificate")
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("gen", help="generate instances/equations")
    gen_sub = p_gen.add_subparsers(dest="kind", required=True)

    g_h0 = gen_sub.add_parser("3part-h0", help="3-partition reduction at h=0")
    g_h0.add_argument("--values", required=True, help="comma-separated, 3k of them")
    g_h0.add_argument("--k", type=_decimal, required=True)
    _add_group_flags(g_h0, (1, ""), (1, ""))
    _add_output_flag(g_h0)
    g_h0.set_defaults(func=cmd_gen)

    g_mid = gen_sub.add_parser(
        "3part-midh", help="3-partition reduction at h = rank-1 over Z^h"
    )
    g_mid.add_argument("--values", required=True)
    g_mid.add_argument("--k", type=_decimal, required=True)
    g_mid.add_argument("--rank", type=_decimal, required=True, metavar="H",
                       help="base-group rank h (>= 1); instance budget is h-1")
    _add_output_flag(g_mid)
    g_mid.set_defaults(func=cmd_gen)

    g_zoe = gen_sub.add_parser("zoe", help="zero-one equations reduction")
    g_zoe.add_argument("--matrix", required=True,
                       help="semicolon-separated rows, e.g. 1,0;0,1")
    _add_output_flag(g_zoe)
    g_zoe.set_defaults(func=cmd_gen)

    g_sol = gen_sub.add_parser("solvable", help="random solvable equation")
    g_sol.add_argument("--genus", type=_decimal, default=1)
    g_sol.add_argument("--m", type=_decimal, default=1)
    _add_group_flags(g_sol, (0, "2"), (1, ""))
    g_sol.add_argument("--seed", type=_decimal, default=0)
    _add_output_flag(g_sol)
    g_sol.set_defaults(func=cmd_gen)

    p_oracle = sub.add_parser(
        "oracle", help="brute-force an equation over a bounded window"
    )
    p_oracle.add_argument("equation")
    p_oracle.add_argument("--radius", type=_decimal, default=2)
    p_oracle.add_argument("--max-assignments", type=_decimal, default=2_000_000)
    _add_output_flag(p_oracle)
    p_oracle.set_defaults(func=cmd_oracle)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The process-wide parser: parse_args keeps no state between calls."""
    return build_parser()


def _configure_logging() -> None:
    level_name = os.environ.get("WREATH_DIO_LOG", "").strip().upper()
    if not level_name:
        return
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command; the one place exceptions become exit codes.

    CodecError comes before ValueError, which it subclasses.  Any other
    ValueError is an argument the library rejected.  Anything else is a
    fault in the program, never a decision: one stderr line, with the
    traceback only in the DEBUG log.  argparse's SystemExit is left alone.
    """
    _configure_logging()
    args = _parser().parse_args(argv)
    try:
        _check_output(getattr(args, "output", None))
        return args.func(args)
    except _CliError as exc:
        code, message = exc.code, str(exc)
    except CodecError as exc:
        code, message = EXIT_PARSE, str(exc)
    except ValueError as exc:
        code, message = EXIT_PRECONDITION, str(exc)
    except Exception as exc:
        log.debug("internal error", exc_info=True)
        code, message = EXIT_INTERNAL, f"internal: {type(exc).__name__}: {exc}"
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
