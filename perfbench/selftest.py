"""Self-test of the benchmark harness on a handful of inputs.

    python3 perfbench/selftest.py

Checks that the correctness gate trips on a forced wrong verdict, on a
tampered certificate and on a wrong CLI exit code; that a tripped run prints
no timings and exits 1; that one seed gives one input digest and one set of
counters; and that the metric names a run prints are exactly those in
BENCHMARK.json.  Takes under a minute; exits 1 if any check fails.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import sys
import types

import run
import workloads

SEED = 0


def tiny(workload: str) -> list:
    """Up to three positives and three negatives from fast families."""
    families = {
        "h0-reductions": ("zoe-n3",),
        "rank-search": ("single-Z3-h1",),
        "equation-cli": ("solvable-Z", "unbalanced"),
    }[workload]
    cases = [c for c in workloads.GENERATORS[workload](SEED) if c.family in families]
    picked = ([c for c in cases if c.expected == workloads.POSITIVE][:3]
              + [c for c in cases if c.expected == workloads.NEGATIVE][:3])
    workloads.write_inputs(picked, os.path.join(run.OUT, "selftest", workload))
    return picked


def gate_trips(cases, api=None) -> bool:
    try:
        run.run_pass(api or run.Api(), run.solvers.SolverBudget(), cases)
    except run.GateError:
        return True
    return False


def flipped(cases, index: int) -> list:
    out = [dataclasses.replace(c) for c in cases]
    c = out[index]
    c.expected = workloads.NEGATIVE if c.expected == workloads.POSITIVE else workloads.POSITIVE
    return out


class TamperingApi(run.Api):
    """Adds a generator to every certificate: at h = 0 the subgroup's rank
    becomes 1 > h, so no tampered certificate is valid."""

    def __init__(self) -> None:
        super().__init__()

        def dispatch(instance, budget):
            result = run.solvers.dispatch(instance, budget)
            if result.certificate is None:
                return result
            cert = result.certificate
            extra = instance.B.standard_generators()[-1]
            bad = type(cert)(cert.deltas, cert.subgroup_gens + (extra,))
            return dataclasses.replace(result, certificate=bad)

        self.solvers = types.SimpleNamespace(dispatch=dispatch)


class WrongExitApi(run.Api):
    """The CLI prints its report but exits as if the decision were the other."""

    def __init__(self) -> None:
        super().__init__()

        def main(argv):
            code = run.cli.main(argv)
            return 1 - code if argv[0] == "solve" else code

        self.cli = types.SimpleNamespace(main=main)


def run_main(workload: str, cases, trace: int) -> tuple[int, dict]:
    """run.main on the given inputs, with its output under a scratch folder."""
    saved = workloads.GENERATORS[workload], run.OUT
    workloads.GENERATORS[workload] = lambda seed: [dataclasses.replace(c) for c in cases]
    run.OUT = os.path.join(saved[1], "selftest")
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", workload, "--seed", str(SEED),
                             "--seconds", "0", "--trace", str(trace)])
    finally:
        workloads.GENERATORS[workload], run.OUT = saved
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def main() -> int:
    if run.LIBRARY_MISSING is not None:
        print(f"error: {run.LIBRARY_MISSING}", file=sys.stderr)
        return 2
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {key: {m["name"] for m in spec[key]} for key in ("end_to_end", "per_layer")}
    failures = []

    def check(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for workload in workloads.WORKLOADS:
        cases = tiny(workload)
        check(not gate_trips(cases), f"{workload}: known answers pass the gate")
        check(gate_trips(flipped(cases, 0)), f"{workload}: a wrong known answer trips the gate")
        a = workloads.input_digest(workloads.GENERATORS[workload](SEED))
        b = workloads.input_digest(workloads.GENERATORS[workload](SEED))
        check(a == b, f"{workload}: one seed gives one input digest")
        p1 = run.run_pass(run.Api(), run.solvers.SolverBudget(), cases)
        p2 = run.run_pass(run.Api(), run.solvers.SolverBudget(), cases)
        check(p1.counters == p2.counters, f"{workload}: two passes do the same work")

    h0 = tiny("h0-reductions")
    check(gate_trips(h0, TamperingApi()), "h0-reductions: a tampered certificate trips the gate")

    check(gate_trips(tiny("equation-cli"), WrongExitApi()),
          "equation-cli: an exit code that disagrees with the decision trips the gate")

    code, result = run_main("h0-reductions", flipped(h0, 0), 0)
    check(code == 1 and result["correct"] is False and result["metrics"] == {},
          "a tripped run exits 1 and prints no timings")
    code, result = run_main("h0-reductions", h0, 0)
    check(code == 0 and set(result["metrics"]) == declared["end_to_end"],
          "--trace 0 prints exactly the end_to_end names of BENCHMARK.json")
    code, again = run_main("h0-reductions", h0, 0)
    check(code == 0, "a second run of one seed matches the first run's fingerprint")
    code, result = run_main("rank-search", tiny("rank-search"), 1)
    check(code == 0 and set(result["metrics"]) == declared["per_layer"],
          "--trace 1 prints exactly the per_layer names of BENCHMARK.json")

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
