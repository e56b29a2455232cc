"""Seeded benchmark for wreath-dio: time to verdict, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload h0-reductions --seed 1 --seconds 20 --trace 0

The run builds its inputs from the seed, then solves the whole input set in
passes while another pass fits in --seconds.  Every pass starts with the
library's memo caches cleared, so each pass costs what one fresh process
would.  Times are CPU time at a reference speed (gauge.py).  Every
verdict, certificate and CLI exit code is checked against the known answer;
on any mismatch the run prints no timings and exits 1.  The last line of
standard output is one JSON object: with --trace 0 the end-to-end metrics,
with --trace 1 the per-layer metrics from a traced run.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 5
# a fresh interpreter times its import of the library with its own gauge
IMPORT_LIBRARY = f"""
import sys
sys.path[:0] = [{HERE!r}, {SRC!r}]
import gauge
with gauge.SpeedGauge() as g:
    mark = g.begin()
    import wreath_dio.cli
    window = g.end(mark)
print(g.seconds(window))
"""

sys.path.insert(0, SRC)
from gauge import SpeedGauge  # noqa: E402

try:
    import probes
    import tracing
    import workloads
    from wreath_dio import cli, codec, qsp, solvers
except ModuleNotFoundError as exc:  # run outside a checkout of the library
    LIBRARY_MISSING = exc
else:
    LIBRARY_MISSING = None

POSITIVE = "positive"
NEGATIVE = "negative"
UNKNOWN = "unknown-budget"


class GateError(Exception):
    """An output disagreed with its known answer."""


# ---------------------------------------------------------------------------
# one pass over the input set


class PassResult:
    """One pass's verdicts, counters and times.

    While the pass runs, solve_s, verify_s and pass_s hold gauge windows;
    settle turns them into seconds at the reference speed.
    """

    def __init__(self, n: int) -> None:
        self.solve_s: list = [None] * n
        self.verify_s: dict[int, object] = {}
        self.decided = 0
        self.failed = 0
        self.counters: dict[str, int] = {}
        # a Certificate, or for the CLI the report's certificate JSON
        self.certificates: dict[int, object] = {}
        self.pass_s = None  # the whole pass
        self.wall_s = 0.0  # the whole pass, wall clock

    def add_counters(self, counters: dict) -> None:
        for k, v in counters.items():
            self.counters[k] = self.counters.get(k, 0) + v

    def settle(self, gauge: SpeedGauge) -> None:
        self.solve_s = [gauge.seconds(w) for w in self.solve_s]
        self.verify_s = {i: gauge.seconds(w) for i, w in self.verify_s.items()}
        self.pass_s = gauge.seconds(self.pass_s)


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


def _settle(res: PassResult, case, decision: str) -> bool:
    """Count one verdict; returns whether it is a decided positive."""
    if decision not in (POSITIVE, NEGATIVE):
        res.failed += 1
        return False
    _check(decision == case.expected,
           f"{case.cid}: verdict {decision}, known answer {case.expected}")
    res.decided += 1
    return decision == POSITIVE


def _run_qsp_case(api, budget, gauge, res: PassResult, i: int, case) -> None:
    mark = gauge.begin()
    try:
        out = api.solvers.dispatch(case.instance, budget)
    except Exception as exc:  # an error is a failed attempt, not a verdict
        res.solve_s[i] = gauge.end(mark)
        res.failed += 1
        print(f"# {case.cid}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return
    res.solve_s[i] = gauge.end(mark)
    res.add_counters(out.counters)
    if not _settle(res, case, out.decision):
        return
    cert = out.certificate
    _check(cert is not None, f"{case.cid}: positive verdict without a certificate")
    mark = gauge.begin()
    valid = api.qsp.verify_certificate(case.instance, cert)
    res.verify_s[i] = gauge.end(mark)
    _check(valid is True, f"{case.cid}: certificate rejected by verify_certificate")
    _check(api.qsp.verify_certificate(case.tampered, cert) is False,
           f"{case.cid}: certificate accepted for the tampered instance")
    res.certificates[i] = cert


def _cli(api, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = api.cli.main(argv)
    return code, out.getvalue()


EXIT_FOR = {POSITIVE: 0, NEGATIVE: 1, UNKNOWN: 2}


def _run_cli_case(api, budget, gauge, res: PassResult, i: int, case) -> None:
    mark = gauge.begin()
    code, stdout = _cli(api, ["solve", case.paths["equation"],
                              "--budget-seconds", str(budget.max_seconds)])
    res.solve_s[i] = gauge.end(mark)
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        res.failed += 1
        print(f"# {case.cid}: exit {code}, no report", file=sys.stderr)
        return
    decision = report["decision"]
    _check(EXIT_FOR.get(decision) == code,
           f"{case.cid}: exit code {code} for decision {decision}")
    res.add_counters(report["counters"])
    if not _settle(res, case, decision):
        return
    _check(report["certificate"] is not None,
           f"{case.cid}: positive report without a certificate")
    with open(case.paths["certificate"], "w", encoding="utf-8") as fh:
        fh.write(api.codec.canonical_json(report["certificate"]))
    mark = gauge.begin()
    code, stdout = _cli(api, ["qsp", "verify", case.paths["instance"],
                              case.paths["certificate"]])
    res.verify_s[i] = gauge.end(mark)
    _check((code, stdout) == (0, "valid\n"),
           f"{case.cid}: qsp verify gave exit {code}, {stdout.strip()!r}")
    code, stdout = _cli(api, ["qsp", "verify", case.paths["tampered"],
                              case.paths["certificate"]])
    _check((code, stdout) == (1, "invalid\n"),
           f"{case.cid}: tampered qsp verify gave exit {code}, {stdout.strip()!r}")
    res.certificates[i] = report["certificate"]


def run_pass(api, budget, cases, tracer=None, gauge=None) -> PassResult:
    """Solve every case once.  With a gauge the pass is sampled and its times
    are at the reference speed; without one they are plain CPU time.

    The harness's own objects are frozen out of the garbage collector, and
    the heap is collected before each case, untimed: the collections inside
    a timed call are then that call's own, the same in every pass, as in a
    process that handles one input.
    """
    tracing.clear_caches()
    gc.collect()
    gc.freeze()
    res = PassResult(len(cases))
    sampled = gauge is not None
    gauge = gauge if sampled else SpeedGauge()
    if tracer is not None:
        tracer.install()
    try:
        with gauge if sampled else contextlib.nullcontext():
            wall = time.perf_counter()
            mark = gauge.begin()
            for i, case in enumerate(cases):
                step = _run_cli_case if case.equation is not None else _run_qsp_case
                gc.collect()
                if tracer is None:
                    step(api, budget, gauge, res, i, case)
                else:
                    with tracer.case(i):
                        step(api, budget, gauge, res, i, case)
            res.pass_s = gauge.end(mark)
            res.wall_s = time.perf_counter() - wall
    finally:
        gc.unfreeze()
        if tracer is not None:
            tracer.uninstall()
    res.settle(gauge)
    return res


# ---------------------------------------------------------------------------
# same inputs, same work


def source_digest() -> str:
    """sha256 over the library's and the benchmark's Python sources."""
    h = hashlib.sha256()
    for directory in (os.path.join(SRC, "wreath_dio"), HERE):
        for name in sorted(os.listdir(directory)):
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def check_fingerprint(workload: str, seed: int, fingerprint: dict) -> str:
    """Compare with an earlier run of the same seed on the same sources.

    Returns "first" when there is none yet (and records this one), "same"
    when it matches; a mismatch trips the gate.
    """
    directory = os.path.join(OUT, "fingerprints")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{workload}-{seed}-{source_digest()[:16]}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            earlier = json.load(fh)
        _check(earlier == fingerprint,
               f"seed {seed} gave {fingerprint}, an earlier run gave {earlier}")
        return "same"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(fingerprint, fh, sort_keys=True)
    return "first"


# ---------------------------------------------------------------------------
# metrics


def _quantile(values: list[float], q: int) -> float:
    """The q-th decile cut (q = 5 is the median) of at least two values."""
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def end_to_end(setup_s: list[float], passes: list[PassResult], n: int) -> tuple[dict, str]:
    """Each input's time is the median of its passes; quantiles are over
    inputs."""
    per_case = [statistics.median(p.solve_s[i] for p in passes) for i in range(n)]
    verified = sorted(passes[0].verify_s)
    per_cert = [statistics.median(p.verify_s[i] for p in passes) for i in verified]
    attempted = n * len(passes)
    decided = sum(p.decided for p in passes)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "solve_p50_ms": (_quantile(per_case, 5) * 1e3, "ms"),
        "solve_p90_ms": (_quantile(per_case, 9) * 1e3, "ms"),
        "decided_per_s": (passes[0].decided / sum(per_case), "1/s"),
        "decided_ratio": (decided / attempted, "ratio"),
        "verify_p50_ms": (statistics.median(per_cert) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    samples = (f"solve: {n} inputs, median of {len(passes)} passes each;"
               f" verify: {len(per_cert)} certificates; setup: median of {len(setup_s)}")
    return metrics, samples


CALL_LAYERS = (
    "solvers.dispatch", "abelian.smith_normal_form", "abelian.subgroup_contains",
    "abelian.subgroup_rank", "lattice.lattice_basis", "lattice.saturation",
    "lattice.span_membership", "group_ring.shift", "group_ring.pushforward",
    "group_ring.is_zero_mod", "qsp.shifted_sum", "qsp.verify_certificate",
)
SELF_LAYERS = CALL_LAYERS + (
    "abelian.quotient_maps", "abelian.enumerate_ball", "qsp.make_certificate",
    "wreath.reduce_to_qsp", "codec.decode", "codec.encode", "cli.main",
)
METHODS = ("trivial-a", "big-h", "finite-B", "single-f", "bounded-m", "general")
COUNTER_METRICS = (
    ("solvers.search_nodes", "delta_tuples"),
    ("solvers.subgroup_candidates", "subgroup_tuples"),
    ("solvers.ball_elements", "ball_elements"),
)


def per_layer(tracers, traced, untraced, probe_us) -> dict:
    """Counts from the first traced pass (they repeat exactly).  Self times
    come from the tracer's wall clock, scaled by the pass's time at the
    reference speed over its wall time; each is the fastest of the traced
    passes.  The overhead ratio compares whole passes at the reference
    speed."""
    first = tracers[0]
    scale = [p.pass_s / p.wall_s for p in traced]
    metrics = {}
    for key in CALL_LAYERS:
        metrics[f"{key}.calls"] = (first.calls[key], "count")
    for key in SELF_LAYERS:
        metrics[f"{key}.self_s"] = (
            min(t.self_s[key] * k for t, k in zip(tracers, scale)), "s")
    metrics["abelian.cached_quotient.hit_ratio"] = (first.hit_ratio("abelian.cached_quotient"), "ratio")
    metrics["abelian.quotient_maps.hit_ratio"] = (first.hit_ratio("abelian.quotient_maps"), "ratio")
    metrics["abelian.enumerate_ball.elements"] = (first.ball_elements, "count")
    methods = {m: 0 for m in METHODS + ("other",)}
    counters: dict[str, int] = {}
    unknown = 0
    for r in first.results:
        methods[r.method if r.method in methods else "other"] += 1
        unknown += r.decision == UNKNOWN
        for k, v in r.counters.items():
            counters[k] = counters.get(k, 0) + v
    for name, key in COUNTER_METRICS:
        metrics[name] = (counters.get(key, 0), "count")
    metrics["solvers.unknown_budget"] = (unknown, "count")
    for m, calls in methods.items():
        metrics[f"solvers.method.{m}.calls"] = (calls, "count")
    for name, value in probe_us.items():
        metrics[name] = (value, "us")
    metrics["trace.overhead_ratio"] = (
        min(p.pass_s for p in traced) / min(p.pass_s for p in untraced), "ratio")
    return metrics


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


# ---------------------------------------------------------------------------
# main


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("h0-reductions", "rank-search", "equation-cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Api:
    """The library's modules, looked up at call time so tracing sees calls."""

    def __init__(self) -> None:
        self.cli, self.codec, self.qsp, self.solvers = cli, codec, qsp, solvers


def import_s() -> float:
    """Time for a fresh interpreter to import the library, at the reference
    speed.  The interpreter's own start-up is left out."""
    out = subprocess.run([sys.executable, "-c", IMPORT_LIBRARY], check=True,
                         capture_output=True, text=True)
    return float(out.stdout)


def setup(workload: str, seed: int, directory: str, gauge: SpeedGauge):
    """One set-up: import the library in a fresh interpreter, then make the
    inputs and known answers and write the input files, with the library's
    caches cleared first.  Returns (seconds, cases, input digest)."""
    started = import_s()
    tracing.clear_caches()
    with gauge:
        mark = gauge.begin()
        cases = workloads.GENERATORS[workload](seed)
        digest = workloads.input_digest(cases)
        workloads.write_inputs(cases, directory)
        window = gauge.end(mark)
    return started + gauge.seconds(window), cases, digest


def main(argv=None) -> int:
    args = parse_args(argv)
    if LIBRARY_MISSING is not None:
        print(f"error: cannot import the library from {SRC}: {LIBRARY_MISSING}",
              file=sys.stderr)
        return 2
    api = Api()
    directory = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    budget = solvers.SolverBudget()
    gauge = SpeedGauge()
    # set-ups are spread over the run, one after each pass
    first_s, cases, digest = setup(args.workload, args.seed, directory, gauge)
    setups = [(first_s, digest)]
    n = len(cases)

    def set_up_again() -> None:
        seconds, _, again = setup(args.workload, args.seed, directory, gauge)
        setups.append((seconds, again))

    untraced, traced, tracers = [], [], []
    try:
        # another round starts only while it fits in --seconds
        start = time.perf_counter()
        longest = 0.0
        while not untraced or time.perf_counter() - start + longest <= args.seconds:
            round_start = time.perf_counter()
            untraced.append(run_pass(api, budget, cases, gauge=gauge))
            if args.trace:
                tracers.append(tracing.Tracer())
                traced.append(run_pass(api, budget, cases, tracers[-1], gauge))
            if len(setups) < SETUP_REPEATS:
                set_up_again()
            longest = max(longest, time.perf_counter() - round_start)
        while len(setups) < SETUP_REPEATS:
            set_up_again()
        _check(len({d for _, d in setups}) == 1, "one seed produced different inputs")
        fingerprint = {"inputs": digest, "counters": untraced[0].counters}
        for p in untraced + traced:
            _check(p.counters == untraced[0].counters,
                   "solver counters differ between passes of one run")
        repeat = check_fingerprint(args.workload, args.seed, fingerprint)
    except GateError as exc:
        print(f"error: correctness gate: {exc}", file=sys.stderr)
        emit(False, n, 0, {})
        return 1

    attempted = n * len(untraced)
    failed = sum(p.failed for p in untraced)
    print(f"# workload {args.workload} seed {args.seed}: {n} inputs,"
          f" sha256 {digest}, counters {json.dumps(untraced[0].counters, sort_keys=True)}"
          f" ({repeat} run of this seed on these sources)")
    if args.trace:
        certified = []
        for i, cert in sorted(untraced[0].certificates.items()):
            if isinstance(cert, dict):
                cert = codec.decode_certificate(cases[i].instance.B, cert)
            certified.append((cases[i].instance, cert))
        with gauge:
            probe_us = probes.run_probes(certified, tracing.clear_caches, gauge)
        metrics = per_layer(tracers, traced, untraced, probe_us)
        rows = tracing.write_spans(os.path.join(directory, "spans.tsv"), tracers)
        print(f"# {rows} spans written to {os.path.relpath(directory, ROOT)}/spans.tsv")
    else:
        metrics, samples = end_to_end([s for s, _ in setups], untraced, n)
        print(f"# samples: {samples}; set-ups {' '.join(f'{s:.4f}' for s, _ in setups)} s")
    for name, (value, unit) in metrics.items():
        print(f"# {name:40s} {value:14.6g} {unit}")
    emit(True, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
