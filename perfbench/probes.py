"""Layer probes: single library calls timed on operands from the workload.

Operands come from the workload's own instances: support points of the
(reduced) instances, the subgroups of the certificates the run produced, and
an 8-term function made of one instance's support.  Each probe reports the
median over several batches of the time per call, in microseconds at the
reference speed of gauge.py.
"""

from __future__ import annotations

import statistics

from wreath_dio import abelian, group_ring, lattice
from wreath_dio.group_ring import SupportedFunction

BATCHES = 5
MAX_OPERANDS = 400
MAX_SUBGROUPS = 24


def _per_call_us(gauge, fn, operands) -> float:
    """Median over batches of (batch time / calls), in microseconds."""
    windows = []
    for _ in range(BATCHES):
        mark = gauge.begin()
        for op in operands:
            fn(op)
        windows.append(gauge.end(mark))
    return statistics.median(gauge.seconds(w) for w in windows) / len(operands) * 1e6


def _points(instance) -> list:
    seen = {}
    for f in instance.fs:
        for p in f.support():
            seen.setdefault(p.coords, p)
    return [seen[k] for k in sorted(seen)]


def _eight_term_function(instance) -> SupportedFunction:
    """Eight distinct points: the instance's support, then steps along a
    free generator of B past its last point, with the instance's coefficients."""
    A, B = instance.A, instance.B
    coeffs = [a for f in instance.fs for _, a in f.terms]
    points = _points(instance)
    step = B.standard_generators()[len(B.torsion)]
    last = points[-1] if points else B.zero()
    for k in range(1, 9):
        points.append(last + step.scale(k))
    distinct = list({p.coords: p for p in points}.values())[:8]
    return SupportedFunction(
        A, B, tuple((p, coeffs[i % len(coeffs)]) for i, p in enumerate(distinct))
    )


def run_probes(certified: list, clear_caches, gauge) -> dict:
    """certified: (instance, certificate) pairs of the workload's positives;
    gauge: a SpeedGauge that is sampling."""
    certified = sorted(
        (ic for ic in certified if _points(ic[0])),
        key=lambda ic: -len(_points(ic[0])),
    )
    subgroups = certified[:MAX_SUBGROUPS]

    pairs = []
    for instance, _ in certified:
        pts = _points(instance)
        pairs.extend(zip(pts, pts[1:]))
    pairs = pairs[:MAX_OPERANDS]
    out = {
        "abelian.element_add_us": _per_call_us(gauge, lambda pq: pq[0] + pq[1], pairs),
    }

    project_ops = []
    contains_ops = []
    for instance, cert in subgroups:
        N = abelian.Subgroup(instance.B, cert.subgroup_gens)
        _, project = abelian.quotient(instance.B, N)
        pts = _points(instance)
        project_ops.extend((project, p) for p in pts)
        diffs = [p - q for p, q in zip(pts, pts[1:])] or [pts[0]]
        contains_ops.extend((N, d) for d in diffs)
    out["abelian.project_us"] = _per_call_us(
        gauge, lambda op: op[0](op[1]), project_ops[:MAX_OPERANDS]
    )
    out["abelian.contains_us"] = _per_call_us(
        gauge, lambda op: abelian.subgroup_contains(op[0], op[1]), contains_ops[:MAX_OPERANDS]
    )

    cold = []
    for _ in range(BATCHES):
        for instance, cert in subgroups:
            clear_caches()
            mark = gauge.begin()
            abelian.quotient_maps(instance.B, cert.subgroup_gens)
            cold.append(gauge.end(mark))
    out["abelian.quotient_maps_cold_us"] = statistics.median(
        gauge.seconds(w) for w in cold) * 1e6

    instance, cert = next(
        (i, c) for i, c in certified if i.B.free_rank > 0 and i.fs
    )
    f8 = _eight_term_function(instance)
    deltas = [p for p, _ in f8.terms]
    out["group_ring.shift8_us"] = _per_call_us(
        gauge, lambda d: group_ring.shift(f8, d), deltas * 8
    )
    N = abelian.Subgroup(instance.B, cert.subgroup_gens)
    shifted = [group_ring.shift(f8, d) for d in deltas]
    out["group_ring.is_zero_mod_us"] = _per_call_us(
        gauge, lambda g: group_ring.is_zero_mod(g, N), shifted * 8
    )

    bases = []
    for instance, _ in subgroups:
        rows = [list(p.coords) for p in _points(instance)]
        for i, alpha in enumerate(instance.B.torsion):
            row = [0] * instance.B.ncoords
            row[i] = alpha
            rows.append(row)
        basis = lattice.lattice_basis(rows)
        if basis:
            bases.append(basis)
    out["lattice.lll_reduce_us"] = _per_call_us(gauge, lattice.lll_reduce, bases)
    return out
