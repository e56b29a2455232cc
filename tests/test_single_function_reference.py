"""One function over a torsion-free base against a rational-span reference.

For m = 1 the shift is irrelevant (translation moves the pushforward with
it), and over B = Z^n a subgroup N can be replaced by its saturation
Span_Q(N) cap Z^n, which has the same rank and collapses more.  By the
shrink lemma N can be taken to be generated by support differences, and a
rational span of differences has a basis among them.  So f vanishes modulo
some N of rank <= h iff f vanishes on the fibres of Span_Q(T) for some set
T of at most h nonzero support differences.  The reference below decides
exactly that, with exact rational elimination and GroupElement arithmetic
only, and dispatch must agree with it.  The exhaustive oracle cannot serve
here: its subset-subgroup search runs out of its default budget even on
two-term instances over Z^2.
"""

import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from wreath_dio.abelian import GroupPresentation
from wreath_dio.group_ring import SupportedFunction, shift
from wreath_dio.qsp import QspInstance, verify_certificate
from wreath_dio.solvers import dispatch

Z = GroupPresentation(1)
Z2 = GroupPresentation(0, (2,))
BASES = (GroupPresentation(2), GroupPresentation(3))


def _rank(vectors):
    """Rank over Q, by Gaussian elimination on Fractions."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] / rows[rank][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _vanishes_on_fibres(f, T):
    """Whether f sums to zero on every coset of Span_Q(T) in Z^n."""
    base_rank = _rank(T)
    fibres = []  # [representative point, coefficient sum]
    for point, coeff in f.terms:
        for fibre in fibres:
            diff = (point - fibre[0]).coords
            if _rank(list(T) + [diff]) == base_rank:
                fibre[1] = fibre[1] + coeff
                break
        else:
            fibres.append([point, coeff])
    return all(acc.is_zero() for _, acc in fibres)


def ref_single_f(I):
    """The rational-span decision for one function over a free abelian B."""
    (f,) = I.fs
    if f.is_zero():
        return True
    if not f.total_coefficient().is_zero():
        return False
    points = [p for p, _ in f.terms]
    diffs = sorted({(p - q).coords for p in points for q in points if p != q})
    top = min(I.h, I.B.free_rank, len(diffs))
    return any(
        _vanishes_on_fibres(f, T)
        for size in range(top + 1)
        for T in itertools.combinations(diffs, size)
    )


@st.composite
def _one_function_instances(draw):
    """A zero-sum or planted function over Z^2 or Z^3, h in {0, 1, 2}.

    A drawn function gets a cancelling atom so that the total sum does not
    decide it; a planted one is a sum of g - shift(g, n) terms, so it
    vanishes modulo the n's.
    """
    B = draw(st.sampled_from(BASES))
    A = draw(st.sampled_from((Z, Z2)))
    h = draw(st.sampled_from((0, 1, 2)))
    point = st.tuples(*[st.integers(-2, 2)] * B.ncoords).map(B.element)
    coeff = st.sampled_from((-1, 1, 2)).map(lambda c: A.element((c,)))
    if draw(st.booleans()):
        terms = draw(st.lists(st.tuples(point, coeff), min_size=1, max_size=4))
        f = SupportedFunction(A, B, tuple(terms))
        f = f + SupportedFunction.atom(-f.total_coefficient(), draw(point))
    else:
        f = SupportedFunction.zero(A, B)
        for _ in range(draw(st.integers(1, 2))):
            terms = draw(st.lists(st.tuples(point, coeff), min_size=1, max_size=2))
            g = SupportedFunction(A, B, tuple(terms))
            f = f + g - shift(g, draw(point))
    return QspInstance(A, B, (f,), h)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_one_function_instances())
def test_dispatch_agrees_with_rational_span_reference(I):
    result = dispatch(I)
    expected = "positive" if ref_single_f(I) else "negative"
    assert result.decision == expected, (I.fs, I.h)
    if result.decision == "positive":
        assert verify_certificate(I, result.certificate)


def test_reference_examples():
    Z3 = GroupPresentation(3)
    e = Z3.element

    def fn(*terms):
        return SupportedFunction(Z, Z3, tuple((e(p), Z.element((c,))) for p, c in terms))

    # a difference pair vanishes modulo its line only
    pair = fn(((0, 0, 0), 1), ((1, 2, 0), -1))
    assert not ref_single_f(QspInstance(Z, Z3, (pair,), 0))
    assert ref_single_f(QspInstance(Z, Z3, (pair,), 1))
    # 1, -2, 1 at 0, 2e, 4e: one line collapses it
    line = fn(((0, 0, 0), 1), ((2, 0, 0), -2), ((4, 0, 0), 1))
    assert ref_single_f(QspInstance(Z, Z3, (line,), 1))
    # four lamps with no two parallel differences need a plane
    plane = fn(((0, 0, 0), 1), ((1, 0, 0), -1), ((0, 1, 0), 1), ((2, 2, 0), -1))
    assert not ref_single_f(QspInstance(Z, Z3, (plane,), 1))
    assert ref_single_f(QspInstance(Z, Z3, (plane,), 2))
    assert not ref_single_f(QspInstance(Z, Z3, (fn(((0, 0, 0), 1),),), 2))
