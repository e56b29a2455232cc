"""The coordinate-tuple kernels against a naive GroupElement reference.

shift, pushforward, is_zero_mod, shifted_sum, make_certificate,
verify_certificate and the codec's decode_function all run on coordinate
tuples, and the solvers' certificates are checked by the same kernels.
The reference below is the old algorithm, written here with
GroupElement arithmetic only: shift each function, add the translates one at
a time through the SupportedFunction constructor, and test vanishing mod N by
grouping points whose difference lies in N.  Membership is decided by
Hermite forms (two generating sets span the same lattice iff their forms are
equal), not by the Smith form behind the kernels.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from wreath_dio.abelian import (
    GroupPresentation,
    Subgroup,
    quotient,
    subgroup_rank,
)
from wreath_dio.codec import decode_element, decode_function
from wreath_dio.group_ring import SupportedFunction, is_zero_mod, pushforward, shift
from wreath_dio.lattice import hermite_form
from wreath_dio.qsp import (
    Certificate,
    QspInstance,
    make_certificate,
    shifted_sum,
    verify_certificate,
)

BASES = (
    GroupPresentation(1),
    GroupPresentation(2),
    GroupPresentation(1, (2,)),
    GroupPresentation(1, (3,)),
    GroupPresentation(0, (4,)),
)
COEFFS = (
    GroupPresentation(1),
    GroupPresentation(0, (2,)),
    GroupPresentation(0, (3,)),
    GroupPresentation(1, (2,)),
)
# with two torsion coordinates, a difference of sorted points can leave a
# later coordinate negative, so a kernel must reduce its results in B
CERT_BASES = BASES + (GroupPresentation(0, (2, 4)),)


# ---------------------------------------------------------------------------
# the reference: GroupElement arithmetic only


def ref_shift(f, delta):
    return SupportedFunction(
        f.coeff_group, f.base_group, tuple((p - delta, a) for p, a in f.terms)
    )


def ref_shifted_sum(fs, deltas):
    out = SupportedFunction.zero(fs[0].coeff_group, fs[0].base_group)
    for f, d in zip(fs, deltas):
        out = SupportedFunction(
            out.coeff_group, out.base_group, out.terms + ref_shift(f, d).terms
        )
    return out


def _relations(B):
    return [
        tuple(alpha if j == i else 0 for j in range(B.ncoords))
        for i, alpha in enumerate(B.torsion)
    ]


def ref_contains(N, g):
    rows = [x.coords for x in N.generators] + _relations(N.ambient)
    return hermite_form(rows + [g.coords]) == hermite_form(rows)


def ref_coset_sums(f, N):
    """[representative, coefficient sum] per coset of N met by supp(f)."""
    cosets = []
    for p, a in f.terms:
        for entry in cosets:
            if ref_contains(N, p - entry[0]):
                entry[1] = entry[1] + a
                break
        else:
            cosets.append([p, a])
    return cosets


def ref_is_zero_mod(f, N):
    return all(acc.is_zero() for _, acc in ref_coset_sums(f, N))


def ref_pushforward(f, N):
    Q, project = quotient(f.base_group, N)
    return SupportedFunction(
        f.coeff_group,
        Q,
        tuple((project(rep), acc) for rep, acc in ref_coset_sums(f, N)),
    )


def ref_verify(I, cert):
    N = Subgroup(I.B, cert.subgroup_gens)
    if subgroup_rank(N) > I.h:
        return False
    return ref_is_zero_mod(ref_shifted_sum(I.fs, cert.deltas), N)


def ref_make_certificate(I, deltas, N):
    """The first support point of each N-coset, in sorted order, against
    every later point of it: the differences, distinct and sorted."""
    firsts, gens = [], set()
    for p, _ in ref_shifted_sum(I.fs, deltas).terms:
        q = next((q for q in firsts if ref_contains(N, p - q)), None)
        if q is None:
            firsts.append(p)
        else:
            gens.add(p - q)
    return Certificate(deltas, sorted(gens, key=lambda g: g.coords))


# ---------------------------------------------------------------------------
# strategies


def _element(draw, G, window=3):
    return G.element(
        tuple(draw(st.integers(0, a - 1)) for a in G.torsion)
        + tuple(draw(st.integers(-window, window)) for _ in range(G.free_rank))
    )


def _function(draw, A, B, min_terms=0, max_terms=4):
    n = draw(st.integers(min_terms, max_terms))
    terms = tuple((_element(draw, B), _element(draw, A)) for _ in range(n))
    return SupportedFunction(A, B, terms)


@st.composite
def groups_and_functions(draw, min_terms=0, bases=BASES):
    B = draw(st.sampled_from(bases))
    A = draw(st.sampled_from(COEFFS))
    m = draw(st.integers(1, 3))
    fs = tuple(_function(draw, A, B, min_terms) for _ in range(m))
    deltas = tuple(_element(draw, B) for _ in range(m))
    gens = tuple(_element(draw, B) for _ in range(draw(st.integers(0, 2))))
    return A, B, fs, deltas, Subgroup(B, gens)


@st.composite
def planted_certificates(draw, bases=BASES):
    """An instance with a certificate that solves it, then maybe one mutation.

    The last function cancels the others' shifted sum, plus a term
    g - shift(g, n) with n in N so that the sum vanishes only modulo N.
    """
    A, B, fs, deltas, N = draw(groups_and_functions(min_terms=1, bases=bases))
    others = SupportedFunction.zero(A, B)
    if len(fs) > 1:
        others = ref_shifted_sum(fs[:-1], deltas[:-1])
    last = -ref_shift(others, -deltas[-1])
    if N.generators:
        g = _function(draw, A, B, max_terms=2)
        n = N.generators[draw(st.integers(0, len(N.generators) - 1))]
        last = last + g - ref_shift(g, n)
    fs = fs[:-1] + (last,)
    h = subgroup_rank(N) + draw(st.integers(-1, 1))
    I = QspInstance(A, B, fs, max(h, 0))
    gens = N.generators
    mutation = draw(st.sampled_from(("none", "delta", "drop-gen", "add-gen")))
    if mutation == "delta":
        i = draw(st.integers(0, len(deltas) - 1))
        step = _element(draw, B, window=1)
        deltas = deltas[:i] + (deltas[i] + step,) + deltas[i + 1 :]
    elif mutation == "drop-gen" and gens:
        i = draw(st.integers(0, len(gens) - 1))
        gens = gens[:i] + gens[i + 1 :]
    elif mutation == "add-gen":
        gens = gens + (_element(draw, B),)
    return I, Certificate(deltas, gens)


# ---------------------------------------------------------------------------
# the checks


@settings(max_examples=300, derandomize=True, deadline=None)
@given(groups_and_functions(bases=CERT_BASES))
def test_function_kernels_match_reference(case):
    A, B, fs, deltas, N = case
    for f, d in zip(fs, deltas):
        assert shift(f, d) == ref_shift(f, d)
        assert pushforward(f, N) == ref_pushforward(f, N)
        assert is_zero_mod(f, N) == ref_is_zero_mod(f, N)
    total = shifted_sum(fs, deltas)
    assert total == ref_shifted_sum(fs, deltas)
    assert is_zero_mod(total, N) == ref_is_zero_mod(total, N)
    # the kernels' results are canonical: rebuilding them changes nothing
    for g in (total, pushforward(total, N)):
        assert SupportedFunction(g.coeff_group, g.base_group, g.terms) == g


@settings(max_examples=300, derandomize=True, deadline=None)
@given(groups_and_functions())
def test_add_and_neg_match_the_constructor(case):
    # + and unary - skip the constructor's merge and checks; their results
    # must equal what it builds from the concatenated or negated terms
    A, B, fs, _, _ = case
    negated = [tuple((p, -a) for p, a in f.terms) for f in fs]
    for f, minus_f in zip(fs, negated):
        assert -f == SupportedFunction(A, B, minus_f)
        for g, minus_g in zip(fs, negated):
            assert f + g == SupportedFunction(A, B, f.terms + g.terms)
            assert f - g == SupportedFunction(A, B, f.terms + minus_g)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(planted_certificates(CERT_BASES))
def test_verify_certificate_matches_reference(case):
    I, cert = case
    assert verify_certificate(I, cert) == ref_verify(I, cert)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(groups_and_functions(bases=CERT_BASES), planted_certificates(CERT_BASES))
def test_make_certificate_matches_reference(case, planted):
    # on arbitrary shifts, and on planted solutions whose shifted sum has
    # several points per coset of N
    A, B, fs, deltas, N = case
    I = QspInstance(A, B, fs, 2)
    assert make_certificate(I, deltas, N) == ref_make_certificate(I, deltas, N)
    I, cert = planted
    N = Subgroup(I.B, cert.subgroup_gens)
    expected = ref_make_certificate(I, cert.deltas, N)
    assert make_certificate(I, cert.deltas, N) == expected


def test_verify_certificate_matches_reference_on_a_sweep():
    # f against a translate of -f: solved mod N = <(0, 2)> exactly when the
    # two shifts differ by an element of N, so both verdicts occur
    B, A = GroupPresentation(1, (2,)), GroupPresentation(0, (3,))
    f = SupportedFunction(A, B, ((B.element((1, 2)), A.element((1,))),))
    N = Subgroup(B, (B.element((0, 2)),))
    verdicts = set()
    for d in itertools.product(range(2), range(-2, 3)):
        delta = B.element(d)
        I = QspInstance(A, B, (f, -ref_shift(f, delta)), 1)
        for k in range(-2, 3):
            cert = Certificate((B.zero(), B.element((0, k))), N.generators)
            verdict = ref_verify(I, cert)
            assert verify_certificate(I, cert) == verdict
            verdicts.add(verdict)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# decoding: coordinate tuples against the constructor route


@st.composite
def encoded_functions(draw):
    """(A, B, terms as coordinate pairs, their JSON): points repeat and
    cancel, torsion coordinates are unreduced, terms come in any order, and
    each integer is a JSON number or a decimal string."""
    B = draw(st.sampled_from(CERT_BASES))
    A = draw(st.sampled_from(COEFFS))

    def coords(G, window):
        return tuple(draw(st.integers(-window, window)) for _ in range(G.ncoords))

    points = [coords(B, 6) for _ in range(draw(st.integers(1, 3)))]
    terms = []
    for _ in range(draw(st.integers(0, 6))):
        p, c = draw(st.sampled_from(points)), coords(A, 9)
        terms.append((p, c))
        if draw(st.booleans()):  # cancelled at the same point, in B
            other = tuple(x + a * draw(st.integers(-2, 2)) for x, a in zip(p, B.torsion))
            terms.append((other + p[len(B.torsion):], tuple(-x for x in c)))
    terms = draw(st.permutations(terms))

    def enc(v):
        return [str(x) if draw(st.booleans()) else x for x in v]

    wire = {"terms": [{"point": enc(p), "coeff": enc(c)} for p, c in terms]}
    return A, B, terms, wire


@settings(max_examples=400, derandomize=True, deadline=None)
@given(encoded_functions())
def test_decode_matches_the_constructor_route(case):
    A, B, terms, wire = case
    f = decode_function(A, B, wire)
    expected = SupportedFunction(
        A, B, tuple((B.element(p), A.element(c)) for p, c in terms)
    )
    assert f == expected
    # canonical: exact ints, and rebuilding through the constructor is a no-op
    assert all(
        type(x) is int for p, a in f.terms for x in p.coords + a.coords
    )
    assert SupportedFunction(A, B, f.terms) == f
    for (p, c), entry in zip(terms, wire["terms"]):
        assert decode_element(B, entry["point"]) == B.element(p)
        assert decode_element(A, entry["coeff"]) == A.element(c)
