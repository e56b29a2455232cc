"""The coordinate-tuple kernels against a naive reference.

shift, pushforward, is_zero_mod, shifted_sum, make_certificate,
verify_certificate, the codec's decode_function and wreath.evaluate all run
on coordinate tuples, and the solvers' certificates are checked by the same
kernels.  The reference below is the old algorithm, written here on plain
int tuples: shift each function, merge the translates' terms, test
vanishing mod N by grouping points whose difference lies in N, and multiply
a word in A wr B one factor at a time by the product rule.  Membership is decided by
Hermite forms (two generating sets span the same lattice iff their forms are
equal), not by the Smith form behind the kernels.  GroupElement and the
SupportedFunction constructor reduce through the same kernels
(abelian.coord_ops), so the reference reduces with its own _reduce and
builds no element for a value it compares;
test_reference_sees_a_wrong_modulus keeps it so.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from wreath_dio import abelian
from wreath_dio.abelian import GroupPresentation, Subgroup, subgroup_rank
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
from wreath_dio.wreath import (
    EquationAssignment,
    OrientableEquation,
    WreathElement,
    evaluate,
    wreath_identity,
    wreath_inverse,
    wreath_multiply,
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
# the same for a sum of two coefficients: each torsion coordinate of A must
# be reduced, not only the first
CERT_COEFFS = COEFFS + (GroupPresentation(0, (2, 4)),)


# ---------------------------------------------------------------------------
# the reference: int tuples, reduced here


def _reduce(G, v):
    """The coordinates G stores for v: torsion ones mod alpha_i, free ones
    unchanged."""
    t = len(G.torsion)
    return tuple(c % a for c, a in zip(v, G.torsion)) + tuple(v[t:])


def _add(G, u, v):
    return _reduce(G, [x + y for x, y in zip(u, v)])


def _sub(G, u, v):
    return _reduce(G, [x - y for x, y in zip(u, v)])


def _terms(f):
    """f's terms as (point, coefficient) coordinate tuples."""
    return tuple((p.coords, a.coords) for p, a in f.terms)


def _from_terms(A, B, terms):
    """The SupportedFunction with these coordinate terms, for inputs."""
    return SupportedFunction(A, B, tuple((B.element(p), A.element(c)) for p, c in terms))


def ref_merge(A, pairs):
    """Coefficients summed per point, zero sums dropped, sorted by point."""
    sums = {}
    for p, c in pairs:
        sums[p] = _add(A, sums[p], c) if p in sums else _reduce(A, c)
    return tuple(sorted((p, c) for p, c in sums.items() if any(c)))


def ref_shift(f, delta):
    B = f.base_group
    return ref_merge(
        f.coeff_group, ((_sub(B, p, delta.coords), c) for p, c in _terms(f))
    )


def ref_shifted_sum(fs, deltas):
    pairs = [t for f, d in zip(fs, deltas) for t in ref_shift(f, d)]
    return ref_merge(fs[0].coeff_group, pairs)


def _relations(B):
    return [
        tuple(alpha if j == i else 0 for j in range(B.ncoords))
        for i, alpha in enumerate(B.torsion)
    ]


def ref_contains(N, g):
    rows = [x.coords for x in N.generators] + _relations(N.ambient)
    return hermite_form(rows + [g]) == hermite_form(rows)


def ref_coset_sums(A, terms, N):
    """[representative, coefficient sum] per coset of N met by the terms."""
    cosets = []
    for p, a in terms:
        for entry in cosets:
            if ref_contains(N, _sub(N.ambient, p, entry[0])):
                entry[1] = _add(A, entry[1], a)
                break
        else:
            cosets.append([p, a])
    return cosets


def ref_is_zero_mod(A, terms, N):
    return not any(any(acc) for _, acc in ref_coset_sums(A, terms, N))


def ref_pushforward(A, terms, N):
    """Each coset's sum at its point of B/N: B itself when N is trivial,
    else the point the Smith form's projection gives, which reduces mod the
    quotient's own orders."""
    B = N.ambient
    if N.generators:
        project = abelian._quotient_form(B, N).project_coords
    else:
        def project(p):
            return _reduce(B, p)
    return ref_merge(A, ((project(rep), acc) for rep, acc in ref_coset_sums(A, terms, N)))


def ref_verify(I, cert):
    N = Subgroup(I.B, cert.subgroup_gens)
    if subgroup_rank(N) > I.h:
        return False
    return ref_is_zero_mod(I.A, ref_shifted_sum(I.fs, cert.deltas), N)


def ref_make_certificate(I, deltas, N):
    """The first support point of each N-coset, in sorted order, against
    every later point of it: the differences, distinct and sorted."""
    firsts, gens = [], set()
    for p, _ in ref_shifted_sum(I.fs, deltas):
        q = next((q for q in firsts if ref_contains(N, _sub(I.B, p, q))), None)
        if q is None:
            firsts.append(p)
        else:
            gens.add(_sub(I.B, p, q))
    return tuple(sorted(gens))


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
def groups_and_functions(draw, min_terms=0, bases=BASES, coeffs=COEFFS):
    B = draw(st.sampled_from(bases))
    A = draw(st.sampled_from(coeffs))
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
        others = _from_terms(A, B, ref_shifted_sum(fs[:-1], deltas[:-1]))
    last = -_from_terms(A, B, ref_shift(others, -deltas[-1]))
    if N.generators:
        g = _function(draw, A, B, max_terms=2)
        n = N.generators[draw(st.integers(0, len(N.generators) - 1))]
        last = last + g - _from_terms(A, B, ref_shift(g, n))
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


def _canonical(f):
    """Whether every point and coefficient of f has the coordinates that
    _reduce gives it.  GroupElement and the SupportedFunction constructor
    reduce through the coordinate kernels under test, so they cannot tell."""
    return all(x.coords == _reduce(x.group, x.coords) for term in f.terms for x in term)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(groups_and_functions(bases=CERT_BASES, coeffs=CERT_COEFFS))
def test_function_kernels_match_reference(case):
    A, B, fs, deltas, N = case
    for f, d in zip(fs, deltas):
        assert _terms(shift(f, d)) == ref_shift(f, d)
        assert _terms(pushforward(f, N)) == ref_pushforward(A, _terms(f), N)
        assert is_zero_mod(f, N) == ref_is_zero_mod(A, _terms(f), N)
    total = shifted_sum(fs, deltas)
    expected = ref_shifted_sum(fs, deltas)
    assert _terms(total) == expected
    assert _terms(pushforward(total, N)) == ref_pushforward(A, expected, N)
    assert is_zero_mod(total, N) == ref_is_zero_mod(A, expected, N)
    # the kernels' results are canonical: rebuilding them changes nothing
    for g in (total, pushforward(total, N)):
        assert SupportedFunction(g.coeff_group, g.base_group, g.terms) == g
    assert all(_canonical(g) for g in (total, pushforward(total, N)))
    assert all(_canonical(shift(f, d)) for f, d in zip(fs, deltas))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(groups_and_functions(coeffs=CERT_COEFFS))
def test_add_and_neg_match_the_constructor(case):
    # + and unary - skip the constructor's merge and checks; their results
    # must equal what it builds from the concatenated or negated terms, and
    # what the reference merges from them
    A, B, fs, _, _ = case
    negated = [tuple((p, -a) for p, a in f.terms) for f in fs]
    zero = (0,) * A.ncoords
    for f, minus_f in zip(fs, negated):
        assert -f == SupportedFunction(A, B, minus_f)
        assert _terms(-f) == ref_merge(A, ((p, _sub(A, zero, c)) for p, c in _terms(f)))
        for g, minus_g in zip(fs, negated):
            assert f + g == SupportedFunction(A, B, f.terms + g.terms)
            assert f - g == SupportedFunction(A, B, f.terms + minus_g)
            assert _terms(f + g) == ref_merge(A, _terms(f) + _terms(g))
            assert _canonical(f + g) and _canonical(f - g)
        assert _canonical(-f)


def _gen_coords(cert):
    return tuple(g.coords for g in cert.subgroup_gens)


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
    cert = make_certificate(I, deltas, N)
    assert cert.deltas == deltas
    assert _gen_coords(cert) == ref_make_certificate(I, deltas, N)
    I, cert = planted
    N = Subgroup(I.B, cert.subgroup_gens)
    expected = ref_make_certificate(I, cert.deltas, N)
    assert _gen_coords(make_certificate(I, cert.deltas, N)) == expected


@settings(max_examples=200, derandomize=True, deadline=None)
@given(groups_and_functions(bases=CERT_BASES), planted_certificates(CERT_BASES))
def test_make_certificate_at_trivial_n_matches_reference(case, planted):
    # at N = 0 no shifted sum is built: the reference, which builds one,
    # must find no generator either, for any shifts, solving or not
    A, B, fs, deltas, _ = case
    for I, ds in ((QspInstance(A, B, fs, 0), deltas), (planted[0], planted[1].deltas)):
        trivial = Subgroup(I.B, ())
        cert = make_certificate(I, ds, trivial)
        assert cert.deltas == ds
        assert _gen_coords(cert) == ref_make_certificate(I, ds, trivial) == ()


def test_verify_certificate_matches_reference_on_a_sweep():
    # f against a translate of -f: solved mod N = <(0, 2)> exactly when the
    # two shifts differ by an element of N, so both verdicts occur
    B, A = GroupPresentation(1, (2,)), GroupPresentation(0, (3,))
    f = SupportedFunction(A, B, ((B.element((1, 2)), A.element((1,))),))
    N = Subgroup(B, (B.element((0, 2)),))
    verdicts = set()
    for d in itertools.product(range(2), range(-2, 3)):
        delta = B.element(d)
        I = QspInstance(A, B, (f, -_from_terms(A, B, ref_shift(f, delta))), 1)
        for k in range(-2, 3):
            cert = Certificate((B.zero(), B.element((0, k))), N.generators)
            verdict = ref_verify(I, cert)
            assert verify_certificate(I, cert) == verdict
            verdicts.add(verdict)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# evaluate: one coefficient sum against the product rule, factor by factor


WORD_BASES = (
    GroupPresentation(1),
    GroupPresentation(2),
    GroupPresentation(1, (2,)),
    GroupPresentation(0, (2, 4)),
)
WORD_COEFFS = (
    GroupPresentation(1),
    GroupPresentation(0, (2,)),
    GroupPresentation(1, (3,)),
)


def ref_multiply(A, B, u, v):
    """(d1, f1)(d2, f2) = (d1 + d2, shift(f1, d2) + f2) on (delta, terms)."""
    (d1, f1), (d2, f2) = u, v
    return _add(B, d1, d2), ref_merge(A, [(_sub(B, p, d2), c) for p, c in f1] + list(f2))


def ref_inverse(A, B, u):
    """(d, f)^-1 = (-d, -shift(f, -d)): -f(p) sits at p + d."""
    d, f = u
    zero_a, zero_b = (0,) * A.ncoords, (0,) * B.ncoords
    return _sub(B, zero_b, d), ref_merge(
        A, ((_add(B, p, d), _sub(A, zero_a, c)) for p, c in f)
    )


def ref_evaluate(eq, asn):
    """[x_1, y_1] ... z_m^-1 c_m z_m as (delta, terms), one factor at a time."""
    A, B = eq.A, eq.B
    factors = []
    for x, y in zip(asn.xs, asn.ys):
        factors += [(x, True), (y, True), (x, False), (y, False)]
    for z, c in zip(asn.zs, eq.constants):
        factors += [(z, True), (c, False), (z, False)]
    acc = ((0,) * B.ncoords, ())
    for u, inverted in factors:
        v = (u.delta.coords, _terms(u.f))
        acc = ref_multiply(A, B, acc, ref_inverse(A, B, v) if inverted else v)
    return acc


def raw_evaluate(eq, asn):
    """The same word folded with wreath_multiply and wreath_inverse."""
    acc = wreath_identity(eq.A, eq.B)
    for x, y in zip(asn.xs, asn.ys):
        for u in (wreath_inverse(x), wreath_inverse(y), x, y):
            acc = wreath_multiply(acc, u)
    for z, c in zip(asn.zs, eq.constants):
        for u in (wreath_inverse(z), c, z):
            acc = wreath_multiply(acc, u)
    return acc


@st.composite
def equations_and_assignments(draw):
    """A random equation of genus <= 2 with m <= 2 constants, and random
    values for its variables; they almost never solve it."""
    B = draw(st.sampled_from(WORD_BASES))
    A = draw(st.sampled_from(WORD_COEFFS))
    genus = draw(st.integers(0, 2))
    m = draw(st.integers(0 if genus else 1, 2))

    def values(n):
        return tuple(
            WreathElement(_element(draw, B), _function(draw, A, B, max_terms=3))
            for _ in range(n)
        )

    eq = OrientableEquation(A, B, genus, values(m))
    return eq, EquationAssignment(values(genus), values(genus), values(m))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(equations_and_assignments())
def test_evaluate_matches_the_factor_by_factor_product(case):
    eq, asn = case
    value = evaluate(eq, asn)
    assert value == raw_evaluate(eq, asn)
    assert (value.delta.coords, _terms(value.f)) == ref_evaluate(eq, asn)
    assert value.delta.coords == _reduce(eq.B, value.delta.coords)
    assert _canonical(value.f)


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
    assert _terms(f) == ref_merge(A, ((_reduce(B, p), c) for p, c in terms))
    # canonical: exact ints, and rebuilding through the constructor is a no-op
    assert all(
        type(x) is int for p, a in f.terms for x in p.coords + a.coords
    )
    assert SupportedFunction(A, B, f.terms) == f
    for (p, c), entry in zip(terms, wire["terms"]):
        assert decode_element(B, entry["point"]).coords == _reduce(B, p)
        assert decode_element(A, entry["coeff"]).coords == _reduce(A, c)


# ---------------------------------------------------------------------------
# the reference's independence from the kernels


def _mod_a0_maker(t, n, maker=abelian._coord_ops_maker):
    """The kernel template with every torsion order bound to the first, so
    that each torsion coordinate is reduced mod a0: canonical in form, but
    wrong wherever a later order is larger."""
    make = maker(t, n)
    return lambda *orders: make(*orders[:1] * len(orders))


def _clear_kernel_caches():
    # a cached subgroup form of the trivial subgroup holds its group's reduce
    for cache in (abelian.coord_ops, abelian._coord_ops_maker, abelian._subgroup_form):
        cache.cache_clear()


def test_reference_sees_a_wrong_modulus(monkeypatch):
    # the input is built first, with the true kernels; then both sides run
    # on the wrong one.  A reference that built its values with GroupElement
    # arithmetic would run on it too, and agree.
    G = GroupPresentation(0, (2, 4))
    f = _from_terms(G, G, (((1, 3), (1, 3)), ((0, 1), (1, 2))))
    g = _from_terms(G, G, (((1, 2), (0, 3)),))
    deltas = (G.element((1, 1)), G.element((0, 3)))
    N = Subgroup(G, (G.element((0, 2)),))
    _clear_kernel_caches()
    monkeypatch.setattr(abelian, "_coord_ops_maker", _mod_a0_maker)
    try:
        got = _terms(shifted_sum((f, g), deltas)), _terms(pushforward(f, N))
        expected = ref_shifted_sum((f, g), deltas), ref_pushforward(G, _terms(f), N)
    finally:
        monkeypatch.undo()
        _clear_kernel_caches()
    assert got != expected
