"""Ten end-to-end acceptance checks, one test per numbered criterion.

Each test covers one advertised guarantee of the library, at desk scale,
against an independent reference (brute force, exhaustion, or an algebraic
identity).  On success each prints a single summary line; a failure surfaces
as a normal pytest failure for that criterion.
"""

import itertools
import json
import random
from fractions import Fraction

from wreath_dio.abelian import (
    GroupPresentation,
    Subgroup,
    geodesic_length,
    group_rank,
    quotient,
    smith_normal_form,
    subgroup_rank,
)
from wreath_dio.cli import main
from wreath_dio.codec import (
    canonical_json,
    decode_certificate,
    encode_certificate,
    encode_instance,
    CodecError,
)
from wreath_dio.group_ring import (
    SupportedFunction,
    is_zero_mod,
    lambda_map,
    shift,
)
from wreath_dio.hardness import (
    ThreePartInstance,
    ZoeInstance,
    gen_3part_h0,
    gen_zoe,
    solve_3part_bruteforce,
    solve_zoe_bruteforce,
)
from wreath_dio.lattice import hermite_form, is_lll_reduced, lll_reduce
from wreath_dio.qsp import (
    Certificate,
    QspInstance,
    ShapeMismatch,
    clusters,
    cluster_shift,
    make_certificate,
    normalize_deltas,
    satisfies_equation,
    shifted_sum,
    verify_certificate,
)
from wreath_dio.solvers import (
    SolverBudget,
    dispatch,
    oracle_solve,
    solve_general,
)
from wreath_dio.wreath import (
    OrientableEquation,
    Unsolvable,
    WreathElement,
    equation_brute_force,
    gen_solvable,
    reduce_to_qsp,
)

Z = GroupPresentation(1)
ZxZ = GroupPresentation(2)
Z2 = GroupPresentation(0, (2,))
Z3 = GroupPresentation(0, (3,))
Z4 = GroupPresentation(0, (4,))
Z6 = GroupPresentation(0, (6,))
Z2xZ2 = GroupPresentation(0, (2, 2))
ZxZ2 = GroupPresentation(1, (2,))
ZxZ3 = GroupPresentation(1, (3,))

# (instance, certificate) pairs collected from every positive decision in
# criteria 4-6; criterion 7 replays them through the command-line verifier.
CORPUS: list[tuple[QspInstance, Certificate]] = []


# ---------------------------------------------------------------------------
# small exact-arithmetic helpers


def _elements(G):
    """Every element of a finite group, lexicographically by coordinates."""
    assert G.is_finite()
    return [G.element(c) for c in itertools.product(*(range(t) for t in G.torsion))]


def _det(M):
    n = len(M)
    rows = [[Fraction(x) for x in row] for row in M]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return det


def _matmul(X, Y):
    return [
        [sum(X[i][k] * Y[k][j] for k in range(len(Y))) for j in range(len(Y[0]))]
        for i in range(len(X))
    ]


def _rank(rows):
    if not rows:
        return 0
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(mat[0])):
        piv = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][c]:
                f = mat[i][c] / mat[rank][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def _norm_sq(v):
    return sum(x * x for x in v)


def _set_diameter(G, points):
    pts = list(points)
    best = 0
    for p in pts:
        for q in pts:
            best = max(best, geodesic_length(G, p - q))
    return best


def _functions_with_small_support(A, B, max_support=2):
    """Every function B -> A with at most max_support nonzero points."""
    pts = _elements(B)
    coeffs = [a for a in _elements(A) if not a.is_zero()]
    fns = [SupportedFunction.zero(A, B)]
    for p in pts:
        for a in coeffs:
            fns.append(SupportedFunction.atom(a, p))
    if max_support >= 2:
        for p, q in itertools.combinations(pts, 2):
            for a in coeffs:
                for b in coeffs:
                    fns.append(
                        SupportedFunction.atom(a, p) + SupportedFunction.atom(b, q)
                    )
    return fns


def _record_positive(instance, result):
    """Common positive-decision bookkeeping for criteria 4-6."""
    assert result.certificate is not None, "positive decision must carry a certificate"
    assert verify_certificate(instance, result.certificate)
    CORPUS.append((instance, result.certificate))


# ---------------------------------------------------------------------------
# criterion 1: the lambda image is exactly the pushforward kernel


def test_criterion_01_lambda_image_equals_pushforward_kernel():
    A = Z2
    checks = 0
    for B in (Z4, Z2xZ2):
        all_fns = []
        pts = _elements(B)
        one = A.element((1,))
        for mask in range(1 << len(pts)):
            f = SupportedFunction.zero(A, B)
            for i, p in enumerate(pts):
                if mask >> i & 1:
                    f = f + SupportedFunction.atom(one, p)
            all_fns.append(f)
        small = [f for f in all_fns if len(f.support()) <= 3]
        for k in (1, 2):
            for bs in itertools.product(_elements(B), repeat=k):
                N = Subgroup(B, bs)
                image = set()
                for gs in itertools.product(all_fns, repeat=k):
                    image.add(lambda_map(gs, bs).terms)
                for f in small:
                    in_kernel = is_zero_mod(f, N)
                    assert (f.terms in image) == in_kernel, (B, bs, f.terms)
                    checks += 1
    print(f"[criterion 1] pass - lambda image matched pushforward kernel on "
          f"{checks} membership checks")


# ---------------------------------------------------------------------------
# criterion 2: Smith normal form on 500 random matrices


def test_criterion_02_smith_normal_form_500_random_matrices():
    rng = random.Random(20201)
    for trial in range(500):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        M = tuple(
            tuple(rng.randint(-10, 10) for _ in range(c)) for _ in range(r)
        )
        D, U, V = smith_normal_form(M)
        product = _matmul(_matmul(U, M), V)
        assert [list(row) for row in D] == product, (trial, M)
        assert abs(_det(U)) == 1, (trial, M)
        assert abs(_det(V)) == 1, (trial, M)
        for i in range(r):
            for j in range(c):
                if i != j:
                    assert D[i][j] == 0, (trial, M)
        diag = [D[i][i] for i in range(min(r, c))]
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            if a == 0:
                assert b == 0, (trial, M)
            else:
                assert b % a == 0, (trial, M)
    print("[criterion 2] pass - 500 random matrices up to 6x6: D = U*M*V, "
          "unimodular transforms, divisibility chain")


# ---------------------------------------------------------------------------
# criterion 3: LLL output is short relative to the successive minima


def test_criterion_03_lll_successive_minima_bound_200_lattices():
    rng = random.Random(30377)
    for trial in range(200):
        y = rng.randint(1, 4)
        while True:
            basis = [[rng.randint(-9, 9) for _ in range(y)] for _ in range(y)]
            if _rank(basis) == y:
                break
        reduced = lll_reduce(basis)
        assert is_lll_reduced(reduced), (trial, basis)
        assert hermite_form(basis) == hermite_form(reduced), (trial, basis)

        # successive minima by exhaustive box search over the reduced basis
        cands = []
        for coeffs in itertools.product(range(-4, 5), repeat=y):
            if not any(coeffs):
                continue
            v = [
                sum(cf * bv[i] for cf, bv in zip(coeffs, reduced))
                for i in range(y)
            ]
            cands.append((_norm_sq(v), v))
        cands.sort(key=lambda t: t[0])
        chosen: list[list[int]] = []
        minima_sq = []
        for nrm, v in cands:
            if _rank(chosen + [v]) > len(chosen):
                chosen.append(v)
                minima_sq.append(nrm)
                if len(minima_sq) == y:
                    break
        assert len(minima_sq) == y
        for i in range(y):
            assert _norm_sq(reduced[i]) <= 2 ** (y - 1) * minima_sq[i], (
                trial, basis, reduced, minima_sq,
            )
    print("[criterion 3] pass - 200 random lattices dim <= 4: "
          "|v_i|^2 <= 2^(y-1) * lambda_i^2, lattice preserved")


# ---------------------------------------------------------------------------
# criterion 4: triple-partition instances round-trip through the solver


def test_criterion_04_three_partition_round_trip():
    a = Z.element((1,))
    b = Z.element((1,))
    witness = (4, 4, 4, 6, 6, 6)  # fully windowed yet not partitionable
    tested = positives = negatives = 0
    saw_witness = False
    for k, size in ((1, 3), (2, 6)):
        for values in itertools.combinations_with_replacement(range(1, 8), size):
            try:
                T = ThreePartInstance(values, k)
            except ValueError:
                continue
            instance = gen_3part_h0(T, a, b)
            result = dispatch(instance)
            expected = solve_3part_bruteforce(T)
            assert result.decision == ("positive" if expected else "negative"), (
                values, k, result.decision, expected,
            )
            if expected:
                _record_positive(instance, result)
                positives += 1
            else:
                negatives += 1
            if values == witness:
                saw_witness = True
                assert result.decision == "negative"
            tested += 1
    assert saw_witness, "the windowed non-partitionable multiset must be covered"
    assert negatives >= 1
    print(f"[criterion 4] pass - {tested} generator round trips agreed with "
          f"brute force ({positives} positive, {negatives} negative)")


# ---------------------------------------------------------------------------
# criterion 5: zero-one-equation instances round-trip through the solver


def test_criterion_05_zero_one_equations_round_trip():
    tested = positives = 0
    for n in (1, 2, 3):
        for bits in range(1 << (n * n)):
            rows = tuple(
                tuple((bits >> (n * i + j)) & 1 for j in range(n)) for i in range(n)
            )
            Zoe = ZoeInstance(rows)
            instance = gen_zoe(Zoe)
            result = dispatch(instance)
            expected = solve_zoe_bruteforce(Zoe)
            assert result.decision == ("positive" if expected else "negative"), (
                rows, result.decision, expected,
            )
            if expected and tested % 4 == 0:
                _record_positive(instance, result)
            if expected:
                positives += 1
            tested += 1
    print(f"[criterion 5] pass - all {tested} zero-one matrices up to 3x3 "
          f"agreed with brute force ({positives} positive)")


# ---------------------------------------------------------------------------
# criterion 6: dispatch and the complete search agree with the exhaustion oracle


ORACLE_BUDGET = SolverBudget(
    max_delta_tuples=10 ** 8,
    max_subgroup_tuples=10 ** 8,
    max_seconds=600.0,
)


def _cross_check(instance, sampled):
    """Run dispatch and solve_general against the double-exhaustion oracle."""
    ref = oracle_solve(instance, ORACLE_BUDGET)
    assert ref.decision in ("positive", "negative"), instance
    for solver in (dispatch, solve_general):
        result = solver(instance)
        assert result.decision == ref.decision, (
            solver.__name__, instance.fs, instance.h, result.decision, ref.decision,
        )
        if result.decision == "positive" and solver is dispatch and sampled:
            _record_positive(instance, result)
    return ref.decision


def test_criterion_06_solver_cross_agreement():
    finite_As = (Z2, Z3, Z4, Z2xZ2)
    finite_Bs = (Z2, Z4, Z2xZ2)
    rng = random.Random(60601)
    instances = 0

    # finite bases: exhaustive at m <= 2, exhaustive m = 3 for the smallest
    # pair, seeded samples of m = 3 elsewhere
    for A in finite_As:
        for B in finite_Bs:
            fns = _functions_with_small_support(A, B)
            hs = range(group_rank(B) + 1)
            for f in fns:
                for h in hs:
                    _cross_check(QspInstance(A, B, (f,), h), instances % 20 == 0)
                    instances += 1
            for pair in itertools.combinations_with_replacement(fns, 2):
                for h in hs:
                    _cross_check(QspInstance(A, B, pair, h), instances % 20 == 0)
                    instances += 1
            if (A, B) == (Z2, Z2):
                triples = list(itertools.combinations_with_replacement(fns, 3))
            else:
                triples = [
                    tuple(rng.choice(fns) for _ in range(3)) for _ in range(20)
                ]
            for triple in triples:
                for h in hs:
                    _cross_check(QspInstance(A, B, triple, h), instances % 20 == 0)
                    instances += 1

    # windowed infinite base: seeded random instances with small supports
    for trial in range(60):
        A = (Z2, Z4)[trial % 2]
        coeffs = [a for a in _elements(A) if not a.is_zero()]
        m = rng.randint(1, 2)
        fs = []
        for _ in range(m):
            f = SupportedFunction.zero(A, Z)
            for _ in range(rng.randint(1, 2)):
                f = f + SupportedFunction.atom(
                    rng.choice(coeffs), Z.element((rng.randint(-2, 2),))
                )
            fs.append(f)
        h = rng.randint(0, 1)
        _cross_check(QspInstance(A, Z, tuple(fs), h), trial % 5 == 0)
        instances += 1

    # windowed bases with torsion, m = 2, zero total coefficient: a one-atom
    # function against a cancelling atom, alone or beside a second atom.
    # At h = 0 the second atom leaves a negative; at h = 1 the growth pass
    # merges it.  Drawn from their own generator, so the draws above stay.
    rng = random.Random(60602)
    decisions = []
    for trial in range(32):
        A = (Z3, Z4, Z)[trial % 3]
        B = (ZxZ2, ZxZ3)[trial % 2]
        if A.is_finite():
            coeffs = [a for a in _elements(A) if not a.is_zero()]
        else:
            coeffs = [A.element((c,)) for c in (-2, -1, 1, 2)]

        def point():
            return B.element((rng.randrange(B.torsion[0]), rng.randint(-1, 1)))

        f = SupportedFunction.atom(rng.choice(coeffs), point())
        g = SupportedFunction.zero(A, B)
        if rng.random() < 0.5:
            g = SupportedFunction.atom(rng.choice(coeffs), point())
        g = g + SupportedFunction.atom(-(f + g).total_coefficient(), point())
        h = rng.randint(0, 1)
        decisions.append(_cross_check(QspInstance(A, B, (f, g), h), trial % 5 == 0))
        instances += 1
    assert decisions.count("negative") >= 3, decisions

    # h = 1 over Z x Z_2 and Z x Z_3: two functions of two unit atoms each,
    # the last with one more atom that cancels the total.  Torsion
    # coordinates are uniform, free ones lie in [-1, 1].  Three functions
    # stay out: the oracle takes seconds per instance there.
    rng = random.Random(60603)
    for B in (ZxZ2, ZxZ3):

        def point():
            return B.element((rng.randrange(B.torsion[0]), rng.randint(-1, 1)))

        def two_atoms():
            unit = (Z.element((rng.choice((-1, 1)),)) for _ in range(2))
            return SupportedFunction(Z, B, tuple((point(), a) for a in unit))

        decisions = []
        for _ in range(100):
            f, g = two_atoms(), two_atoms()
            g = g + SupportedFunction.atom(-(f + g).total_coefficient(), point())
            decisions.append(_cross_check(QspInstance(Z, B, (f, g), 1), False))
            instances += 1
        assert decisions.count("negative") >= 8, (B, decisions)

    print(f"[criterion 6] pass - {instances} instances: all applicable "
          f"solvers agreed with the exhaustion oracle")


# ---------------------------------------------------------------------------
# criterion 7: emitted certificates survive the CLI verifier and mutation


def _ensure_corpus():
    if CORPUS:
        return
    # standalone fallback: a small slice of the criterion-4/5 families
    a = Z.element((1,))
    b = Z.element((1,))
    for values in itertools.combinations_with_replacement(range(1, 8), 3):
        try:
            T = ThreePartInstance(values, 1)
        except ValueError:
            continue
        instance = gen_3part_h0(T, a, b)
        result = dispatch(instance)
        if result.decision == "positive":
            CORPUS.append((instance, result.certificate))
    for bits in range(16):
        rows = tuple(tuple((bits >> (2 * i + j)) & 1 for j in range(2)) for i in range(2))
        instance = gen_zoe(ZoeInstance(rows))
        result = dispatch(instance)
        if result.decision == "positive":
            CORPUS.append((instance, result.certificate))


def _mutate_certificate(rng, B, payload):
    """Apply one random single-field mutation to an encoded certificate."""
    obj = json.loads(json.dumps(payload))
    kinds = ["delta-coord", "gen-coord", "add-gen", "drop-gen", "add-delta",
             "drop-delta"]
    while True:
        kind = rng.choice(kinds)
        bump = rng.choice([-3, -2, -1, 1, 2, 3])

        def coords():
            return [rng.randint(-3, 3) for _ in range(B.ncoords)]

        if kind == "delta-coord" and obj["deltas"] and B.ncoords:
            d = rng.choice(obj["deltas"])
            i = rng.randrange(len(d))
            d[i] = int(d[i]) + bump
            return obj, kind
        if kind == "gen-coord" and obj["subgroup_gens"] and B.ncoords:
            g = rng.choice(obj["subgroup_gens"])
            i = rng.randrange(len(g))
            g[i] = int(g[i]) + bump
            return obj, kind
        if kind == "add-gen":
            obj["subgroup_gens"].append(coords())
            return obj, kind
        if kind == "drop-gen" and obj["subgroup_gens"]:
            obj["subgroup_gens"].pop(rng.randrange(len(obj["subgroup_gens"])))
            return obj, kind
        if kind == "add-delta":
            obj["deltas"].append(coords())
            return obj, kind
        if kind == "drop-delta" and obj["deltas"]:
            obj["deltas"].pop(rng.randrange(len(obj["deltas"])))
            return obj, kind


def test_criterion_07_certificate_soundness(tmp_path):
    _ensure_corpus()
    assert CORPUS

    # every collected positive re-verifies through the CLI verifier
    ipath = tmp_path / "instance.json"
    cpath = tmp_path / "certificate.json"
    for idx, (instance, cert) in enumerate(CORPUS):
        ipath.write_text(canonical_json(encode_instance(instance)))
        cpath.write_text(canonical_json(encode_certificate(cert)))
        assert main(["qsp", "verify", str(ipath), str(cpath)]) == 0, idx

    # random single-field mutations are rejected or genuinely valid
    rng = random.Random(70707)
    rejected = valid_alternatives = 0
    for _ in range(1000):
        instance, cert = rng.choice(CORPUS)
        payload = encode_certificate(cert)
        mutated, kind = _mutate_certificate(rng, instance.B, payload)
        try:
            cert2 = decode_certificate(instance.B, mutated)
            ok = verify_certificate(instance, cert2)
        except (CodecError, ShapeMismatch, ValueError):
            rejected += 1
            continue
        if not ok:
            rejected += 1
            continue
        # the verifier accepted the mutant: re-check it independently
        N = Subgroup(instance.B, cert2.subgroup_gens)
        assert subgroup_rank(N) <= instance.h
        assert satisfies_equation(instance.fs, cert2.deltas, N)
        valid_alternatives += 1
    assert rejected + valid_alternatives == 1000
    assert rejected > 0
    print(f"[criterion 7] pass - {len(CORPUS)} certificates accepted by the "
          f"CLI verifier; 1000 mutations: {rejected} rejected, "
          f"{valid_alternatives} valid alternatives")


# ---------------------------------------------------------------------------
# criterion 8: delta normalization restores the size bound


def _random_solved_instance(rng):
    """A solved (A, B, fs, deltas, N) built from cancelling and modular parts."""
    A = rng.choice((Z, Z2, Z4))
    style = rng.choice(("plain", "modular", "mixed"))
    B = rng.choice((Z, ZxZ)) if style != "modular" else Z
    coeffs = {
        Z: lambda: A.element((rng.choice((-2, -1, 1, 2)),)),
        Z2: lambda: A.element((1,)),
        Z4: lambda: A.element((rng.randint(1, 3),)),
    }[A]

    def point():
        return B.element(tuple(rng.randint(-3, 3) for _ in range(B.free_rank)))

    def small_function():
        f = SupportedFunction.zero(A, B)
        for _ in range(rng.randint(1, 2)):
            f = f + SupportedFunction.atom(coeffs(), point())
        return f

    fs: list[SupportedFunction] = []
    deltas = []
    gens = []
    for _ in range(rng.randint(1, 2)):
        if style == "plain" or (style == "mixed" and rng.random() < 0.5):
            f = small_function()
            d = point()
            base = point()
            fs.extend([f, SupportedFunction.zero(A, B) - shift(f, d)])
            deltas.extend([base + d, base])
        else:
            # two equal atoms whose offset lies in a cyclic subgroup
            step = rng.randint(2, 4)
            gen_vec = (step,) + (0,) * (B.free_rank - 1)
            gens.append(B.element(gen_vec))
            a = coeffs()
            p = point()
            fs.extend([
                SupportedFunction.atom(a, p),
                SupportedFunction.zero(A, B) - SupportedFunction.atom(
                    a, p + B.element(gen_vec).scale(rng.randint(1, 3))
                ),
            ])
            deltas.extend([B.zero(), B.zero()])
    N = Subgroup(B, tuple(gens))
    assert satisfies_equation(fs, deltas, N)
    return A, B, tuple(fs), tuple(deltas), N


def test_criterion_08_delta_normalization_restores_bound():
    rng = random.Random(80808)
    for trial in range(200):
        A, B, fs, deltas, N = _random_solved_instance(rng)
        bound = sum(f.size() for f in fs)

        # inflate whole clusters by enormous shifts; solutions survive
        # (distinct magnitudes so two hits on one cluster cannot cancel)
        inflated = deltas
        for magnitude in (10 ** 6, 10 ** 7):
            part = clusters(fs, inflated, N)
            block = rng.choice(part)
            big = B.element(
                tuple(rng.choice((-1, 1)) * magnitude for _ in range(B.free_rank))
            )
            inflated = cluster_shift(fs, inflated, N, block, big)
        assert satisfies_equation(fs, inflated, N), trial
        assert max(geodesic_length(B, d) for d in inflated) > bound, trial

        normalized = normalize_deltas(fs, inflated, N)
        assert satisfies_equation(fs, normalized, N), trial
        for d in normalized:
            assert geodesic_length(B, d) <= bound, (trial, d.coords, bound)
    print("[criterion 8] pass - 200 inflated solutions renormalized to "
          "|delta| <= sum of function sizes, equation preserved")


# ---------------------------------------------------------------------------
# criterion 9: the equation pipeline decides generated and broken inputs


def test_criterion_09_equation_pipeline():
    positives = 0
    for Bb in (Z2, Z):
        for genus, m in ((0, 1), (0, 2), (1, 0), (1, 1), (1, 2)):
            for seed in range(10):
                eq, _ = gen_solvable(seed, Z2, Bb, genus, m)
                reduced = reduce_to_qsp(eq)
                assert not isinstance(reduced, Unsolvable), (Bb, genus, m, seed)
                assert dispatch(reduced).decision == "positive", (Bb, genus, m, seed)
                if Bb is Z2:
                    assert equation_brute_force(eq, 2), (genus, m, seed)
                positives += 1

    # every way to break the balance condition over the finite base: the sum
    # of the constants' base shifts must vanish, or no assignment exists
    negatives = 0
    one = Z2.element((1,))
    lamp = SupportedFunction.atom(Z2.element((1,)), Z2.element((0,)))
    zero_fn = SupportedFunction.zero(Z2, Z2)
    for genus in (0, 1):
        for ds in itertools.chain(
            itertools.product((0, 1), repeat=1), itertools.product((0, 1), repeat=2)
        ):
            if sum(ds) % 2 == 0:
                continue
            for lamps in itertools.product((zero_fn, lamp), repeat=len(ds)):
                constants = tuple(
                    WreathElement(Z2.element((d,)), f) for d, f in zip(ds, lamps)
                )
                eq = OrientableEquation(Z2, Z2, genus, constants)
                assert isinstance(reduce_to_qsp(eq), Unsolvable), (genus, ds)
                assert not equation_brute_force(eq, 2), (genus, ds)
                negatives += 1

    # same violation over the infinite base (brute force only where the
    # assignment count stays small)
    zf = SupportedFunction.zero(Z2, Z)
    for genus in (0, 1):
        for ds in ((1,), (-2,), (1, 1), (2, -1)):
            constants = tuple(WreathElement(Z.element((d,)), zf) for d in ds)
            eq = OrientableEquation(Z2, Z, genus, constants)
            assert isinstance(reduce_to_qsp(eq), Unsolvable), (genus, ds)
            if 2 * genus + len(ds) <= 3:
                assert not equation_brute_force(eq, 1), (genus, ds)
            negatives += 1

    print(f"[criterion 9] pass - {positives} generated equations decided "
          f"positive (brute-force agreement on the finite base); "
          f"{negatives} balance violations decided negative")


# ---------------------------------------------------------------------------
# criterion 10: cluster structure of solutions


def test_criterion_10_cluster_lemmas_500_solved_instances():
    rng = random.Random(101010)
    for trial in range(500):
        A, B, fs, deltas, N = _random_solved_instance(rng)
        part = clusters(fs, deltas, N)
        Q, project = quotient(B, N)

        # each cluster's own shifted sum already vanishes in the quotient
        for block in part:
            idx = sorted(block)
            partial = shifted_sum([fs[i] for i in idx], [deltas[i] for i in idx])
            assert is_zero_mod(partial, N), (trial, idx)

        # a cluster's projected support union is no wider than its total size
        for block in part:
            union = set()
            total_size = 0
            for i in block:
                for p in shift(fs[i], deltas[i]).support():
                    union.add(project(p))
                total_size += fs[i].size()
            assert _set_diameter(Q, union) <= total_size, (trial, sorted(block))

        # verification is invariant under shifting one whole cluster of the
        # certificate's own (possibly shrunk) subgroup
        h = subgroup_rank(N)
        instance = QspInstance(A, B, fs, h)
        cert = make_certificate(instance, deltas, N)
        assert verify_certificate(instance, cert)
        N_cert = Subgroup(B, cert.subgroup_gens)
        part_cert = clusters(fs, cert.deltas, N_cert)
        block = rng.choice(part_cert)
        nudge = B.element(tuple(rng.randint(-6, 6) for _ in range(B.free_rank)))
        moved = cluster_shift(fs, cert.deltas, N_cert, block, nudge)
        cert2 = Certificate(moved, cert.subgroup_gens)
        assert verify_certificate(instance, cert2), (trial, sorted(block))
    print("[criterion 10] pass - 500 solved instances: per-cluster zero sum, "
          "cluster diameter bound, cluster-shift invariance")
