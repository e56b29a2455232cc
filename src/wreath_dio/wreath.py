"""Wreath-product arithmetic and orientable quadratic equations.

Elements of A wr B are pairs (delta, f) with delta in B and f a finitely
supported function B -> A; multiplication twists the function part by the
base shift:

    (d1, f1) * (d2, f2) = (d1 + d2, shift(f1, d2) + f2).

A whole word therefore collapses to one coefficient sum.  With
s_i = b_{i+1} + ... + b_n the sum of the later factors' shifts (a suffix
sum),

    (b_1, f_1) ... (b_n, f_n) = (b_1 + ... + b_n, sum_i shift(f_i, s_i)),

so a term (p, a) of f_i lands at p - s_i.  An inverted factor
(b, f)^-1 = (-b, -shift(f, -b)) puts -a at p + b - s_i.  evaluate,
gen_solvable and the brute force run on this sum (_product), over
coordinate tuples, and build at most one element from it.

An orientable equation of genus g with constants c_1..c_m asks for values of
the variables making

    [x_1,y_1]...[x_g,y_g] * z_1^-1 c_1 z_1 ... z_m^-1 c_m z_m = 1.

Solvability reduces to a Quotient Sum Problem instance over the quotient of B
by the constants' base shifts, with rank budget 2g.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import ClassVar, Sequence, Union

from .abelian import (
    BudgetExceeded,
    GroupElement,
    GroupPresentation,
    Subgroup,
    _element,
    _quotient_form,
    coord_ops,
    enumerate_ball,
)
from .group_ring import (
    SupportedFunction,
    _coeff_sums,
    _from_sums,
    _vanishes,
    lambda_term,
    pushforward,
    shift,
)
from .qsp import QspInstance


@dataclass(frozen=True)
class WreathElement:
    """(delta, f) with delta in the base group B and f supported on B."""

    delta: GroupElement
    f: SupportedFunction

    def __post_init__(self) -> None:
        G, B = self.delta.group, self.f.base_group
        if G is not B and G != B:
            raise ValueError("delta lives outside the function's base group")

    @property
    def coeff_group(self) -> GroupPresentation:
        return self.f.coeff_group

    @property
    def base_group(self) -> GroupPresentation:
        return self.f.base_group

    def is_identity(self) -> bool:
        return self.delta.is_zero() and self.f.is_zero()


def wreath_identity(A: GroupPresentation, B: GroupPresentation) -> WreathElement:
    return WreathElement(B.zero(), SupportedFunction.zero(A, B))


def _outside(u: WreathElement, A: GroupPresentation, B: GroupPresentation) -> bool:
    """Whether u lies outside A wr B; each group is compared by identity
    before equality."""
    return (u.coeff_group is not A and u.coeff_group != A) or (
        u.base_group is not B and u.base_group != B
    )


def _check_same_groups(u: WreathElement, v: WreathElement) -> None:
    if _outside(u, v.coeff_group, v.base_group):
        raise ValueError("wreath elements from different groups")


def wreath_multiply(u: WreathElement, v: WreathElement) -> WreathElement:
    _check_same_groups(u, v)
    return WreathElement(u.delta + v.delta, shift(u.f, v.delta) + v.f)


def wreath_inverse(u: WreathElement) -> WreathElement:
    return WreathElement(-u.delta, -shift(u.f, -u.delta))


def _product(
    A: GroupPresentation,
    B: GroupPresentation,
    word: Sequence[tuple[WreathElement, bool]],
) -> tuple[tuple[int, ...], dict[tuple, tuple[int, ...]]]:
    """The product of a word of (element, inverted) factors over A wr B, on
    coordinates: (its base shift, its coefficient sums per point).

    With s_i = b_{i+1} + ... + b_n, the suffix sum of the later factors'
    shifts,

        (b_1, f_1) ... (b_n, f_n) = (b_1 + ... + b_n, sum_i shift(f_i, s_i)),

    and (b, f)^-1 = (-b, -shift(f, -b)).  Walking the word from the right
    and keeping s: a plain factor (b, f) adds each term (p, a) as (p - s, a),
    then sets s += b; an inverted one sets s -= b first, then adds each term
    as (p - s, -a).  The sums are canonical in A and may hold zeros.
    """
    add, sub = coord_ops(B)[:2]
    neg, zero = coord_ops(A)[1], (0,) * A.ncoords
    s = (0,) * B.ncoords
    pairs: list = []
    for u, inverted in reversed(word):
        if inverted:
            s = sub(s, u.delta.coords)
            pairs += [(sub(p.coords, s), neg(zero, a.coords)) for p, a in u.f.terms]
        else:
            pairs += [(sub(p.coords, s), a.coords) for p, a in u.f.terms]
            s = add(s, u.delta.coords)
    return s, _coeff_sums(A, pairs)


def _wreath_element(
    A: GroupPresentation,
    B: GroupPresentation,
    product: tuple[tuple[int, ...], dict[tuple, tuple[int, ...]]],
) -> WreathElement:
    """The element that _product's coordinates describe."""
    s, sums = product
    return WreathElement(_element(B, s), _from_sums(A, B, sums))


# ---------------------------------------------------------------------------
# equations


@dataclass(frozen=True)
class OrientableEquation:
    """[x_1,y_1]..[x_g,y_g] z_1^-1 c_1 z_1 .. z_m^-1 c_m z_m = 1."""

    A: GroupPresentation
    B: GroupPresentation
    genus: int
    constants: tuple[WreathElement, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "constants", tuple(self.constants))
        if self.genus < 0:
            raise ValueError("genus must be nonnegative")
        if self.genus == 0 and not self.constants:
            raise ValueError("genus 0 requires at least one constant")
        for c in self.constants:
            if _outside(c, self.A, self.B):
                raise ValueError("constant outside the equation's groups")

    @property
    def m(self) -> int:
        return len(self.constants)


@dataclass(frozen=True)
class EquationAssignment:
    """Values for the variables x_1..x_g, y_1..y_g, z_1..z_m."""

    xs: tuple[WreathElement, ...]
    ys: tuple[WreathElement, ...]
    zs: tuple[WreathElement, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "xs", tuple(self.xs))
        object.__setattr__(self, "ys", tuple(self.ys))
        object.__setattr__(self, "zs", tuple(self.zs))


def _check_shape(eq: OrientableEquation, asn: EquationAssignment) -> None:
    if len(asn.xs) != eq.genus or len(asn.ys) != eq.genus:
        raise ValueError("assignment genus does not match the equation")
    if len(asn.zs) != eq.m:
        raise ValueError("assignment constant count does not match")
    for w in itertools.chain(asn.xs, asn.ys, asn.zs):
        if _outside(w, eq.A, eq.B):
            raise ValueError("assigned value outside the equation's groups")


def _word(
    constants: Sequence[WreathElement],
    xs: Sequence[WreathElement],
    ys: Sequence[WreathElement],
    zs: Sequence[WreathElement],
) -> list[tuple[WreathElement, bool]]:
    """The left-hand side x_1^-1 y_1^-1 x_1 y_1 ... z_m^-1 c_m z_m as a word."""
    word = []
    for x, y in zip(xs, ys):
        word += ((x, True), (y, True), (x, False), (y, False))
    for z, c in zip(zs, constants):
        word += ((z, True), (c, False), (z, False))
    return word


def evaluate(eq: OrientableEquation, asn: EquationAssignment) -> WreathElement:
    """The left-hand-side product; a solution iff the result is the identity."""
    _check_shape(eq, asn)
    word = _word(eq.constants, asn.xs, asn.ys, asn.zs)
    return _wreath_element(eq.A, eq.B, _product(eq.A, eq.B, word))


def residual_function(
    eq: OrientableEquation, asn: EquationAssignment
) -> tuple[bool, SupportedFunction]:
    """Closed-form evaluation residual for the transformed components.

    Returns (total base shift vanishes, residual function r); the assignment
    solves the equation iff both the flag holds and r = 0.  Writing
    tau_j = sum_{l>j} delta_{c_l}, the residual is

        sum_i [lambda_term(f_{y_i}, delta_{x_i})
               - lambda_term(f_{x_i}, delta_{y_i})]
      + sum_j [lambda_term(shift(f_{z_j}, tau_j), delta_{c_j})
               + shift(f_{c_j}, delta_{z_j} + tau_j)].
    """
    _check_shape(eq, asn)
    total = eq.B.zero()
    for c in eq.constants:
        total = total + c.delta
    parts = []
    for x, y in zip(asn.xs, asn.ys):
        parts += [lambda_term(y.f, x.delta), -lambda_term(x.f, y.delta)]
    tau = eq.B.zero()
    for j in range(eq.m - 1, -1, -1):
        c = eq.constants[j]
        z = asn.zs[j]
        parts += [lambda_term(shift(z.f, tau), c.delta), shift(c.f, z.delta + tau)]
        tau = tau + c.delta
    r = SupportedFunction(
        eq.A, eq.B, tuple(itertools.chain.from_iterable(p.terms for p in parts))
    )
    return total.is_zero(), r


@dataclass(frozen=True)
class Unsolvable:
    """Sentinel: no assignment exists (nonzero total base shift)."""

    reason: ClassVar[str] = "delta-sum nonzero"


def reduce_to_qsp(eq: OrientableEquation) -> Union[QspInstance, Unsolvable]:
    """Project the constants to B/<base shifts>; rank budget is 2 * genus.

    Any evaluation's base component equals the sum of the constants' base
    shifts, so a nonzero sum means no solution.  Otherwise the equation is
    solvable iff the instance (A, B/<deltas>, pushforwards, 2g) is positive.
    The shifts are summed on coordinates by B's add kernel.
    """
    if not _vanishes(_coeff_sums(eq.B, (((), c.delta.coords) for c in eq.constants))):
        return Unsolvable()
    N = Subgroup(eq.B, tuple(c.delta for c in eq.constants))
    pushed = tuple(pushforward(c.f, N) for c in eq.constants)
    return QspInstance(eq.A, _quotient_form(eq.B, N).Q, pushed, 2 * eq.genus)


# ---------------------------------------------------------------------------
# instance generation and tiny-scale brute force


# gen_solvable's draws: the radius of the ball that shifts and lamp points
# come from, which also bounds free lamp coordinates, and the most lamps
SOLVABLE_MAX_LENGTH = 3
SOLVABLE_MAX_SUPPORT = 3


def _random_element(
    rng: random.Random, A: GroupPresentation, ball: Sequence[GroupElement]
) -> WreathElement:
    delta = ball[rng.randrange(len(ball))]
    npts = rng.randrange(SOLVABLE_MAX_SUPPORT + 1)
    pts = rng.sample(range(len(ball)), min(npts, len(ball)))
    terms = []
    for k in pts:
        coords = []
        for alpha in A.torsion:
            coords.append(rng.randrange(alpha))
        for _ in range(A.free_rank):
            coords.append(rng.randint(-SOLVABLE_MAX_LENGTH, SOLVABLE_MAX_LENGTH))
        terms.append((ball[k], A.element(coords)))
    return WreathElement(delta, SupportedFunction(A, delta.group, tuple(terms)))


def gen_solvable(
    seed: int, A: GroupPresentation, B: GroupPresentation, genus: int, m: int
) -> tuple[OrientableEquation, EquationAssignment]:
    """Random equation plus a witnessing assignment (same seed, same output).

    Variables and all but the last constant are sampled from a bounded ball;
    the last constant is solved for so the product collapses to the identity.
    With no constants the sampled pairs are made to commute instead.
    """
    if genus < 0 or m < 0:
        raise ValueError("genus and m must be nonnegative")
    if genus == 0 and m == 0:
        raise ValueError("genus 0 requires at least one constant")
    rng = random.Random(seed)
    ball = list(enumerate_ball(B, SOLVABLE_MAX_LENGTH))
    xs, ys = [], []
    for _ in range(genus):
        x = _random_element(rng, A, ball)
        xs.append(x)
        if m:
            ys.append(_random_element(rng, A, ball))
        else:
            # no constant can absorb the prefix, so force [x_i, y_i] = 1
            ys.append(_power(x, rng.choice((-1, 0, 1, 2))))
    zs = [_random_element(rng, A, ball) for _ in range(m)]
    consts = [_random_element(rng, A, ball) for _ in range(m - 1)]
    asn = EquationAssignment(tuple(xs), tuple(ys), tuple(zs))
    if m:
        # the commutators and the first m - 1 conjugates: _word pairs z_j
        # with c_j, so z_m, which has no constant yet, is left out
        prefix = _wreath_element(A, B, _product(A, B, _word(consts, xs, ys, zs)))
        z_m = zs[-1]
        word = [(z_m, False), (prefix, True), (z_m, True)]
        consts.append(_wreath_element(A, B, _product(A, B, word)))
    eq = OrientableEquation(A, B, genus, tuple(consts))
    if not evaluate(eq, asn).is_identity():
        raise AssertionError("generated assignment does not solve the equation")
    return eq, asn


def _power(u: WreathElement, k: int) -> WreathElement:
    out = wreath_identity(u.coeff_group, u.base_group)
    step = u if k >= 0 else wreath_inverse(u)
    for _ in range(abs(k)):
        out = wreath_multiply(out, step)
    return out


def _power_exceeds(base: int, exponent: int, cap: int) -> bool:
    """Whether base ** exponent > cap, for base >= 1, without building a
    power far past cap: a base >= 2 passes cap within bit_length + 1 steps."""
    if base > 1 and exponent > cap.bit_length():
        return True
    return base ** exponent > cap


WINDOW_CAP = 200_000


def enumerate_window(
    A: GroupPresentation, B: GroupPresentation, radius: int
) -> list[WreathElement]:
    """All (delta, f) with delta and supp(f) in the radius ball of B and
    coefficients in the radius window of A (full torsion, bounded free).

    The count, |ball| * per_point ** |ball|, grows with the ball, so the
    ball is drawn only until the count passes WINDOW_CAP."""
    per_point = math.prod(A.torsion) * (2 * radius + 1) ** A.free_rank
    ball: list[GroupElement] = []
    for delta in enumerate_ball(B, radius):
        ball.append(delta)
        if _power_exceeds(per_point, len(ball), WINDOW_CAP // len(ball)):
            raise BudgetExceeded(
                f"window holds more than {WINDOW_CAP} wreath elements"
            )
    coeff_axes = [range(alpha) for alpha in A.torsion]
    coeff_axes += [range(-radius, radius + 1)] * A.free_rank
    coeffs = [A.element(c) for c in itertools.product(*coeff_axes)]
    out = []
    for delta in ball:
        for assignment in itertools.product(coeffs, repeat=len(ball)):
            f = SupportedFunction(A, B, tuple(zip(ball, assignment)))
            out.append(WreathElement(delta, f))
    return out


def equation_brute_force(
    eq: OrientableEquation,
    radius: int,
    max_assignments: int = 2_000_000,
) -> bool:
    """Try every assignment over the radius window; complete within it.

    Sound always; complete whenever a solution exists inside the window (for
    finite A and B with the ball covering B, that is genuine completeness).
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if max_assignments < 1:
        raise ValueError("max_assignments must be positive")
    window = enumerate_window(eq.A, eq.B, radius)
    nvars = 2 * eq.genus + eq.m
    if _power_exceeds(len(window), nvars, max_assignments):
        raise BudgetExceeded(
            f"more than {max_assignments} assignments in the window"
        )
    return any(
        _solves(eq, values) for values in itertools.product(window, repeat=nvars)
    )


def _solves(eq: OrientableEquation, values: Sequence[WreathElement]) -> bool:
    """Whether x_1..x_g, y_1..y_g, z_1..z_m = values solve eq: the product's
    base shift and every coefficient sum vanish.  The values are taken to
    lie in eq's groups; no element is built."""
    g = eq.genus
    word = _word(eq.constants, values[:g], values[g : 2 * g], values[2 * g :])
    s, sums = _product(eq.A, eq.B, word)
    return not any(s) and _vanishes(sums)
