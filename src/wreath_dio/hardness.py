"""NP-hardness instance generators and ground-truth brute-force solvers.

Two reductions from 3-PARTITION (one targeting h = 0, one targeting
h = rank(B) - 1) and one from ZERO-ONE-EQUATIONS, each emitting a QspInstance
whose decision provably equals the source problem's.  The brute-force source
solvers make round-trip testing possible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .abelian import GroupElement, GroupPresentation, _integer
from .group_ring import SupportedFunction, shift
from .qsp import QspInstance

UNARY_CAP = 4096
# groups are capped at abelian.COORD_CAP coordinates where they are built, so
# gen_3part_midh builds Z^h before its basis or sentinel weights (2^h * M)
BRUTEFORCE_MAX_K = 6
BRUTEFORCE_MAX_N = 20


@dataclass(frozen=True)
class ThreePartInstance:
    """A 3-PARTITION instance: 3k values to split into k triples of sum L.

    Every value must lie strictly between L/4 and L/2, so any subset summing
    to L has exactly three elements; this is the strongly NP-complete regime
    and the regime the reductions rely on.
    """

    values: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        values = tuple(sorted(_integer(t, "value") for t in self.values))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "k", _integer(self.k, "k"))
        if self.k < 1:
            raise ValueError("k must be positive")
        if len(values) != 3 * self.k:
            raise ValueError("need exactly 3k values")
        if any(t < 1 for t in values):
            raise ValueError("values must be positive")
        total = sum(values)
        if total % self.k != 0:
            raise ValueError("total must be divisible by k")
        L = total // self.k
        for t in values:
            if not (4 * t > L and 2 * t < L):
                raise ValueError(
                    f"value {t} outside the window (L/4, L/2) for L={L}"
                )

    @property
    def target(self) -> int:
        return sum(self.values) // self.k

    @property
    def scale(self) -> int:
        """M = k(L+1), strictly larger than the sum of all values."""
        return self.k * (self.target + 1)


@dataclass(frozen=True)
class ZoeInstance:
    """A ZERO-ONE-EQUATIONS instance: does M x = 1 have a zero-one solution?"""

    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(
            tuple(_integer(x, "matrix entry") for x in row) for row in self.matrix
        )
        object.__setattr__(self, "matrix", rows)
        n = len(rows)
        if n == 0:
            raise ValueError("matrix must be nonempty")
        for row in rows:
            if len(row) != n:
                raise ValueError("matrix must be square")
            if any(x not in (0, 1) for x in row):
                raise ValueError("entries must be 0 or 1")

    @property
    def n(self) -> int:
        return len(self.matrix)

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.matrix)


# ---------------------------------------------------------------------------
# lamp-block building


def _block_function(
    a: GroupElement, b: GroupElement, y: int
) -> SupportedFunction:
    """c_y: coefficient a at each of 0, b, 2b, ..., (y-1)b."""
    A, B = a.group, b.group
    terms = tuple((b.scale(i), a) for i in range(y))
    return SupportedFunction(A, B, terms)


def _target_blocks(
    a: GroupElement, b: GroupElement, L: int, k: int
) -> SupportedFunction:
    """k length-L blocks along b, consecutive blocks separated by one gap."""
    cL = _block_function(a, b, L)
    return SupportedFunction(
        a.group,
        b.group,
        tuple(
            itertools.chain.from_iterable(
                shift(cL, b.scale(-(L + 1) * i)).terms for i in range(k)
            )
        ),
    )


def _check_unary_scale(T: ThreePartInstance) -> None:
    if T.target * T.k > UNARY_CAP:
        raise ValueError(
            f"instance scale L*k = {T.target * T.k} exceeds cap {UNARY_CAP}"
        )


# ---------------------------------------------------------------------------
# generators


def gen_3part_h0(T: ThreePartInstance, a: GroupElement, b: GroupElement) -> QspInstance:
    """Reduce T to QSP(A, B, (c_t1..c_t3k, -c), 0).

    Positive exactly when T partitions into k target-sum triples: the only
    way the value-length blocks can cancel -c is to tile its k length-L
    blocks, and the window constraint forces three blocks per tile.
    """
    if a.is_zero():
        raise ValueError("coefficient element a must be nonzero")
    if not b.has_infinite_order():
        raise ValueError("base element b must have infinite order")
    _check_unary_scale(T)
    L = T.target
    c = _target_blocks(a, b, L, T.k)
    fs = tuple(_block_function(a, b, t) for t in T.values) + (-c,)
    return QspInstance(a.group, b.group, fs, 0)


def gen_3part_midh(T: ThreePartInstance, h: int) -> QspInstance:
    """Reduce T to QSP(Z, Z^h, (c_t1..c_t3k, -c), h-1).

    The blocks run along b_h; for each other axis i the target carries a
    sentinel pair 2^i*M at -b_i and -2^i*M at -2b_i.  The sentinels' weights
    exceed any sum the value blocks can reach, so a witness subgroup must
    collapse every sentinel axis and keep the block axis free: any solution
    forces N = <b_1, ..., b_{h-1}>.
    """
    if h < 1:
        raise ValueError("h must be at least 1")
    B = GroupPresentation(h)
    _check_unary_scale(T)
    A = GroupPresentation(1)
    a = A.element((1,))
    basis = B.standard_generators()
    b_h = basis[-1]
    L = T.target
    M = T.scale
    c = _target_blocks(a, b_h, L, T.k)
    for i in range(1, h):
        w = a.scale((2**i) * M)
        b_i = basis[i - 1]
        c = c + SupportedFunction.atom(w, -b_i)
        c = c + SupportedFunction.atom(-w, -b_i.scale(2))
    fs = tuple(_block_function(a, b_h, t) for t in T.values) + (-c,)
    return QspInstance(A, B, fs, h - 1)


def gen_zoe(Z: ZoeInstance) -> QspInstance:
    """Reduce M x = 1 (zero-one x) to QSP(Z^n, Z_2, (f_1..f_n, f), 0).

    f_i holds column i of the matrix at 0; f holds -1 at 0 and 1 - sum of
    columns at 1.  Shifting f_i to 1 corresponds to x_i = 0, so the sum
    vanishes exactly when the columns left at 0 add up to the all-ones vector.
    """
    n = Z.n
    A = GroupPresentation(n)
    B = GroupPresentation(0, (2,))
    zero_b = B.zero()
    one_b = B.element((1,))
    ones = A.element((1,) * n)
    fs = []
    col_sum = A.zero()
    for j in range(n):
        col = A.element(Z.column(j))
        col_sum = col_sum + col
        fs.append(SupportedFunction(A, B, ((zero_b, col),)))
    f = SupportedFunction(A, B, ((zero_b, -ones), (one_b, ones - col_sum)))
    fs.append(f)
    return QspInstance(A, B, tuple(fs), 0)


# ---------------------------------------------------------------------------
# ground-truth brute force


def solve_3part_bruteforce(T: ThreePartInstance) -> bool:
    """Exhaustive search for a partition into k triples of target sum."""
    if T.k > BRUTEFORCE_MAX_K:
        raise ValueError(f"k = {T.k} exceeds brute-force cap {BRUTEFORCE_MAX_K}")
    L = T.target

    def recurse(remaining: tuple[int, ...]) -> bool:
        if not remaining:
            return True
        first, rest = remaining[0], remaining[1:]
        seen = set()
        for i, j in itertools.combinations(range(len(rest)), 2):
            pair = (rest[i], rest[j])
            if pair in seen:
                continue
            seen.add(pair)
            if first + rest[i] + rest[j] == L:
                nxt = tuple(v for t, v in enumerate(rest) if t not in (i, j))
                if recurse(nxt):
                    return True
        return False

    return recurse(T.values)


def solve_zoe_bruteforce(Z: ZoeInstance) -> bool:
    """Try every zero-one vector against M x = 1."""
    n = Z.n
    if n > BRUTEFORCE_MAX_N:
        raise ValueError(f"n = {n} exceeds brute-force cap {BRUTEFORCE_MAX_N}")
    for bits in itertools.product((0, 1), repeat=n):
        if all(
            sum(row[j] * bits[j] for j in range(n)) == 1 for row in Z.matrix
        ):
            return True
    return False
