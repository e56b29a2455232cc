"""Canonical JSON interchange for groups, functions, instances, and equations.

One stable wire format: objects are emitted with sorted keys, compact
separators, and a trailing newline, so equal values always serialize to
identical bytes.  Integers within the 64-bit-safe JSON range appear as JSON
numbers; anything larger is carried as a decimal string and restored exactly
on decode.

Decoding is strict: each object must hold the keys the format requires and
no key it does not name, so a misspelt key is a CodecError, never read as
an absent optional value.  Each coordinate list is validated once into an
int tuple, canonical in its group by coord_ops's reduce (the one reduction
rule), and builds the element from it directly.  A function's terms are
gathered on those tuples: repeated points are merged in one dict of
coefficient sums, zero sums dropped, and the function is built once in
sorted order, by the same _coeff_sums and _from_sums as the
SupportedFunction constructor.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Any, Callable, Optional, Union

from .abelian import GroupElement, GroupPresentation, _element, coord_ops
from .group_ring import SupportedFunction, _coeff_sums, _from_sums
from .qsp import Certificate, QspInstance
from .wreath import OrientableEquation, WreathElement

MAX_SAFE_INT = 2**53 - 1
# the decimal strings an integer may be written as: int() also reads "1_0",
# " 0 ", "+5" and non-ASCII digits
_DECIMAL = re.compile(r"-?[0-9]+")


class CodecError(ValueError):
    """Malformed or type-mismatched interchange data."""


def _enc_int(x: int) -> Union[int, str]:
    return x if -MAX_SAFE_INT <= x <= MAX_SAFE_INT else str(x)


def _dec_int(v: Any, what: str) -> int:
    if type(v) is int:
        return v
    if isinstance(v, bool):
        raise CodecError(f"{what}: expected an integer, got a boolean")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        if _DECIMAL.fullmatch(v):
            try:
                return int(v)
            except ValueError:  # past the int-string digit limit
                pass
        raise CodecError(f"{what}: non-integer string {v!r}")
    raise CodecError(f"{what}: expected an integer, got {type(v).__name__}")


def _fields(
    obj: Any, what: str, required: frozenset, optional: frozenset = frozenset()
) -> dict:
    """obj as a dict that holds every required key and no key but the
    required and optional ones.  The common case, exactly the required
    keys, costs one comparison of key sets, which compares their sizes
    first; only a mismatch looks for unknown and missing keys."""
    if not isinstance(obj, dict):
        raise CodecError(f"{what}: expected an object")
    keys = obj.keys()
    if keys != required:
        unknown = keys - required - optional
        if unknown:
            names = ", ".join(sorted(map(repr, unknown)))
            raise CodecError(f"{what}: unknown field {names}")
        missing = required - keys
        if missing:
            raise CodecError(f"{what}: missing field {min(missing)!r}")
    return obj


_GROUP = frozenset(("free_rank", "torsion"))
_FUNCTION = frozenset(("terms",))
_TERM = frozenset(("coeff", "point"))
_INSTANCE = frozenset(("A", "B", "fs", "h"))
_CERTIFICATE = frozenset(("deltas", "subgroup_gens"))
_EQUATION = frozenset(("A", "B", "genus", "constants"))
_CONSTANT = frozenset(("delta", "f"))
_PROVENANCE = frozenset(("provenance",))


def _expect_list(obj: Any, what: str) -> list:
    if not isinstance(obj, list):
        raise CodecError(f"{what}: expected an array")
    return obj


# ---------------------------------------------------------------------------
# groups and elements


def encode_group(G: GroupPresentation) -> dict:
    return {
        "free_rank": _enc_int(G.free_rank),
        "torsion": [_enc_int(a) for a in G.torsion],
    }


def decode_group(obj: Any) -> GroupPresentation:
    d = _fields(obj, "group", _GROUP)
    free = _dec_int(d["free_rank"], "group.free_rank")
    torsion = tuple(
        _dec_int(a, "group.torsion")
        for a in _expect_list(d["torsion"], "group.torsion")
    )
    try:
        return GroupPresentation(free, torsion)
    except ValueError as exc:
        raise CodecError(f"group: {exc}") from None


def encode_element(g: GroupElement) -> list:
    return [_enc_int(c) for c in g.coords]


def _dec_coords(
    G: GroupPresentation, obj: Any, reduce: Callable[[list[int]], tuple]
) -> tuple[int, ...]:
    """The canonical coordinates of an encoded element of G; reduce is
    coord_ops(G)'s."""
    coords = [_dec_int(c, "element coordinate") for c in _expect_list(obj, "element")]
    if len(coords) != G.ncoords:
        raise CodecError(
            f"element: expected {G.ncoords} coordinates, got {len(coords)}"
        )
    return reduce(coords)


def decode_element(G: GroupPresentation, obj: Any) -> GroupElement:
    return _element(G, _dec_coords(G, obj, coord_ops(G)[2]))


# ---------------------------------------------------------------------------
# functions


def encode_function(f: SupportedFunction) -> dict:
    return {
        "terms": [
            {"coeff": encode_element(a), "point": encode_element(p)}
            for p, a in f.terms
        ]
    }


def decode_function(
    A: GroupPresentation, B: GroupPresentation, obj: Any
) -> SupportedFunction:
    d = _fields(obj, "function", _FUNCTION)
    red_a, red_b = coord_ops(A)[2], coord_ops(B)[2]
    terms = []
    for t in _expect_list(d["terms"], "function.terms"):
        t = _fields(t, "function term", _TERM)
        point = _dec_coords(B, t["point"], red_b)
        terms.append((point, _dec_coords(A, t["coeff"], red_a)))
    return _from_sums(A, B, _coeff_sums(A, terms))


# ---------------------------------------------------------------------------
# QSP instances and certificates


def encode_instance(I: QspInstance, provenance: Optional[dict] = None) -> dict:
    out = {
        "A": encode_group(I.A),
        "B": encode_group(I.B),
        "fs": [encode_function(f) for f in I.fs],
        "h": _enc_int(I.h),
    }
    if provenance is not None:
        out["provenance"] = provenance
    return out


def decode_instance(obj: Any) -> tuple[QspInstance, Optional[dict]]:
    d = _fields(obj, "instance", _INSTANCE, _PROVENANCE)
    A = decode_group(d["A"])
    B = decode_group(d["B"])
    fs = tuple(
        decode_function(A, B, f) for f in _expect_list(d["fs"], "instance.fs")
    )
    h = _dec_int(d["h"], "instance.h")
    try:
        instance = QspInstance(A, B, fs, h)
    except ValueError as exc:
        raise CodecError(f"instance: {exc}") from None
    return instance, d.get("provenance")


def encode_certificate(cert: Certificate) -> dict:
    return {
        "deltas": [encode_element(d) for d in cert.deltas],
        "subgroup_gens": [encode_element(g) for g in cert.subgroup_gens],
    }


def decode_certificate(B: GroupPresentation, obj: Any) -> Certificate:
    d = _fields(obj, "certificate", _CERTIFICATE)
    deltas = tuple(
        decode_element(B, e) for e in _expect_list(d["deltas"], "certificate.deltas")
    )
    gens = tuple(
        decode_element(B, e)
        for e in _expect_list(d["subgroup_gens"], "certificate.subgroup_gens")
    )
    return Certificate(deltas, gens)


# ---------------------------------------------------------------------------
# equations


def encode_equation(
    eq: OrientableEquation, provenance: Optional[dict] = None
) -> dict:
    out = {
        "A": encode_group(eq.A),
        "B": encode_group(eq.B),
        "genus": _enc_int(eq.genus),
        "constants": [
            {"delta": encode_element(c.delta), "f": encode_function(c.f)}
            for c in eq.constants
        ],
    }
    if provenance is not None:
        out["provenance"] = provenance
    return out


def decode_equation(obj: Any) -> tuple[OrientableEquation, Optional[dict]]:
    d = _fields(obj, "equation", _EQUATION, _PROVENANCE)
    A = decode_group(d["A"])
    B = decode_group(d["B"])
    genus = _dec_int(d["genus"], "equation.genus")
    constants = []
    for entry in _expect_list(d["constants"], "equation.constants"):
        e = _fields(entry, "equation constant", _CONSTANT)
        delta = decode_element(B, e["delta"])
        f = decode_function(A, B, e["f"])
        constants.append(WreathElement(delta, f))
    try:
        eq = OrientableEquation(A, B, genus, tuple(constants))
    except ValueError as exc:
        raise CodecError(f"equation: {exc}") from None
    return eq, d.get("provenance")


# ---------------------------------------------------------------------------
# canonical bytes


def canonical_json(obj: Any) -> str:
    """Deterministic rendering: sorted keys, compact, one trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def digest(data: Union[str, bytes]) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()
