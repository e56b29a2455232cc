"""Canonical JSON interchange for groups, functions, instances, and equations.

One stable wire format: objects are emitted with sorted keys, compact
separators, and a trailing newline, so equal values always serialize to
identical bytes.  Integers within the 64-bit-safe JSON range appear as JSON
numbers; anything larger is carried as a decimal string and restored exactly
on decode.

Decoding validates each coordinate list once into an int tuple, canonical in
its group by coord_reducer, and builds the element from it directly.  A
function's terms are gathered on those tuples: repeated points are merged in
one dict of coefficient sums, zero sums dropped, and the function is built
once in sorted order, as the SupportedFunction constructor would build it.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Iterable, Optional, Union

from .abelian import GroupElement, GroupPresentation, _element, coord_reducer
from .group_ring import SupportedFunction, _coeff_sums, _from_sums
from .qsp import Certificate, QspInstance
from .wreath import OrientableEquation, WreathElement

MAX_SAFE_INT = 2**53 - 1


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
        try:
            return int(v, 10)
        except ValueError:
            raise CodecError(f"{what}: non-integer string {v!r}") from None
    raise CodecError(f"{what}: expected an integer, got {type(v).__name__}")


def _expect_dict(obj: Any, what: str) -> dict:
    if not isinstance(obj, dict):
        raise CodecError(f"{what}: expected an object")
    return obj


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
    d = _expect_dict(obj, "group")
    if "free_rank" not in d or "torsion" not in d:
        raise CodecError('group: expected {"free_rank", "torsion"}')
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
    G: GroupPresentation, obj: Any, reduce: Callable[[Iterable[int]], tuple]
) -> tuple[int, ...]:
    """The canonical coordinates of an encoded element of G; reduce is
    coord_reducer(G)."""
    coords = [_dec_int(c, "element coordinate") for c in _expect_list(obj, "element")]
    if len(coords) != G.ncoords:
        raise CodecError(
            f"element: expected {G.ncoords} coordinates, got {len(coords)}"
        )
    return reduce(coords)


def decode_element(G: GroupPresentation, obj: Any) -> GroupElement:
    return _element(G, _dec_coords(G, obj, coord_reducer(G)))


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
    d = _expect_dict(obj, "function")
    # the bare {"terms": ...} form is canonical; a self-describing form with
    # explicit groups is accepted when it agrees with the enclosing context
    if "A" in d and decode_group(d["A"]) != A:
        raise CodecError("function: embedded coefficient group disagrees")
    if "B" in d and decode_group(d["B"]) != B:
        raise CodecError("function: embedded base group disagrees")
    red_a, red_b = coord_reducer(A), coord_reducer(B)
    terms = []
    for entry in _expect_list(d.get("terms", []), "function.terms"):
        t = _expect_dict(entry, "function term")
        if "coeff" not in t or "point" not in t:
            raise CodecError('function term: expected {"coeff", "point"}')
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
    d = _expect_dict(obj, "instance")
    for key in ("A", "B", "fs", "h"):
        if key not in d:
            raise CodecError(f"instance: missing field {key!r}")
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
    d = _expect_dict(obj, "certificate")
    for key in ("deltas", "subgroup_gens"):
        if key not in d:
            raise CodecError(f"certificate: missing field {key!r}")
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
    d = _expect_dict(obj, "equation")
    for key in ("A", "B", "genus", "constants"):
        if key not in d:
            raise CodecError(f"equation: missing field {key!r}")
    A = decode_group(d["A"])
    B = decode_group(d["B"])
    genus = _dec_int(d["genus"], "equation.genus")
    constants = []
    for entry in _expect_list(d["constants"], "equation.constants"):
        e = _expect_dict(entry, "equation constant")
        if "delta" not in e or "f" not in e:
            raise CodecError("equation constant: expected fields delta and f")
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
