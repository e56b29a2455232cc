"""JSON serialization: canonical bytes, big-integer strings, error reporting."""

import copy
import functools
import importlib.util
import json
import pathlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreath_dio.abelian import GroupPresentation
from wreath_dio.cli import EXIT_PARSE, main
from wreath_dio.codec import (
    MAX_SAFE_INT,
    CodecError,
    canonical_json,
    decode_certificate,
    decode_element,
    decode_equation,
    decode_function,
    decode_group,
    decode_instance,
    digest,
    encode_certificate,
    encode_element,
    encode_equation,
    encode_function,
    encode_group,
    encode_instance,
)
from wreath_dio.group_ring import SupportedFunction
from wreath_dio.qsp import Certificate, QspInstance
from wreath_dio.wreath import gen_solvable

from test_docs import _formats_json

Z = GroupPresentation(1)
Z2 = GroupPresentation(0, (2,))
ZxZ = GroupPresentation(2)
MIXED = GroupPresentation(2, (2, 12))


def atom(A, B, coeff, point):
    return SupportedFunction.atom(A.element(coeff), B.element(point))


# ---------------------------------------------------------------------------
# groups and elements


def test_group_roundtrip():
    for G in (Z, Z2, ZxZ, MIXED, GroupPresentation(0)):
        assert decode_group(encode_group(G)) == G


def test_group_rejects_malformed():
    with pytest.raises(CodecError):
        decode_group({"free_rank": -1, "torsion": []})
    with pytest.raises(CodecError):
        decode_group({"free_rank": 1})
    with pytest.raises(CodecError):
        decode_group({"free_rank": 1, "torsion": [3, 2]})  # bad divisibility
    with pytest.raises(CodecError):
        decode_group([1, 2])


def test_element_roundtrip():
    g = MIXED.element((1, 7, -4, 123456))
    assert decode_element(MIXED, encode_element(g)) == g


def test_element_wrong_arity():
    with pytest.raises(CodecError):
        decode_element(ZxZ, [1])
    with pytest.raises(CodecError):
        decode_element(ZxZ, [1, 2, 3])


def test_element_rejects_bool_and_float():
    with pytest.raises(CodecError):
        decode_element(Z, [True])
    with pytest.raises(CodecError):
        decode_element(Z, [1.5])


def test_big_integers_encode_as_strings():
    big = 2**60
    g = Z.element((big,))
    encoded = encode_element(g)
    assert encoded == [str(big)]
    assert decode_element(Z, encoded) == g
    small = encode_element(Z.element((7,)))
    assert small == [7]


def test_big_integer_threshold():
    at_limit = encode_element(Z.element((MAX_SAFE_INT,)))
    assert isinstance(at_limit[0], int)
    beyond = encode_element(Z.element((MAX_SAFE_INT + 1,)))
    assert isinstance(beyond[0], str)
    assert decode_element(Z, beyond).coords == (MAX_SAFE_INT + 1,)
    negative = encode_element(Z.element((-(MAX_SAFE_INT + 1),)))
    assert isinstance(negative[0], str)
    assert decode_element(Z, negative).coords == (-(MAX_SAFE_INT + 1),)


def test_decimal_string_input_accepted_both_ways():
    assert decode_element(Z, ["42"]).coords == (42,)
    with pytest.raises(CodecError):
        decode_element(Z, ["4x"])
    with pytest.raises(CodecError):
        decode_element(Z, ["1.5"])


# FORMATS.md: a decimal string is an optional "-" and ASCII digits; int()
# alone would also read the rejected ones
@pytest.mark.parametrize("text, value", [
    ("0", 0), ("42", 42), ("-7", -7), ("007", 7), ("-0", 0),
    (str(2**64), 2**64), (str(-(2**64)), -(2**64)),
    ("1_0", None), (" 0 ", None), ("0\n", None), ("+5", None), ("--1", None),
    ("", None), ("-", None), ("1e3", None), ("0x10", None), ("\u0662", None),
    ("\uff11", None), ("\u00b2", None),
])
def test_integer_strings_rejected_and_accepted(text, value):
    if value is None:
        with pytest.raises(CodecError, match="non-integer string"):
            decode_element(Z, [text])
    else:
        assert decode_element(Z, [text]).coords == (value,)


# ---------------------------------------------------------------------------
# functions


def test_function_roundtrip():
    f = atom(Z, ZxZ, (3,), (1, -2)) + atom(Z, ZxZ, (-1,), (0, 5))
    assert decode_function(Z, ZxZ, encode_function(f)) == f


def test_function_repeated_points_sum_on_read():
    obj = {"terms": [{"coeff": [2], "point": [3]}, {"coeff": [5], "point": [3]}]}
    assert encode_function(decode_function(Z, Z, obj)) == {
        "terms": [{"coeff": [7], "point": [3]}]
    }
    # the repeats cancel in Z_2, so the point drops out
    obj = {"terms": [{"coeff": [1], "point": [3]}, {"coeff": [1], "point": [3]}]}
    assert decode_function(Z2, Z, obj) == SupportedFunction.zero(Z2, Z)


def test_torsion_coordinates_reduce_on_read():
    assert decode_element(Z2, [3]) == Z2.element((1,))
    assert encode_element(decode_element(Z2, [3])) == [1]
    Z4 = GroupPresentation(0, (4,))
    assert encode_element(decode_element(Z4, [-1])) == [3]


def test_function_term_shape():
    obj = encode_function(atom(Z, Z, (1,), (2,)))
    assert obj == {"terms": [{"coeff": [1], "point": [2]}]}


def test_function_embedded_groups_crosschecked():
    f = atom(Z2, Z, (1,), (0,))
    obj = encode_function(f)
    obj["A"] = encode_group(Z2)
    obj["B"] = encode_group(Z)
    assert decode_function(Z2, Z, obj) == f
    obj["A"] = encode_group(Z)
    with pytest.raises(CodecError):
        decode_function(Z2, Z, obj)


def test_function_rejects_malformed_terms():
    with pytest.raises(CodecError):
        decode_function(Z, Z, {"terms": [[0, 1]]})
    with pytest.raises(CodecError):
        decode_function(Z, Z, {"terms": [{"coeff": [1]}]})
    with pytest.raises(CodecError):
        decode_function(Z, Z, "not a dict")


# ---------------------------------------------------------------------------
# instances and certificates


def test_instance_roundtrip_with_provenance():
    I = QspInstance(
        Z2, Z, (atom(Z2, Z, (1,), (0,)), atom(Z2, Z, (1,), (4,))), 1
    )
    prov = {"generator": "unit-test", "params": {"n": 2}, "seed": 0}
    obj = encode_instance(I, prov)
    decoded, got_prov = decode_instance(obj)
    assert decoded == I
    assert got_prov == prov
    bare, no_prov = decode_instance(encode_instance(I))
    assert bare == I and no_prov is None


def test_instance_rejects_missing_fields():
    I = QspInstance(Z2, Z, (), 0)
    obj = encode_instance(I)
    del obj["h"]
    with pytest.raises(CodecError):
        decode_instance(obj)
    with pytest.raises(CodecError):
        decode_instance({"A": encode_group(Z2), "B": encode_group(Z), "fs": []})


def test_instance_rejects_negative_h():
    obj = encode_instance(QspInstance(Z2, Z, (), 0))
    obj["h"] = -1
    with pytest.raises(CodecError):
        decode_instance(obj)


def test_certificate_roundtrip():
    cert = Certificate(
        (Z.element((3,)), Z.element((-1,))), (Z.element((2,)),)
    )
    assert decode_certificate(Z, encode_certificate(cert)) == cert
    empty = Certificate((), ())
    assert decode_certificate(Z, encode_certificate(empty)) == empty


def test_certificate_shape():
    cert = Certificate((Z.element((3,)),), (Z.element((2,)),))
    assert encode_certificate(cert) == {
        "deltas": [[3]],
        "subgroup_gens": [[2]],
    }


def test_certificate_rejects_malformed():
    with pytest.raises(CodecError):
        decode_certificate(Z, {"deltas": [[0]]})
    with pytest.raises(CodecError):
        decode_certificate(Z, {"deltas": "x", "subgroup_gens": []})


# ---------------------------------------------------------------------------
# equations


def test_equation_roundtrip():
    for seed in range(5):
        eq, _ = gen_solvable(seed, Z2, Z, genus=1, m=2)
        decoded, prov = decode_equation(encode_equation(eq))
        assert decoded == eq
        assert prov is None


def test_equation_provenance_passthrough():
    eq, _ = gen_solvable(0, Z2, Z, genus=0, m=1)
    prov = {"generator": "solvable", "params": {"genus": 0, "m": 1}, "seed": 0}
    decoded, got = decode_equation(encode_equation(eq, prov))
    assert decoded == eq and got == prov


def test_equation_rejects_bad_shape():
    eq, _ = gen_solvable(0, Z2, Z, genus=1, m=1)
    obj = encode_equation(eq)
    obj["genus"] = -1
    with pytest.raises(CodecError):
        decode_equation(obj)
    obj2 = encode_equation(eq)
    del obj2["constants"]
    with pytest.raises(CodecError):
        decode_equation(obj2)


# ---------------------------------------------------------------------------
# strict keys: each object names its keys, and any other key is an error

REPO = pathlib.Path(__file__).resolve().parent.parent
# every key the format names; a mutation's new key is none of them
FORMAT_KEYS = {
    "free_rank", "torsion", "terms", "coeff", "point", "A", "B", "fs", "h",
    "provenance", "deltas", "subgroup_gens", "genus", "constants", "delta", "f",
}
MISSPELT = {
    "A": {"free_rank": 0, "torsion": [2]},
    "B": {"free_rank": 1, "torsion": []},
    "fs": [{"term": [{"coeff": [1], "point": [0]}]}],
    "h": 0,
}


def test_repeated_key_and_loose_integer_string_exit_3(tmp_path, capsys):
    # json keeps a repeated key's last copy: "fs": [] would hide the Z_2 atom
    fs = canonical_json(MISSPELT["fs"]).strip().replace("term", "terms")
    path = tmp_path / "repeated.json"
    path.write_text(
        '{"A":{"free_rank":0,"torsion":[2]},"B":{"free_rank":1,"torsion":[]},'
        f'"fs":{fs},"fs":[],"h":0}}'
    )
    assert main(["qsp", "solve", str(path)]) == EXIT_PARSE
    assert "repeated key 'fs'" in capsys.readouterr().err
    # int() reads "1_0" as 10: B would be Z^10
    path.write_text(canonical_json({**MISSPELT, "B": {"free_rank": "1_0", "torsion": []},
                                    "fs": []}))
    assert main(["qsp", "solve", str(path)]) == EXIT_PARSE
    assert "non-integer string '1_0'" in capsys.readouterr().err


def test_misspelt_terms_key_is_an_error_not_a_zero_function(tmp_path, capsys):
    # read as a zero function, the one Z_2 atom would vanish: a false positive
    path = tmp_path / "misspelt.json"
    path.write_text(canonical_json(MISSPELT), encoding="utf-8")
    assert main(["qsp", "solve", str(path)]) == EXIT_PARSE
    assert "function: unknown field 'term'" in capsys.readouterr().err
    with pytest.raises(CodecError, match="missing field 'terms'"):
        decode_function(Z2, Z, {})


def test_each_decoder_names_its_keys():
    f = {"terms": []}
    with pytest.raises(CodecError, match="group: unknown field 'order'"):
        decode_group({"free_rank": 1, "torsion": [], "order": 0})
    with pytest.raises(CodecError, match="function term: unknown field 'x'"):
        decode_function(Z, Z, {"terms": [{"coeff": [1], "point": [0], "x": 0}]})
    with pytest.raises(CodecError, match="instance: unknown field 'H'"):
        decode_instance({"A": encode_group(Z), "B": encode_group(Z), "fs": [f], "H": 0})
    with pytest.raises(CodecError, match="certificate: unknown field 'gens'"):
        decode_certificate(Z, {"deltas": [], "subgroup_gens": [], "gens": []})
    eq = encode_equation(gen_solvable(0, Z2, Z, genus=0, m=1)[0])
    eq["constants"][0]["shift"] = [0]
    with pytest.raises(CodecError, match="equation constant: unknown field 'shift'"):
        decode_equation(eq)
    del eq["constants"][0]["shift"]
    eq["Genus"] = 0
    with pytest.raises(CodecError, match="equation: unknown field 'Genus'"):
        decode_equation(eq)


def _documented() -> list:
    """FORMATS.md's worked examples that a command reads, as (command kind,
    document); the group and the function go into an instance.  Run
    reports are only written."""
    function = _formats_json("Finitely supported functions")
    return [
        ("instance", {"A": _formats_json("Groups"), "B": encode_group(Z), "fs": [], "h": 0}),
        ("instance", {"A": encode_group(Z2), "B": encode_group(Z), "fs": [function], "h": 0}),
        ("instance", _formats_json("Quotient-sum instances")),
        ("certificate", _formats_json("Certificates")),
        ("equation", _formats_json("Equations")),
        ("instance", _formats_json("Generators")),
    ]


@functools.lru_cache(maxsize=None)
def _workloads():
    """perfbench/workloads.py, which builds the benchmark's seeded inputs."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", REPO / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@functools.lru_cache(maxsize=None)
def _strict_documents():
    """The documented examples and every 20th input of each workload at seed
    101, as (command kind, document)."""
    docs = _documented()
    workloads = _workloads()
    for name in workloads.WORKLOADS:
        for c in workloads.GENERATORS[name](101)[::20]:
            if c.equation is not None:
                docs.append(("equation", encode_equation(c.equation)))
            else:
                docs.append(("instance", encode_instance(c.instance)))
    return tuple(docs)


def _objects(doc, provenance=False):
    """Every object in doc, inside provenance only if asked."""
    if isinstance(doc, dict):
        yield doc
        for key, value in doc.items():
            if provenance or key != "provenance":
                yield from _objects(value, provenance)
    elif isinstance(doc, list):
        for value in doc:
            yield from _objects(value, provenance)


# a dict key whose value, a (key, value) pair, _dumps writes as one more
# copy of that key
_REPEAT = object()


def _dumps(doc) -> str:
    """doc as JSON text, with the key copies that _REPEAT asks for."""
    if isinstance(doc, dict):
        pairs = (kv if k is _REPEAT else (k, kv) for k, kv in doc.items())
        return "{" + ",".join(f"{json.dumps(k)}:{_dumps(v)}" for k, v in pairs) + "}"
    if isinstance(doc, list):
        return "[" + ",".join(map(_dumps, doc)) + "]"
    return json.dumps(doc)


@st.composite
def _one_key_off(draw):
    """A document with one key renamed or added in one of its objects
    outside provenance, where the new key is none the format names, or one
    key of any object repeated, provenance included."""
    kind, doc = draw(st.sampled_from(_strict_documents()))
    doc = copy.deepcopy(doc)
    repeat = draw(st.integers(0, 2)) == 0
    objects = [obj for obj in _objects(doc, repeat) if obj or not repeat]
    obj = draw(st.sampled_from(objects))
    if repeat:
        key = draw(st.sampled_from(sorted(obj)))
        obj[_REPEAT] = key, draw(st.sampled_from((obj[key], None, 0, [], {}, "x")))
        return kind, doc
    new = draw(st.text(max_size=6).filter(lambda key: key not in FORMAT_KEYS))
    if obj and draw(st.booleans()):
        obj[new] = obj.pop(draw(st.sampled_from(sorted(obj))))
    else:
        obj[new] = draw(st.sampled_from((None, 0, [], {}, "x")))
    return kind, doc


def _run(kind, doc, directory):
    path = directory / "doc.json"
    path.write_text(_dumps(doc), encoding="utf-8")
    if kind == "instance":
        return main(["qsp", "solve", str(path)])
    if kind == "equation":
        return main(["solve", str(path)])
    # a certificate is checked against the documented instance
    instance = directory / "instance.json"
    instance.write_text(
        canonical_json(_formats_json("Quotient-sum instances")), encoding="utf-8"
    )
    return main(["qsp", "verify", str(instance), str(path)])


def test_strict_documents_are_read_unchanged(tmp_path):
    kinds = {kind for kind, _doc in _strict_documents()}
    assert kinds == {"instance", "equation", "certificate"}
    for kind, doc in _strict_documents():
        assert _run(kind, doc, tmp_path) != EXIT_PARSE, (kind, doc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_one_key_off())
def test_one_unknown_key_at_any_depth_exits_3(tmp_path_factory, case):
    kind, doc = case
    assert _run(kind, doc, tmp_path_factory.mktemp("strict")) == EXIT_PARSE


@pytest.mark.parametrize("seed", [101, 7, 13, 29])
def test_workload_inputs_decode_to_the_same_objects(seed):
    workloads = _workloads()
    for name in workloads.WORKLOADS:
        for c in workloads.GENERATORS[name](seed):
            if c.equation is not None:
                assert decode_equation(encode_equation(c.equation)) == (c.equation, None)
            for I in (c.instance, c.tampered):
                if I is not None:
                    assert decode_instance(encode_instance(I)) == (I, None)


# ---------------------------------------------------------------------------
# canonical bytes


def test_canonical_json_is_sorted_and_newline_terminated():
    s = canonical_json({"b": 1, "a": [1, 2]})
    assert s == '{"a":[1,2],"b":1}\n'


def test_canonical_json_deterministic_for_instances():
    I = QspInstance(Z2, Z, (atom(Z2, Z, (1,), (0,)),), 0)
    s1 = canonical_json(encode_instance(I))
    s2 = canonical_json(encode_instance(I))
    assert s1 == s2
    decoded, _ = decode_instance(json.loads(s1))
    assert canonical_json(encode_instance(decoded)) == s1


def test_digest_stable():
    assert digest("abc") == digest(b"abc")
    assert len(digest("abc")) == 64
    assert digest("abc") != digest("abd")
