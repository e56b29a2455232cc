"""The worked examples of README.md and FORMATS.md run as written: the
Library snippet, and each documented file through the command it is shown
with, against the output the documents print."""

import json
import pathlib
import re

from wreath_dio.cli import EXIT_PARSE, EXIT_POSITIVE, main
from wreath_dio.codec import canonical_json, digest

REPO = pathlib.Path(__file__).resolve().parent.parent


def _blocks(doc: str, section: str, lang: str) -> list[str]:
    """The fenced code blocks of one language under a `## section` heading."""
    text = (REPO / doc).read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"^```{lang}\n(.*?)^```", body, re.M | re.S)


def _formats_json(section: str) -> dict:
    return json.loads(_blocks("FORMATS.md", section, "json")[0])


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(canonical_json(obj), encoding="utf-8")
    return path


def test_readme_library_snippet_runs():
    # a sum of two atoms, decided big-h and certified with N = B
    (snippet,) = _blocks("README.md", "Library", "python")
    namespace: dict = {}
    exec(compile(snippet, "README.md", "exec"), namespace)
    result = namespace["result"]
    assert (result.decision, result.method) == ("positive", "big-h")


def test_formats_instance_report_and_certificate(tmp_path, capsys):
    instance = _write(tmp_path, "instance.json", _formats_json("Quotient-sum instances"))
    documented = _formats_json("Run reports")
    # the documented digest is that of the instance's canonical JSON
    assert documented["input_digest"] == digest(instance.read_bytes())
    assert main(["qsp", "solve", str(instance)]) == EXIT_POSITIVE
    report = json.loads(capsys.readouterr().out)
    del report["wall_time_s"], documented["wall_time_s"]
    assert report == documented

    certificate = _write(tmp_path, "certificate.json", _formats_json("Certificates"))
    assert main(["qsp", "verify", str(instance), str(certificate)]) == EXIT_POSITIVE
    assert capsys.readouterr().out == "valid\n"


def test_formats_function_is_its_terms(tmp_path, capsys):
    # the documented instance's function, with its groups beside the terms:
    # agreeing with the instance's or not, "A" and "B" are not keys of a function
    obj = _formats_json("Quotient-sum instances")
    (f,) = obj["fs"]
    for name, base in (("agrees", obj["B"]), ("disagrees", obj["A"])):
        f["A"], f["B"] = obj["A"], base
        instance = _write(tmp_path, f"{name}.json", obj)
        assert main(["qsp", "solve", str(instance)]) == EXIT_PARSE
        assert "function: unknown field 'A', 'B'" in capsys.readouterr().err


def test_formats_equation_solves(tmp_path, capsys):
    equation = _write(tmp_path, "equation.json", _formats_json("Equations"))
    assert main(["solve", str(equation)]) == EXIT_POSITIVE
    assert json.loads(capsys.readouterr().out)["decision"] == "positive"
