"""Every JSON example under README's "File formats" reads with the reader
that section documents for it: a model with ``model_from_dict``, a six-term
system with ``ses_from_dict``, a ``verify`` file end to end, and an element
over ``solenoid_aab_ab`` as the element of a ``verify`` file."""

import json
import re
from pathlib import Path

import pytest

from fell_lab.cli import main
from fell_lab.ktheory import ses_from_dict, solve_six_term
from fell_lab.spaces import model_from_dict

README = Path(__file__).resolve().parent.parent / "README.md"


def file_format_examples() -> list:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## File formats\n", 1)[1].split("\n## ", 1)[0]
    decoder, space, out = json.JSONDecoder(), re.compile(r"\s*"), []
    for block in re.findall(r"```json\n(.*?)```", section, re.DOTALL):
        pos = space.match(block).end()
        while pos < len(block):  # a block may hold several values
            value, pos = decoder.raw_decode(block, pos)
            out.append(value)
            pos = space.match(block, pos).end()
    return out


EXAMPLES = file_format_examples()


def kind_of(example: dict) -> str:
    for key, kind in (("kind", "model"), ("K0_I", "six-term"), ("model", "verify"),
                      ("rule", "element")):
        if key in example:
            return kind
    raise AssertionError(f"no documented reader for {example!r}")


def test_every_reader_has_examples():
    kinds = [kind_of(e) for e in EXAMPLES]
    assert {k: kinds.count(k) for k in set(kinds)} == {
        "model": 6, "six-term": 1, "verify": 1, "element": 2}


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda e: json.dumps(e)[:40])
def test_example_reads(tmp_path, capsys, example):
    kind = kind_of(example)
    if kind == "model":
        model = model_from_dict(example)
        assert model_from_dict(model.to_dict()) == model
    elif kind == "six-term":
        solve_six_term(ses_from_dict(example))
    else:
        if kind == "element":
            example = {"model": {"kind": "solenoid_aab_ab"}, "element": example}
        path = tmp_path / "verify.json"
        path.write_text(json.dumps(example), encoding="utf-8")
        assert main(["verify", str(path), "--samples", "200"]) == 0, capsys.readouterr().err
