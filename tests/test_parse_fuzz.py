"""Fuzzing the config parser: any document is a config or a ParseError.

Two kinds of input: arbitrary text and bytes, and gallery documents with one
value, at a random path, replaced by an arbitrary JSON fragment (huge
integers, NaN, deep nesting and wrong types among them). Bytes go through
`main`, which reads the file as UTF-8; its exit code must be 0 or 1.
"""

from __future__ import annotations

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

import stepskew as sk
from stepskew.cli import main, parse_config, render_config
from stepskew.config import SystemConfig
from stepskew.gallery import GALLERY_NAMES, gallery_config

MARK = "\x00fuzzed value\x00"

DOCS = {name: json.loads(render_config(gallery_config(name))) for name in GALLERY_NAMES}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

# JSON text for a value: one json.dumps can write (NaN and Infinity
# included), or an integer or a nesting beyond what Python reads.
fragments = st.one_of(
    json_values.map(json.dumps),
    st.integers(300, 5_000).map(lambda digits: "-" * (digits % 2) + "9" * digits),
    st.integers(1, 3_000).map(lambda depth: "[" * depth + "]" * depth),
    st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", "-0.0", "1e-400"]),
)


def paths(value, prefix=()):
    """Every path to a value inside a JSON document, the root included."""
    yield prefix
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from paths(child, prefix + (key,))


def with_marker(doc, path):
    """A copy of doc with the value at path replaced by MARK."""
    if not path:
        return MARK
    doc = dict(doc) if isinstance(doc, dict) else list(doc)
    doc[path[0]] = with_marker(doc[path[0]], path[1:])
    return doc


def parses_or_raises_parse_error(text: str) -> None:
    with contextlib.suppress(sk.ParseError):
        assert isinstance(parse_config(text), SystemConfig)


@given(st.text(max_size=64))
@settings(max_examples=120, deadline=None)
def test_arbitrary_text_parses_or_raises_parse_error(text):
    parses_or_raises_parse_error(text)


@given(st.binary(max_size=64))
@settings(max_examples=40, deadline=None)
def test_arbitrary_bytes_exit_cleanly(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", str(path)])
    assert code in (0, 1)
    assert code == 0 or err.getvalue().startswith("error: ")


@given(st.sampled_from(GALLERY_NAMES), st.data(), fragments)
@settings(max_examples=150, deadline=None)
def test_gallery_document_with_one_value_replaced(name, data, fragment):
    doc = DOCS[name]
    path = data.draw(st.sampled_from(list(paths(doc))))
    text = json.dumps(with_marker(doc, path)).replace(json.dumps(MARK), fragment)
    parses_or_raises_parse_error(text)
