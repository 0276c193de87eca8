import json
import random
import re
from dataclasses import InitVar, dataclass, field, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdsr.bench import questions_from_json
from sdsr.corpus import (
    CrossReference,
    Section,
    build_doc_summary,
    section_document,
)
from sdsr.engine import QuestionSelection, Selection, SelectionSet
from sdsr.errors import MalformedFile
from sdsr.library import (
    Category,
    CategoryIndexEntry,
    Skill,
    SummaryBlock,
    deserialize_library,
    serialize_library,
)
from sdsr.remote import RemoteConfig
from sdsr.wire import LONG_INTEGER, Text, decode, dumps, encode, parse

from _fixtures import FIXTURES_DIR, fixture_judgment, fixture_prompt_config, round3_config
from _generators import random_library


@pytest.mark.parametrize("tp, value, expected", [
    (float, 3, 3.0),
    (float, 0.25, 0.25),
    (int | None, None, None),
    (tuple[str | int, ...], ["choices", 0], ("choices", 0)),
    (tuple[int, int], [4, 9], (4, 9)),
    (dict[str, tuple[str, ...]], {"r": ["a", "b"]}, {"r": ("a", "b")}),
    (tuple[CrossReference, ...], [{"from_section": "s1", "to_section": "s2", "extra": 1}],
     (CrossReference(from_section="s1", to_section="s2"),)),
], ids=["int-as-float", "float", "optional-null", "scalar-union", "fixed-tuple",
        "nested-map", "record-defaults-and-unknown-keys"])
def test_decodes_each_supported_shape(tp, value, expected):
    assert decode(tp, value) == expected


@pytest.mark.parametrize("tp, value, error", [
    (float, True, "expected a number, got a boolean"),
    (float, "0.3", "expected a number, got a string"),
    (int, True, "expected an integer, got a boolean"),
    (int, 3.0, "expected an integer, got a number"),
    (str, 7, "expected a string, got an integer"),
    (float, 10**400, "expected a number, got an integer too large to convert"),
    (tuple[int, int], [1], "expected 2 items, got 1"),
    (dict[str, tuple[str, ...]], {"r": ["a", None]}, "r[1]: expected a string, got null"),
    (tuple[CrossReference, ...], [{"from_section": "s1"}],
     "[0].to_section: missing required key"),
], ids=["bool-as-float", "string-as-float", "bool-as-int", "float-as-int", "int-as-str",
         "huge-int-as-float",
        "short-fixed-tuple", "nested-map-path", "missing-key-path"])
def test_rejects_what_it_would_have_to_coerce(tp, value, error):
    with pytest.raises(MalformedFile) as info:
        decode(tp, value)
    assert str(info.value) == error


def test_the_root_keys_prefix_the_path():
    with pytest.raises(MalformedFile, match=r"^remote\.timeout: expected a number, got null$"):
        decode(RemoteConfig, {"endpoint": "e", "model": "m", "timeout": None}, "remote")


@dataclass(frozen=True)
class _Leaf:
    label: str


@dataclass(frozen=True)
class _EveryBranch:
    """A record with one field for each way the generated decoder reads a field."""

    name: str = field(metadata={"key": "wire_name"})
    count: int = 0
    tags: dict[str, str] = field(default_factory=dict)
    leaf: _Leaf | None = None
    mark: str | int = ""

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("count must be >= 0")


def test_the_generated_decoder_reads_each_kind_of_field():
    # The field's own name is an unknown key, ignored like any other.
    first = decode(_EveryBranch, {"wire_name": "a", "name": "b", "extra": [1]})
    second = decode(_EveryBranch, {"wire_name": "a"})
    assert first == second == _EveryBranch(name="a")
    assert first.tags is not second.tags  # default_factory runs once per record
    assert decode(_EveryBranch, {"wire_name": "a", "count": 2, "tags": {"k": "v"},
                                 "leaf": {"label": "x"}, "mark": 3}) == _EveryBranch(
        name="a", count=2, tags={"k": "v"}, leaf=_Leaf(label="x"), mark=3)
    assert decode(_EveryBranch, {"wire_name": "a", "leaf": None, "mark": "m"}) == _EveryBranch(
        name="a", mark="m")


@pytest.mark.parametrize("entry, error", [
    ("x", "[1]: expected an object, got a string"),
    ({"name": "a"}, "[1].wire_name: missing required key"),
    ({"wire_name": "a", "count": True}, "[1].count: expected an integer, got a boolean"),
    ({"wire_name": "a", "tags": {"k": 1}}, "[1].tags.k: expected a string, got an integer"),
    ({"wire_name": "a", "leaf": {}}, "[1].leaf.label: missing required key"),
    ({"wire_name": "a", "leaf": "x"}, "[1].leaf: expected an object, got a string"),
    ({"wire_name": "a", "mark": 1.5}, "[1].mark: expected a string or an integer, got a number"),
    ({"wire_name": "a", "count": -1}, "[1]: count must be >= 0"),
], ids=["not-an-object", "renamed-key-missing", "default-wrong-type", "factory-value-wrong-type",
        "nested-key-missing", "optional-record-wrong-type", "scalar-union-wrong-type",
        "post-init-value-error"])
def test_the_generated_decoder_names_the_failing_key_path(entry, error):
    with pytest.raises(MalformedFile) as info:
        decode(tuple[_EveryBranch, ...], [{"wire_name": "ok"}, entry])
    assert str(info.value) == error


@dataclass(frozen=True, kw_only=True)
class _KeywordOnly:
    a: str


@dataclass(frozen=True)
class _WithInitVar:
    a: str
    b: InitVar[int] = 0

    def __post_init__(self, b: int) -> None:
        pass


@pytest.mark.parametrize("cls", [_KeywordOnly, _WithInitVar], ids=["kw-only", "init-var"])
def test_a_record_not_built_by_position_has_no_decoder(cls):
    # The generated decoder passes fields by position; it must not pass them to the wrong ones.
    with pytest.raises(TypeError, match="does not take its fields by position"):
        decode(cls, {"a": "x"})


@pytest.mark.parametrize("value, expected", [
    (Skill(name="Intent_Router"), {"skill_name": "Intent_Router", "description": ""}),
    (QuestionSelection(question_id=3, primary=Selection(category="C", skill="S")),
     {"question_id": 3, "primary": {"category": "C", "skill": "S"}, "secondary": None}),
    (Section(section_id="s1", role="other", text="t", char_span=(0, 1)),
     {"section_id": "s1", "role": "other", "text": "t", "char_span": [0, 1]}),
    (SummaryBlock(routing_roles={"anchor": ("A", "B")}),
     {"category_index": [], "_llm_instructions": "", "routing_roles": {"anchor": ["A", "B"]}}),
    (Category(name="C"),
     {"name": "C", "category_description": "", "abstraction_level": None, "complement": None,
      "distractor_tier": None, "skills": []}),
    ((Selection(category="C", skill="S"),), [{"category": "C", "skill": "S"}]),
    ({"k": (1, None)}, {"k": [1, None]}),
], ids=["renamed-key", "nested-record", "tuple-to-list", "dict-of-tuples", "none-to-null",
        "tuple-of-records", "bare-dict"])
def test_encodes_each_supported_shape(value, expected):
    assert json.dumps(encode(value)) == json.dumps(expected)  # keys in field order too


def test_dumps_indents_by_two_and_keeps_non_ascii():
    assert dumps({"k": ["é", None]}) == '{\n  "k": [\n    "é",\n    null\n  ]\n}'


def _stdlib_dumps(value):
    return json.dumps(value, ensure_ascii=False, indent=2)


# Every character class the escaper treats apart, then any code point,
# lone surrogates included.
_json_text = st.text(st.sampled_from(['"', "\\", "/", "\x00", "\n", "\x1f", "\x7f", "\u2028",
                                      "é", "中", "\U0001f3b5", "\ud800", "\udfff", "a"])
                     | st.characters(blacklist_categories=()), max_size=8)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10**40, 10**40)
    | st.floats() | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
    | _json_text,
    lambda children: st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(_json_text, children, max_size=4)
    # json.dumps writes int, float, bool and None keys as strings
    | st.dictionaries(st.integers() | st.floats() | st.booleans() | st.none() | _json_text,
                      children, max_size=3),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(_json_values)
@example({})
@example([])
@example(())
@example({"a": {}, "b": [[], {}, ()]})
@example({"k": {1: "int key", "s": [1.5]}})
@example([float("nan"), float("inf"), float("-inf"), -0.0, 10**40, True, False, None])
def test_dumps_is_stdlib_json_dumps_with_an_indent_of_two(value):
    assert dumps(value) == _stdlib_dumps(value)
    # Text already rendered reads the same at any depth.
    assert dumps((Text(dumps(value)), {"k": Text(dumps(value))})) == _stdlib_dumps(
        [value, {"k": value}])


def test_dumps_raises_the_stdlib_error_for_what_json_cannot_encode():
    value = {"a": [1, {"b": object()}]}
    with pytest.raises(TypeError) as ours:
        dumps(value)
    with pytest.raises(TypeError) as stdlib:
        _stdlib_dumps(value)
    assert str(ours.value) == str(stdlib.value)


def _serialize_from_the_record(lib):
    # serialize_library as it was before categories cached their text:
    # the whole record encoded, then rendered by the stdlib in one call.
    record = encode(lib)
    out = {} if lib.summary is None else {"_summary": record["summary"]}
    body = out[lib.body_key] = {}
    for entry in record["categories"]:
        name = entry.pop("name")
        body[name] = {key: value for key, value in entry.items() if value is not None}
    if lib.provenance:
        out["_provenance"] = record["provenance"]
    return _stdlib_dumps(out) + "\n"


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 10_000), text=_json_text,
       body_key=st.sampled_from(["High_Impact_Skills_Library", "Body", "K_x"]),
       duplicate=st.booleans(), no_skills=st.booleans(), provenance=st.booleans())
def test_serialize_library_is_the_record_rendered_whole(seed, text, body_key, duplicate,
                                                        no_skills, provenance):
    lib = random_library(random.Random(seed))
    first, *rest = lib.categories
    first = replace(first, description=text, distractor_tier=text or None,
                    skills=() if no_skills else first.skills)
    if duplicate:  # a later category under the first one's name
        rest.append(replace(rest[-1] if rest else first, name=first.name))
    lib = replace(lib, categories=(first, *rest), body_key=body_key,
                  provenance={"run": text, "é": "\u2028"} if provenance else {})
    expected = _serialize_from_the_record(lib)
    assert serialize_library(lib) == expected  # each category rendered cold
    assert serialize_library(lib) == expected  # and read back warm


_text = st.text(max_size=6)
_maybe_text = st.none() | _text
_selection = st.builds(Selection, category=_text, skill=_text)
_records = st.one_of(
    st.builds(Category, name=_text, description=_text, abstraction_level=_maybe_text,
              complement=_maybe_text, distractor_tier=_maybe_text,
              skills=st.lists(st.builds(Skill, name=_text, description=_text), max_size=3)),
    st.builds(SummaryBlock,
              category_index=st.lists(st.builds(CategoryIndexEntry, name=_text,
                                                skill_count=st.integers(), routing_hint=_text),
                                      max_size=3),
              llm_instructions=_text,
              routing_roles=st.dictionaries(_text, st.lists(_text, max_size=3).map(tuple),
                                            max_size=2)),
    st.builds(SelectionSet,
              selections=st.lists(st.builds(QuestionSelection, question_id=st.integers(),
                                            primary=_selection,
                                            secondary=st.none() | _selection), max_size=3),
              flags=st.lists(_text, max_size=2)),
)


_judgment_text, _judgment_rules, _judgment_digests, _judgment_refs = fixture_judgment()
_judgment = section_document(_judgment_text, _judgment_rules)


@given(_records)
@example(_judgment)
@example(build_doc_summary(_judgment, _judgment_digests, _judgment_refs)[0])
@example(RemoteConfig(endpoint="e", model="m", field_names={"messages": "input"},
                      response_content_path=("output", 0, "content", -1)))
@example(round3_config())
@example(fixture_prompt_config())
def test_decode_inverts_encode(record):
    assert decode(type(record), json.loads(json.dumps(encode(record)))) == record


@pytest.mark.parametrize("name", ["library_r1.json", "library_r1_bare.json"])
def test_each_committed_library_re_encodes_byte_for_byte(name):
    text = (FIXTURES_DIR / name).read_text(encoding="utf-8")
    assert serialize_library(deserialize_library(text)) == text


@pytest.mark.parametrize("condition", ["A", "B", "C"])
def test_each_committed_selection_set_re_encodes_byte_for_byte(condition):
    text = (FIXTURES_DIR / f"selections_r1_{condition}.json").read_text(encoding="utf-8")
    again = encode(decode(SelectionSet, json.loads(text)))
    assert json.dumps(again, ensure_ascii=False, indent=2) + "\n" == text


# Each JSON reader, as a document template whose one string "@" a text fills,
# and the call that reads the document back to that string.
_READERS = {
    "parse": ('["@"]', lambda text: parse(text, "")[0]),
    "deserialize_library": ('{"L": {"@": {}}}',
                            lambda text: deserialize_library(text).categories[0].name),
    "questions_from_json": ('[{"id": 1, "text": "@", "primary_target": "x"}]',
                            lambda text: questions_from_json(text)[0].text),
}
_MALFORMED = {
    "invalid-json": (lambda doc: doc[:-1], r"invalid JSON: .+"),
    "deep": (lambda doc: "[" * 100_000 + "]" * 100_000, r"nested too deeply to decode"),
    "lone-surrogate": (lambda doc: doc.replace("@", "\\ud800"),
                       re.escape("a string holds the lone surrogate '\\ud800'")),
    "long-integer": (lambda doc: "[1" + "0" * 5000 + "]", re.escape(LONG_INTEGER)),
}


@pytest.mark.parametrize("reader, as_bytes, kind", [
    pytest.param(reader, as_bytes, kind, id=f"{reader}-{'bytes' if as_bytes else 'str'}-{kind}")
    for reader in _READERS for as_bytes in (False, True)
    for kind in [*_MALFORMED, *(["not-utf-8"] if as_bytes else [])]])
def test_every_reader_fails_malformed_text_as_the_cli_does(reader, as_bytes, kind):
    template, read = _READERS[reader]
    if kind == "not-utf-8":
        text, expected = b"\xff", r"not UTF-8: .+"
    else:
        make, expected = _MALFORMED[kind]
        text = make(template)
        text = text.encode("utf-8") if as_bytes else text
    with pytest.raises(MalformedFile) as caught:
        read(text)
    assert re.fullmatch(expected, str(caught.value))


@pytest.mark.parametrize("reader", _READERS)
@pytest.mark.parametrize("escaped, expected", [
    ("\\ud83c\\udfb5", "\U0001f3b5"),  # a surrogate pair is one character
    ('\\"', '"'),  # a backslash that escapes no surrogate
], ids=["surrogate-pair", "quote"])
@pytest.mark.parametrize("as_bytes", [False, True], ids=["str", "bytes"])
def test_every_reader_loads_escapes(reader, escaped, expected, as_bytes):
    template, read = _READERS[reader]
    text = template.replace("@", escaped)
    assert read(text.encode("utf-8") if as_bytes else text) == expected


@pytest.mark.parametrize("reader", _READERS)
def test_every_reader_skips_a_bom_in_bytes(reader):
    # As the prefix reader and the CLI do; a str is text, decoded already.
    template, read = _READERS[reader]
    assert read(b"\xef\xbb\xbf" + template.encode("utf-8")) == "@"
    with pytest.raises(MalformedFile, match="invalid JSON: Unexpected UTF-8 BOM"):
        read("\ufeff" + template)
