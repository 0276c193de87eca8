import dataclasses

import pytest

from sdsr.errors import MalformedFile
from sdsr.guidance import build_summary
from sdsr.library import (
    Category,
    CategoryIndexEntry,
    Finding,
    KnowledgeLibrary,
    Skill,
    SummaryBlock,
    deserialize_library,
    serialize_library,
    surface_similarity,
    validate_library,
)
from sdsr.wire import encode

from _fixtures import round2_config


def _simple_library(n_categories, with_summary=True):
    cats = tuple(
        Category(
            name=f"Topic_{i}",
            description=f"Handles topic number {i} end to end.",
            skills=(Skill(name=f"Skill_{i}", description="does the thing"),),
        )
        for i in range(n_categories)
    )
    lib = KnowledgeLibrary(categories=cats)
    return build_summary(lib) if with_summary else lib


def test_fixture_library_has_no_findings(fixture_library):
    # Exhaustive field walk of the shipped 36-category fixture.
    assert len(fixture_library.categories) == 36
    assert fixture_library.total_skills == 190
    assert validate_library(fixture_library) == []


def test_count_mismatch_is_an_error(fixture_library):
    entries = list(fixture_library.summary.category_index)
    entries[0] = CategoryIndexEntry(
        name=entries[0].name,
        skill_count=entries[0].skill_count + 1,
        routing_hint=entries[0].routing_hint,
    )
    tampered = KnowledgeLibrary(
        summary=SummaryBlock(
            category_index=tuple(entries),
            llm_instructions=fixture_library.summary.llm_instructions,
            routing_roles=dict(fixture_library.summary.routing_roles),
        ),
        categories=fixture_library.categories,
    )
    findings = validate_library(tampered)
    assert any(f.severity == "ERROR" and f.code == "COUNT_MISMATCH" for f in findings)


def test_hint_density_warning_past_sixty_categories():
    lib = _simple_library(119)
    findings = validate_library(lib)
    assert findings == [f for f in findings if f.code == "HINT_DENSITY"]
    assert findings[0].severity == "WARNING"
    # below the limit: silent
    assert validate_library(_simple_library(60)) == []


def test_strict_mode_escalates_warnings():
    findings = validate_library(_simple_library(119), strict=True)
    assert [f.severity for f in findings if f.code == "HINT_DENSITY"] == ["ERROR"]


@pytest.mark.parametrize("code,mutate", [
    ("DUPLICATE_CATEGORY", lambda cats: cats + (cats[0],)),
    ("EMPTY_DESCRIPTION", lambda cats: cats[:-1] + (
        dataclasses.replace(cats[-1], description="  "),)),
    ("EMPTY_SKILLS", lambda cats: cats[:-1] + (
        dataclasses.replace(cats[-1], skills=()),)),
    ("DANGLING_COMPLEMENT", lambda cats: cats[:-1] + (
        dataclasses.replace(cats[-1], complement="No_Such_Category"),)),
    ("INVALID_LEVEL", lambda cats: cats[:-1] + (
        dataclasses.replace(cats[-1], abstraction_level="cosmic"),)),
])
def test_invariant_violations_surface(code, mutate):
    base = _simple_library(3, with_summary=False)
    lib = KnowledgeLibrary(categories=mutate(base.categories))
    assert any(f.code == code for f in validate_library(lib))


def test_skill_invariants():
    cat = Category(
        name="T", description="d",
        skills=(Skill(name="A"), Skill(name="A"), Skill(name="B\nC"), Skill(name=" ")),
    )
    codes = {f.code for f in validate_library(KnowledgeLibrary(categories=(cat,)))}
    assert {"DUPLICATE_SKILL", "SKILL_NAME_LINEBREAK", "EMPTY_SKILL_NAME"} <= codes


@pytest.mark.parametrize("name, code", [
    ("Cat;One", "CATEGORY_NAME_DELIMITER"),
    ("Cat|One", "CATEGORY_NAME_DELIMITER"),
    ("Cat\nOne", "CATEGORY_NAME_LINEBREAK"),
    ("Cat\rOne", "CATEGORY_NAME_LINEBREAK"),
    ("Cat\u2028One", "CATEGORY_NAME_LINEBREAK"),
    ("Cat_One\n", "CATEGORY_NAME_LINEBREAK"),
])
def test_grammar_unsafe_category_names_are_errors(name, code):
    cat = Category(name=name, description="d", skills=(Skill(name="S"),))
    findings = validate_library(KnowledgeLibrary(categories=(cat,)))
    assert [(f.severity, f.code) for f in findings] == [("ERROR", code)]


@pytest.mark.parametrize("name, code", [
    ("Sk|x", "SKILL_NAME_DELIMITER"),
    ("Sk;x", "SKILL_NAME_DELIMITER"),
    ("Sk\x85x", "SKILL_NAME_LINEBREAK"),
    ("Sk\x0bx", "SKILL_NAME_LINEBREAK"),
])
def test_grammar_unsafe_skill_names_are_errors(name, code):
    cat = Category(name="T", description="d", skills=(Skill(name=name),))
    findings = validate_library(KnowledgeLibrary(categories=(cat,)))
    assert [(f.severity, f.code) for f in findings] == [("ERROR", code)]


def test_name_whose_answer_line_would_not_parse_is_rejected():
    # Q01: Cat;One | Sk|x  is not a parseable answer line.
    cat = Category(name="Cat;One", description="d", skills=(Skill(name="Sk|x"),))
    codes = {f.code for f in validate_library(KnowledgeLibrary(categories=(cat,)))}
    assert codes == {"CATEGORY_NAME_DELIMITER", "SKILL_NAME_DELIMITER"}


def test_category_lookup_first_match_wins_on_duplicate_names():
    first = Category(name="Twin", description="first", skills=(Skill(name="A"),))
    second = Category(name=" Twin ", description="second", skills=(Skill(name="B"),))
    lib = KnowledgeLibrary(categories=(first, second))
    assert lib.category("Twin") is first
    assert lib.category("  Twin\t") is first
    assert lib.category("Missing") is None


def test_category_lookup_map_is_not_part_of_equality():
    lib = _simple_library(3, with_summary=False)
    twin = KnowledgeLibrary(categories=lib.categories)
    assert lib.category("Topic_1") is lib.categories[1]
    assert lib == twin
    assert repr(lib) == repr(twin)
    assert serialize_library(lib) == serialize_library(twin)


def test_category_token_view_is_not_part_of_equality():
    cat = Category(name=" Topic_A ", description="topic alpha beta",
                   skills=(Skill(name="Sk_1", description="gamma sk"),))
    twin = dataclasses.replace(cat)
    before = hash(cat), encode(cat), repr(cat)
    assert cat.token_view == (
        (frozenset({"topic", "a"}), frozenset({"alpha", "beta"}), "Topic_A"),
        ((frozenset({"sk", "1"}), frozenset({"gamma"}), "Sk_1"),))
    assert "token_view" in vars(cat) and "token_view" not in vars(twin)
    assert cat == twin
    assert hash(cat) == hash(twin) == before[0]
    assert encode(cat) == encode(twin) == before[1]
    assert repr(cat) == before[2]
    assert serialize_library(KnowledgeLibrary(categories=(cat,))) == serialize_library(
        KnowledgeLibrary(categories=(twin,)))


@pytest.mark.parametrize("attribute", ["body_text", "lowered_text", "first_skill"])
def test_category_cached_texts_are_not_part_of_equality(attribute):
    cat = Category(name=" Topic_A ", description="Topic Alpha", complement="B",
                   skills=(Skill(name=" Sk_2", description="Gamma"), Skill(name="Sk_1")))
    twin = dataclasses.replace(cat)
    before = hash(cat), encode(cat), repr(cat)
    getattr(cat, attribute)
    assert attribute in vars(cat) and attribute not in vars(twin)
    assert attribute not in {f.name for f in dataclasses.fields(Category)}
    assert cat == twin
    assert hash(cat) == hash(twin) == before[0]
    assert encode(cat) == encode(twin) == before[1]
    assert repr(cat) == before[2]


def test_category_cached_texts_are_read_from_the_category():
    cat = Category(name=" Topic_A ", description="Topic Alpha", complement="B",
                   skills=(Skill(name=" Sk_2", description="Gamma"), Skill(name="Sk_1")))
    assert cat.lowered_text == " topic_a \ntopic alpha\n sk_2\ngamma\nsk_1\n"
    assert cat.first_skill == "Sk_1"
    assert cat.body_text.text == (
        '{\n  "category_description": "Topic Alpha",\n  "complement": "B",\n  "skills": [\n'
        '    {\n      "skill_name": " Sk_2",\n      "description": "Gamma"\n    },\n'
        '    {\n      "skill_name": "Sk_1",\n      "description": ""\n    }\n  ]\n}')
    # A replaced category is a new object with its own texts.
    changed = dataclasses.replace(cat, description="Topic Omega")
    assert '"category_description": "Topic Omega"' in changed.body_text.text
    assert "topic omega" in changed.lowered_text
    assert '"category_description": "Topic Alpha"' in cat.body_text.text


def test_validate_is_pure(fixture_library):
    assert validate_library(fixture_library) == validate_library(fixture_library)


def test_index_sums_match_total_skills(fixture_library):
    index_total = sum(e.skill_count for e in fixture_library.summary.category_index)
    assert index_total == fixture_library.total_skills == 190


def test_surface_similarity_identity_and_disjoint():
    a = Category(name="Alpha_Beta", description="gamma delta")
    assert surface_similarity(a, a) == 1.0
    b = Category(name="Omicron", description="sigma tau")
    assert surface_similarity(a, b) == 0.0


def test_surface_similarity_hand_computed_pair(fixture_library):
    # Oracle: token sets enumerated by hand; intersection is
    # {a, agent, agents, and, between, handoff, stage, state, working},
    # 9 shared over a 43-token union.
    spec = next(s for s in round2_config().distractors
                if s.name == "Agent_Handoff_Protocol_Design")
    distractor = Category(name=spec.name, description=spec.description)
    target = fixture_library.category("Distributed_Cognition_&_Context_Orchestration")
    value = surface_similarity(distractor, target)
    assert value == pytest.approx(9 / 43, abs=1e-12)
    assert value == surface_similarity(target, distractor)


def test_roundtrip_preserves_everything(fixture_library):
    text = serialize_library(fixture_library)
    again = deserialize_library(text)
    assert again == fixture_library
    assert [c.name for c in again.categories] == [c.name for c in fixture_library.categories]


def test_serialized_summary_is_first_key(fixture_library):
    text = serialize_library(fixture_library)
    assert text.lstrip().startswith('{\n  "_summary":')


def test_deserialize_rejects_garbage():
    with pytest.raises(MalformedFile):
        deserialize_library("not json at all")
    with pytest.raises(MalformedFile):
        deserialize_library("[1, 2]")
    with pytest.raises(MalformedFile):
        deserialize_library('{"_summary": {}}')  # no body key


def test_the_body_is_the_first_key_without_a_leading_underscore(fixture_library):
    text = serialize_library(dataclasses.replace(fixture_library, body_key="Skills"))
    # An underscore key before the body is skipped, and one after it is not the body.
    text = text.replace('"Skills": {', '"_notes": {"a": 1},\n  "Skills": {', 1)
    text = text[:text.rindex("}")] + ',\n  "Later": {}\n}\n'
    read = deserialize_library(text)
    assert read == fixture_library
    assert read.body_key == "Skills"


@pytest.mark.parametrize("body_key", ["_x", "_"])
def test_a_body_key_with_a_leading_underscore_is_refused(body_key):
    # decode_library would take another key, or none, for the body on reading it back.
    with pytest.raises(ValueError, match="body_key must not start with '_'"):
        KnowledgeLibrary(body_key=body_key)
    with pytest.raises(ValueError):
        dataclasses.replace(KnowledgeLibrary(), body_key=body_key)


def test_library_bytes_may_start_with_a_bom(fixture_library):
    text = serialize_library(fixture_library)
    assert deserialize_library(b"\xef\xbb\xbf" + text.encode("utf-8")) == fixture_library


def test_finding_shape():
    finding = Finding(severity="ERROR", code="X", message="m")
    assert (finding.severity, finding.code, finding.message) == ("ERROR", "X", "m")
