"""Property suites over generated inputs.

Hypothesis drives the structured strategies; the seeded-random builders
in _generators cover the shapes hypothesis is poor at (whole libraries,
documents) while keeping every case reproducible.
"""

import contextlib
import copy
import io
import json
import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdsr.bench import format_selections, parse_response, Question, score_responses
from sdsr.cli import dispatch
from sdsr.corpus import section_document
from sdsr.distractors import inject_interleaved
from sdsr.engine import (
    LexicalBackend,
    QuestionSelection,
    Selection,
    lexical_score,
    select_tier2,
)
from sdsr.guidance import CONDITIONS, build_condition, build_summary, strip_summary
from sdsr.library import (
    Category,
    CategoryIndexEntry,
    HINT_MAX,
    KnowledgeLibrary,
    Skill,
    SummaryBlock,
    deserialize_library,
    has_errors,
    serialize_library,
    surface_similarity,
    tokenize,
    validate_library,
)
from sdsr.prefix import estimate_tokens

from _fixtures import FIXTURES_DIR
from _generators import (
    random_document,
    random_library,
    random_selection_set,
)

CASES = 120

seeds = st.integers(min_value=0, max_value=10_000)


@settings(max_examples=CASES, deadline=None)
@given(seed=seeds)
def test_serialization_round_trip(seed):
    lib = random_library(random.Random(seed))
    assert deserialize_library(serialize_library(lib)) == lib


@settings(max_examples=CASES, deadline=None)
@given(seed=seeds, body_key=st.sampled_from(["High_Impact_Skills_Library", "Body", "K_x"]))
def test_round_trip_with_custom_body_key(seed, body_key):
    lib = replace(random_library(random.Random(seed)), body_key=body_key)
    text = serialize_library(lib)
    # The reader takes the first key not starting with "_" as the body.
    read = deserialize_library(text)
    assert read == lib
    assert read.body_key == body_key
    assert serialize_library(read) == text
    # A condition's artifact is what a remote model reads, and its library is
    # what the lexical backend scores: the two must be one library.
    for condition in CONDITIONS:
        cond = build_condition(lib, condition)
        read = deserialize_library(cond.library_artifact)
        assert read == cond.library
        assert serialize_library(read).encode("utf-8") == cond.library_artifact


@settings(max_examples=CASES, deadline=None)
@given(seed=seeds)
def test_summary_first_when_present(seed):
    lib = random_library(random.Random(seed), with_summary=True)
    assert serialize_library(lib).lstrip().startswith('{\n  "_summary":')


@settings(max_examples=CASES, deadline=None)
@given(seed=seeds)
def test_parse_format_identity(seed):
    selection = random_selection_set(random.Random(seed))
    max_id = max(s.question_id for s in selection.selections)
    questions = [Question(id=i, text="t", primary_target="X") for i in range(1, max_id + 1)]
    parsed, findings = parse_response(format_selections(selection), questions)
    assert findings == []
    assert parsed.selections == selection.selections


@settings(max_examples=CASES, deadline=None)
@given(n_real=st.integers(1, 60), n_distractors=st.integers(0, 60))
def test_interleave_spacing_and_order(n_real, n_distractors):
    real = KnowledgeLibrary(categories=tuple(
        Category(name=f"R_{i}", description="r", skills=(Skill(name="s"),))
        for i in range(n_real)))
    noise = [
        Category(name=f"D_{i}", description="d", skills=(Skill(name="s"),),
                 distractor_tier="low")
        for i in range(n_distractors)
    ]
    merged = inject_interleaved(real, noise)
    names = [c.name for c in merged.categories]
    assert len(names) == n_real + n_distractors
    assert [n for n in names if n.startswith("R_")] == [f"R_{i}" for i in range(n_real)]
    assert [n for n in names if n.startswith("D_")] == [f"D_{i}" for i in range(n_distractors)]
    gaps = []
    run = 0
    seen = False
    for name in names:
        if name.startswith("D_"):
            if seen:
                gaps.append(run)
            run = 0
            seen = True
        elif seen:
            run += 1
    if gaps:
        assert max(gaps) - min(gaps) <= 1
    if 0 < n_distractors <= n_real:
        assert 0 not in gaps


@settings(max_examples=CASES, deadline=None)
@given(seed=seeds)
def test_hint_length_bounded(seed):
    lib = random_library(random.Random(seed), with_summary=False)
    hinted = build_summary(lib)
    for entry in hinted.summary.category_index:
        assert len(entry.routing_hint) <= HINT_MAX
    # rebuilding replaces, never accumulates
    assert build_summary(hinted) == hinted


@settings(max_examples=CASES, deadline=None)
@given(seed=seeds)
def test_strip_build_strip_identity(seed):
    lib = random_library(random.Random(seed), with_summary=True)
    stripped = strip_summary(lib)
    assert strip_summary(build_summary(stripped)) == stripped


@settings(max_examples=CASES, deadline=None)
@given(seed=seeds)
def test_sectioning_is_lossless(seed):
    text, rules = random_document(random.Random(seed))
    doc = section_document(text, rules)
    assert "".join(s.text for s in doc.sections) == text
    previous_end = 0
    for section in doc.sections:
        start, end = section.char_span
        assert start == previous_end
        assert text[start:end] == section.text
        previous_end = end
    assert previous_end == len(text)


@settings(max_examples=CASES, deadline=None)
@given(seed=seeds)
def test_surface_similarity_symmetric_and_bounded(seed):
    rng = random.Random(seed)
    lib = random_library(rng, n_categories=2, with_summary=False)
    a, b = lib.categories
    forward = surface_similarity(a, b)
    assert forward == surface_similarity(b, a)
    assert 0.0 <= forward <= 1.0
    assert surface_similarity(a, a) == 1.0


@settings(max_examples=CASES, deadline=None)
@given(text=st.text(max_size=400))
def test_estimate_tokens_formula(text):
    estimate = estimate_tokens(text)
    assert estimate == (len(text) + 3) // 4
    assert estimate * 4 >= len(text)
    assert estimate >= 0


@settings(max_examples=CASES, deadline=None)
@given(query=st.text(max_size=80), name=st.text(max_size=40), hint=st.text(max_size=80))
def test_lexical_score_bounded_and_deterministic(query, name, hint):
    entry = CategoryIndexEntry(name=name, skill_count=0, routing_hint=hint)
    score = lexical_score(query, entry)
    assert 0.0 <= score <= 1.0
    assert score == lexical_score(query, entry)
    if not tokenize(query) & (tokenize(name) | tokenize(hint)):
        assert score == 0.0


# --- tier 2 against a brute-force pair search ---------------------------
#
# A five-word vocabulary in mixed case and punctuation keeps scores
# colliding, so tie-breaks are exercised as often as score order.

_TIE_WORDS = ("alpha", "Beta", "GAMMA", "delta-alpha", "beta_2", "x1")


def _oracle_tokens(text):
    return set(re.findall(r"[0-9a-z]+", text.lower()))


def _oracle_overlap(query, name, text):
    """(2|Q&N| + |Q&(H-N)|) / (2|Q|N| + |(H-N)-Q|), written out."""
    q, n = _oracle_tokens(query), _oracle_tokens(name)
    h = _oracle_tokens(text) - n
    numerator = 2 * len(q & n) + len(q & h)
    denominator = 2 * len(q | n) + len(h - q)
    return numerator / denominator if denominator else 0.0


def _oracle_select(question_id, query, libraries):
    pairs = [
        (_oracle_overlap(query, cat.name, cat.description)
         + _oracle_overlap(query, skill.name, skill.description),
         cat.name.strip(), skill.name.strip())
        for lib in libraries for cat in lib.categories for skill in cat.skills
    ]
    if not pairs:
        return None
    def best_first(pair):
        return -pair[0], pair[1], pair[2]

    primary = min(pairs, key=best_first)
    runner_up = min((p for p in pairs if p[1] != primary[1]), key=best_first, default=None)
    secondary = None
    if runner_up is not None and runner_up[0] > 0.0:
        secondary = Selection(category=runner_up[1], skill=runner_up[2])
    return QuestionSelection(
        question_id=question_id,
        primary=Selection(category=primary[1], skill=primary[2]),
        secondary=secondary)


_tie_text = st.lists(st.sampled_from(_TIE_WORDS), max_size=4).map(" ".join)
_tie_name = st.tuples(
    st.lists(st.sampled_from(_TIE_WORDS), min_size=1, max_size=2).map("_".join),
    st.sampled_from(["", " "]),
).map(lambda parts: parts[0] + parts[1])
_tie_skill = st.builds(Skill, name=_tie_name, description=_tie_text)
_tie_category = st.builds(
    Category,
    name=_tie_name,
    description=_tie_text,  # may be empty
    skills=st.lists(_tie_skill, max_size=3).map(tuple),  # may be skill-less
    distractor_tier=st.sampled_from([None, "low", "high"]),
)
_tie_library = st.lists(_tie_category, max_size=5).map(
    lambda cats: KnowledgeLibrary(categories=tuple(cats)))


def _assert_select_matches_oracle(libraries, queries, descriptions):
    """Changing question sets over one set of categories, then over rebuilt ones.

    One backend makes every call.  Each set of category objects sees the
    question set twice, then another set (a reordered subset, with one text
    under two ids), then the first set again, so an answer kept for another
    question set would show.  The rebuilt categories keep their names but
    get new descriptions, so tokens or answers cached by name or on the
    backend would score the old descriptions.
    """
    questions = list(enumerate(queries, start=1))
    other = [*reversed(questions[1:]), (0, queries[-1])]
    rebuilt = [
        replace(lib, categories=tuple(
            replace(cat, description=descriptions[pos % len(descriptions)])
            for pos, cat in enumerate(lib.categories)))
        for lib in libraries
    ]
    backend = LexicalBackend()
    for libs in (libraries, rebuilt):
        for asked in (questions, questions, other, questions):
            expected = tuple(
                sel for sel in (_oracle_select(qid, text, libs) for qid, text in asked)
                if sel is not None)
            assert backend.select(asked, libs).selections == expected


@settings(max_examples=CASES * 2, deadline=None)
@given(libraries=st.lists(_tie_library, min_size=1, max_size=3),
       queries=st.lists(_tie_text, min_size=1, max_size=6),
       descriptions=st.lists(_tie_text, min_size=1, max_size=4))
def test_tier2_select_matches_brute_force_pair_search(libraries, queries, descriptions):
    _assert_select_matches_oracle(libraries, queries, descriptions)


# --- tier 1 against a per-file brute-force max -----------------------------
#
# Pieces concatenate with or without a separator, so texts hold tokens
# that only contain a query token as a substring (alpha/alphabet, x1/x12),
# and characters whose lowercase is ASCII (Kelvin sign to k, dotted
# capital I to i) or holds no token at all (final sigma, fullwidth digits).

_ROUTE_PIECES = ("alpha", "alphabet", "x1", "x12", "k", "\u212a", "i", "\u0130stanbul",
                 "\u03a3\u0391\u03a3", "\uff11", "1", " ", "_", "-")
_route_text = st.lists(st.sampled_from(_ROUTE_PIECES), max_size=6).map("".join)
_route_block = st.builds(
    SummaryBlock,
    category_index=st.lists(  # may be empty
        st.builds(CategoryIndexEntry, name=_route_text, skill_count=st.just(1),
                  routing_hint=_route_text),
        max_size=3).map(tuple),
)


@settings(max_examples=CASES * 4, deadline=None)
@given(query=_route_text, blocks=st.lists(_route_block, min_size=1, max_size=5))
def test_tier1_route_matches_brute_force_max_per_file(query, blocks):
    summaries = [(f"f{i}", block) for i, block in enumerate(blocks)]
    expected = [
        (file_id, max((_oracle_overlap(query, entry.name, entry.routing_hint)
                       for entry in block.category_index), default=0.0))
        for file_id, block in summaries
    ]
    assert LexicalBackend().route(query, summaries) == expected


# --- tier 2 against the brute-force pair search, sparse vocabulary -----------
#
# Each category draws all its text from one pool.  Pool 0 shares tokens
# with the queries, pool 1 only substrings, pool 2 nothing at all, so whole
# categories miss every question; pool 3 matches query "k" only after
# lowercasing.  Small pools repeat trimmed names across libraries and give
# one category several zero-overlap skills.

_SPARSE_POOLS = (("alpha", "Beta", "gamma"), ("alphabet", "x12", "betamax"),
                 ("omega", "zeta", "psi"), ("\u212a", "\u0130", "x\uff11"))
_sparse_query = st.lists(st.sampled_from(("alpha", "Beta", "x1", "k", "gamma")),
                         max_size=3).map(" ".join)


def _sparse_category(pool):
    text = st.lists(st.sampled_from(pool), max_size=3).map(" ".join)
    name = st.tuples(
        st.lists(st.sampled_from(pool), min_size=1, max_size=2).map("_".join),
        st.sampled_from(["", " "]),
    ).map("".join)
    return st.builds(
        Category, name=name, description=text,
        skills=st.lists(st.builds(Skill, name=name, description=text),
                        max_size=4).map(tuple))  # may be skill-less


_sparse_library = st.lists(
    st.one_of([_sparse_category(pool) for pool in _SPARSE_POOLS]), max_size=5,
).map(lambda cats: KnowledgeLibrary(categories=tuple(cats)))


@settings(max_examples=CASES * 2, deadline=None)
@given(libraries=st.lists(_sparse_library, min_size=1, max_size=3),
       queries=st.lists(_sparse_query, min_size=1, max_size=6),
       descriptions=st.lists(
           st.lists(st.sampled_from(sum(_SPARSE_POOLS, ())), max_size=3).map(" ".join),
           min_size=1, max_size=4))
def test_tier2_select_matches_brute_force_on_a_sparse_vocabulary(libraries, queries, descriptions):
    _assert_select_matches_oracle(libraries, queries, descriptions)


# --- validated libraries survive the response grammar -------------------

_safe_name = st.lists(
    st.sampled_from(["alpha", "Beta", "gamma", "Q01:", "x 2", "_", "&", "é", "中", "\tdelta ",
                     " omega"]),
    min_size=1, max_size=4).map("".join)
# Now and then a name carries a character the response grammar splits on.
_grammar_name = st.builds(
    lambda head, middle, tail: head + middle + tail,
    _safe_name,
    st.sampled_from([""] * 60 + ["|", ";", "\n", "\r", "\x85", "\u2028", "\x0b", "\x1e"]),
    _safe_name,
)
_grammar_library = st.lists(
    st.builds(
        Category,
        name=_grammar_name,
        description=st.sampled_from(["alpha beta", "gamma | delta; x", "Q01: alpha"]),
        skills=st.lists(
            st.builds(Skill, name=_grammar_name, description=_tie_text),
            min_size=1, max_size=3).map(tuple),
    ),
    max_size=4,
).map(lambda cats: KnowledgeLibrary(categories=tuple(cats)))


@settings(max_examples=CASES * 2, deadline=None)
@given(lib=_grammar_library,
       queries=st.lists(st.sampled_from(["alpha", "gamma delta", "Beta x", ""]),
                        min_size=1, max_size=4))
def test_validated_library_round_trips_through_the_response_grammar(lib, queries):
    if has_errors(validate_library(lib)):
        return
    questions = list(enumerate(queries))  # from id 0, which format_selections writes as Q00
    selection = select_tier2(questions, [lib], LexicalBackend())
    chosen = {sel.question_id: sel for sel in selection.selections}
    key = [
        Question(id=qid, text=text,
                 primary_target=chosen[qid].primary.category if qid in chosen else "-",
                 secondary_target=(chosen[qid].secondary.category
                                   if qid in chosen and chosen[qid].secondary else None))
        for qid, text in questions
    ]
    parsed, findings = parse_response(format_selections(selection), key)
    assert findings == []
    assert parsed.selections == selection.selections
    report = score_responses(parsed, key)
    assert report == score_responses(selection, key)
    assert report.primary_hits == len(chosen)


def _split_tokenize(text):
    """The tokenizer as first written: split on non-alphanumerics, drop empties."""
    return frozenset(p for p in re.split(r"[^0-9A-Za-z]+", text.lower()) if p)


@settings(max_examples=CASES * 4, deadline=None)
@given(text=st.text())
def test_tokenize_matches_the_split_oracle(text):
    assert tokenize(text) == _split_tokenize(text)


@pytest.mark.parametrize("text, expected", [
    ("\u212a", {"k"}),                    # Kelvin sign lowercases to ASCII k
    ("\u0130stanbul", {"i", "stanbul"}),  # lowercases to i + combining dot
    ("\u03a3\u0391\u03a3", set()),        # final sigma, no ASCII at all
    ("\uff11\uff12x3", {"x3"}),           # fullwidth digits are not [0-9]
    ("", set()),
], ids=["kelvin", "dotted-capital-i", "final-sigma", "fullwidth-digits", "empty"])
def test_tokenize_unicode_examples(text, expected):
    assert tokenize(text) == _split_tokenize(text) == expected


# --- malformed input files --------------------------------------------
#
# Every input format, paired with a CLI command that reads it.  Bare file
# names in a command are files of fixtures/; OUT and OUTDIR are temporary
# output paths.

STRUCTURE = ["structure", "--rules", "judgment_rules.json", "--in", "judgment.txt",
             "--out", "OUT", "--digests", "judgment_digests.json",
             "--refs", "judgment_refs.json"]
SCORE = ["score", "--selections", "selections_r1_B.json", "--key", "questions_20.json"]
READERS = {
    "library_r1.json": ["validate", "--in", "library_r1.json"],
    "questions_20.json": SCORE,
    "selections_r1_B.json": SCORE,
    "prompts.json": ["condition", "--version", "D", "--in", "library_r1.json",
                     "--out-dir", "OUTDIR", "--prompts", "prompts.json"],
    "round2_specs.json": ["expand", "--in", "library_r1.json",
                          "--specs", "round2_specs.json", "--out", "OUT"],
    "judgment_rules.json": STRUCTURE,
    "judgment_refs.json": STRUCTURE,
    "judgment_digests.json": STRUCTURE,
}
DELETE = object()
MUTATIONS = [DELETE, None, [], 7]


def _key_paths(value, prefix=()):
    """Every path of keys and list indexes inside *value*, parents first."""
    if isinstance(value, dict):
        steps = value.items()
    elif isinstance(value, list):
        steps = enumerate(value)
    else:
        return
    for step, child in steps:
        yield prefix + (step,)
        yield from _key_paths(child, prefix + (step,))


def _mutated(data, path, mutation):
    data = copy.deepcopy(data)
    parent = data
    for step in path[:-1]:
        parent = parent[step]
    if mutation is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = mutation
    return data


def _run_reader(name, text, workdir):
    """Run the command that reads fixture *name*, given *text* as that file."""
    (workdir / "input.json").write_text(text, encoding="utf-8")
    argv = [str(workdir / "input.json") if arg == name
            else str(workdir / arg) if arg in ("OUT", "OUTDIR")
            else str(FIXTURES_DIR / arg) if (FIXTURES_DIR / arg).is_file() else arg
            for arg in READERS[name]]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        outcome = dispatch(argv)
    return outcome.exit_code, err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("malformed")


@pytest.mark.parametrize("name", sorted(READERS))
def test_every_reader_accepts_its_fixture(name, workdir):
    code, err = _run_reader(name, (FIXTURES_DIR / name).read_text(encoding="utf-8"), workdir)
    assert (code, [line for line in err.splitlines() if line.startswith("ERROR")]) == (0, [])


@pytest.mark.parametrize("name", sorted(READERS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_a_mutated_input_file_never_escapes_as_a_traceback(name, workdir, data):
    original = json.loads((FIXTURES_DIR / name).read_text(encoding="utf-8"))
    path = data.draw(st.sampled_from(list(_key_paths(original))), label="path")
    mutation = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    text = json.dumps(_mutated(original, path, mutation))
    code, err = _run_reader(name, text, workdir)
    assert code in (0, 1), err
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if line.startswith("ERROR")]) <= 1


def _set(*path_and_value):
    *path, value = path_and_value
    return lambda data: _mutated(data, tuple(path), value)


@pytest.mark.parametrize("name, change, error", [
    ("questions_20.json", _set(0, "id", None),
     "[0].id: expected an integer, got null"),
    ("questions_20.json", _set(2, "id", "3"),
     "[2].id: expected an integer, got a string"),
    ("selections_r1_B.json", _set("selections", 0, "question_id", DELETE),
     "selections[0].question_id: missing required key"),
    ("selections_r1_B.json", _set("selections", 1, "secondary", []),
     "selections[1].secondary: expected an object, got a list"),
    ("judgment_rules.json", _set(1, "header_pattern", DELETE),
     "[1].header_pattern: missing required key"),
    ("judgment_rules.json", _set(2, "header_pattern", "(["),
     "[2]: bad header_pattern '([': unterminated character set at position 1"),
    ("judgment_refs.json", _set(0, "to_section", DELETE),
     "[0].to_section: missing required key"),
    ("judgment_digests.json", lambda data: [],
     "expected an object, got a list"),
    ("prompts.json", _set("high_priority", 0, "confused_with", DELETE),
     "high_priority[0].confused_with: missing required key"),
    ("prompts.json", _set("extended_template", "no placeholder"),
     "extended_template must contain the {high_priority} placeholder"),
    ("prompts.json", _set("extended_template", "x {high_priority} {oops}"),
     "extended_template: unknown placeholder {oops}"),
    ("prompts.json", _set("extended_template", "x {high_priority} }"),
     "extended_template: Single '}' encountered in format string"),
    # Keys the prompts fixture leaves to their defaults, so no key-path mutation reaches them.
    ("prompts.json", _set("minimal_template", 7),
     "minimal_template: expected a string, got an integer"),
    ("prompts.json", _set("priority_rule", None),
     "priority_rule: expected a string, got null"),
    ("prompts.json", _set("extended_template", []),
     "extended_template: expected a string, got a list"),
    ("round2_specs.json", lambda data: {"round_id": 2, "distractors": [{}]},
     "distractors[0].tier: missing required key"),
    ("round2_specs.json", _set("distractors", 0, "theta", "0.3"),
     "distractors[0].theta: expected a number, got a string"),
    ("round2_specs.json", _set("distractors", 0, "theta", 10**400),
     "distractors[0].theta: expected a number, got an integer too large to convert"),
    ("library_r1.json",
     _set("High_Impact_Skills_Library", "Cognitive_Architecture_&_Routing", "skills", 0,
          "skill_name", 7),
     "High_Impact_Skills_Library.Cognitive_Architecture_&_Routing.skills[0].skill_name: "
     "expected a string, got an integer"),
    ("library_r1.json",
     _set("High_Impact_Skills_Library", "Cognitive_Architecture_&_Routing", "skills", 2,
          "skill_name", DELETE),
     "High_Impact_Skills_Library.Cognitive_Architecture_&_Routing.skills[2].skill_name: "
     "missing required key"),
    ("library_r1.json", _set("_summary", "routing_roles", "domain_specific", 1, 7),
     "_summary.routing_roles.domain_specific[1]: expected a string, got an integer"),
    ("library_r1.json", _set("_provenance", "nope"),
     "_provenance: expected an object, got a string"),
], ids=["question-id-null", "question-id-string", "selection-question-id-missing",
        "selection-secondary-list", "rule-pattern-missing", "rule-pattern-bad-regex",
        "ref-to-section-missing", "digests-list", "prompt-confused-with-missing",
        "prompt-placeholder-missing", "prompt-placeholder-unknown",
        "prompt-brace-unbalanced", "prompt-minimal-template-integer",
        "prompt-priority-rule-null", "prompt-extended-template-list", "spec-tier-missing",
        "spec-theta-string", "spec-theta-huge-integer", "skill-name-integer", "skill-name-missing",
        "routing-role-name-integer", "provenance-string"])
def test_a_malformed_input_file_exits_one_naming_the_key_path(name, change, error, workdir):
    original = json.loads((FIXTURES_DIR / name).read_text(encoding="utf-8"))
    code, err = _run_reader(name, json.dumps(change(original)), workdir)
    assert (code, err.splitlines()) == (
        1, [f"ERROR MalformedFile: {workdir / 'input.json'}: {error}"])


@pytest.mark.parametrize("name", sorted(READERS))
def test_a_truncated_input_file_exits_one_naming_the_file(name, workdir):
    text = (FIXTURES_DIR / name).read_text(encoding="utf-8")
    code, err = _run_reader(name, text[:len(text) // 2], workdir)
    assert code == 1
    [line] = err.splitlines()
    assert line.startswith(f"ERROR MalformedFile: {workdir / 'input.json'}: invalid JSON: ")
