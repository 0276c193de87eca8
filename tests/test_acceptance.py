"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line once its assertions hold (run with
``pytest tests/test_acceptance.py -v -s`` to see them) and checks its
stated CPU-time budget.  Everything runs offline with the deterministic
lexical backend; expected values are exact unless noted.
"""

import json
import random
import re
import time
from contextlib import contextmanager

import pytest

from sdsr.bench import (
    format_selections,
    parse_response,
    Question,
    score_responses,
)
from sdsr.corpus import section_document
from sdsr.distractors import expand_round, inject_interleaved
from sdsr.engine import (
    LexicalBackend,
    RoutingRequest,
    apply_complement_pass,
    route_tier1,
    select_tier2,
)
from sdsr.guidance import build_condition, build_summary
from sdsr.library import (
    Category,
    KnowledgeLibrary,
    Skill,
    SummaryBlock,
    deserialize_library,
    serialize_library,
)
from sdsr.prefix import estimate_tokens, extract_summary, scan_registry, \
    summary_token_estimate
from sdsr.wire import decode

from _fixtures import (
    build_fixture_library,
    build_fixture_questions,
    fixture_prompt_config,
    round1_selection_fixture,
    round2_config,
    round3_config,
)
from _generators import (
    library_with_big_body,
    random_document,
    random_library,
    random_query,
    random_selection_set,
    write_routing_registry,
)


@contextmanager
def budget(seconds):
    # CPU time of this process, so load from other processes on the host cannot fail a budget.
    start = time.process_time()
    elapsed = {}
    yield elapsed
    elapsed["s"] = time.process_time() - start
    assert elapsed["s"] < seconds, f"runtime {elapsed['s']:.2f}s exceeds budget {seconds}s"


def report(number, text, elapsed):
    print(f"PASS criterion {number}: {text} ({elapsed['s']:.2f}s)")


def test_criterion_1_scoring_reproduction():
    with budget(1.0) as elapsed:
        key = build_fixture_questions()
        expected = {"A": 21.0, "B": 21.5, "C": 21.0}
        for condition, total in expected.items():
            rep = score_responses(round1_selection_fixture(condition), key)
            assert rep.total == total  # exact, tolerance 0
            assert rep.primary_hits == 20
    report(1, "round-1 matrices score 21.0 / 21.5 / 21.0 exactly", elapsed)


def test_criterion_2_max_score_arithmetic():
    with budget(1.0) as elapsed:
        key = build_fixture_questions()
        assert sum(1 for q in key if q.secondary_target is not None) == 17
        rep = score_responses(round1_selection_fixture("A"), key)
        assert rep.max_total == 28.5  # exact
    report(2, "20-question key with 17 secondaries yields max_total 28.5", elapsed)


def test_criterion_3_prefix_read_bound(tmp_path):
    rng = random.Random(20250414)
    with budget(5.0) as elapsed:
        decoder = json.JSONDecoder()
        for i in range(50):
            lib = library_with_big_body(rng, min_serialized_bytes=1 << 20)
            path = tmp_path / f"big_{i:02d}.json"
            path.write_text(serialize_library(lib), encoding="utf-8")

            result = extract_summary(path, block_size=4096)

            # independent oracle: full decode via the stdlib JSON decoder
            text = path.read_text(encoding="utf-8")
            colon = text.index(":", text.index('"_summary"'))
            start = colon + 1
            while text[start] in " \t\r\n":
                start += 1
            value, end_char = decoder.raw_decode(text, start)
            end_offset = len(text[:end_char].encode("utf-8"))

            assert result.summary == decode(SummaryBlock, value)
            assert result.summary_end_offset == end_offset
            assert result.bytes_read <= end_offset + 4096
    report(3, "50 x 1 MiB libraries: bytes_read <= offset + 4096, summary matches "
              "full parse", elapsed)


def test_criterion_4_round_expansion():
    with budget(2.0) as elapsed:
        base = build_fixture_library(with_summary=False)
        assert (len(base.categories), base.total_skills) == (36, 190)

        round2 = expand_round(base, round2_config())
        assert len(round2.library.categories) == 60
        assert round2.library.total_skills == 262
        tiers = [c.distractor_tier for c in round2.library.categories]
        assert not any(a is not None and b is not None for a, b in zip(tiers, tiers[1:]))

        round3 = expand_round(round2.library, round3_config())
        assert len(round3.library.categories) == 120
        mismatches = [f for f in round3.report if f.code == "EXPECTED_TOTAL_MISMATCH"]
        assert mismatches, "expected the 119-vs-120 mismatch to be reported"
        assert "119" in mismatches[0].message and "120" in mismatches[0].message
    report(4, "round 2 yields exactly 60/262 with no adjacent distractors; "
              "round 3 reports 119-vs-120 mismatch", elapsed)


def test_criterion_5_tier1_budget(tmp_path):
    rng = random.Random(99)
    with budget(10.0) as elapsed:
        summary_tokens = []
        full_tokens = []
        for i in range(100):
            lib = library_with_big_body(rng, min_serialized_bytes=40_000)
            path = tmp_path / f"lib_{i:03d}.json"
            serialized = serialize_library(lib)
            path.write_text(serialized, encoding="utf-8")
            result = extract_summary(path, block_size=4096)
            summary_tokens.append(summary_token_estimate(result.summary))
            full_tokens.append(estimate_tokens(serialized))
        assert all(tokens >= 10_000 for tokens in full_tokens)
        total_summary = sum(summary_tokens)
        total_full = sum(full_tokens)
        assert total_summary <= 25_000
        assert total_full >= 900_000
        assert total_full / total_summary >= 36
    report(5, f"tier-1 scan budget holds: {total_summary} summary tokens vs "
              f"{total_full} full-content tokens", elapsed)


def _oracle_file_score(query, block):
    """Brute-force rescoring, written independently of the engine."""
    def toks(text):
        return set(re.findall(r"[0-9a-z]+", text.lower()))

    best = 0.0
    q = toks(query)
    for entry in block.category_index:
        n, h = toks(entry.name), toks(entry.routing_hint)
        h_only = h - n
        numerator = 2 * len(q & n) + len(q & h_only)
        denominator = 2 * len(q | n) + len(h_only - q)
        score = numerator / denominator if denominator else 0.0
        best = max(best, score)
    return best


def test_criterion_6_router_oracle_equivalence(tmp_path):
    rng = random.Random(424242)
    with budget(5.0) as elapsed:
        vocabulary = write_routing_registry(rng, tmp_path, n_files=10)
        registry = scan_registry(tmp_path)
        assert len(registry) == 10
        summaries = tuple(
            (entry.file_id, extract_summary(entry.path).summary)
            for entry in registry.entries
        )
        backend = LexicalBackend()
        for _ in range(200):
            query = random_query(rng, vocabulary)
            result = route_tier1(
                RoutingRequest(query=query, summaries=summaries), backend)
            scores = {fid: _oracle_file_score(query, block) for fid, block in summaries}
            oracle_ranking = sorted(scores, key=lambda f: (-scores[f], f))
            assert result.selected[0].file_id == oracle_ranking[0]
            assert result.selected[0].score == pytest.approx(
                scores[oracle_ranking[0]], abs=1e-12)
    report(6, "200 seeded queries over 10 files: tier-1 argmax matches the "
              "brute-force scorer (ties included)", elapsed)


def test_criterion_7_complement_resolver_experiment():
    with budget(5.0) as elapsed:
        lib = build_fixture_library(with_summary=False)
        questions = build_fixture_questions()
        backend = LexicalBackend()
        selection = select_tier2([(q.id, q.text) for q in questions], [lib], backend)

        without = score_responses(selection, questions)
        assert without.primary_hits == 20, "lexical routing must hit every primary"
        assert without.secondary_hits <= 4  # neighbour-confusion regime

        with_complements = score_responses(apply_complement_pass(selection, lib), questions)
        assert with_complements.secondary_hits == 17
        assert with_complements.secondary_hit_rate == 1.0
    report(7, f"secondary hits {without.secondary_hits}/17 without complements, "
              "17/17 with complement fields", elapsed)


def test_criterion_8_condition_byte_contracts():
    with budget(1.0) as elapsed:
        lib = build_fixture_library(with_summary=False)
        prompts = fixture_prompt_config()
        conditions = {name: build_condition(lib, name, prompts) for name in "ABCD"}

        for name in ("A", "C"):
            assert b'"_summary"' not in conditions[name].library_artifact
        for name in ("B", "D"):
            artifact = conditions[name].library_artifact.decode("utf-8")
            first_key = artifact[artifact.index('"') + 1: artifact.index('":')]
            assert first_key == "_summary"

        targets = [entry.target for entry in prompts.high_priority]
        assert len(targets) == 7
        for name in ("C", "D"):
            prompt = conditions[name].system_prompt
            for target in targets:
                assert target in prompt
            assert "Priority rule: when a broad" in prompt
        for name in ("A", "B"):
            assert conditions[name].system_prompt == prompts.minimal_template
    report(8, "condition artifacts and prompts honour the A/B/C/D byte contracts",
           elapsed)


def test_criterion_9_property_suites():
    rng = random.Random(31337)
    cases = 100
    with budget(30.0) as elapsed:
        # round-trip serialization
        for _ in range(cases):
            lib = random_library(rng)
            assert deserialize_library(serialize_library(lib)) == lib

        # parse/format identity
        for _ in range(cases):
            selection = random_selection_set(rng)
            max_id = max(s.question_id for s in selection.selections)
            key = [Question(id=i, text="t", primary_target="X")
                   for i in range(1, max_id + 1)]
            parsed, findings = parse_response(format_selections(selection), key)
            assert findings == []
            assert parsed.selections == selection.selections

        # interleave spacing: gap variance <= 1
        for _ in range(cases):
            n_real = rng.randint(1, 50)
            n_noise = rng.randint(0, 50)
            real = KnowledgeLibrary(categories=tuple(
                Category(name=f"R_{i}", description="r", skills=(Skill(name="s"),))
                for i in range(n_real)))
            noise = [Category(name=f"D_{i}", description="d", distractor_tier="low",
                              skills=(Skill(name="s"),)) for i in range(n_noise)]
            merged = inject_interleaved(real, noise)
            gaps, run, seen = [], 0, False
            for cat in merged.categories:
                if cat.distractor_tier is not None:
                    if seen:
                        gaps.append(run)
                    run, seen = 0, True
                elif seen:
                    run += 1
            if gaps:
                assert max(gaps) - min(gaps) <= 1
            if 0 < n_noise <= n_real:
                assert all(g >= 1 for g in gaps)

        # hint-length bound <= 100 scalar values
        for _ in range(cases):
            lib = random_library(rng, with_summary=False)
            hinted = build_summary(lib)
            assert all(len(e.routing_hint) <= 100
                       for e in hinted.summary.category_index)

        # sectioning losslessness
        for _ in range(cases):
            text, rules = random_document(rng)
            doc = section_document(text, rules)
            assert "".join(s.text for s in doc.sections) == text
    report(9, f"five property families x {cases} generated cases, zero failures",
           elapsed)
