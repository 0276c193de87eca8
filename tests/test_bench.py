import json

import pytest

from sdsr import library
from sdsr.bench import (
    Question,
    format_selections,
    lint_questions,
    parse_response,
    questions_from_json,
    results_to_csv,
    run_benchmark,
    score_responses,
)
from sdsr.cli import dispatch
from sdsr.distractors import expand_round
from sdsr.engine import QuestionSelection, Selection, SelectionSet
from sdsr.errors import EmptyKey, MalformedFile, TransportError, UnknownQuestion
from sdsr.guidance import build_condition
from sdsr.library import tokenize
from sdsr.wire import decode, encode

from _fixtures import (
    FIXTURES_DIR, build_fixture_library, fixture_prompt_config, round1_selection_fixture,
    round2_config, round3_config)


class TestParseResponse:
    def test_single_selection_line(self, questions):
        sel, findings = parse_response(
            "Q01: Cognitive_Architecture_&_Routing | Intent_Router", questions)
        assert findings == []
        assert sel.selections == (QuestionSelection(
            question_id=1,
            primary=Selection(category="Cognitive_Architecture_&_Routing",
                              skill="Intent_Router")),)

    def test_two_selections_on_one_line(self, questions):
        sel, _ = parse_response("Q03: A | x ; B | y", questions)
        item = sel.selections[0]
        assert item.primary == Selection(category="A", skill="x")
        assert item.secondary == Selection(category="B", skill="y")

    def test_unknown_question_id_raises(self, questions):
        with pytest.raises(UnknownQuestion):
            parse_response("Q21: A | x", questions)

    def test_malformed_line_reported_and_parsing_continues(self, questions):
        text = "Q01: no pipe here\nQ02: Real_Category | Real_Skill"
        sel, findings = parse_response(text, questions)
        assert [f.code for f in findings] == ["MALFORMED_LINE"]
        assert [s.question_id for s in sel.selections] == [2]

    def test_surrounding_prose_ignored(self, questions):
        text = ("Here are my selections:\n"
                "Q05: Persona_&_Narrative_Synthesis | Backstory_Loom\n"
                "Hope that helps!")
        sel, findings = parse_response(text, questions)
        assert findings == []
        assert len(sel.selections) == 1

    def test_duplicate_line_keeps_later(self, questions):
        text = "Q01: First | a\nQ01: Second | b"
        sel, findings = parse_response(text, questions)
        assert sel.selections[0].primary.category == "Second"
        assert [f.code for f in findings] == ["DUPLICATE_LINE"]

    def test_whitespace_tolerance(self, questions):
        sel, _ = parse_response("  q02 :   Cat_Name |  Skill_Name  ", questions)
        assert sel.selections[0].primary == Selection(category="Cat_Name", skill="Skill_Name")

    def test_unanswered_questions_left_out(self, questions):
        sel, _ = parse_response("Q07: Game_Design_&_Mechanics | Combat_Curve_Planner",
                                questions)
        assert sel.get(7) is not None
        assert sel.get(8) is None


class TestFormatRoundTrip:
    @pytest.mark.parametrize("condition", ["A", "B", "C"])
    def test_fixture_matrices_round_trip(self, questions, condition):
        original = round1_selection_fixture(condition)
        parsed, findings = parse_response(format_selections(original), questions)
        assert findings == []
        assert parsed.selections == original.selections

    def test_json_round_trip(self):
        original = round1_selection_fixture("B")
        again = decode(SelectionSet, encode(original))
        assert again.selections == original.selections


class TestScoring:
    @pytest.mark.parametrize("condition,total,secondary_hits", [
        ("A", 21.0, 2),
        ("B", 21.5, 3),
        ("C", 21.0, 2),
    ])
    def test_round1_matrices(self, questions, condition, total, secondary_hits):
        report = score_responses(round1_selection_fixture(condition), questions)
        assert report.total == total
        assert report.primary_hits == 20
        assert report.primary_accuracy == 1.0
        assert report.secondary_hits == secondary_hits
        assert report.secondary_hit_rate == pytest.approx(secondary_hits / 17)

    def test_max_total_is_28_5(self, questions):
        report = score_responses(SelectionSet(), questions)
        assert report.max_total == 28.5
        assert report.total == 0.0
        assert report.primary_accuracy == 0.0
        assert report.secondary_hit_rate == 0.0

    def test_primary_only_sweep_scores_20(self, questions):
        selections = tuple(
            QuestionSelection(
                question_id=q.id,
                primary=Selection(category=q.primary_target, skill="whatever"))
            for q in questions
        )
        report = score_responses(SelectionSet(selections=selections), questions)
        assert report.total == 20.0
        assert report.secondary_hits == 0

    def test_lone_correct_secondary_scores_zero(self):
        key = [Question(id=1, text="t", primary_target="Right", secondary_target="Pair")]
        sel = SelectionSet(selections=(
            QuestionSelection(
                question_id=1,
                primary=Selection(category="Wrong", skill="s"),
                secondary=Selection(category="Pair", skill="s")),
        ))
        report = score_responses(sel, key)
        assert report.total == 0.0
        assert report.per_question[0].secondary_hit is False

    def test_per_question_scores_are_in_the_allowed_set(self, questions):
        report = score_responses(round1_selection_fixture("B"), questions)
        assert {q.score for q in report.per_question} <= {0.0, 1.0, 1.5}
        assert report.total == sum(q.score for q in report.per_question)

    def test_sixteen_primaries_three_secondaries_score_exactly(self, questions):
        # 16 * 1.0 + 3 * 0.5: the rule is arithmetic, not table lookup.
        base = round1_selection_fixture("B").selections
        drop = {1, 9, 11, 20}  # none of these carry scored secondaries
        selections = tuple(
            s if s.question_id not in drop else QuestionSelection(
                question_id=s.question_id,
                primary=Selection(category="Wrong_On_Purpose", skill="x"))
            for s in base
        )
        report = score_responses(SelectionSet(selections=selections), questions)
        assert report.primary_hits == 16
        assert report.secondary_hits == 3
        assert report.total == 17.5

    def test_scores_ignore_skill_names(self, questions):
        base = round1_selection_fixture("B")
        permuted = SelectionSet(selections=tuple(
            QuestionSelection(
                question_id=s.question_id,
                primary=Selection(category=s.primary.category, skill="Scrambled_Skill"),
                secondary=(None if s.secondary is None else Selection(
                    category=s.secondary.category, skill="Other_Scramble")))
            for s in base.selections
        ))
        assert score_responses(base, questions) == score_responses(permuted, questions)

    def test_empty_key_raises(self):
        with pytest.raises(EmptyKey):
            score_responses(SelectionSet(), [])

    def test_selection_outside_the_key_raises(self, questions):
        extra = QuestionSelection(question_id=99, primary=Selection(category="X", skill="Y"))
        sel = round1_selection_fixture("B")
        with pytest.raises(UnknownQuestion, match=r"question ids \[99\] are not in the answer key"):
            score_responses(SelectionSet(selections=sel.selections + (extra,)), questions)

    def test_total_decomposes_into_rates(self, questions):
        report = score_responses(round1_selection_fixture("B"), questions)
        n = len(questions)
        n_secondary = sum(1 for q in questions if q.secondary_target is not None)
        assert report.total == (report.primary_accuracy * n
                                + report.secondary_hit_rate * n_secondary * 0.5)


class TestQuestionLint:
    def test_fixture_questions_are_clean(self, questions):
        assert lint_questions(questions) == []

    def test_leaked_fragment_is_flagged(self):
        leaky = Question(
            id=1, text="Please rigorously audit my plans",
            primary_target="Axiomatic_Logic_&_Audit_Systems")
        findings = lint_questions([leaky])
        assert [f.code for f in findings] == ["KEYWORD_AVOIDANCE"]
        assert "audit" in findings[0].message.lower()

    def test_short_fragments_do_not_count(self):
        ok = Question(id=1, text="a big cat sat", primary_target="Cat_&_Dog")
        assert lint_questions([ok]) == []

    def test_duplicate_ids_are_rejected(self):
        # Two key entries for Q1 would score one correct answer as 2.0 / 2.0.
        key = json.dumps([{"id": 1, "text": "first", "primary_target": "A"},
                          {"id": 1, "text": "again", "primary_target": "A"}])
        with pytest.raises(MalformedFile, match=r"duplicate question ids: \[1\]"):
            questions_from_json(key)

    @pytest.mark.parametrize("field", ["id", "text", "primary_target"])
    def test_missing_required_field_is_rejected(self, field):
        entry = {"id": 1, "text": "t", "primary_target": "A"}
        del entry[field]
        with pytest.raises(MalformedFile, match=field):
            questions_from_json(json.dumps([entry]))

    def test_entry_that_is_not_an_object_is_rejected(self):
        with pytest.raises(MalformedFile):
            questions_from_json("[1]")


class FailOnCondition:
    """Backend that fails whenever the system prompt matches a marker."""

    def __init__(self, marker, inner):
        self.marker = marker
        self.inner = inner

    def route(self, query, summaries):
        return self.inner.route(query, summaries)

    def select(self, questions, libraries, system_prompt=None):
        if self.marker in (system_prompt or ""):
            raise TransportError("simulated timeout")
        return self.inner.select(questions, libraries, system_prompt=system_prompt)


class TestRunBenchmark:
    def _conditions(self, lib, names="ABCD"):
        prompts = fixture_prompt_config()
        return [build_condition(lib, name, prompts) for name in names]

    def test_lexical_sweep_is_reproducible(self, bare_library, questions, lexical_backend):
        conditions = self._conditions(bare_library)
        first = run_benchmark(conditions, questions, lexical_backend)
        second = run_benchmark(conditions, questions, lexical_backend)
        assert len(first) == 4
        for a, b in zip(first, second):
            assert a.report == b.report
            assert a.transcript == b.transcript
            assert a.error is None

    def test_failed_condition_does_not_abort_sweep(self, bare_library, questions,
                                                   lexical_backend):
        conditions = self._conditions(bare_library)
        marker = "Priority rule"  # only C and D carry the extended prompt
        results = run_benchmark(
            conditions, questions, FailOnCondition(marker, lexical_backend))
        by_condition = {r.condition: r for r in results}
        assert by_condition["A"].report is not None
        assert by_condition["B"].report is not None
        assert by_condition["C"].report is None
        assert "simulated timeout" in by_condition["C"].error
        assert by_condition["D"].report is None

    def test_sweep_tokenizes_each_category_and_skill_text_once(self, questions, lexical_backend,
                                                              monkeypatch):
        seen = []

        def counting_tokenize(text):
            seen.append(text)
            return tokenize(text)

        monkeypatch.setattr(library, "tokenize", counting_tokenize)
        lib = build_fixture_library(with_summary=False)  # no category has its tokens yet
        results = run_benchmark(self._conditions(lib), questions, lexical_backend)
        assert [r.condition for r in results if r.report is not None] == ["A", "B", "C", "D"]
        # The four variants share one categories tuple, and every category
        # shares a token with some fixture question.
        assert seen == [
            text for cat in lib.categories
            for text in (cat.name, cat.description, *(
                part for skill in cat.skills for part in (skill.name, skill.description)))]

    def test_sweep_renders_and_lowers_each_category_once(self, questions, lexical_backend,
                                                         monkeypatch):
        calls = {"body_text": [], "lowered_text": []}
        for attribute, seen in calls.items():
            compute = getattr(library.Category, attribute).func

            def counting(cat, compute=compute, seen=seen):
                seen.append(cat)
                return compute(cat)

            monkeypatch.setattr(getattr(library.Category, attribute), "func", counting)
        round2 = expand_round(build_fixture_library(with_summary=False), round2_config())
        lib = expand_round(round2.library, round3_config()).library
        conditions = self._conditions(lib)
        results = run_benchmark(conditions, questions, lexical_backend)
        assert [r.condition for r in results if r.report is not None] == ["A", "B", "C", "D"]
        # Each condition wrote its artifact and ran its select, and the four
        # share one categories tuple.
        assert all(cond.library.categories is lib.categories for cond in conditions)
        assert len(lib.categories) == 120
        for seen in calls.values():
            assert [id(cat) for cat in seen] == [id(cat) for cat in lib.categories]

    def test_empty_condition_list_raises(self, questions, lexical_backend):
        with pytest.raises(ValueError):
            run_benchmark([], questions, lexical_backend)

    def test_transcripts_and_csv_persisted(self, tmp_path, bare_library, questions,
                                           lexical_backend):
        outcome = dispatch([
            "bench", "--conditions", "A,B", "--lib", str(FIXTURES_DIR / "library_r1_bare.json"),
            "--questions", str(FIXTURES_DIR / "questions_20.json"),
            "--prompts", str(FIXTURES_DIR / "prompts.json"), "--out-dir", str(tmp_path)])
        assert outcome.exit_code == 0
        results = run_benchmark(self._conditions(bare_library, "AB"), questions, lexical_backend)
        assert (tmp_path / "transcript_A.txt").exists()
        assert (tmp_path / "transcript_B.txt").exists()
        csv_text = (tmp_path / "report.csv").read_text(encoding="utf-8")
        assert csv_text == results_to_csv(results)
        assert csv_text.splitlines()[0] == "condition,question_id,primary_hit,secondary_hit,score"
        assert len(csv_text.splitlines()) == 1 + 2 * len(questions)

    def test_transcript_contains_the_whole_conversation(self, bare_library, questions,
                                                        lexical_backend):
        conditions = self._conditions(bare_library, "B")
        result = run_benchmark(conditions, questions, lexical_backend)[0]
        assert result.transcript.startswith("You are a professional Prompt Engineer.")
        assert '"_summary"' in result.transcript
        assert "Q20." in result.transcript
        assert "--- response ---" in result.transcript
