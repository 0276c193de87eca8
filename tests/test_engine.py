import re
import sys
import threading

import pytest

from sdsr import engine, library
from sdsr.distractors import expand_round
from sdsr.engine import (
    LexicalBackend,
    QuestionSelection,
    RoutingRequest,
    Selection,
    SelectionSet,
    apply_complement_pass,
    lexical_score,
    resolve_complement,
    route_tier1,
    select_tier2,
)
from sdsr.errors import (
    AllSelectionsInvalid,
    DanglingComplement,
    EmptyLoadSet,
    NoFiles,
    UnknownCategory,
)
from sdsr.guidance import build_summary
from sdsr.library import Category, CategoryIndexEntry, KnowledgeLibrary, Skill, tokenize

from _fixtures import round2_config


def oracle_tokens(text):
    return set(re.findall(r"[0-9a-z]+", text.lower()))


def oracle_overlap(query, name, text):
    """Independent min/max weighted-multiset formulation of the score."""
    q, n, t = oracle_tokens(query), oracle_tokens(name), oracle_tokens(text)
    weights_query = {tok: 2 for tok in q}
    weights_entry = {}
    for tok in t:
        weights_entry[tok] = 1
    for tok in n:
        weights_entry[tok] = 2
    keys = set(weights_query) | set(weights_entry)
    numerator = sum(min(weights_query.get(k, 0), weights_entry.get(k, 0)) for k in keys)
    denominator = sum(max(weights_query.get(k, 0), weights_entry.get(k, 0)) for k in keys)
    return numerator / denominator if denominator else 0.0


def summaries_from(libs_by_id):
    return tuple(
        (fid, build_summary(lib).summary) for fid, lib in sorted(libs_by_id.items()))


def tiny_library(fid, vocab):
    return KnowledgeLibrary(categories=(
        Category(name=f"{vocab.capitalize()}_Topic_{fid}",
                 description=f"all about {vocab} handling and {vocab} care",
                 skills=(Skill(name=f"{vocab.capitalize()}_Skill", description=f"{vocab} work"),)),
    ))


class TestLexicalScore:
    def test_query_equal_to_name_tokens_scores_one(self):
        entry = CategoryIndexEntry(name="Alpha_Beta", skill_count=1, routing_hint="")
        assert lexical_score("alpha beta", entry) == 1.0

    def test_disjoint_tokens_score_zero(self):
        entry = CategoryIndexEntry(name="Alpha_Beta", skill_count=1, routing_hint="gamma")
        assert lexical_score("omicron sigma", entry) == 0.0

    def test_mixed_overlap_matches_hand_computation(self):
        # Q={alpha,beta}, name={alpha,beta}, hint-only={gamma,delta}:
        # numerator 2*2, denominator 2*2 + 2 -> 2/3.
        entry = CategoryIndexEntry(
            name="Alpha_Beta", skill_count=1, routing_hint="gamma delta alpha")
        assert lexical_score("alpha beta", entry) == pytest.approx(2 / 3, abs=1e-12)

    @pytest.mark.parametrize("query,name,hint", [
        ("alpha beta gamma", "Alpha_One", "beta crumbs"),
        ("x y z", "X", ""),
        ("", "Name", "text"),
        ("repeated repeated words", "Words_Words", "repeated"),
    ])
    def test_matches_independent_formulation(self, query, name, hint):
        entry = CategoryIndexEntry(name=name, skill_count=0, routing_hint=hint)
        assert lexical_score(query, entry) == pytest.approx(
            oracle_overlap(query, name, hint), abs=1e-12)

    def test_category_uses_description(self):
        cat = Category(name="Alpha", description="beta gamma", skills=())
        assert lexical_score("beta", cat) == pytest.approx(
            oracle_overlap("beta", "Alpha", "beta gamma"), abs=1e-12)

    def test_bounded(self):
        entry = CategoryIndexEntry(name="A_B_C", skill_count=0, routing_hint="d e f a")
        for query in ("a", "a b c d e f", "zzz", "a zzz"):
            assert 0.0 <= lexical_score(query, entry) <= 1.0


class TestRouteTier1:
    def test_only_overlapping_file_selected(self, lexical_backend):
        libs = {
            "file1": tiny_library("1", "harbor"),
            "file2": tiny_library("2", "lantern"),
            "file3": tiny_library("3", "quartz"),
        }
        summaries = summaries_from(libs)
        request = RoutingRequest(query="lantern wisdom please", summaries=summaries)
        result = route_tier1(request, lexical_backend)
        # oracle: exhaustive scoring over every file's entries
        scores = {}
        for fid, block in summaries:
            scores[fid] = max(
                (oracle_overlap(request.query, e.name, e.routing_hint)
                 for e in block.category_index), default=0.0)
        best = sorted(scores, key=lambda f: (-scores[f], f))[0]
        assert result.selected[0].file_id == best == "file2"
        assert [sf.file_id for sf in result.selected] == ["file2"]
        assert result.expanded_scope is False

    def test_zero_overlap_expands_scope(self, lexical_backend):
        summaries = summaries_from({"only": tiny_library("0", "harbor")})
        request = RoutingRequest(query="xylophone", summaries=summaries)
        result = route_tier1(request, lexical_backend)
        assert result.expanded_scope is True
        assert [sf.file_id for sf in result.selected] == ["only"]
        assert any("expand scope" in line for line in result.trace)

    def test_ties_break_lexicographically(self, lexical_backend):
        libs = {"b_file": tiny_library("b", "harbor"), "a_file": tiny_library("a", "harbor")}
        request = RoutingRequest(query="harbor", summaries=summaries_from(libs), k_max=2)
        result = route_tier1(request, lexical_backend)
        assert [sf.file_id for sf in result.selected] == ["a_file", "b_file"]
        assert result.selected[0].score == result.selected[1].score

    def test_k_max_limits_selection(self, lexical_backend):
        libs = {f"f{i}": tiny_library(str(i), "harbor") for i in range(5)}
        request = RoutingRequest(query="harbor", summaries=summaries_from(libs), k_max=3)
        result = route_tier1(request, lexical_backend)
        assert len(result.selected) == 3

    def test_empty_summaries_raise(self, lexical_backend):
        request = RoutingRequest(query="q", summaries=())
        with pytest.raises(NoFiles):
            route_tier1(request, lexical_backend)

    def test_trace_records_token_accounting(self, lexical_backend):
        summaries = summaries_from({"f": tiny_library("0", "harbor")})
        result = route_tier1(RoutingRequest(query="harbor", summaries=summaries),
                             lexical_backend)
        assert any("tokens" in line for line in result.trace)

    def test_request_validation(self):
        with pytest.raises(ValueError):
            RoutingRequest(query="q", summaries=(), k_max=0)
        with pytest.raises(ValueError):
            RoutingRequest(query="q", summaries=(), threshold=1.5)


class TestSelectTier2:
    def test_skill_tokens_drive_selection(self, lexical_backend):
        lib = KnowledgeLibrary(categories=(
            Category(name="First_Area", description="broad talk about meadows",
                     skills=(Skill(name="Quill_Sharpener", description="hones quill nibs"),
                             Skill(name="Raven_Counter", description="counts ravens"))),
            Category(name="Second_Area", description="broad talk about rivers",
                     skills=(Skill(name="Zephyr_Gauge", description="measures zephyr drift"),)),
        ))
        # oracle: brute-force min over (-score, category, skill) tuples
        query = "need to measure zephyr drift today"
        best = min(
            (-(oracle_overlap(query, c.name, c.description)
               + oracle_overlap(query, s.name, s.description)), c.name, s.name)
            for c in lib.categories for s in c.skills
        )
        result = select_tier2(query, [lib], lexical_backend)
        assert len(result.selections) == 1
        chosen = result.selections[0]
        assert (chosen.primary.category, chosen.primary.skill) == (best[1], best[2])
        assert (chosen.primary.category, chosen.primary.skill) == (
            "Second_Area", "Zephyr_Gauge")

    @pytest.mark.parametrize("query,category,skill", [
        ("the small sounds that sell the moment",
         "Sensory_Audio_Design", "Foley_Cue_Picker"),
        ("stable identifiers that survive renames",
         "Meta_Data_&_Engineering", "Retrieval_Key_Minter"),
        ("rules honestly on every roll at the table",
         "RPG_Narrative_Director", "Dice_Outcome_Adjudicator"),
    ])
    def test_distinctive_skill_tokens_pick_that_pair(self, bare_library, lexical_backend,
                                                     query, category, skill):
        result = select_tier2(query, [bare_library], lexical_backend)
        chosen = result.selections[0]
        assert (chosen.primary.category, chosen.primary.skill) == (category, skill)

    def test_single_query_string_becomes_question_one(self, bare_library, lexical_backend):
        result = select_tier2("tarot readings by spread position",
                              [bare_library], lexical_backend)
        assert result.selections[0].question_id == 1
        assert result.selections[0].primary.category == "Occult_&_Ritual_Systems"

    def test_hallucinated_skill_is_stripped_and_flagged(self, bare_library):
        class FabricatingBackend:
            def route(self, query, summaries):
                return []

            def select(self, questions, libraries, system_prompt=None):
                return SelectionSet(selections=(
                    QuestionSelection(
                        question_id=1,
                        primary=Selection(category="Occult_&_Ritual_Systems",
                                          skill="Spread_Position_Reader"),
                        secondary=Selection(category="Occult_&_Ritual_Systems",
                                            skill="Made_Up_Skill")),
                    QuestionSelection(
                        question_id=2,
                        primary=Selection(category="Not_A_Category", skill="Nope")),
                ))

        result = select_tier2([(1, "a"), (2, "b")], [bare_library], FabricatingBackend())
        assert len(result.selections) == 1
        assert result.selections[0].secondary is None
        assert len(result.flags) == 2

    def test_all_invalid_raises(self, bare_library):
        class WrongBackend:
            def route(self, query, summaries):
                return []

            def select(self, questions, libraries, system_prompt=None):
                return SelectionSet(selections=(
                    QuestionSelection(
                        question_id=1,
                        primary=Selection(category="Ghost", skill="Phantom")),))

        with pytest.raises(AllSelectionsInvalid):
            select_tier2("anything", [bare_library], WrongBackend())

    def test_empty_load_set(self, lexical_backend):
        with pytest.raises(EmptyLoadSet):
            select_tier2("q", [], lexical_backend)

    def test_selection_spans_multiple_loaded_libraries(self, lexical_backend):
        first = KnowledgeLibrary(categories=(
            Category(name="Harbor_Topics", description="harbor talk",
                     skills=(Skill(name="Pier_Watch", description="watches harbor piers"),)),))
        second = KnowledgeLibrary(categories=(
            Category(name="Lantern_Topics", description="lantern talk",
                     skills=(Skill(name="Wick_Trim", description="trims lantern wicks"),)),))
        result = select_tier2(
            [(1, "harbor piers at dawn"), (2, "trimming lantern wicks")],
            [first, second], lexical_backend)
        assert result.selections[0].primary.category == "Harbor_Topics"
        assert result.selections[1].primary.category == "Lantern_Topics"

    def test_secondary_comes_from_a_different_category(self, bare_library, lexical_backend):
        result = select_tier2(
            "probe competitor weak points and map systemic vulnerabilities",
            [bare_library], lexical_backend)
        chosen = result.selections[0]
        assert chosen.secondary is not None
        assert chosen.secondary.category != chosen.primary.category


class TestComplements:
    def test_fixture_complement_resolves(self, bare_library):
        assert resolve_complement(
            bare_library, "Self_Evolution_&_Refinement") == "Meta_Data_&_Engineering"

    def test_absent_complement_returns_none(self, bare_library):
        assert resolve_complement(bare_library, "Occult_&_Ritual_Systems") is None

    def test_unknown_category(self, bare_library):
        with pytest.raises(UnknownCategory):
            resolve_complement(bare_library, "Missing")

    def test_dangling_complement(self):
        lib = KnowledgeLibrary(categories=(
            Category(name="A", description="d", skills=(Skill(name="s"),),
                     complement="Gone"),))
        with pytest.raises(DanglingComplement):
            resolve_complement(lib, "A")

    def test_resolution_is_scale_invariant(self, bare_library):
        expanded = expand_round(bare_library, round2_config()).library
        for name in bare_library.category_names:
            assert resolve_complement(expanded, name) == resolve_complement(bare_library, name)

    def test_complement_pass_overrides_secondary(self, bare_library):
        original = SelectionSet(selections=(
            QuestionSelection(
                question_id=1,
                primary=Selection(category="Game_Design_&_Mechanics",
                                  skill="Combat_Curve_Planner"),
                secondary=Selection(category="Product_Psychology",
                                    skill="Habit_Loop_Sketcher")),
        ))
        updated = apply_complement_pass(original, bare_library)
        assert updated.selections[0].secondary.category == "RPG_Narrative_Director"
        # the input set keeps the backend's own guess
        assert original.selections[0].secondary.category == "Product_Psychology"

    def test_complement_pass_keeps_guess_when_no_complement(self, bare_library):
        original = SelectionSet(selections=(
            QuestionSelection(
                question_id=1,
                primary=Selection(category="Occult_&_Ritual_Systems",
                                  skill="Spread_Position_Reader"),
                secondary=Selection(category="Visual_Architecture",
                                    skill="Moodboard_Digest")),
        ))
        updated = apply_complement_pass(original, bare_library)
        assert updated.selections[0].secondary.category == "Visual_Architecture"


class TestOnlyOverlappingTextIsTokenized:
    """Text that shares no token with any query is never tokenized or scored."""

    @pytest.fixture
    def tokenized(self, monkeypatch):
        seen = []

        def counting_tokenize(text):
            seen.append(text)
            return tokenize(text)

        # Queries are tokenized in engine, the texts of index entries and categories in library.
        monkeypatch.setattr(engine, "tokenize", counting_tokenize)
        monkeypatch.setattr(library, "tokenize", counting_tokenize)
        return seen

    def test_route_tokenizes_the_query_and_the_one_overlapping_file(self, tokenized):
        words = ("harbor", "lantern", "quartz", "meadow", "cobalt", "falcon")
        summaries = summaries_from(
            {f"f{i}": tiny_library(str(i), word) for i, word in enumerate(words)})
        scores = dict(LexicalBackend().route("lantern wisdom", summaries))
        hit = dict(summaries)["f1"]
        assert tokenized == ["lantern wisdom"] + [
            text for entry in hit.category_index for text in (entry.name, entry.routing_hint)]
        assert scores["f1"] > 0.0
        assert [fid for fid, score in scores.items() if score == 0.0] == [
            "f0", "f2", "f3", "f4", "f5"]

    @staticmethod
    def three_areas():
        return KnowledgeLibrary(categories=(
            Category(name="Harbor_Area", description="ships and docks",
                     skills=(Skill(name="Knot_Tier", description="ties knots"),
                             Skill(name="Dock_Master", description="assigns berths"))),
            Category(name="Lantern_Area", description="light at night",
                     skills=(Skill(name="Wick_Trimmer", description="trims wicks"),
                             Skill(name="Oil_Filler", description="fills oil"))),
            Category(name="Quartz_Area", description="crystal growth",
                     skills=(Skill(name="Gem_Cutter", description="cuts gems"),)),
        ))

    def test_select_compiles_only_the_overlapping_category(self, tokenized):
        result = LexicalBackend().select([(1, "trim wick"), (2, "lantern oil")],
                                         [self.three_areas()])
        assert tokenized == ["trim wick", "lantern oil", "Lantern_Area", "light at night",
                             "Wick_Trimmer", "trims wicks", "Oil_Filler", "fills oil"]
        assert result.selections == (
            QuestionSelection(question_id=1, primary=Selection("Lantern_Area", "Wick_Trimmer")),
            QuestionSelection(question_id=2, primary=Selection("Lantern_Area", "Oil_Filler")),
        )

    def test_a_second_select_on_the_same_library_tokenizes_only_the_questions(self, tokenized):
        lib = self.three_areas()
        questions = [(1, "trim wick"), (2, "lantern oil"), (3, "wick night")]
        first = LexicalBackend().select(questions, [lib])
        tokenized.clear()
        # A new backend: the tokens are kept on the categories, not on the backend.
        assert LexicalBackend().select(questions, [lib]) == first
        assert tokenized == ["trim wick", "lantern oil", "wick night"]


class TestEachQuestionSetIsScoredOnce:
    """A category keeps tier 2's answer for the last question set it saw, and only that one."""

    @pytest.fixture
    def scored(self, monkeypatch):
        seen = []
        overlap = engine._overlap
        view = Category.__dict__["token_view"].func

        def counting_overlap(query_tokens, entry):
            seen.append(("overlap", entry[2]))
            return overlap(query_tokens, entry)

        def counting_view(cat):
            seen.append(("token_view", cat.name))
            return view(cat)

        monkeypatch.setattr(engine, "_overlap", counting_overlap)
        # A property is a data descriptor, so every access is counted, cached or not.
        monkeypatch.setattr(Category, "token_view", property(counting_view))
        return seen

    def test_the_same_question_texts_score_nothing_again(self, scored):
        lib = TestOnlyOverlappingTextIsTokenized.three_areas()
        first = LexicalBackend().select([(1, "trim wick"), (2, "lantern oil")], [lib])
        assert scored == [("token_view", "Lantern_Area"), ("overlap", "Lantern_Area"),
                          ("overlap", "Lantern_Area")]
        scored.clear()
        # A new backend, and new ids: the answer is kept on the category, keyed by text.
        again = LexicalBackend().select([(7, "trim wick"), (8, "lantern oil")], [lib])
        assert scored == []
        assert [(s.primary, s.secondary) for s in again.selections] == [
            (s.primary, s.secondary) for s in first.selections]

    def test_another_question_set_replaces_the_kept_one(self, scored):
        lib = TestOnlyOverlappingTextIsTokenized.three_areas()
        backend = LexicalBackend()
        first = [(1, "trim wick"), (2, "lantern oil")]
        other = [(1, "lantern oil"), (2, "cut gems")]
        answers = {}
        # Each scored category reads its token view once and scores both questions.
        for questions, categories_scored in ((first, 1), (other, 2), (other, 0), (first, 1)):
            scored.clear()
            result = backend.select(questions, [lib])
            assert len(scored) == 3 * categories_scored
            assert answers.setdefault(tuple(questions), result) == result
        assert [cat.best_pairs[0] for cat in lib.categories] == [
            ("trim wick", "lantern oil")] * 3

    def test_threads_sharing_categories_get_their_own_question_sets_answers(self):
        questions = ([(1, "trim wick"), (2, "lantern oil")], [(1, "cut gems"), (2, "dock ships")])
        three_areas = TestOnlyOverlappingTextIsTokenized.three_areas
        lib = three_areas()
        # Each set's answer from categories no other call has touched.
        expected = [LexicalBackend().select(asked, [three_areas()]) for asked in questions]
        wrong = []

        def worker(offset):
            backend = LexicalBackend()
            for i in range(200):
                which = (i + offset) % 2
                if backend.select(questions[which], [lib]) != expected[which]:
                    wrong.append(which)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
