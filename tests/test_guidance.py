from dataclasses import replace

import pytest

from sdsr.errors import EmptyLibrary
from sdsr.guidance import (
    DEFAULT_LLM_INSTRUCTIONS,
    HighPriorityEntry,
    PromptConfig,
    build_condition,
    build_summary,
    expand_extended_prompt,
    strip_summary,
)
from sdsr.library import (
    Category,
    KnowledgeLibrary,
    Skill,
    SummaryBlock,
    deserialize_library,
    validate_library,
)

from _fixtures import fixture_prompt_config

TABLE_TARGETS = [
    "Axiomatic_Logic_&_Audit_Systems",
    "Distributed_Cognition_&_Context_Orchestration",
    "Adversarial_Systems_Thinking",
    "Academic_Research_Synthesis_Pipeline",
    "Revenue_Generation_&_Commercial_Logic",
    "Cross_Cultural_Localization_Intelligence",
    "Interactive_Narrative_&_Fiction_Engine",
]


class TestBuildSummary:
    def test_hint_is_prefix_truncated_and_right_trimmed(self):
        description = ("A" * 40 + " " * 5 + "B" * 80)  # 125 chars, space at cut point
        lib = KnowledgeLibrary(categories=(
            Category(name="C", description=description, skills=(Skill(name="s"),)),))
        hinted = build_summary(lib)
        hint = hinted.summary.category_index[0].routing_hint
        assert hint == description[:100].rstrip()
        assert len(hint) <= 100

    def test_short_description_kept_whole(self):
        lib = KnowledgeLibrary(categories=(
            Category(name="C", description="short one.", skills=(Skill(name="s"),)),))
        assert build_summary(lib).summary.category_index[0].routing_hint == "short one."

    def test_unicode_hint_counts_scalar_values(self):
        description = "中" * 150
        lib = KnowledgeLibrary(categories=(
            Category(name="C", description=description, skills=(Skill(name="s"),)),))
        hint = build_summary(lib).summary.category_index[0].routing_hint
        assert hint == "中" * 100

    def test_fixture_index_counts_sum_to_190(self, bare_library):
        summarized = build_summary(bare_library)
        index = summarized.summary.category_index
        assert len(index) == 36
        assert sum(e.skill_count for e in index) == 190
        assert validate_library(summarized) == []

    def test_empty_library_rejected(self):
        with pytest.raises(EmptyLibrary):
            build_summary(KnowledgeLibrary())

    def test_idempotent_up_to_summary_replacement(self, bare_library):
        previous = SummaryBlock(llm_instructions=DEFAULT_LLM_INSTRUCTIONS,
                                routing_roles={"anchor": ("Visual_Architecture",)})
        once = build_summary(replace(bare_library, summary=previous))
        twice = build_summary(once)
        assert once == twice


class TestStripSummary:
    def test_strip_removes_summary_only(self, fixture_library):
        stripped = strip_summary(fixture_library)
        assert stripped.summary is None
        assert stripped.categories == fixture_library.categories

    def test_strip_is_idempotent(self, bare_library):
        assert strip_summary(bare_library) == bare_library

    def test_strip_build_strip_equals_first_strip(self, fixture_library):
        first = strip_summary(fixture_library)
        assert strip_summary(build_summary(first)) == first


class TestConditions:
    @pytest.mark.parametrize("condition,has_summary,extended", [
        ("A", False, False),
        ("B", True, False),
        ("C", False, True),
        ("D", True, True),
    ])
    def test_condition_matrix(self, bare_library, condition, has_summary, extended):
        prompts = fixture_prompt_config()
        built = build_condition(bare_library, condition, prompts)
        artifact = built.library_artifact.decode("utf-8")
        assert ('"_summary"' in artifact) == has_summary
        if has_summary:
            assert artifact.lstrip().startswith('{\n  "_summary":')
        expected = expand_extended_prompt(prompts) if extended else prompts.minimal_template
        assert built.system_prompt == expected

    def test_minimal_prompt_opening_line(self, bare_library):
        built = build_condition(bare_library, "A", fixture_prompt_config())
        assert built.system_prompt.startswith("You are a professional Prompt Engineer.")

    def test_extended_prompt_names_all_targets_and_rule(self, bare_library):
        built = build_condition(bare_library, "D", fixture_prompt_config())
        for target in TABLE_TARGETS:
            assert target in built.system_prompt
        assert "Priority rule: when a broad" in built.system_prompt

    def test_condition_d_prompt_equals_condition_c(self, bare_library):
        prompts = fixture_prompt_config()
        c = build_condition(bare_library, "C", prompts)
        d = build_condition(bare_library, "D", prompts)
        assert c.system_prompt == d.system_prompt

    def test_artifacts_are_deterministic(self, fixture_library):
        prompts = fixture_prompt_config()
        first = build_condition(fixture_library, "B", prompts)
        second = build_condition(fixture_library, "B", prompts)
        assert first.library_artifact == second.library_artifact
        assert first.system_prompt == second.system_prompt

    def test_artifact_parses_back(self, fixture_library):
        for condition in "ABCD":
            built = build_condition(fixture_library, condition, fixture_prompt_config())
            lib = deserialize_library(built.library_artifact)
            assert lib == built.library
            assert [c.name for c in lib.categories] == list(fixture_library.category_names)

    def test_unknown_condition(self, bare_library):
        with pytest.raises(ValueError):
            build_condition(bare_library, "E", fixture_prompt_config())

    def test_empty_library_propagates(self):
        with pytest.raises(EmptyLibrary):
            build_condition(KnowledgeLibrary(), "B", fixture_prompt_config())


class TestPromptConfig:
    def test_extended_template_needs_placeholder(self):
        with pytest.raises(ValueError):
            PromptConfig(extended_template="no placeholder here")

    @pytest.mark.parametrize("template", [
        "{high_priority} {oops}", "{high_priority} {0}", "{high_priority} {}",
        "{high_priority!r}", "{high_priority:>9}", "{high_priority.upper}",
        "{{high_priority}}", "{high_priority} }", "{high_priority} {",
    ])
    def test_extended_template_takes_only_its_two_plain_fields(self, template):
        with pytest.raises(ValueError, match="extended_template"):
            PromptConfig(extended_template=template)

    def test_no_rules_fill_the_header_with_none(self):
        prompt = expand_extended_prompt(PromptConfig())
        assert "- Key high-priority categories:\n  (none)\n- When a _summary" in prompt

    def test_extended_template_may_quote_braces(self):
        config = PromptConfig(extended_template="{{x}} {priority_rule} {high_priority}")
        assert expand_extended_prompt(config).startswith("{x} Priority rule:")

    def test_entry_must_not_confuse_itself(self):
        with pytest.raises(ValueError):
            HighPriorityEntry(target="X", confused_with="X", confusion_type="t")
