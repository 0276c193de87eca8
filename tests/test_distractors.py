import pytest

from sdsr.distractors import (
    DistractorSpec,
    RoundConfig,
    expand_round,
    generate_distractors,
    inject_interleaved,
    interleave_positions,
)
from sdsr.errors import NameCollision, UnknownTarget
from sdsr.library import Category, KnowledgeLibrary, Skill, validate_library

from _fixtures import round2_config, round3_config


def spacing_report(categories):
    """Brute-force oracle over an injected sequence.

    Returns (real names in order, distractor names in order, gaps),
    where gaps counts the real categories between consecutive
    distractors.
    """
    reals, distractors, gaps = [], [], []
    run = 0
    seen_distractor = False
    for cat in categories:
        if cat.distractor_tier is None:
            reals.append(cat.name)
            if seen_distractor:
                run += 1
        else:
            if seen_distractor:
                gaps.append(run)
            distractors.append(cat.name)
            run = 0
            seen_distractor = True
    return reals, distractors, gaps


def make_real(n):
    return KnowledgeLibrary(categories=tuple(
        Category(name=f"Real_{i}", description=f"real topic {i}",
                 skills=(Skill(name=f"R{i}"),))
        for i in range(n)
    ))


def make_distractors(n, tier="low"):
    return [
        Category(name=f"Noise_{i}", description=f"noise topic {i}",
                 skills=(Skill(name=f"N{i}"),), distractor_tier=tier)
        for i in range(n)
    ]


class TestGenerateDistractors:
    def test_high_tier_spec_yields_category_with_tier(self, bare_library):
        spec = next(s for s in round2_config().distractors
                    if s.name == "Agent_Handoff_Protocol_Design")
        cats, findings = generate_distractors([spec], bare_library)
        assert len(cats) == 1
        assert cats[0].distractor_tier == "high"
        assert 2 <= len(cats[0].skills) <= 3
        assert [f.code for f in findings] == ["DISTRACTOR_SIMILARITY"]

    def test_low_tier_has_no_target_link(self, bare_library):
        spec = DistractorSpec(
            tier="low", name="Mycological_Network_Design",
            description="spore routing through fungal mats",
            skills=(Skill(name="A"), Skill(name="B")))
        cats, findings = generate_distractors([spec], bare_library)
        assert cats[0].distractor_tier == "low"
        assert findings == []

    def test_empty_spec_list(self, bare_library):
        assert generate_distractors([], bare_library) == ([], [])

    def test_unknown_target(self, bare_library):
        spec = DistractorSpec(
            tier="high", name="X", description="d", target="Not_A_Category",
            skills=(Skill(name="A"), Skill(name="B")))
        with pytest.raises(UnknownTarget):
            generate_distractors([spec], bare_library)

    def test_all_round2_high_tier_specs_clear_theta(self, bare_library):
        specs = [s for s in round2_config().distractors if s.tier == "high"]
        _, findings = generate_distractors(specs, bare_library)
        assert all(f.code == "DISTRACTOR_SIMILARITY" for f in findings)
        assert len(findings) == len(specs) == 12


class TestSpecInvariants:
    def test_high_requires_target(self):
        with pytest.raises(ValueError):
            DistractorSpec(tier="high", name="X", description="d")

    def test_low_forbids_target(self):
        with pytest.raises(ValueError):
            DistractorSpec(tier="low", name="X", description="d", target="Y")

    def test_unknown_tier(self):
        with pytest.raises(ValueError):
            DistractorSpec(tier="medium", name="X", description="d")

    def test_round_config_requires_distractors_past_round_one(self):
        with pytest.raises(ValueError):
            RoundConfig(round_id=2, distractors=())


class TestInjectInterleaved:
    def test_thirtysix_real_twentyfour_distractors(self):
        real = make_real(36)
        merged = inject_interleaved(real, make_distractors(24))
        assert len(merged.categories) == 60
        reals, distractors, gaps = spacing_report(merged.categories)
        assert reals == [f"Real_{i}" for i in range(36)]
        assert distractors == [f"Noise_{i}" for i in range(24)]
        assert all(g >= 1 for g in gaps)  # no two adjacent
        assert max(gaps) - min(gaps) <= 1

    def test_equal_counts_alternate_strictly(self):
        merged = inject_interleaved(make_real(5), make_distractors(5))
        tiers = [c.distractor_tier is None for c in merged.categories]
        assert tiers == [True, False] * 5

    def test_zero_distractors_is_identity(self):
        real = make_real(4)
        assert inject_interleaved(real, []) is real

    def test_name_collision(self):
        real = make_real(3)
        clash = [Category(name="Real_1", description="d", distractor_tier="low",
                          skills=(Skill(name="s"),))]
        with pytest.raises(NameCollision):
            inject_interleaved(real, clash)

    def test_duplicate_distractor_names_rejected(self):
        twice = make_distractors(1) + make_distractors(1)
        with pytest.raises(NameCollision):
            inject_interleaved(make_real(3), twice)

    def test_summary_rebuilt_when_present(self, fixture_library):
        merged = inject_interleaved(fixture_library, make_distractors(6))
        assert merged.summary is not None
        assert len(merged.summary.category_index) == 42
        assert merged.summary.llm_instructions == fixture_library.summary.llm_instructions
        assert merged.summary.routing_roles == fixture_library.summary.routing_roles
        assert validate_library(merged) == []

    def test_deterministic(self):
        a = inject_interleaved(make_real(7), make_distractors(3))
        b = inject_interleaved(make_real(7), make_distractors(3))
        assert a == b

    @pytest.mark.parametrize("n_real,n_distractors", [
        (1, 1), (2, 1), (10, 3), (36, 24), (5, 5), (60, 60), (3, 7), (0, 2),
    ])
    def test_spacing_property(self, n_real, n_distractors):
        merged = inject_interleaved(make_real(n_real), make_distractors(n_distractors))
        assert len(merged.categories) == n_real + n_distractors
        reals, distractors, gaps = spacing_report(merged.categories)
        assert reals == [f"Real_{i}" for i in range(n_real)]
        assert distractors == [f"Noise_{i}" for i in range(n_distractors)]
        if gaps:
            assert max(gaps) - min(gaps) <= 1
        if n_distractors <= n_real:
            assert all(g >= 1 for g in gaps)


class TestInterleavePositions:
    def test_empty(self):
        assert interleave_positions(5, 0) == []

    def test_equal_counts(self):
        assert interleave_positions(5, 5) == [1, 2, 3, 4, 5]

    def test_two_to_one(self):
        assert interleave_positions(6, 3) == [2, 4, 6]


class TestExpandRound:
    def test_round2_totals(self, bare_library):
        result = expand_round(bare_library, round2_config())
        assert len(result.library.categories) == 60
        assert result.library.total_skills == 262
        totals = [f for f in result.report if f.code == "TOTALS"]
        assert totals and "categories=60" in totals[0].message
        assert not any(f.code == "EXPECTED_TOTAL_MISMATCH" for f in result.report)
        _, _, gaps = spacing_report(result.library.categories)
        assert all(g >= 1 for g in gaps)

    def test_round3_reports_the_category_mismatch(self, bare_library):
        round2 = expand_round(bare_library, round2_config()).library
        result = expand_round(round2, round3_config())
        assert len(result.library.categories) == 120
        assert result.library.total_skills == 380
        mismatches = [f for f in result.report if f.code == "EXPECTED_TOTAL_MISMATCH"]
        assert len(mismatches) == 1
        assert "119" in mismatches[0].message and "120" in mismatches[0].message
        assert mismatches[0].severity == "WARNING"

    def test_empty_round_is_identity_with_totals(self, bare_library):
        cfg = RoundConfig(round_id=1)
        result = expand_round(bare_library, cfg)
        assert result.library == bare_library
        assert [f.code for f in result.report] == ["TOTALS"]
