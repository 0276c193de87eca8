import re

import pytest

from sdsr.corpus import (
    CrossReference,
    DocSummary,
    SectionRule,
    SectionedDocument,
    build_doc_summary,
    resolve_coload,
    section_document,
)
from sdsr.errors import DanglingReference, EmptyDocument
from sdsr.wire import decode, encode

from _fixtures import fixture_judgment


@pytest.fixture(scope="module")
def judgment():
    text, rules, digests, refs = fixture_judgment()
    doc = section_document(text, rules, doc_id="2025-CV-0414")
    return text, rules, digests, refs, doc


class TestSectionDocument:
    def test_fixture_judgment_sections_and_roles(self, judgment):
        _, _, _, _, doc = judgment
        assert [s.role for s in doc.sections] == [
            "other", "claimant", "respondent", "reasoning", "holding"]
        assert [s.section_id for s in doc.sections] == ["s1", "s2", "s3", "s4", "s5"]
        assert doc.sections[1].text.startswith("CLAIMS OF THE CLAIMANT")

    def test_sectioning_is_lossless(self, judgment):
        text, _, _, _, doc = judgment
        assert "".join(s.text for s in doc.sections) == text
        spans = [s.char_span for s in doc.sections]
        assert spans[0][0] == 0
        assert spans[-1][1] == len(text)
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end == start

    def test_no_matching_header_yields_single_other_section(self):
        rules = [SectionRule(role="claimant", header_pattern=r"^NEVER MATCHES")]
        doc = section_document("just some text\nwith two lines", rules)
        assert len(doc.sections) == 1
        assert doc.sections[0].role == "other"

    def test_empty_text_rejected(self):
        with pytest.raises(EmptyDocument):
            section_document("", [SectionRule(role="other", header_pattern="x")])

    def test_empty_ruleset_rejected(self):
        with pytest.raises(ValueError):
            section_document("text", [])

    def test_first_matching_rule_wins(self):
        rules = [
            SectionRule(role="claimant", header_pattern=r"^PART"),
            SectionRule(role="holding", header_pattern=r"^PART ONE"),
        ]
        doc = section_document("intro\nPART ONE\nbody", rules)
        assert [s.role for s in doc.sections] == ["other", "claimant"]

    def test_header_at_offset_zero_means_no_preamble(self):
        rules = [SectionRule(role="holding", header_pattern=r"^HOLDING")]
        doc = section_document("HOLDING\nall of it", rules)
        assert [s.role for s in doc.sections] == ["holding"]


class TestBuildDocSummary:
    def test_fixture_summary_carries_the_reference(self, judgment):
        _, _, digests, refs, doc = judgment
        summary, findings = build_doc_summary(doc, digests, refs)
        assert findings == []
        assert summary.claims_digest == digests["claimant"]
        assert summary.reasoning_digest == digests["reasoning"]
        assert summary.cross_references == tuple(refs)
        assert summary.token_estimate > 0

    def test_no_refs_is_fine(self, judgment):
        _, _, digests, _, doc = judgment
        summary, findings = build_doc_summary(doc, digests, [])
        assert summary.cross_references == ()
        assert findings == []

    def test_dangling_reference_rejected(self, judgment):
        _, _, digests, _, doc = judgment
        bad = [CrossReference(from_section="s4", to_section="s99",
                              locator="", trigger="x")]
        with pytest.raises(DanglingReference):
            build_doc_summary(doc, digests, bad)

    def test_budget_overrun_warned_never_clamped(self, judgment):
        _, _, digests, refs, doc = judgment
        long_digests = {**digests, "reasoning": "The court weighed the record. " * 60}
        summary, findings = build_doc_summary(doc, long_digests, refs)  # past 400 tokens
        assert [f.code for f in findings] == ["TOKEN_BUDGET_OVERRUN"]
        assert summary.token_estimate > 5

    def test_json_round_trip(self, judgment):
        _, _, digests, refs, doc = judgment
        summary, _ = build_doc_summary(doc, digests, refs)
        assert decode(DocSummary, encode(summary)) == summary
        data = {**encode(doc), "summary": encode(summary)}
        doc2, summary2 = decode(SectionedDocument, data), decode(DocSummary, data["summary"])
        assert doc2 == doc
        assert summary2 == summary


class TestResolveCoload:
    def test_trigger_match_coloads_both_endpoints(self, judgment):
        _, _, digests, refs, doc = judgment
        summary, _ = build_doc_summary(doc, digests, refs)
        result = resolve_coload("how was the quantum of damages decided", summary, doc)
        assert result == {"s2", "s4"}

    def test_no_trigger_hit_falls_back_to_best_section(self, judgment):
        text, _, digests, refs, doc = judgment
        summary, _ = build_doc_summary(doc, digests, refs)
        query = "final orders and judgment sum entered for costs"
        result = resolve_coload(query, summary, doc)
        # oracle: brute-force overlap over section text
        def score(section):
            q = set(re.findall(r"[0-9a-z]+", query.lower()))
            t = set(re.findall(r"[0-9a-z]+", section.text.lower()))
            return len(q & t) / (2 * len(q) + len(t - q)) if (q or t) else 0.0
        best = max(doc.sections, key=lambda s: (score(s), ))
        assert result == {best.section_id} == {"s5"}

    def test_zero_scores_tie_break_to_first_section(self, judgment):
        _, _, digests, _, doc = judgment
        summary, _ = build_doc_summary(doc, digests, [])
        assert resolve_coload("zzzz qqqq xxxx", summary, doc) == {"s1"}

    def test_never_empty(self, judgment):
        _, _, digests, refs, doc = judgment
        summary, _ = build_doc_summary(doc, digests, refs)
        assert resolve_coload("", summary, doc)

    def test_adding_a_reference_never_shrinks_the_coload(self, judgment):
        _, _, digests, refs, doc = judgment
        without, _ = build_doc_summary(doc, digests, [])
        with_ref, _ = build_doc_summary(doc, digests, refs)
        query = "quantum of damages"
        before = resolve_coload(query, without, doc)
        after = resolve_coload(query, with_ref, doc)
        assert len(after) >= len(before)
        assert {"s2", "s4"} <= after

    def test_summary_must_belong_to_document(self, judgment):
        _, _, _, _, doc = judgment
        foreign = DocSummary(doc_id="someone-else")
        with pytest.raises(ValueError):
            resolve_coload("q", foreign, doc)
