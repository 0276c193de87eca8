"""Rule-based document sectioning, summaries, and co-loading.

Semi-structured documents (the fixture is a court judgment) get split
into role-tagged sections by header patterns, summarized into a compact
digest with explicit cross-references, and queried: when a query topic
matches a cross-reference trigger, both endpoint sections are loaded
together instead of making the reader rediscover the link from full
text.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from .errors import DanglingReference, EmptyDocument
from .library import Finding, SEVERITY_WARNING, tokenize
from .engine import weighted_overlap
from .prefix import estimate_tokens
from .wire import encode

DOC_SUMMARY_BUDGET = 400  # estimated tokens; an overrun is a warning


@dataclass(frozen=True)
class Section:
    section_id: str
    role: str
    text: str
    char_span: tuple[int, int]


@dataclass(frozen=True)
class SectionedDocument:
    doc_id: str
    sections: tuple[Section, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "sections", tuple(self.sections))


@dataclass(frozen=True)
class SectionRule:
    role: str
    header_pattern: str

    def __post_init__(self) -> None:
        try:
            re.compile(self.header_pattern, re.MULTILINE)
        except re.error as exc:
            raise ValueError(f"bad header_pattern {self.header_pattern!r}: {exc}") from None


@dataclass(frozen=True)
class CrossReference:
    from_section: str
    to_section: str
    locator: str = ""
    trigger: str = ""


@dataclass(frozen=True)
class DocSummary:
    doc_id: str
    claims_digest: str = ""
    reasoning_digest: str = ""
    cross_references: tuple[CrossReference, ...] = ()
    token_estimate: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "cross_references", tuple(self.cross_references))


def section_document(
    text: str,
    ruleset: Sequence[SectionRule],
    doc_id: str = "doc",
) -> SectionedDocument:
    """Split *text* into sections at header-pattern matches.

    Patterns are multiline regexes; where several rules match the same
    offset the first rule in the ruleset wins.  Text before the first
    header (or all of it, when nothing matches) becomes a section with
    role ``other``.  Section spans tile the input exactly, so joining
    the section texts reconstructs it byte for byte.
    """
    if not ruleset:
        raise ValueError("ruleset must not be empty")
    if not text:
        raise EmptyDocument(f"{doc_id}: no text to section")

    boundaries: dict[int, str] = {}
    for rule in ruleset:
        for match in re.finditer(rule.header_pattern, text, re.MULTILINE):
            boundaries.setdefault(match.start(), rule.role)
    starts = sorted(boundaries)

    spans: list[tuple[int, int, str]] = []
    if not starts or starts[0] > 0:
        spans.append((0, starts[0] if starts else len(text), "other"))
    for i, start in enumerate(starts):
        end = starts[i + 1] if i + 1 < len(starts) else len(text)
        spans.append((start, end, boundaries[start]))

    sections = tuple(
        Section(
            section_id=f"s{i + 1}",
            role=role,
            text=text[start:end],
            char_span=(start, end),
        )
        for i, (start, end, role) in enumerate(spans)
    )
    return SectionedDocument(doc_id=doc_id, sections=sections)


def build_doc_summary(
    doc: SectionedDocument,
    digests: Mapping[str, str],
    refs: Sequence[CrossReference] = (),
) -> tuple[DocSummary, list[Finding]]:
    """Assemble the document's summary from caller-supplied digests.

    ``digests`` maps section roles to digest strings; claims come from
    the ``claimant`` role and reasoning from ``reasoning``.  Every
    cross-reference endpoint must name an existing section.  The token
    estimate covers the serialized summary (minus the estimate field
    itself) and overruns of ``DOC_SUMMARY_BUDGET`` are reported as a
    warning, never trimmed.
    """
    known = {sec.section_id for sec in doc.sections}
    for ref in refs:
        for endpoint in (ref.from_section, ref.to_section):
            if endpoint not in known:
                raise DanglingReference(
                    f"{doc.doc_id}: cross-reference endpoint {endpoint!r} "
                    "names a missing section")
    summary = DocSummary(
        doc_id=doc.doc_id,
        claims_digest=digests.get("claimant", ""),
        reasoning_digest=digests.get("reasoning", ""),
        cross_references=tuple(refs),
        token_estimate=0,
    )
    payload = encode(summary)
    del payload["token_estimate"]  # the estimate leaves itself out
    estimate = estimate_tokens(json.dumps(payload, ensure_ascii=False, separators=(",", ":")))
    summary = replace(summary, token_estimate=estimate)
    findings: list[Finding] = []
    if estimate > DOC_SUMMARY_BUDGET:
        findings.append(Finding(
            SEVERITY_WARNING, "TOKEN_BUDGET_OVERRUN",
            f"{doc.doc_id}: summary estimates {estimate} tokens (budget {DOC_SUMMARY_BUDGET})"))
    return summary, findings


def resolve_coload(query: str, summary: DocSummary, doc: SectionedDocument) -> set[str]:
    """Which sections must be loaded together for this query.

    Every cross-reference whose trigger shares at least one token with
    the query contributes both of its endpoints.  With no trigger hit,
    the single best section by lexical overlap over section text is
    returned; scoreless ties fall back to the first section in document
    order.  The result is never empty for a non-empty document.
    """
    if summary.doc_id != doc.doc_id:
        raise ValueError(
            f"summary for {summary.doc_id!r} does not belong to document {doc.doc_id!r}")
    query_tokens = tokenize(query)
    coload: set[str] = set()
    for ref in summary.cross_references:
        if query_tokens & tokenize(ref.trigger):
            coload.add(ref.from_section)
            coload.add(ref.to_section)
    if coload:
        return coload
    best_id = None
    best_score = -1.0
    for sec in doc.sections:
        score = weighted_overlap(query_tokens, frozenset(), tokenize(sec.text))
        if score > best_score:
            best_id = sec.section_id
            best_score = score
    return {best_id} if best_id is not None else set()
