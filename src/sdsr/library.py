"""Knowledge-library data model, validation, and JSON interchange.

A library is an ordered collection of categories, each holding skill
entries.  An optional summary block carries navigational metadata: a
category index with per-category routing hints, reader instructions,
and role assignments.  On disk the summary must be the first key of the
file so that it occupies the position a reader scans first; the rest of
this package (prefix reading, guidance conditions, benchmarking) builds
on the invariants enforced here.

All model types are frozen dataclasses and safe to share across
threads.  Validation never raises: every broken invariant becomes a
finding with a severity and a stable code, and callers decide what to
do with them.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import cached_property
from json.encoder import encode_basestring

from .errors import MalformedFile
from .wire import Text, decode, dumps, encode, parse

SEVERITY_ERROR = "ERROR"
SEVERITY_WARNING = "WARNING"
SEVERITY_INFO = "INFO"

SUMMARY_KEY = "_summary"
PROVENANCE_KEY = "_provenance"
DEFAULT_BODY_KEY = "High_Impact_Skills_Library"
HINT_MAX = 100  # Unicode scalar values per routing_hint

# In-file hint indexes stop paying off once the index itself grows into a
# long block; past this many categories a density warning is emitted.
HINT_DENSITY_LIMIT = 60

ABSTRACTION_LEVELS = frozenset({
    "pipeline", "governance", "framework", "system", "engine",
    "mechanism", "component", "detection", "intelligence", "other",
})
DISTRACTOR_TIERS = frozenset({"high", "low"})

_TOKEN = re.compile(r"[0-9a-z]+")  # after str.lower() no A-Z is left

# Names end up in response lines ``Q<nn>: <category> | <skill> ; ...``,
# which are split on these delimiters and on every line break that
# str.splitlines knows.
_GRAMMAR_DELIMITERS = frozenset("|;")
_LINE_BREAKS = frozenset("\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")


def tokenize(text: str) -> frozenset[str]:
    """Lowercased alphanumeric token set of *text*."""
    return frozenset(_TOKEN.findall(text.lower()))


@dataclass(frozen=True)
class Finding:
    """One validation observation: a severity, a stable code, a message."""

    severity: str
    code: str
    message: str


def has_errors(findings: list[Finding] | tuple[Finding, ...]) -> bool:
    return any(f.severity == SEVERITY_ERROR for f in findings)


@dataclass(frozen=True)
class Skill:
    name: str = field(metadata={"key": "skill_name"})
    description: str = ""


@dataclass(frozen=True)
class Category:
    """A named capability domain with an ordered list of skill entries.

    ``complement`` names the category the designer intends as the
    architectural pairing for secondary selection; it is data, not a
    derived value, because that pairing is not recoverable from the
    descriptions themselves.  ``distractor_tier`` marks injected noise
    categories (``high`` = semantically adjacent to a real target,
    ``low`` = pure volume).
    """

    name: str
    description: str = field(default="", metadata={"key": "category_description"})
    abstraction_level: str | None = None
    complement: str | None = None
    distractor_tier: str | None = None
    skills: tuple[Skill, ...] = ()  # last, as on the wire

    # Tier 2's last answer for this object, keyed by question text: (question texts,
    # best (-score, category, skill) triple per question).  engine.LexicalBackend.select
    # reads it once and replaces it whole, so the object keeps one question set at most.
    # Unannotated, so not a field: ==, hash and the wire format ignore it.
    best_pairs = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "skills", tuple(self.skills))

    @property
    def skill_count(self) -> int:
        return len(self.skills)

    @cached_property
    def token_view(self) -> tuple[TokenEntry, tuple[TokenEntry, ...]]:
        """The ``token_entry`` of the category and of each skill, in order, as tier 2 scores them.

        Built on first use and kept for the life of this object, so every
        call and every condition sharing the object tokenizes its texts
        once.  Not a field, so ==, hash and the wire format ignore it.
        """
        return token_entry(self.name, self.description), tuple(
            token_entry(skill.name, skill.description) for skill in self.skills)

    @cached_property
    def lowered_text(self) -> str:
        """The category's name and description and each skill's, newline-joined and lowered.

        Tier 2's substring gate searches it for query tokens before it
        reads ``token_view``; kept, like that view, for the life of this
        object and outside ==, hash and the wire format.
        """
        return "\n".join((self.name, self.description, *(
            text for skill in self.skills for text in (skill.name, skill.description)))).lower()

    @cached_property
    def first_skill(self) -> str:
        """The least trimmed skill name, kept like ``lowered_text``.

        Tier 2 pairs it with a question that shares no token with any skill.
        """
        return min(skill.name.strip() for skill in self.skills)

    @cached_property
    def body_text(self) -> Text:
        """The category's entry under a library file's body key, as JSON text.

        The writer's side of decode_library's hook: the name is the entry's
        key, so it is left out, and so is an unset annotation.  Rendered on
        first use and kept for the life of this object, so every library
        variant sharing it writes its entry once.  Not a field, so ==, hash
        and the wire format ignore it.
        """
        entry = encode(self)
        del entry["name"]
        return Text(dumps({key: value for key, value in entry.items() if value is not None}))


TokenEntry = tuple[frozenset[str], frozenset[str], str]


def token_entry(name: str, text: str) -> TokenEntry:
    """An entry as lexical scoring reads it: name tokens, text-only tokens, trimmed name.

    The text-only tokens are the tokens of *text* not in the name.
    """
    name_tokens = tokenize(name)
    return name_tokens, tokenize(text) - name_tokens, name.strip()


@dataclass(frozen=True)
class CategoryIndexEntry:
    name: str
    skill_count: int = 0
    routing_hint: str = ""


@dataclass(frozen=True)
class SummaryBlock:
    """Navigational metadata placed at a library file's first key."""

    category_index: tuple[CategoryIndexEntry, ...] = ()
    llm_instructions: str = field(default="", metadata={"key": "_llm_instructions"})
    routing_roles: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "category_index", tuple(self.category_index))
        object.__setattr__(
            self,
            "routing_roles",
            {role: tuple(names) for role, names in self.routing_roles.items()},
        )

    @cached_property
    def compact_length(self) -> int:
        """``len(json.dumps(encode(self), ensure_ascii=False, separators=(",", ":")))``.

        Counted once, without building either: fixed punctuation per record,
        role and name, plus one escaping pass over every text and count
        joined, since escaping works character by character.  Not a field,
        so == ignores it.
        """
        texts = [self.llm_instructions]
        for entry in self.category_index:
            texts += entry.name, entry.routing_hint, str(entry.skill_count)
        length = _EMPTY_SUMMARY + len(self.category_index) * (_EMPTY_ENTRY + 1)
        for role, names in self.routing_roles.items():
            texts.append(role)
            texts += names
            # '"role":[]' and its comma, then '"name",' per name less the last comma
            length += _EMPTY_ROLE + 1 + 3 * len(names) - bool(names)
        # Less the last comma of the index and of the roles, and the join's two quotes.
        length -= bool(self.category_index) + bool(self.routing_roles) + 2
        return length + len(encode_basestring("".join(texts)))


def _compact_json_length(record) -> int:
    return len(json.dumps(encode(record), ensure_ascii=False, separators=(",", ":")))


# Compact lengths of empty records, taken once from encode so that no wire
# key is spelled twice: a summary, an index entry less its count's one
# digit, and one role with no names.
_EMPTY_SUMMARY = _compact_json_length(SummaryBlock())
_EMPTY_ENTRY = _compact_json_length(CategoryIndexEntry(name="")) - 1
_EMPTY_ROLE = _compact_json_length(SummaryBlock(routing_roles={"": ()})) - _EMPTY_SUMMARY


@dataclass(frozen=True)
class KnowledgeLibrary:
    summary: SummaryBlock | None = None
    categories: tuple[Category, ...] = ()
    provenance: dict[str, str] = field(default_factory=dict)
    # The key the body was read under and is written under; == ignores it.
    body_key: str = field(default=DEFAULT_BODY_KEY, compare=False)

    def __post_init__(self) -> None:
        if self.body_key.startswith("_"):  # decode_library takes no such key for the body
            raise ValueError(f"body_key must not start with '_': {self.body_key!r}")
        object.__setattr__(self, "categories", tuple(self.categories))
        object.__setattr__(self, "provenance", dict(self.provenance))

    @cached_property
    def _by_name(self) -> dict[str, Category]:
        # Built on first lookup; not a field, so == and the wire format ignore it.
        by_name: dict[str, Category] = {}
        for cat in self.categories:
            by_name.setdefault(cat.name.strip(), cat)
        return by_name

    def category(self, name: str) -> Category | None:
        """Look up a category by exact, case-sensitive, trimmed name.

        When two categories share a trimmed name the first one wins.
        """
        return self._by_name.get(name.strip())

    @property
    def category_names(self) -> tuple[str, ...]:
        return tuple(c.name.strip() for c in self.categories)

    @property
    def total_skills(self) -> int:
        return sum(c.skill_count for c in self.categories)


def surface_similarity(a: Category, b: Category) -> float:
    """Token-set Jaccard similarity over name + description.

    Symmetric, in [0, 1], and 1.0 for identical token sets.  Two
    categories whose names and descriptions share no alphanumeric token
    score 0.0.
    """
    tokens_a = tokenize(a.name) | tokenize(a.description)
    tokens_b = tokenize(b.name) | tokenize(b.description)
    if not tokens_a and not tokens_b:
        return 1.0
    if not tokens_a or not tokens_b:
        return 0.0
    return len(tokens_a & tokens_b) / len(tokens_a | tokens_b)


def validate_library(lib: KnowledgeLibrary, strict: bool = False) -> list[Finding]:
    """Check every library invariant and return the findings.

    An empty list means the library is fully consistent.  ``strict``
    escalates warnings to errors; it never changes which findings are
    produced.  The function is pure: identical inputs yield identical
    findings in identical order.
    """
    findings: list[Finding] = []
    seen: set[str] = set()

    for cat in lib.categories:
        name = cat.name.strip()
        if not name:
            findings.append(Finding(SEVERITY_ERROR, "EMPTY_NAME", "category with empty name"))
            continue
        if not _LINE_BREAKS.isdisjoint(cat.name):
            findings.append(Finding(
                SEVERITY_ERROR, "CATEGORY_NAME_LINEBREAK",
                f"category name contains a line break: {name!r}"))
        if not _GRAMMAR_DELIMITERS.isdisjoint(name):
            findings.append(Finding(
                SEVERITY_ERROR, "CATEGORY_NAME_DELIMITER",
                f"category name contains '|' or ';': {name!r}"))
        if name in seen:
            findings.append(Finding(
                SEVERITY_ERROR, "DUPLICATE_CATEGORY", f"category name not unique: {name}"))
        seen.add(name)
        if not cat.description.strip():
            findings.append(Finding(
                SEVERITY_ERROR, "EMPTY_DESCRIPTION", f"{name}: empty description"))
        if cat.abstraction_level is not None and cat.abstraction_level not in ABSTRACTION_LEVELS:
            findings.append(Finding(
                SEVERITY_ERROR, "INVALID_LEVEL",
                f"{name}: unknown abstraction_level {cat.abstraction_level!r}"))
        if cat.distractor_tier is not None and cat.distractor_tier not in DISTRACTOR_TIERS:
            findings.append(Finding(
                SEVERITY_ERROR, "INVALID_TIER",
                f"{name}: unknown distractor_tier {cat.distractor_tier!r}"))
        if cat.distractor_tier is None and not cat.skills:
            findings.append(Finding(
                SEVERITY_ERROR, "EMPTY_SKILLS", f"{name}: real category has no skills"))
        # Low-tier counts are deliberately only advisory; see module docs.
        if cat.distractor_tier == "high" and not 2 <= len(cat.skills) <= 3:
            findings.append(Finding(
                SEVERITY_WARNING, "DISTRACTOR_SKILL_COUNT",
                f"{name}: high-tier distractor should carry 2-3 skills, has {len(cat.skills)}"))
        skill_names: set[str] = set()
        for skill in cat.skills:
            sname = skill.name.strip()
            if not sname:
                findings.append(Finding(
                    SEVERITY_ERROR, "EMPTY_SKILL_NAME", f"{name}: skill with empty name"))
                continue
            if not _LINE_BREAKS.isdisjoint(skill.name):
                findings.append(Finding(
                    SEVERITY_ERROR, "SKILL_NAME_LINEBREAK",
                    f"{name}: skill name contains a line break: {sname!r}"))
            if not _GRAMMAR_DELIMITERS.isdisjoint(sname):
                findings.append(Finding(
                    SEVERITY_ERROR, "SKILL_NAME_DELIMITER",
                    f"{name}: skill name contains '|' or ';': {sname!r}"))
            if sname in skill_names:
                findings.append(Finding(
                    SEVERITY_ERROR, "DUPLICATE_SKILL", f"{name}: duplicate skill {sname}"))
            skill_names.add(sname)

    names = set(lib.category_names)
    for cat in lib.categories:
        if cat.complement is not None and cat.complement.strip() not in names:
            findings.append(Finding(
                SEVERITY_ERROR, "DANGLING_COMPLEMENT",
                f"{cat.name.strip()}: complement {cat.complement.strip()!r} does not exist"))

    if lib.summary is not None:
        findings.extend(_validate_summary(lib, lib.summary))

    if strict:
        findings = [
            Finding(SEVERITY_ERROR, f.code, f.message) if f.severity == SEVERITY_WARNING else f
            for f in findings
        ]
    return findings


def _validate_summary(lib: KnowledgeLibrary, summary: SummaryBlock) -> list[Finding]:
    findings: list[Finding] = []
    index = summary.category_index
    if len(index) != len(lib.categories):
        findings.append(Finding(
            SEVERITY_ERROR, "INDEX_MISMATCH",
            f"category_index has {len(index)} entries for {len(lib.categories)} categories"))
    for pos, (entry, cat) in enumerate(zip(index, lib.categories)):
        if entry.name.strip() != cat.name.strip():
            findings.append(Finding(
                SEVERITY_ERROR, "INDEX_MISMATCH",
                f"index position {pos}: {entry.name.strip()!r} vs category {cat.name.strip()!r}"))
            continue
        if entry.skill_count != cat.skill_count:
            findings.append(Finding(
                SEVERITY_ERROR, "COUNT_MISMATCH",
                f"{cat.name.strip()}: index says {entry.skill_count} skills, "
                f"category has {cat.skill_count}"))
        if len(entry.routing_hint) > HINT_MAX:
            findings.append(Finding(
                SEVERITY_ERROR, "HINT_TOO_LONG",
                f"{cat.name.strip()}: routing_hint is {len(entry.routing_hint)} "
                f"scalar values (max {HINT_MAX})"))
    names = set(lib.category_names)
    for role, targets in summary.routing_roles.items():
        for target in targets:
            if target.strip() not in names:
                findings.append(Finding(
                    SEVERITY_ERROR, "UNKNOWN_ROLE_TARGET",
                    f"routing role {role!r} references missing category {target.strip()!r}"))
    if len(lib.categories) > HINT_DENSITY_LIMIT:
        findings.append(Finding(
            SEVERITY_WARNING, "HINT_DENSITY",
            f"{len(lib.categories)} categories exceed the ~{HINT_DENSITY_LIMIT}-entry range "
            "where an in-file hint index stays reliably readable"))
    return findings


# --- JSON interchange -------------------------------------------------
#
# Wire format: a single UTF-8 JSON object.  When a summary exists its
# key is literally "_summary" and it is emitted first; the body key, the
# first key without a leading underscore (the one the library was read
# under, by default "High_Impact_Skills_Library"), maps category names to
# their entries in order.  Key order is significant and preserved both ways.


def serialize_library(lib: KnowledgeLibrary) -> str:
    """Render the library as stable JSON text, summary first, the body under its body key."""
    out: dict = {} if lib.summary is None else {SUMMARY_KEY: encode(lib.summary)}
    # A category's name is its body key; Category.body_text renders the rest once.
    out[lib.body_key] = {cat.name: cat.body_text for cat in lib.categories}
    if lib.provenance:
        out[PROVENANCE_KEY] = lib.provenance
    return dumps(out) + "\n"


def deserialize_library(text: str | bytes) -> KnowledgeLibrary:
    """Parse and decode a library file's text, as ``sdsr`` reads a library file."""
    return decode_library(parse(text, ""))


def decode_library(obj: object) -> KnowledgeLibrary:
    """Decode a parsed library file.

    The body is the first key that does not start with an underscore; it
    maps each category name to its entry, and its key order defines
    category order.
    """
    obj = decode(dict[str, object], obj)
    body_key = next((k for k in obj if not k.startswith("_")), None)
    if body_key is None:
        raise MalformedFile("no library body key found")
    body = decode(dict[str, object], obj[body_key], body_key)
    return KnowledgeLibrary(
        summary=decode(SummaryBlock, obj[SUMMARY_KEY], SUMMARY_KEY) if SUMMARY_KEY in obj else None,
        # A category's name is its body key, not a member of its entry.
        categories=tuple(
            decode(Category, {**entry, "name": name} if type(entry) is dict else entry,
                   body_key, name)
            for name, entry in body.items()),
        provenance=decode(dict[str, str], obj.get(PROVENANCE_KEY, {}), PROVENANCE_KEY),
        body_key=body_key,
    )
