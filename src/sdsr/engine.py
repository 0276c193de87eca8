"""Two-tier retrieval: summary-scan routing and full-content selection.

Tier 1 ranks files by their summary blocks alone, so its context cost
grows with the number of files, never with their sizes.  Tier 2 works
over fully loaded libraries and guards every selection against the
actual content (no hallucinated category/skill pairs survive).

Backends are pluggable.  The shipped lexical backend is a deterministic
desk-scale stand-in for an LLM router: it scores by weighted token
overlap, with name tokens counting double.  Scoring rule for a query
token set Q against an entry with name tokens N and hint/description
tokens H (weights: query 2, name 2, text-only 1):

    score = sum(min weights) / sum(max weights)
          = (2*|Q & N| + |Q & (H-N)|) / (2*|union(Q, N)| + |(H-N) - Q|)

which is 1.0 when the query tokens equal the name tokens of a
name-only entry and 0.0 on zero overlap.  Ties break lexicographically
everywhere.

Each entry is compiled once, by ``library.token_entry``, into (N, T')
with T' = H - N, plus its trimmed name.  Since |union(Q, N)| = |N| +
|Q| - |Q & N| and |T' - Q| = |T'| - |Q & T'|, the denominator is

    2*(|N| + |Q| - |Q & N|) + |T'| - |Q & T'|

so scoring a compiled entry takes two set intersections, and yields
the same integer numerator and denominator, hence the same float.

Per-call cost of the lexical backend: the texts of a file's index
(tier 1), or of a category and its skills (tier 2), joined with
newlines and lowered, are searched for each query token as a
substring, shortest token first.  On a miss every score in the block
is 0.0, and the block is skipped without being tokenized.  Each query
is tokenized once per call.  Tier 1 joins and compiles every other
file's index entries once per call, since its summaries are decoded
afresh for each call.  Tier 2 reads a category's lowered text from
``Category.lowered_text`` and every other category's compiled entries
from ``Category.token_view``; each is built on first use and kept on
the category object, so every later call, and every guidance condition
sharing that object, tokenizes only the questions.  For each question
the category score is computed once, and a skill is scored only when
it shares a token with the question; each question keeps one best pair
per category, from which two linear ``min`` passes pick the top two.
On English text, where stop words make nearly every block hit, the
gate saves nothing and costs, as the shortest tokens are tried first,
about one substring scan per block, plus one join and ``lower()`` per
block the first time.  Tier 2 keeps its answer too, in
``Category.best_pairs``: one tuple of the call's question texts and the
best (-score, category, skill) triple per question, keyed by question
text.  A call whose texts equal the kept ones, such as the next
guidance condition over the same categories, reuses the triples and
scores nothing; a call with other texts scores afresh and replaces the
tuple whole, so each category keeps at most one question set.  Nothing
is kept on the backend or at module level, and remote backends keep
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Protocol, Sequence

from .errors import (
    AllSelectionsInvalid,
    DanglingComplement,
    EmptyLoadSet,
    NoFiles,
    UnknownCategory,
)
from .library import (
    Category,
    CategoryIndexEntry,
    KnowledgeLibrary,
    SummaryBlock,
    TokenEntry,
    token_entry,
    tokenize,
)
from .prefix import estimate_tokens, summary_token_estimate

DEFAULT_K_MAX = 3
DEFAULT_THRESHOLD = 0.05


@dataclass(frozen=True)
class RoutingRequest:
    query: str
    summaries: tuple[tuple[str, SummaryBlock], ...]
    k_max: int = DEFAULT_K_MAX
    threshold: float = DEFAULT_THRESHOLD

    def __post_init__(self) -> None:
        object.__setattr__(self, "summaries", tuple(self.summaries))
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")


@dataclass(frozen=True)
class ScoredFile:
    file_id: str
    score: float


@dataclass(frozen=True)
class RoutingResult:
    selected: tuple[ScoredFile, ...]
    expanded_scope: bool
    trace: tuple[str, ...]


@dataclass(frozen=True)
class Selection:
    category: str
    skill: str


@dataclass(frozen=True)
class QuestionSelection:
    question_id: int
    primary: Selection
    secondary: Selection | None = None


@dataclass(frozen=True)
class SelectionSet:
    selections: tuple[QuestionSelection, ...] = ()
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "selections", tuple(self.selections))
        object.__setattr__(self, "flags", tuple(self.flags))

    def get(self, question_id: int) -> QuestionSelection | None:
        for sel in self.selections:
            if sel.question_id == question_id:
                return sel
        return None


class RouterBackend(Protocol):
    """Capability contract for the routing/selection provider."""

    def route(
        self, query: str, summaries: Sequence[tuple[str, SummaryBlock]]
    ) -> list[tuple[str, float]]:
        """Score every file id for the query; higher is more relevant."""

    def select(
        self,
        questions: Sequence[tuple[int, str]],
        libraries: Sequence[KnowledgeLibrary],
        system_prompt: str | None = None,
    ) -> SelectionSet:
        """Pick up to two (category, skill) selections per question."""


def _overlap(query_tokens: frozenset[str], entry: TokenEntry) -> float:
    """The scoring rule of the module docstring, on a compiled entry."""
    name_tokens, text_only, _ = entry
    shared_name = len(query_tokens & name_tokens)
    shared_text = len(query_tokens & text_only)
    denominator = (2 * (len(name_tokens) + len(query_tokens) - shared_name)
                   + len(text_only) - shared_text)
    if denominator == 0:
        return 0.0
    return (2 * shared_name + shared_text) / denominator


def _shares_token(probes: Sequence[str], lowered: str) -> bool:
    """Whether some query token in ``probes`` occurs, as a substring, in *lowered*.

    *lowered* is texts joined by newlines, then lowered.  Each token of a
    text is a run of its lowered form, and the newline is no token
    character, so False means every overlap with these texts is empty.
    True may come from a substring-only match, which exact scoring then
    sorts out.  Callers order the probes shortest first: a short token is
    the likeliest substring, so on English text a stop word such as ``a``
    ends the scan at once, where set order tried about a dozen tokens first.
    """
    return any(token in lowered for token in probes)


def _best_pairs(
    cat: Category, queries: Sequence[frozenset[str]], probes: Sequence[str]
) -> tuple[tuple[float, str, str], ...]:
    """The best (-score, category, skill) triple of *cat* for each query, in order.

    *probes* are the tokens of all queries, shortest first.
    """
    cat_name = cat.name.strip()
    # A skill that shares no token with a query scores the category score alone for
    # it, so the least trimmed name stands for all such skills.
    first_skill = cat.first_skill
    if not _shares_token(probes, cat.lowered_text):
        return ((-0.0, cat_name, first_skill),) * len(queries)
    cat_entry, skills = cat.token_view
    best_pairs = []
    for query_tokens in queries:
        cat_score = _overlap(query_tokens, cat_entry)
        query_weight = 2 * len(query_tokens)
        best = (-cat_score, first_skill)
        disjoint = query_tokens.isdisjoint
        for name_tokens, text_only, skill_name in skills:
            if disjoint(name_tokens) and disjoint(text_only):
                continue
            # _overlap inlined; a shared token keeps the denominator above zero.
            shared_name = len(query_tokens & name_tokens)
            shared_text = len(query_tokens & text_only)
            pair = (-(cat_score + (2 * shared_name + shared_text) / (
                2 * (len(name_tokens) - shared_name) + query_weight
                + len(text_only) - shared_text)), skill_name)
            if pair < best:
                best = pair
        best_pairs.append((best[0], cat_name, best[1]))
    return tuple(best_pairs)


def weighted_overlap(
    query_tokens: frozenset[str],
    name_tokens: frozenset[str],
    text_tokens: frozenset[str],
) -> float:
    return _overlap(query_tokens, (name_tokens, text_tokens - name_tokens, ""))


def lexical_score(query: str, entry: CategoryIndexEntry | Category) -> float:
    """Weighted token overlap of *query* against an index entry or category.

    Name tokens weigh double; the routing hint (index entries) or the
    category description supplies the single-weight text tokens.
    Deterministic, symmetric in no useful sense, and bounded to [0, 1].
    """
    if isinstance(entry, CategoryIndexEntry):
        text = entry.routing_hint
    else:
        text = entry.description
    return _overlap(tokenize(query), token_entry(entry.name, text))


class LexicalBackend:
    """Deterministic token-overlap router and selector.

    route: a file's score is the best lexical score across its index
    entries.  select: every (category, skill) pair is scored as
    category score plus skill score and the best pair wins; the best
    pair from a different category becomes the secondary guess when it
    scores above zero.

    Both walk their input once per call and tokenize each query once.
    A file, or a category with its skills, whose text holds no query
    token even as a substring scores 0.0 without being tokenized.  route
    compiles every other file's entries once per call; select reads
    each category's ``Category.lowered_text`` and every other one's
    ``Category.token_view``, built on first use and shared by every
    later call on the same object.  select keeps each category's best
    pair per question in ``Category.best_pairs``, keyed by the call's
    question texts: a later call asking the same texts of the same
    object scores nothing, and one asking others replaces them, so a
    category holds one question set at most.  The backend itself holds
    no state.
    """

    def route(
        self, query: str, summaries: Sequence[tuple[str, SummaryBlock]]
    ) -> list[tuple[str, float]]:
        query_tokens = tokenize(query)
        probes = sorted(query_tokens, key=len)
        scores = []
        for file_id, block in summaries:
            entries = block.category_index
            score = 0.0
            lowered = "\n".join(
                text for entry in entries for text in (entry.name, entry.routing_hint)).lower()
            if _shares_token(probes, lowered):
                score = max(_overlap(query_tokens, token_entry(entry.name, entry.routing_hint))
                            for entry in entries)
            scores.append((file_id, score))
        return scores

    def select(
        self,
        questions: Sequence[tuple[int, str]],
        libraries: Sequence[KnowledgeLibrary],
        system_prompt: str | None = None,
    ) -> SelectionSet:
        texts = tuple(text for _, text in questions)
        queries = [tokenize(text) for text in texts]
        probes = sorted(frozenset().union(*queries), key=len)
        # Per category, its best (-score, category, skill) triple for each question, as
        # only that pair can become a primary or secondary.
        columns = []
        for lib in libraries:
            for cat in lib.categories:
                if not cat.skills:
                    continue
                memo = cat.best_pairs  # read once: another thread may replace it
                if memo is None or memo[0] != texts:
                    memo = texts, _best_pairs(cat, queries, probes)
                    object.__setattr__(cat, "best_pairs", memo)
                columns.append(memo[1])
        selections = []
        for (question_id, _), pairs in zip(questions, zip(*columns)):
            # min() is the first pair in sorted order; the secondary is the first from
            # another category, kept only when its score is above zero.
            _, category, skill = min(pairs)
            negated, other, other_skill = min(
                (p for p in pairs if p[1] != category), default=(0.0, "", ""))
            selections.append(QuestionSelection(
                question_id=question_id, primary=Selection(category=category, skill=skill),
                secondary=Selection(category=other, skill=other_skill) if negated < 0.0 else None))
        return SelectionSet(selections=tuple(selections))


def route_tier1(req: RoutingRequest, backend: RouterBackend) -> RoutingResult:
    """Tier-1 summary scan: pick the 1..k_max most relevant files.

    Files at or above the threshold are ranked and the top k returned.
    If nothing reaches the threshold the scope is expanded: the top k
    are returned unconditionally (single retry, no loop) and the result
    is marked accordingly.  The trace records both passes plus the
    token accounting for the scan.
    """
    if not req.summaries:
        raise NoFiles("routing requires at least one summary")
    scores = dict(backend.route(req.query, req.summaries))
    ranked = sorted(
        (ScoredFile(file_id=fid, score=scores.get(fid, 0.0)) for fid, _ in req.summaries),
        key=lambda sf: (-sf.score, sf.file_id),
    )
    tokens = sum(summary_token_estimate(block) for _, block in req.summaries)
    tokens += estimate_tokens(req.query)
    eligible = [sf for sf in ranked if sf.score >= req.threshold]
    trace = [
        f"tier1 scan: {len(req.summaries)} files, ~{tokens} tokens",
        f"pass 1: {len(eligible)} file(s) at or above threshold {req.threshold}",
    ]
    expanded = not eligible
    selected = tuple((eligible or ranked)[:req.k_max])
    if expanded:
        trace.append(f"expand scope: no file met the threshold; returning top {len(selected)}")
    trace.append("selected: " + ", ".join(f"{sf.file_id}={sf.score:.4f}" for sf in selected))
    return RoutingResult(selected=selected, expanded_scope=expanded, trace=tuple(trace))


def normalize_questions(
    questions: str | Sequence[tuple[int, str]],
) -> tuple[tuple[int, str], ...]:
    """Accept a query string, which becomes question 1, or (id, text) pairs."""
    if isinstance(questions, str):
        return ((1, questions),)
    return tuple((int(qid), str(text)) for qid, text in questions)


def select_tier2(
    questions: str | Sequence[tuple[int, str]],
    loaded: Sequence[KnowledgeLibrary],
    backend: RouterBackend,
    system_prompt: str | None = None,
) -> SelectionSet:
    """Tier-2 full-content selection with a hallucination guard.

    Every pair the backend returns must exist in some loaded library;
    selections with an unknown primary are dropped, unknown secondaries
    are cleared, and each removal is flagged.  If the backend produced
    selections and none survived, AllSelectionsInvalid is raised.
    """
    if not loaded:
        raise EmptyLoadSet("tier-2 selection requires at least one loaded library")
    pairs = normalize_questions(questions)
    raw = backend.select(pairs, loaded, system_prompt=system_prompt)

    kept = []
    flags = list(raw.flags)
    for sel in raw.selections:
        if not _pair_exists(sel.primary, loaded):
            flags.append(
                f"Q{sel.question_id}: dropped primary "
                f"{sel.primary.category} | {sel.primary.skill} (not in any loaded library)")
            continue
        secondary = sel.secondary
        if secondary is not None and not _pair_exists(secondary, loaded):
            flags.append(
                f"Q{sel.question_id}: cleared secondary "
                f"{secondary.category} | {secondary.skill} (not in any loaded library)")
            secondary = None
        kept.append(QuestionSelection(
            question_id=sel.question_id, primary=sel.primary, secondary=secondary))
    if raw.selections and not kept:
        raise AllSelectionsInvalid("every selection failed the existence guard")
    return SelectionSet(selections=tuple(kept), flags=tuple(flags))


def _pair_exists(selection: Selection, loaded: Sequence[KnowledgeLibrary]) -> bool:
    wanted_skill = selection.skill.strip()
    for lib in loaded:
        cat = lib.category(selection.category)
        if cat is None:
            continue
        if any(s.name.strip() == wanted_skill for s in cat.skills):
            return True
    return False


def resolve_complement(lib: KnowledgeLibrary, primary_category: str) -> str | None:
    """The designer-encoded secondary pairing for a category, if any.

    Complement annotations are plain data on the category, so adding or
    removing other categories never changes the answer for an existing
    one.
    """
    cat = lib.category(primary_category)
    if cat is None:
        raise UnknownCategory(f"no category named {primary_category.strip()!r}")
    return None if _complement_of(lib, cat) is None else cat.complement.strip()


def _complement_of(lib: KnowledgeLibrary, cat: Category | None) -> Category | None:
    if cat is None or cat.complement is None:
        return None
    target = lib.category(cat.complement)
    if target is None:
        raise DanglingComplement(
            f"{cat.name.strip()}: complement {cat.complement.strip()!r} does not resolve")
    return target


def apply_complement_pass(
    sel: SelectionSet, lib: KnowledgeLibrary
) -> SelectionSet:
    """Overwrite secondary guesses with the complement-encoded pairing.

    For every selection whose primary category carries a complement
    annotation, the secondary becomes that complement (represented by
    its first skill).  Selections without a complement keep the
    backend's own secondary guess; the input set is left untouched so
    both variants stay comparable.
    """
    updated = []
    for item in sel.selections:
        complement = _complement_of(lib, lib.category(item.primary.category))
        if complement is not None and complement.skills:
            item = replace(item, secondary=Selection(
                category=complement.name.strip(), skill=complement.skills[0].name.strip()))
        updated.append(item)
    return replace(sel, selections=tuple(updated))
