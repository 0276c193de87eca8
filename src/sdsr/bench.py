"""Evaluation protocol: question set, response grammar, scoring, sweeps.

Responses follow a one-line-per-question grammar::

    Q<nn>: <category> | <skill> [; <category> | <skill>]

Scoring is category-level and deterministic: a correct primary earns
1.0, a correct primary plus correct secondary earns 1.5, anything else
(including a lone correct secondary) earns 0.0.  Skill names never
affect the score.  The maximum total is N + 0.5 * N_with_secondary.
"""

from __future__ import annotations

import csv
import io
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import EmptyKey, MalformedFile, SdsrError, UnknownQuestion
from .guidance import GuidanceCondition
from .engine import (
    QuestionSelection,
    RouterBackend,
    Selection,
    SelectionSet,
    select_tier2,
)
from .library import Finding, SEVERITY_WARNING
from .wire import decode, parse

# Category-name fragments this short are too generic to count as leaks.
_LINT_MIN_TOKEN = 4

_LINE_RE = re.compile(r"^\s*[Qq](\d+)\s*:\s*(.*?)\s*$")
_ATTEMPT_RE = re.compile(r"^\s*[Qq]\d+\b")


@dataclass(frozen=True)
class Question:
    id: int
    text: str
    primary_target: str
    secondary_target: str | None = None

    def __post_init__(self) -> None:
        if self.id < 0:  # the response grammar has no Q-1 line
            raise ValueError(f"id must be >= 0, got {self.id}")


@dataclass(frozen=True)
class QuestionScore:
    question_id: int = field(metadata={"key": "id"})
    primary_hit: bool
    secondary_hit: bool
    score: float


@dataclass(frozen=True)
class ScoreReport:
    total: float  # fields in wire order, as `sdsr score --format json` prints them
    max_total: float
    primary_accuracy: float
    secondary_hit_rate: float
    per_question: tuple[QuestionScore, ...]

    @property
    def primary_hits(self) -> int:
        return sum(1 for q in self.per_question if q.primary_hit)

    @property
    def secondary_hits(self) -> int:
        return sum(1 for q in self.per_question if q.secondary_hit)

    @property
    def secondary_keyed(self) -> int:
        """How many questions key a secondary target: each adds 0.5 to ``max_total``."""
        return round((self.max_total - len(self.per_question)) * 2)


@dataclass(frozen=True)
class BenchmarkResult:
    condition: str
    report: ScoreReport | None
    transcript: str
    error: str | None = None


def lint_questions(questions: Sequence[Question]) -> list[Finding]:
    """Keyword-avoidance lint: flag target-name fragments leaking into text.

    Splits each primary target on underscores and ampersands; any
    fragment of four or more characters appearing (case-insensitively)
    as a substring of the question text is reported as a warning.
    """
    findings: list[Finding] = []
    for q in questions:
        text = q.text.lower()
        for fragment in re.split(r"[_&]+", q.primary_target):
            fragment = fragment.strip()
            if len(fragment) >= _LINT_MIN_TOKEN and fragment.lower() in text:
                findings.append(Finding(
                    SEVERITY_WARNING, "KEYWORD_AVOIDANCE",
                    f"Q{q.id:02d}: target fragment {fragment!r} appears in the question text"))
    return findings


def decode_questions(obj: object) -> list[Question]:
    """Decode a question set or answer key; MalformedFile on a repeated id, which scores twice."""
    questions = list(decode(tuple[Question, ...], obj))
    _reject_repeated_ids(q.id for q in questions)
    return questions


def decode_selections(obj: object) -> SelectionSet:
    """Decode a selection set, the object ``sdsr --format json select`` prints.

    MalformedFile on a repeated id.
    """
    selection = decode(SelectionSet, obj)
    _reject_repeated_ids(item.question_id for item in selection.selections)
    return selection


def _reject_repeated_ids(ids: Iterable[int]) -> None:
    if repeated := sorted(qid for qid, count in Counter(ids).items() if count > 1):
        raise MalformedFile(f"duplicate question ids: {repeated}")


def questions_from_json(text: str | bytes) -> list[Question]:
    return decode_questions(parse(text, ""))


def parse_response(
    text: str, questions: Sequence[Question]
) -> tuple[SelectionSet, list[Finding]]:
    """Parse a response transcript into a selection set.

    Lines that do not look like answers are ignored (models often wrap
    the list in prose); lines that start like an answer but fail the
    grammar yield a MALFORMED_LINE finding and parsing continues.  An
    id outside the question set raises UnknownQuestion.  Questions with
    no matching line simply have no selection.
    """
    valid_ids = {q.id for q in questions}
    findings: list[Finding] = []
    by_id: dict[int, QuestionSelection] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        match = _LINE_RE.match(line)
        if match is None:
            if _ATTEMPT_RE.match(line):
                findings.append(Finding(
                    SEVERITY_WARNING, "MALFORMED_LINE",
                    f"line {line_no}: looks like an answer but does not parse: {line.strip()!r}"))
            continue
        digits = match.group(1)
        try:
            question_id = int(digits)
        except ValueError:  # past int()'s digit limit, so no question has this id
            raise UnknownQuestion(
                f"line {line_no}: a {len(digits)}-digit question id is not in the question set"
            ) from None
        if question_id not in valid_ids:
            raise UnknownQuestion(
                f"line {line_no}: Q{question_id} is not in the question set")
        parts = [p.strip() for p in match.group(2).split(";")]
        if len(parts) > 2 or not parts[0]:
            findings.append(Finding(
                SEVERITY_WARNING, "MALFORMED_LINE",
                f"line {line_no}: expected at most two selections: {line.strip()!r}"))
            continue
        primary = _parse_pair(parts[0])
        secondary = _parse_pair(parts[1]) if len(parts) == 2 and parts[1] else None
        if primary is None or (len(parts) == 2 and parts[1] and secondary is None):
            findings.append(Finding(
                SEVERITY_WARNING, "MALFORMED_LINE",
                f"line {line_no}: selection must be 'category | skill': {line.strip()!r}"))
            continue
        if question_id in by_id:
            findings.append(Finding(
                SEVERITY_WARNING, "DUPLICATE_LINE",
                f"line {line_no}: Q{question_id} answered twice; keeping the later line"))
        by_id[question_id] = QuestionSelection(
            question_id=question_id, primary=primary, secondary=secondary)
    ordered = tuple(by_id[qid] for qid in sorted(by_id))
    return SelectionSet(selections=ordered), findings


def _parse_pair(part: str) -> Selection | None:
    pieces = part.split("|")
    if len(pieces) != 2:
        return None
    category, skill = pieces[0].strip(), pieces[1].strip()
    if not category or not skill:
        return None
    return Selection(category=category, skill=skill)


def format_selections(sel: SelectionSet) -> str:
    """Render a selection set in the response grammar (inverse of parse)."""
    lines = []
    for item in sel.selections:
        line = f"Q{item.question_id:02d}: {item.primary.category} | {item.primary.skill}"
        if item.secondary is not None:
            line += f" ; {item.secondary.category} | {item.secondary.skill}"
        lines.append(line)
    return "\n".join(lines)


def score_responses(sel: SelectionSet, key: Sequence[Question]) -> ScoreReport:
    """Score a selection set against the answer key.

    A primary hit is an exact (trimmed, case-sensitive) match of the
    primary category; secondary credit requires the primary to be
    correct and the keyed secondary to appear in either selection slot.
    A selection for a question outside the key raises UnknownQuestion.
    """
    if not key:
        raise EmptyKey("scoring requires a non-empty answer key")
    if unknown := sorted({item.question_id for item in sel.selections} - {q.id for q in key}):
        raise UnknownQuestion(f"question ids {unknown} are not in the answer key")
    per_question: list[QuestionScore] = []
    for q in key:
        answer = sel.get(q.id)
        primary_hit = False
        secondary_hit = False
        if answer is not None:
            primary_hit = answer.primary.category.strip() == q.primary_target.strip()
            if primary_hit and q.secondary_target is not None:
                wanted = q.secondary_target.strip()
                slots = [answer.primary.category.strip()]
                if answer.secondary is not None:
                    slots.append(answer.secondary.category.strip())
                secondary_hit = wanted in slots
        score = 1.5 if (primary_hit and secondary_hit) else (1.0 if primary_hit else 0.0)
        per_question.append(QuestionScore(
            question_id=q.id, primary_hit=primary_hit, secondary_hit=secondary_hit, score=score))

    n = len(key)
    n_secondary = sum(1 for q in key if q.secondary_target is not None)
    primary_hits = sum(1 for q in per_question if q.primary_hit)
    secondary_hits = sum(1 for q in per_question if q.secondary_hit)
    return ScoreReport(
        per_question=tuple(per_question),
        primary_accuracy=primary_hits / n,
        secondary_hit_rate=(secondary_hits / n_secondary) if n_secondary else 0.0,
        total=primary_hits * 1.0 + secondary_hits * 0.5,
        max_total=n * 1.0 + n_secondary * 0.5,
    )


def run_benchmark(
    conditions: Sequence[GuidanceCondition],
    questions: Sequence[Question],
    backend: RouterBackend,
) -> list[BenchmarkResult]:
    """Run every condition as a fresh conversation and score it against *questions*.

    Each condition gets one composed message (system prompt, artifact,
    then the numbered questions), kept with its response as the
    result's transcript; nothing is written to disk.  A backend failure
    marks that condition as failed without aborting the sweep.
    Conditions run sequentially so remote backends see one conversation
    at a time; with the lexical backend repeated runs are bit-identical.
    """
    if not conditions:
        raise ValueError("run_benchmark needs at least one condition")
    pairs = [(q.id, q.text) for q in questions]
    results: list[BenchmarkResult] = []
    for cond in conditions:
        transcript = (cond.system_prompt + "\n\n"
                      + task_message(cond.library_artifact.decode("utf-8"), pairs))
        try:
            sel = select_tier2(pairs, [cond.library], backend, system_prompt=cond.system_prompt)
            transcript += "\n\n--- response ---\n" + format_selections(sel) + "\n"
            report = score_responses(sel, questions)
            results.append(BenchmarkResult(
                condition=cond.condition, report=report, transcript=transcript))
        except SdsrError as exc:
            results.append(BenchmarkResult(
                condition=cond.condition, report=None, transcript=transcript,
                error=f"{type(exc).__name__}: {exc}"))
    return results


def task_message(library_text: str, questions: Sequence[tuple[int, str]]) -> str:
    """The user turn of a selection conversation: the library, then the numbered tasks."""
    numbered = "\n".join(f"Q{qid:02d}. {text}" for qid, text in questions)
    return f"--- skills.json ---\n{library_text}\n--- tasks ---\n{numbered}"


def results_to_csv(results: Sequence[BenchmarkResult]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["condition", "question_id", "primary_hit", "secondary_hit", "score"])
    for res in results:
        if res.report is None:
            writer.writerow([res.condition, "", "", "", f"FAILED: {res.error}"])
            continue
        for q in res.report.per_question:
            writer.writerow([
                res.condition, q.question_id, int(q.primary_hit), int(q.secondary_hit), q.score])
    return buffer.getvalue()


def report_table(results: Sequence[BenchmarkResult]) -> str:
    """Aligned-text summary, one row per condition."""
    header = f"{'condition':<10} {'primary':>8} {'secondary':>10} {'total':>12}"
    lines = [header, "-" * len(header)]
    for res in results:
        if res.report is None:
            lines.append(f"{res.condition:<10} failed: {res.error or ''}")
            continue
        rep = res.report
        lines.append(
            f"{res.condition:<10} {rep.primary_hits:>5}/{len(rep.per_question):<2} "
            f"{rep.secondary_hits:>6}/{rep.secondary_keyed:<3} "
            f"{rep.total:>6.1f}/{rep.max_total:<5.1f}")
    return "\n".join(lines)
