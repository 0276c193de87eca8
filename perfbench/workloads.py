"""The three workloads: set-up, one op, its oracle check and its counts.

Each op is one closed-loop request from a single client.  Ops call the
library's public functions in the order the ``sdsr`` CLI handlers call
them, wrapping each call in a span named ``<module>.<function>``; the
spans record nothing unless the run is traced.

A workload exposes:

- ``setup()``: generate every input and return its digest; the runner
  times it.  Each call replaces the inputs with byte-identical ones;
- ``prepare(i)``: untimed per-op inputs;
- ``op(prepared, tracer)``: the timed request;
- ``check(i, prepared, out)``: oracle mismatches, as messages;
- ``counts(i, prepared, out)``: the deterministic per-op counts, which feed
  the end-to-end count metrics for ops ``0 .. counted_ops - 1``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

from sdsr import bench, corpus, distractors, engine, guidance, library, prefix

import inputs
import oracles

BLOCK_SIZE = prefix.DEFAULT_BLOCK_SIZE
RESPONSE_MARKER = "\n\n--- response ---\n"
# Scores of every condition on the committed fixture rounds: primaries hit,
# points, maximum points, and secondaries hit after the complement pass.
FIXTURE_ROUNDS = ("r1", "r2", "r3")
FIXTURE_FIGURES = (20, 20.5, 28.5, 17)


@dataclass
class RouteOutput:
    summaries: list[tuple[str, prefix.PrefixReadResult]]
    routed: engine.RoutingResult
    loaded_text: list[str]
    loaded: list[library.KnowledgeLibrary]
    selection: engine.SelectionSet


def route_and_select(directory: Path, query: str, tracer, backend) -> RouteOutput:
    """``sdsr route`` then ``sdsr select`` on what it routed to, for one query."""
    span = tracer.span
    with span("prefix.scan_registry"):
        registry = prefix.scan_registry(directory)
    with span("prefix.read_registry_summaries"):
        summaries, _ = prefix.read_registry_summaries(registry, block_size=BLOCK_SIZE)
    request = engine.RoutingRequest(
        query=query, summaries=tuple((fid, res.summary) for fid, res in summaries))
    with span("engine.route_tier1"):
        routed = engine.route_tier1(request, backend)
    paths = {entry.file_id: entry.path for entry in registry.entries}
    texts, loaded = [], []
    for scored in routed.selected:
        text = Path(paths[scored.file_id]).read_text(encoding="utf-8")
        with span("library.deserialize_library"):
            loaded.append(library.deserialize_library(text))
        texts.append(text)
    with span("engine.select_tier2"):
        selection = engine.select_tier2(query, loaded, backend)
    return RouteOutput(summaries, routed, texts, loaded, selection)


class SummaryParses:
    """Stdlib parses of registry summaries, reused while a file's bytes are unchanged.

    Only the files of the latest call are kept, so memory stays bounded by
    the registry however many libraries a run writes.
    """

    def __init__(self) -> None:
        self._by_content: dict[bytes, tuple[dict, int]] = {}

    def __call__(self, directory: Path, file_ids: list[str]) -> dict[str, tuple[dict, int]]:
        kept, out = {}, {}
        for file_id in file_ids:
            data = (directory / file_id).read_bytes()
            key = hashlib.blake2b(data, digest_size=16).digest()
            entry = self._by_content.get(key)
            if entry is None:
                entry = oracles.parse_file(data)[1:]
            kept[key] = out[file_id] = entry
        self._by_content = kept
        return out


def check_route(out: RouteOutput, directory: Path, query: str,
                summary_parses: SummaryParses) -> list[str]:
    """Oracle checks shared by route_wide and author_churn.

    Reparses every registry file with stdlib ``json``: each summary must
    match field by field, its end offset must match, and bytes read must
    stay within end offset + block size (the bounded-prefix claim).  Tier
    1 is rescored by brute force, tier 2 by a brute-force pair search.
    """
    problems = []
    parsed = {}
    full = summary_parses(directory, [file_id for file_id, _ in out.summaries])
    for file_id, res in out.summaries:
        value, end = full[file_id]
        parsed[file_id] = value
        if not oracles.summary_matches(res.summary, value):
            problems.append(f"{file_id}: prefix summary differs from full parse")
        if res.summary_end_offset != end:
            problems.append(f"{file_id}: summary_end_offset {res.summary_end_offset} != {end}")
        if res.bytes_read > end + BLOCK_SIZE:
            problems.append(f"{file_id}: read {res.bytes_read} bytes > {end} + {BLOCK_SIZE}")
    expected_ids = sorted(p.name for p in directory.iterdir() if p.suffix == ".json")
    if [fid for fid, _ in out.summaries] != expected_ids:
        problems.append("registry scan does not list the directory's files")
        return problems
    selected, expanded = oracles.tier1(
        query, [(fid, parsed[fid]) for fid in expected_ids],
        engine.DEFAULT_K_MAX, engine.DEFAULT_THRESHOLD)
    got = [(sf.file_id, sf.score) for sf in out.routed.selected]
    if [f for f, _ in got] != [f for f, _ in selected] or out.routed.expanded_scope != expanded \
            or any(abs(a - b) > 1e-12 for (_, a), (_, b) in zip(got, selected)):
        problems.append(f"tier 1 selected {got}, oracle {selected}")
        return problems
    bodies = [oracles.body_of(oracles.parse_file((directory / f).read_bytes())[0])
              for f, _ in got]
    primary, secondary = oracles.tier2(query, bodies)
    problems += compare_selection(out.selection, 1, primary, secondary)
    return problems


def compare_selection(selection: engine.SelectionSet, question_id: int,
                      primary: tuple[str, str], secondary: tuple[str, str] | None) -> list[str]:
    got = selection.get(question_id)
    if got is None:
        return [f"Q{question_id}: no selection, oracle {primary}"]
    got_primary = (got.primary.category, got.primary.skill)
    got_secondary = None if got.secondary is None else (got.secondary.category,
                                                        got.secondary.skill)
    if (got_primary, got_secondary) != (primary, secondary):
        return [f"Q{question_id}: selected {got_primary} ; {got_secondary}, "
                f"oracle {primary} ; {secondary}"]
    return []


def route_counts(out: RouteOutput, query: str) -> dict[str, float]:
    prefix_bytes = sum(res.bytes_read for _, res in out.summaries)
    loaded_bytes = sum(len(text.encode("utf-8")) for text in out.loaded_text)
    summary_tokens = sum(prefix.summary_token_estimate(res.summary) for _, res in out.summaries)
    return {
        "bytes_read": prefix_bytes + loaded_bytes,
        "tokens": summary_tokens + prefix.estimate_tokens(query)
        + sum(prefix.estimate_tokens(text) for text in out.loaded_text),
        "prefix.bytes_read": prefix_bytes,
        "prefix.summary_end": sum(res.summary_end_offset for _, res in out.summaries),
        "engine.route_tier1.entries_scored": sum(
            len(res.summary.category_index) for _, res in out.summaries),
        "engine.route_tier1.expanded_scope": int(out.routed.expanded_scope),
        "engine.select_tier2.pairs_scored": sum(lib.total_skills for lib in out.loaded),
        "engine.select_tier2.guard_dropped": sum(
            1 for flag in out.selection.flags if "dropped" in flag or "cleared" in flag),
        "library.deserialize_library.bytes": loaded_bytes,
    }


def recall_and_accuracy(out: RouteOutput, target_file: str | None,
                        target_category: str | None) -> dict[str, float]:
    if target_file is None:
        return {}
    chosen = out.selection.get(1)
    return {
        "recall_hits": int(any(sf.file_id == target_file for sf in out.routed.selected)),
        "accuracy_hits": int(chosen is not None and chosen.primary.category == target_category),
        "targeted": 1,
    }


class FirstVisitCheck:
    """Full oracle check on a position's first visit; later visits must repeat it.

    Sound only where a cycle position's inputs never change, so the
    program's output for that position must not change either.
    """

    def __init__(self) -> None:
        self.seen: dict[int, tuple[list[str], tuple]] = {}

    def __call__(self, position: int, signature: tuple, full_check) -> list[str]:
        if position not in self.seen:
            self.seen[position] = (full_check(), signature)
        problems, first = self.seen[position]
        if signature != first:
            return problems + [f"position {position}: output differs from its first visit"]
        return problems


class RouteWide:
    """Tier-1 prefix reads over a wide registry of mixed body sizes."""

    name = "route_wide"

    def __init__(self, seed: int, workdir: Path, fixtures: Path) -> None:
        self.seed = seed
        self.directory = workdir / "registry"
        self.backend = engine.LexicalBackend()
        self.first_visit = FirstVisitCheck()
        self.summary_parses = SummaryParses()
        self.inputs: inputs.RouteInputs | None = None
        self.cycle = inputs.ROUTE_CYCLE
        self.counted_ops = inputs.ROUTE_CYCLE

    def setup(self) -> str:
        shutil.rmtree(self.directory, ignore_errors=True)
        self.inputs = inputs.write_route_inputs(self.seed, self.directory)
        return self.inputs.digest

    def prepare(self, i: int) -> inputs.RouteQuery:
        return self.inputs.queries[i % self.cycle]

    def op(self, query: inputs.RouteQuery, tracer) -> RouteOutput:
        return route_and_select(self.directory, query.text, tracer, self.backend)

    def check(self, i: int, query: inputs.RouteQuery, out: RouteOutput) -> list[str]:
        signature = (tuple(out.summaries), out.routed, out.selection)
        return self.first_visit(i % self.cycle, signature,
                                lambda: check_route(out, self.directory, query.text,
                                                    self.summary_parses))

    def counts(self, i: int, query: inputs.RouteQuery, out: RouteOutput) -> dict[str, float]:
        return route_counts(out, query.text) | recall_and_accuracy(
            out, query.target_file, query.target_category)


@dataclass
class SweepOutput:
    condition: guidance.GuidanceCondition
    result: bench.BenchmarkResult
    parsed: engine.SelectionSet
    findings: list[library.Finding]
    report: bench.ScoreReport
    completed: engine.SelectionSet
    completed_report: bench.ScoreReport


class SweepRounds:
    """One guidance condition over one round library per op, as ``sdsr bench`` runs it."""

    name = "sweep_rounds"

    def __init__(self, seed: int, workdir: Path, fixtures: Path) -> None:
        self.seed = seed
        self.fixtures = fixtures
        self.backend = engine.LexicalBackend()
        self.first_visit = FirstVisitCheck()
        self.inputs: inputs.SweepInputs | None = None
        self.cycle = (3 + inputs.SWEEP_VOLUME_ROUNDS) * len(inputs.CONDITIONS)
        self.counted_ops = self.cycle

    def setup(self) -> str:
        self.inputs = inputs.sweep_inputs(self.seed, self.fixtures)
        return self.inputs.digest

    def prepare(self, i: int) -> tuple[str, library.KnowledgeLibrary, str]:
        round_index, condition = self.inputs.order[i % self.cycle]
        round_id, lib = self.inputs.rounds[round_index]
        return round_id, lib, condition

    def op(self, prepared: tuple[str, library.KnowledgeLibrary, str], tracer) -> SweepOutput:
        _, lib, condition = prepared
        questions = self.inputs.questions
        span = tracer.span
        with span("guidance.build_condition"):
            cond = guidance.build_condition(lib, condition, self.inputs.prompts)
        with span("bench.run_benchmark"):
            [result] = bench.run_benchmark([cond], questions, self.backend)
        response = result.transcript.split(RESPONSE_MARKER, 1)[1]
        with span("bench.parse_response"):
            parsed, findings = bench.parse_response(response, questions)
        with span("bench.score_responses"):
            report = bench.score_responses(parsed, questions)
        with span("engine.apply_complement_pass"):
            completed = engine.apply_complement_pass(parsed, lib)
        with span("bench.score_responses"):
            completed_report = bench.score_responses(completed, questions)
        return SweepOutput(cond, result, parsed, findings, report, completed, completed_report)

    def check(self, i: int, prepared, out: SweepOutput) -> list[str]:
        signature = (out.condition, out.result, out.parsed, tuple(out.findings), out.report,
                     out.completed, out.completed_report)
        return self.first_visit(i % self.cycle, signature, lambda: self._oracle(prepared[0], out))

    def _oracle(self, round_id: str, out: SweepOutput) -> list[str]:
        problems = []
        if out.report != out.result.report:
            problems.append("parse-then-score differs from run_benchmark's report")
        if out.findings:
            problems.append(f"response did not parse cleanly: {out.findings}")
        body = oracles.body_of(json.loads(out.condition.library_artifact))
        questions = self.inputs.questions
        expected, completed = {}, {}
        for q in questions:
            primary, secondary = oracles.tier2(q.text, [body])
            after = oracles.complement_secondary(body, primary[0], secondary)
            problems += compare_selection(out.parsed, q.id, primary, secondary)
            problems += compare_selection(out.completed, q.id, primary, after)
            expected[q.id] = (primary[0], secondary and secondary[0])
            completed[q.id] = (primary[0], after and after[0])
        key = [(q.id, q.primary_target, q.secondary_target) for q in questions]
        for name, report, selections in (("report", out.report, expected),
                                         ("complement-pass report", out.completed_report,
                                          completed)):
            rows = [(s.question_id, s.primary_hit, s.secondary_hit, s.score)
                    for s in report.per_question]
            if (rows, report.total, report.max_total) != oracles.score(key, selections):
                problems.append(f"{name} differs from the brute-force scorer")
        figures = (out.report.primary_hits, out.report.total, out.report.max_total,
                   out.completed_report.secondary_hits)
        if round_id in FIXTURE_ROUNDS and figures != FIXTURE_FIGURES:
            problems.append(f"{round_id}: (primaries, points, max, secondaries after the "
                            f"complement pass) = {figures}, expected {FIXTURE_FIGURES}")
        return problems

    def counts(self, i: int, prepared, out: SweepOutput) -> dict[str, float]:
        _, lib, _ = prepared
        artifact = out.condition.library_artifact
        message = out.result.transcript.split(RESPONSE_MARKER, 1)[0]
        body = oracles.body_of(json.loads(artifact))
        questions = self.inputs.questions
        chosen = {q.id: out.parsed.get(q.id) for q in questions}
        return {
            "bytes_read": len(artifact),
            "tokens": prefix.estimate_tokens(message),
            "recall_hits": sum(1 for q in questions if q.primary_target in body),
            "accuracy_hits": sum(
                1 for q in questions if chosen[q.id] is not None
                and chosen[q.id].primary.category.strip() == q.primary_target.strip()),
            "targeted": len(questions),
            "guidance.build_condition.artifact_bytes": len(artifact),
            "bench.parse_response.malformed": sum(
                1 for f in out.findings if f.code == "MALFORMED_LINE"),
            "engine.select_tier2.pairs_scored": len(questions) * lib.total_skills,
        }


@dataclass(frozen=True)
class ChurnPrepared:
    tag: int
    slot: int
    build: inputs.ChurnBuild
    doc: inputs.ChurnDocument


@dataclass
class ChurnOutput:
    expanded: distractors.ExpansionResult
    library: library.KnowledgeLibrary
    findings: list[library.Finding]
    text: str
    route: RouteOutput
    doc: corpus.SectionedDocument
    coload: set[str]


class AuthorChurn:
    """Author a fresh library, overwrite a registry slot, and route to it at once."""

    name = "author_churn"

    def __init__(self, seed: int, workdir: Path, fixtures: Path) -> None:
        self.seed = seed
        self.directory = workdir / "registry"
        self.backend = engine.LexicalBackend()
        self.summary_parses = SummaryParses()
        self.cycle = inputs.CHURN_SLOTS
        self.counted_ops = 2 * inputs.CHURN_SLOTS

    def setup(self) -> str:
        shutil.rmtree(self.directory, ignore_errors=True)
        return inputs.write_churn_slots(self.seed, self.directory)

    def prepare(self, i: int) -> ChurnPrepared:
        tag = inputs.CHURN_SLOTS + i
        return ChurnPrepared(tag, i % inputs.CHURN_SLOTS, inputs.churn_build(self.seed, tag),
                             inputs.churn_document(self.seed, tag))

    def op(self, p: ChurnPrepared, tracer) -> ChurnOutput:
        span = tracer.span
        with span("distractors.expand_round"):
            expanded = distractors.expand_round(p.build.base, p.build.config)
        with span("guidance.build_summary"):
            lib = guidance.build_summary(expanded.library)
        with span("library.validate_library"):
            findings = library.validate_library(lib)
        with span("library.serialize_library"):
            text = library.serialize_library(lib)
        (self.directory / inputs.churn_file_id(p.slot)).write_text(text, encoding="utf-8")
        route = route_and_select(self.directory, p.build.query, tracer, self.backend)
        with span("corpus.section_document"):
            doc = corpus.section_document(p.doc.text, p.doc.rules, doc_id=f"doc-{p.tag}")
        with span("corpus.build_doc_summary"):
            doc_summary, _ = corpus.build_doc_summary(doc, p.doc.digests, p.doc.refs)
        with span("corpus.resolve_coload"):
            coload = corpus.resolve_coload(p.doc.query, doc_summary, doc)
        return ChurnOutput(expanded, lib, findings, text, route, doc, coload)

    def check(self, i: int, p: ChurnPrepared, out: ChurnOutput) -> list[str]:
        problems = [f"validation error {f.code}: {f.message}"
                    for f in out.findings if f.severity == library.SEVERITY_ERROR]
        if library.deserialize_library(out.text) != out.library:
            problems.append("deserialize(serialize(lib)) != lib")
        slot_id = inputs.churn_file_id(p.slot)
        read_back = dict(out.route.summaries).get(slot_id)
        if read_back is None or read_back.summary != out.library.summary:
            problems.append(f"{slot_id}: summary read back differs from the written library's")
        problems += check_route(out.route, self.directory, p.build.query, self.summary_parses)

        sections = out.doc.sections
        if "".join(s.text for s in sections) != p.doc.text:
            problems.append("sections do not tile the document")
        roles = [s.role for s in sections]
        if roles != ["other", "claimant", "respondent", "reasoning", "holding"] or not all(
                s.text.startswith(h) for s, h in zip(sections[1:], inputs.JUDGMENT_HEADERS)):
            problems.append(f"unexpected sectioning {roles}")
        expected = oracles.coload(
            p.doc.query, [(s.section_id, s.text) for s in sections],
            [(r.from_section, r.to_section, r.trigger) for r in p.doc.refs])
        if out.coload != expected:
            problems.append(f"co-load {sorted(out.coload)}, oracle {sorted(expected)}")
        return problems

    def counts(self, i: int, p: ChurnPrepared, out: ChurnOutput) -> dict[str, float]:
        return route_counts(out.route, p.build.query) | recall_and_accuracy(
            out.route, inputs.churn_file_id(p.slot), p.build.target_category) | {
            "library.serialize_library.bytes": len(out.text.encode("utf-8")),
            "distractors.expand_round.categories_added":
                len(out.expanded.library.categories) - len(p.build.base.categories),
        }


WORKLOADS = {w.name: w for w in (RouteWide, SweepRounds, AuthorChurn)}
