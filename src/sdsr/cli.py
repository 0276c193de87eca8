"""Single entry point: ``sdsr <subcommand>``.

Exit codes: 0 success, 1 validation errors in the data, 2 usage errors,
3 transport/backend failures.  ``--format json`` prints machine-readable
output on stdout; warnings and progress notes go to stderr only, so
stdout stays byte-stable for identical inputs on lexical-backend paths.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, TypeVar

from . import bench, corpus, distractors, engine, guidance, prefix
from .errors import IoFailure, MalformedFile, SdsrError, TransportError
from .library import (
    Finding,
    SEVERITY_ERROR,
    decode_library,
    has_errors,
    serialize_library,
    validate_library,
)
from .wire import decode, dumps, encode, parse

_T = TypeVar("_T")

# Selections text is JSON when it opens an object, or opens a list whose next
# non-blank character starts a JSON value, closes the list or is the end of the
# text.  So a bare or truncated list still fails as JSON, while a reply
# transcript such as "[model reply]" then "Q01: ..." is read as response text.
_JSON_SELECTIONS = re.compile(r'\s*(?:\{|\[\s*(?:[][{"0-9-]|(?:true|false|null)\b|\Z))')

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_TRANSPORT = 3


@dataclass(frozen=True)
class CommandOutcome:
    exit_code: int
    stdout_payload: str


@dataclass(frozen=True)
class _BenchRow:
    """A scored condition as ``sdsr bench --format json`` prints it; fields in wire order."""

    condition: str
    primary_accuracy: float
    secondary_hit_rate: float
    total: float
    max_total: float


@dataclass(frozen=True)
class _FailedBenchRow:
    """A condition whose backend failed, as ``sdsr bench --format json`` prints it."""

    condition: str
    error: str


def _read_text(path: str) -> str:
    """The UTF-8 text of *path*, less a leading BOM, as the prefix reader skips one."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"{path}: not UTF-8: {exc}") from None


def _decode_text(path: str, text: str, decoder: Callable[[object], _T]) -> _T:
    """Parse *text*, read from *path*, and decode it; every MalformedFile starts with *path*."""
    try:
        return decoder(parse(text, ""))
    except MalformedFile as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _load(path: str, decoder: Callable[[object], _T]) -> _T:
    """Read, parse and decode the JSON input file *path*: the CLI's one loader."""
    return _decode_text(path, _read_text(path), decoder)


def _write(files: dict[Path, str | bytes]) -> None:
    for path, content in files.items():  # in order: bytes as given, text as UTF-8
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            if isinstance(content, bytes):
                path.write_bytes(content)
            else:
                path.write_text(content, encoding="utf-8")
        except OSError as exc:
            raise IoFailure(f"cannot write to {path.parent}: {exc}") from exc


def _load_prompts(path: str | None) -> guidance.PromptConfig:
    return _load(path, partial(decode, guidance.PromptConfig)) if path else guidance.PromptConfig()


def _make_backend(name: str, config_path: str | None):
    """The backend *name*; a remote one is set by the 'remote' section of the config file."""

    def remote_section(obj: object) -> object:
        remote = decode(dict[str, object], obj).get("remote")
        if name != "remote" or not remote:
            return remote
        from .remote import RemoteConfig  # imports requests, which only this backend needs
        return decode(RemoteConfig, remote, "remote")

    # The config file is read for either backend, so a malformed one always fails.
    remote = _load(config_path, remote_section) if config_path else None
    if name == "lexical":
        return engine.LexicalBackend()
    if not remote:
        raise SdsrError("remote backend requires a config file with a 'remote' section")
    from .remote import RemoteBackend
    return RemoteBackend(remote)


def _decode_sidecar(obj: object) -> tuple[corpus.SectionedDocument, corpus.DocSummary]:
    """A ``sdsr structure`` sidecar: the document, and its summary or an empty one."""
    doc = decode(corpus.SectionedDocument, obj)
    summary = (decode(corpus.DocSummary, obj["summary"], "summary") if "summary" in obj
               else corpus.DocSummary(doc_id=doc.doc_id))
    if summary.doc_id != doc.doc_id:
        raise MalformedFile(f"summary.doc_id: {summary.doc_id!r} "
                            f"does not name the document {doc.doc_id!r}")
    return doc, summary


def _print_findings_stderr(findings: list[Finding]) -> None:
    for f in findings:
        print(f"{f.severity} {f.code}: {f.message}", file=sys.stderr)


def _emit(args, payload: object, table: str) -> str:
    if args.format == "json":
        return dumps(payload)
    return table


# --- subcommand handlers -----------------------------------------------


def _cmd_validate(args) -> CommandOutcome:
    lib = _load(args.infile, decode_library)
    findings = validate_library(lib, strict=args.strict)
    table = "\n".join(f"{f.severity} {f.code}: {f.message}" for f in findings) or "no findings"
    out = _emit(args, {"findings": encode(findings)}, table)
    code = EXIT_VALIDATION if has_errors(findings) else EXIT_OK
    return CommandOutcome(code, out)


def _cmd_summarize(args) -> CommandOutcome:
    lib = _load(args.infile, decode_library)
    summarized = guidance.build_summary(lib)
    _write({Path(args.outfile): serialize_library(summarized)})
    payload = {
        "out": args.outfile,
        "categories": len(summarized.categories),
        "skills": summarized.total_skills,
    }
    table = (f"wrote {args.outfile}: {payload['categories']} categories, "
             f"{payload['skills']} skills indexed")
    return CommandOutcome(EXIT_OK, _emit(args, payload, table))


def _cmd_strip(args) -> CommandOutcome:
    lib = _load(args.infile, decode_library)
    _write({Path(args.outfile): serialize_library(guidance.strip_summary(lib))})
    payload = {"out": args.outfile}
    return CommandOutcome(EXIT_OK, _emit(args, payload, f"wrote {args.outfile}"))


def _cmd_condition(args) -> CommandOutcome:
    lib = _load(args.infile, decode_library)
    prompts = _load_prompts(args.prompts)
    cond = guidance.build_condition(lib, args.version, prompts)
    lib_path = Path(args.out_dir, f"library_{cond.condition}.json")
    prompt_path = Path(args.out_dir, f"prompt_{cond.condition}.txt")
    _write({lib_path: cond.library_artifact, prompt_path: cond.system_prompt + "\n"})
    payload = {"condition": cond.condition, "library": str(lib_path), "prompt": str(prompt_path)}
    table = f"condition {cond.condition}: {lib_path} + {prompt_path}"
    return CommandOutcome(EXIT_OK, _emit(args, payload, table))


def _cmd_expand(args) -> CommandOutcome:
    lib = _load(args.infile, decode_library)
    cfg = _load(args.specs, partial(decode, distractors.RoundConfig))
    result = distractors.expand_round(lib, cfg)
    _write({Path(args.outfile): serialize_library(result.library)})
    # A library that sdsr validate would reject is a data error here too.
    report = [*result.report,
              *(f for f in validate_library(result.library) if f.severity == SEVERITY_ERROR)]
    _print_findings_stderr(report)
    payload = {
        "out": args.outfile,
        "categories": len(result.library.categories),
        "skills": result.library.total_skills,
        "findings": encode(report),
    }
    table = (f"wrote {args.outfile}: {payload['categories']} categories, "
             f"{payload['skills']} skills")
    code = EXIT_VALIDATION if has_errors(report) else EXIT_OK
    return CommandOutcome(code, _emit(args, payload, table))


def _cmd_route(args) -> CommandOutcome:
    backend = _make_backend(args.backend, args.config)
    registry = prefix.scan_registry(args.directory, extension=args.extension)
    summaries, findings = prefix.read_registry_summaries(registry)
    _print_findings_stderr(findings)
    request = engine.RoutingRequest(
        query=args.query,
        summaries=tuple((fid, res.summary) for fid, res in summaries),
        k_max=args.k_max,
        threshold=args.threshold,
    )
    result = engine.route_tier1(request, backend)
    payload = encode(result)  # selected, expanded_scope, trace
    table = "\n".join(f"{sf.file_id}\t{sf.score:.4f}" for sf in result.selected)
    if result.expanded_scope:
        table += "\n(expanded scope: no file met the threshold)"
    return CommandOutcome(EXIT_OK, _emit(args, payload, table))


def _cmd_select(args) -> CommandOutcome:
    backend = _make_backend(args.backend, args.config)
    paths = args.libs.split(",")
    if "" in paths:
        raise ValueError(f"--libs holds an empty file name: {args.libs!r}")
    libraries = [_load(p, decode_library) for p in paths]
    selection = engine.select_tier2(args.query, libraries, backend)
    if args.complement_pass and len(libraries) > 1:
        print(f"WARNING --complement-pass resolves complements in {paths[0]} only", file=sys.stderr)
    if args.complement_pass:
        selection = engine.apply_complement_pass(selection, libraries[0])
    for flag in selection.flags:
        print(f"WARNING {flag}", file=sys.stderr)
    payload = encode(selection)
    table = bench.format_selections(selection) or "(no selection)"
    return CommandOutcome(EXIT_OK, _emit(args, payload, table))


def _cmd_bench(args) -> CommandOutcome:
    names = [name.strip().upper() for name in args.conditions.split(",")]  # as build_condition does
    if "" in names:
        raise ValueError(f"--conditions holds an empty condition name: {args.conditions!r}")
    if repeated := [name for at, name in enumerate(names) if name in names[:at]]:
        raise ValueError(f"--conditions repeats condition {repeated[0]!r}: {args.conditions!r}")
    backend = _make_backend(args.backend, args.config)
    lib = _load(args.lib, decode_library)
    questions = _load(args.questions, bench.decode_questions)
    _print_findings_stderr(bench.lint_questions(questions))
    prompts = _load_prompts(args.prompts)
    conditions = [guidance.build_condition(lib, name, prompts) for name in names]
    results = bench.run_benchmark(conditions, questions, backend)
    if args.out_dir is not None:
        files = {Path(args.out_dir, f"transcript_{res.condition}.txt"): res.transcript
                 for res in results}
        _write(files | {Path(args.out_dir, "report.csv"): bench.results_to_csv(results)})
    payload = encode([
        _FailedBenchRow(res.condition, res.error) if res.report is None else _BenchRow(
            res.condition, res.report.primary_accuracy, res.report.secondary_hit_rate,
            res.report.total, res.report.max_total)
        for res in results])
    table = bench.report_table(results)
    code = EXIT_TRANSPORT if any(r.report is None for r in results) else EXIT_OK
    return CommandOutcome(code, _emit(args, payload, table))


def _cmd_score(args) -> CommandOutcome:
    key = _load(args.key, bench.decode_questions)
    raw = _read_text(args.selections)
    if _JSON_SELECTIONS.match(raw):
        selection = _decode_text(args.selections, raw, bench.decode_selections)
    else:
        selection, findings = bench.parse_response(raw, key)
        _print_findings_stderr(findings)
    report = bench.score_responses(selection, key)
    payload = encode(report)
    table = (
        f"total {report.total}/{report.max_total}  "
        f"primary {report.primary_hits}/{len(report.per_question)}  "
        f"secondary {report.secondary_hits}/{report.secondary_keyed}"
    )
    return CommandOutcome(EXIT_OK, _emit(args, payload, table))


def _cmd_structure(args) -> CommandOutcome:
    text = _read_text(args.infile)
    rules = _load(args.rules, partial(decode, tuple[corpus.SectionRule, ...]))
    if not rules:
        raise MalformedFile(f"{args.rules}: ruleset must not be empty")
    doc = corpus.section_document(text, rules, doc_id=args.doc_id)
    summary = None
    if args.digests or args.refs:
        digests = _load(args.digests, partial(decode, dict[str, str])) if args.digests else {}
        refs = (_load(args.refs, partial(decode, tuple[corpus.CrossReference, ...]))
                if args.refs else ())
        summary, findings = corpus.build_doc_summary(doc, digests, refs)
        _print_findings_stderr(findings)
    sidecar = encode(doc)
    if summary is not None:
        sidecar["summary"] = encode(summary)
    _write({Path(args.outfile): dumps(sidecar) + "\n"})
    payload = {
        "out": args.outfile,
        "sections": [{"section_id": s.section_id, "role": s.role} for s in doc.sections],
    }
    table = "\n".join(f"{s.section_id}\t{s.role}" for s in doc.sections)
    return CommandOutcome(EXIT_OK, _emit(args, payload, table))


def _cmd_coload(args) -> CommandOutcome:
    doc, summary = _load(args.infile, _decode_sidecar)
    section_ids = sorted(corpus.resolve_coload(args.query, summary, doc))
    payload = {"sections": section_ids}
    return CommandOutcome(EXIT_OK, _emit(args, payload, "\n".join(section_ids)))


# --- parser -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdsr",
        description="Summary-prefixed knowledge libraries: validate, route, benchmark.",
        epilog="Exit codes: 0 ok, 1 validation errors, 2 usage error, "
               "3 transport/backend failure.",
    )
    parser.add_argument("--format", choices=("json", "table"), default="table",
                        help="stdout payload shape (default: table)")
    parser.add_argument("--config", default=None,
                        help="JSON config file; its 'remote' section sets the remote backend")
    sub = parser.add_subparsers(dest="command", required=True)

    def common_lib(p):
        p.add_argument("--in", dest="infile", required=True, help="library file")

    p = sub.add_parser("validate", help="check a library against every invariant")
    common_lib(p)
    p.add_argument("--strict", action="store_true", help="escalate warnings to errors")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("summarize", help="build or rebuild the summary block")
    common_lib(p)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=_cmd_summarize)

    p = sub.add_parser("strip", help="remove the summary block")
    common_lib(p)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=_cmd_strip)

    p = sub.add_parser("condition", help="materialize one guidance condition")
    common_lib(p)
    p.add_argument("--version", required=True, choices=guidance.CONDITIONS)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--prompts", default=None,
                   help="prompt config JSON (default: built-in templates, no high_priority rules)")
    p.set_defaults(func=_cmd_condition)

    p = sub.add_parser("expand", help="inject one round of distractors")
    common_lib(p)
    p.add_argument("--specs", required=True, help="round config JSON: one round")
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("route", help="tier-1 summary-scan routing over a directory")
    p.add_argument("--query", required=True)
    p.add_argument("--dir", dest="directory", required=True)
    p.add_argument("--ext", dest="extension", default=".json")
    p.add_argument("--k-max", type=int, default=engine.DEFAULT_K_MAX)
    p.add_argument("--threshold", type=float, default=engine.DEFAULT_THRESHOLD)
    p.add_argument("--backend", choices=("lexical", "remote"), default="lexical")
    p.set_defaults(func=_cmd_route)

    p = sub.add_parser("select", help="tier-2 selection over loaded libraries")
    p.add_argument("--query", required=True)
    p.add_argument("--libs", required=True, help="comma-separated library files")
    p.add_argument("--backend", choices=("lexical", "remote"), default="lexical")
    p.add_argument("--complement-pass", action="store_true",
                   help="derive secondaries from the first library's complement fields")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("bench", help="run guidance conditions over a question set")
    p.add_argument("--conditions", required=True, help="e.g. A,B,C,D")
    p.add_argument("--lib", required=True)
    p.add_argument("--questions", required=True)
    p.add_argument("--prompts", default=None,
                   help="prompt config JSON (default: built-in templates, no high_priority rules)")
    p.add_argument("--backend", choices=("lexical", "remote"), default="lexical")
    p.add_argument("--out-dir", default=None, help="persist transcripts and report.csv here")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("score", help="score selections against an answer key")
    p.add_argument("--selections", required=True,
                   help="selection-set JSON, as select --format json prints it, "
                        "or a response-format text file")
    p.add_argument("--key", required=True, help="question/key JSON file")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("structure", help="section a document by header rules")
    p.add_argument("--rules", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--doc-id", default="doc")
    p.add_argument("--digests", default=None, help="role-to-digest JSON")
    p.add_argument("--refs", default=None, help="cross-reference JSON")
    p.set_defaults(func=_cmd_structure)

    p = sub.add_parser("coload", help="resolve which sections a query co-loads")
    p.add_argument("--query", required=True)
    p.add_argument("--in", dest="infile", required=True, help="structured .sdsr.json file")
    p.set_defaults(func=_cmd_coload)

    return parser


def dispatch(argv: list[str]) -> CommandOutcome:
    """Parse and run one command; never raises for expected failures."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage to stderr
        code = EXIT_OK if exc.code == 0 else EXIT_USAGE
        return CommandOutcome(code, "")
    try:
        return args.func(args)
    except SdsrError as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        code = (EXIT_TRANSPORT if isinstance(exc, TransportError)
                else EXIT_USAGE if isinstance(exc, IoFailure) else EXIT_VALIDATION)
        return CommandOutcome(code, "")
    except ValueError as exc:
        print(f"ERROR {exc}", file=sys.stderr)
        return CommandOutcome(EXIT_USAGE, "")


def main(argv: list[str] | None = None) -> int:
    outcome = dispatch(sys.argv[1:] if argv is None else argv)
    if outcome.stdout_payload:
        print(outcome.stdout_payload)
    return outcome.exit_code


if __name__ == "__main__":
    sys.exit(main())
