import hashlib
import json
import shutil
from pathlib import Path

import pytest

from sdsr import prefix
from sdsr.bench import decode_selections, format_selections
from sdsr.cli import CommandOutcome, dispatch, main
from sdsr.guidance import PromptConfig, expand_extended_prompt
from sdsr.library import deserialize_library
from sdsr.wire import LONG_INTEGER

from _fixtures import FIXTURES_DIR


@pytest.fixture(scope="module")
def fixture_dir():
    """The committed fixtures, read in place: no test may write here."""
    return FIXTURES_DIR


def run(argv):
    return dispatch(argv)


class TestValidate:
    def test_clean_library_exits_zero(self, fixture_dir):
        outcome = run(["validate", "--in", str(fixture_dir / "library_r1.json")])
        assert outcome.exit_code == 0
        assert outcome.stdout_payload == "no findings"

    def test_count_mismatch_exits_one_and_lists_finding(self, fixture_dir, tmp_path):
        data = json.loads((fixture_dir / "library_r1.json").read_text(encoding="utf-8"))
        data["_summary"]["category_index"][0]["skill_count"] += 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
        outcome = run(["validate", "--in", str(bad)])
        assert outcome.exit_code == 1
        assert "COUNT_MISMATCH" in outcome.stdout_payload

    def test_json_format_is_parseable(self, fixture_dir):
        outcome = run(["--format", "json", "validate",
                       "--in", str(fixture_dir / "library_r1.json")])
        assert json.loads(outcome.stdout_payload) == {"findings": []}

    def test_missing_file_is_usage_error(self, tmp_path):
        outcome = run(["validate", "--in", str(tmp_path / "nope.json")])
        assert outcome.exit_code == 2


class TestUsage:
    def test_unknown_subcommand_exits_two(self, capsys):
        outcome = run(["frobnicate"])
        assert outcome.exit_code == 2
        capsys.readouterr()

    def test_no_arguments_exits_two(self, capsys):
        outcome = run([])
        assert outcome.exit_code == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        outcome = run(["--help"])
        assert outcome.exit_code == 0
        capsys.readouterr()



def error_lines(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return [line for line in err.splitlines() if line.startswith("ERROR")]


@pytest.mark.parametrize("command", [
    ["validate", "--in", "{fixtures}/library_r1.json", "--hint-max", "100"],
    ["summarize", "--in", "{fixtures}/library_r1.json", "--out", "{tmp}/out.json",
     "--hint-max", "100"],
    ["condition", "--version", "B", "--in", "{fixtures}/library_r1.json", "--out-dir", "{tmp}/out",
     "--hint-max", "100"],
    ["expand", "--in", "{fixtures}/library_r1.json", "--specs", "{fixtures}/round2_specs.json",
     "--out", "{tmp}/out.json", "--hint-max", "100"],
    ["bench", "--conditions", "A,B", "--lib", "{fixtures}/library_r1.json",
     "--questions", "{fixtures}/questions_20.json", "--out-dir", "{tmp}/out", "--hint-max", "100"],
    ["structure", "--rules", "{fixtures}/judgment_rules.json", "--in", "{fixtures}/judgment.txt",
     "--out", "{tmp}/out.json", "--digests", "{fixtures}/judgment_digests.json", "--budget", "400"],
], ids=["validate", "summarize", "condition", "expand", "bench", "structure"])
def test_summary_bounds_are_not_options(fixture_dir, tmp_path, capsys, command):
    # The hint bound and the document-summary budget are constants, so every
    # writer emits what validate accepts; even their values are no option.
    argv = [arg.format(tmp=tmp_path, fixtures=fixture_dir) for arg in command]
    outcome = run(argv)
    assert outcome == CommandOutcome(2, "")
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


_FIXTURE_LIB = "{fixtures}/library_r1.json"
_QUESTIONS = "{fixtures}/questions_20.json"
_BODY_KEY = ["--body-key", "X"]
_EXPAND = ["expand", "--in", _FIXTURE_LIB, "--specs", "{fixtures}/round2_specs.json",
           "--out", "{tmp}/out.json"]


@pytest.mark.parametrize("command, removed", [
    (["route", "--query", "x", "--dir", "{fixtures}"], ["--lenient"]),
    (["validate", "--in", _FIXTURE_LIB], _BODY_KEY),
    (["summarize", "--in", _FIXTURE_LIB, "--out", "{tmp}/out.json"], _BODY_KEY),
    (["strip", "--in", _FIXTURE_LIB, "--out", "{tmp}/out.json"], _BODY_KEY),
    (["condition", "--version", "B", "--in", _FIXTURE_LIB, "--out-dir", "{tmp}/out"], _BODY_KEY),
    (_EXPAND, _BODY_KEY),
    (["select", "--query", "x", "--libs", _FIXTURE_LIB], _BODY_KEY),
    (["bench", "--conditions", "A", "--lib", _FIXTURE_LIB, "--questions", _QUESTIONS,
      "--out-dir", "{tmp}/out"], _BODY_KEY),
    (_EXPAND, ["--round", "2"]),
], ids=["route-lenient", "validate-body-key", "summarize-body-key", "strip-body-key",
        "condition-body-key", "expand-body-key", "select-body-key", "bench-body-key",
        "expand-round"])
def test_input_shape_switches_are_not_options(fixture_dir, tmp_path, capsys, command, removed):
    # Each input file has one shape, so no option chooses among shapes.
    outcome = run([arg.format(tmp=tmp_path, fixtures=fixture_dir) for arg in command + removed])
    assert outcome == CommandOutcome(2, "")
    assert f"unrecognized arguments: {' '.join(removed)}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


_STRUCTURE = ["structure", "--in", "{fixtures}/judgment.txt", "--out", "{tmp}/out.json"]
# Each JSON input option: a command that reads it from {bad}, what {bad} holds,
# and the decode error that follows the file name.
_DECODE_ERRORS = {
    "in": (["validate", "--in", "{bad}"], {"_summary": {}, "Body": {"A": {"skills": 3}}},
           "Body.A.skills: expected a list, got an integer"),
    "lib": (["bench", "--conditions", "A", "--lib", "{bad}", "--questions", _QUESTIONS],
            {"Body": {}, "_provenance": []}, "_provenance: expected an object, got a list"),
    "libs": (["select", "--query", "x", "--libs", _FIXTURE_LIB + ",{bad}"], [],
             "expected an object, got a list"),
    "questions": (["bench", "--conditions", "A", "--lib", _FIXTURE_LIB, "--questions", "{bad}"],
                  [{"id": "1", "text": "t", "primary_target": "A"}],
                  "[0].id: expected an integer, got a string"),
    "key": (["score", "--selections", "{fixtures}/selections_r1_B.json", "--key", "{bad}"],
            [{"id": 1, "text": "t"}], "[0].primary_target: missing required key"),
    "prompts": (["bench", "--conditions", "A", "--lib", _FIXTURE_LIB, "--questions", _QUESTIONS,
                 "--prompts", "{bad}"], {"minimal_template": 3},
                "minimal_template: expected a string, got an integer"),
    "specs": (["expand", "--in", _FIXTURE_LIB, "--specs", "{bad}", "--out", "{tmp}/out.json"],
              {"round_id": "2"}, "round_id: expected an integer, got a string"),
    "selections": (["score", "--selections", "{bad}", "--key", _QUESTIONS], {"selections": [{}]},
                   "selections[0].question_id: missing required key"),
    "rules": ([*_STRUCTURE, "--rules", "{bad}"], [{"role": "x"}],
              "[0].header_pattern: missing required key"),
    "refs": ([*_STRUCTURE, "--rules", "{fixtures}/judgment_rules.json", "--refs", "{bad}"],
             [{"from_section": "s1"}], "[0].to_section: missing required key"),
    "digests": ([*_STRUCTURE, "--rules", "{fixtures}/judgment_rules.json", "--digests", "{bad}"],
                {"claims": 3}, "claims: expected a string, got an integer"),
    "coload-in": (["coload", "--query", "x", "--in", "{bad}"], {"sections": []},
                  "doc_id: missing required key"),
    "config-remote": (["--config", "{bad}", "select", "--backend", "remote", "--query", "x",
                       "--libs", _FIXTURE_LIB], {"remote": {"model": "m"}},
                      "remote.endpoint: missing required key"),
}


@pytest.mark.parametrize("option", list(_DECODE_ERRORS))
def test_a_decode_error_names_its_input_file(fixture_dir, tmp_path, capsys, option):
    command, content, error = _DECODE_ERRORS[option]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(content), encoding="utf-8")
    outcome = run([arg.format(bad=bad, tmp=tmp_path, fixtures=fixture_dir) for arg in command])
    assert outcome == CommandOutcome(1, "")
    assert error_lines(capsys) == [f"ERROR MalformedFile: {bad}: {error}"]
    assert list(tmp_path.iterdir()) == [bad]


@pytest.mark.parametrize("libs", ["{lib},", ",{lib}", "{lib},,{lib}", ""])
def test_empty_libs_element_is_a_usage_error(fixture_dir, capsys, libs):
    libs = libs.format(lib=fixture_dir / "library_r1.json")
    outcome = run(["select", "--query", "x", "--libs", libs])
    assert outcome.exit_code == 2
    assert error_lines(capsys) == [f"ERROR --libs holds an empty file name: {libs!r}"]


_BAD_CONDITIONS = [
    (",", "holds an empty condition name"),
    ("A,,B", "holds an empty condition name"),
    ("A, ", "holds an empty condition name"),
    ("", "holds an empty condition name"),
    ("A,A", "repeats condition 'A'"),
    ("A,a", "repeats condition 'A'"),  # build_condition reads both as A
]


@pytest.mark.parametrize(("conditions", "problem"), _BAD_CONDITIONS,
                         ids=[conditions for conditions, _ in _BAD_CONDITIONS])
def test_empty_conditions_element_is_a_usage_error(fixture_dir, capsys, conditions, problem):
    outcome = run(["bench", "--conditions", conditions,
                   "--lib", str(fixture_dir / "library_r1.json"),
                   "--questions", str(fixture_dir / "questions_20.json")])
    assert outcome.exit_code == 2
    assert outcome.stdout_payload == ""
    assert error_lines(capsys) == [f"ERROR --conditions {problem}: {conditions!r}"]


class TestReadWriteFailures:
    def test_condition_out_dir_naming_a_file_is_io_failure(self, fixture_dir, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        outcome = run(["condition", "--version", "A", "--in", str(fixture_dir / "library_r1.json"),
                       "--out-dir", str(taken)])
        assert outcome.exit_code == 2
        [line] = error_lines(capsys)
        assert line.startswith(f"ERROR IoFailure: cannot write to {taken}: ")

    def test_bench_out_dir_naming_a_file_is_io_failure(self, fixture_dir, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        outcome = run(["bench", "--conditions", "A", "--lib", str(fixture_dir / "library_r1.json"),
                       "--questions", str(fixture_dir / "questions_20.json"),
                       "--out-dir", str(taken)])
        assert outcome.exit_code == 2
        [line] = error_lines(capsys)
        assert line.startswith(f"ERROR IoFailure: cannot write to {taken}: ")

    def test_condition_prompt_that_cannot_be_written_names_the_out_dir(self, fixture_dir,
                                                                        tmp_path, capsys):
        (tmp_path / "prompt_A.txt").mkdir()
        outcome = run(["condition", "--version", "A", "--in", str(fixture_dir / "library_r1.json"),
                       "--out-dir", str(tmp_path)])
        assert outcome.exit_code == 2
        [line] = error_lines(capsys)
        assert line.startswith(f"ERROR IoFailure: cannot write to {tmp_path}: ")

    def test_prompts_file_that_is_not_utf8_is_malformed(self, fixture_dir, tmp_path, capsys):
        prompts = tmp_path / "prompts.json"
        prompts.write_bytes(b'{"a": "\xff"}')
        outcome = run(["condition", "--version", "C", "--in", str(fixture_dir / "library_r1.json"),
                       "--out-dir", str(tmp_path / "out"), "--prompts", str(prompts)])
        assert outcome.exit_code == 1
        [line] = error_lines(capsys)
        assert line.startswith(f"ERROR MalformedFile: {prompts}: not UTF-8: ")

    def test_library_file_with_a_bad_byte_is_malformed(self, fixture_dir, tmp_path, capsys):
        data = (fixture_dir / "library_r1.json").read_bytes()
        library = tmp_path / "library.json"
        library.write_bytes(data.replace(b"Intent_Router", b"Intent_\xe9Router", 1))
        outcome = run(["validate", "--in", str(library)])
        assert outcome.exit_code == 1
        [line] = error_lines(capsys)
        assert line.startswith(f"ERROR MalformedFile: {library}: not UTF-8: ")

    @pytest.mark.parametrize("which", ["library", "prompts"])
    def test_a_lone_surrogate_escape_is_malformed(self, fixture_dir, tmp_path, capsys, which):
        library, prompts = tmp_path / "library.json", tmp_path / "prompts.json"
        library.write_bytes((fixture_dir / "library_r1.json").read_bytes())
        prompts.write_bytes((fixture_dir / "prompts.json").read_bytes())
        bad = library if which == "library" else prompts
        text = bad.read_text(encoding="utf-8")
        # The first string value of either file gains an escape that decodes to U+D800.
        at = text.index('": "') + 4
        bad.write_text(text[:at] + "\\ud800" + text[at:], encoding="utf-8")
        outcome = run(["condition", "--version", "C", "--in", str(library),
                       "--out-dir", str(tmp_path / "out"), "--prompts", str(prompts)])
        assert outcome.exit_code == 1
        [line] = error_lines(capsys)
        assert line == f"ERROR MalformedFile: {bad}: a string holds the lone surrogate '\\ud800'"
        assert not (tmp_path / "out").exists()

    def test_an_escaped_surrogate_pair_still_loads(self, fixture_dir, tmp_path):
        text = (fixture_dir / "library_r1.json").read_text(encoding="utf-8")
        at = text.index('"category_description": "') + len('"category_description": "')
        library = tmp_path / "library.json"
        library.write_text(text[:at] + "\\ud83c\\udfb5 " + text[at:], encoding="utf-8")
        assert run(["validate", "--in", str(library)]).exit_code == 0
        out = tmp_path / "summarized.json"
        assert run(["summarize", "--in", str(library), "--out", str(out)]).exit_code == 0
        assert "\U0001f3b5 " in out.read_text(encoding="utf-8")

    def test_an_integer_literal_too_long_for_int_is_malformed(self, fixture_dir, tmp_path,
                                                              capsys):
        text = (fixture_dir / "library_r1.json").read_text(encoding="utf-8")
        library = tmp_path / "library.json"
        library.write_text(text.replace('"skill_count": 7', '"skill_count": 1' + "0" * 5000, 1),
                           encoding="utf-8")
        assert run(["validate", "--in", str(library)]).exit_code == 1
        assert error_lines(capsys) == [f"ERROR MalformedFile: {library}: {LONG_INTEGER}"]
        # The prefix reader meets it first on the route path.
        assert run(["route", "--query", "anything", "--dir", str(tmp_path)]).exit_code == 1
        assert error_lines(capsys) == [f"ERROR MalformedFile: {library}: {LONG_INTEGER}"]

    def test_deeply_nested_input_is_malformed(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        outcome = run(["validate", "--in", str(deep)])
        assert outcome.exit_code == 1
        assert error_lines(capsys) == [f"ERROR MalformedFile: {deep}: nested too deeply to decode"]


_OUT_COMMANDS = {
    "summarize": ["summarize", "--in", "{fixtures}/library_r1.json"],
    "strip": ["strip", "--in", "{fixtures}/library_r1.json"],
    "expand": ["expand", "--in", "{fixtures}/library_r1.json",
               "--specs", "{fixtures}/round2_specs.json"],
    "structure": ["structure", "--rules", "{fixtures}/judgment_rules.json",
                  "--in", "{fixtures}/judgment.txt"],
}


@pytest.mark.parametrize("command", list(_OUT_COMMANDS))
class TestOneWriter:
    """Every --out FILE goes through the --out-dir writer: it makes the
    file's directory, and a failure names that directory."""

    @staticmethod
    def write(command, fixture_dir, out):
        return run([arg.format(fixtures=fixture_dir) for arg in _OUT_COMMANDS[command]]
                   + ["--out", str(out)])

    def test_out_into_a_missing_directory_is_made(self, command, fixture_dir, tmp_path):
        deep, flat = tmp_path / "missing" / "twice" / "out.json", tmp_path / "out.json"
        assert self.write(command, fixture_dir, deep).exit_code == 0
        assert self.write(command, fixture_dir, flat).exit_code == 0
        assert deep.read_bytes() == flat.read_bytes()

    def test_out_under_a_regular_file_is_io_failure(self, command, fixture_dir, tmp_path,
                                                     capsys):
        parent = tmp_path / "taken"
        parent.write_text("", encoding="utf-8")
        assert self.write(command, fixture_dir, parent / "out.json").exit_code == 2
        [line] = error_lines(capsys)
        assert line.startswith(f"ERROR IoFailure: cannot write to {parent}: ")


class TestScore:
    def test_round1_b_matrix_prints_21_5(self, fixture_dir):
        outcome = run([
            "score",
            "--selections", str(fixture_dir / "selections_r1_B.json"),
            "--key", str(fixture_dir / "questions_20.json"),
        ])
        assert outcome.exit_code == 0
        assert "21.5" in outcome.stdout_payload
        assert "28.5" in outcome.stdout_payload

    def test_accepts_response_format_text(self, fixture_dir, tmp_path):
        text = "Q01: Cognitive_Architecture_&_Routing | Intent_Router\n"
        selections = tmp_path / "response.txt"
        selections.write_text(text, encoding="utf-8")
        outcome = run([
            "--format", "json", "score",
            "--selections", str(selections),
            "--key", str(fixture_dir / "questions_20.json"),
        ])
        payload = json.loads(outcome.stdout_payload)
        assert payload["total"] == 1.0


    def test_reads_the_selections_file_once(self, fixture_dir, monkeypatch):
        selections = fixture_dir / "selections_r1_B.json"
        reads = []
        read_text = Path.read_text

        def counting(path, *args, **kwargs):
            reads.append(Path(path).name)
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting)
        outcome = run(["score", "--selections", str(selections),
                       "--key", str(fixture_dir / "questions_20.json")])
        assert outcome.exit_code == 0
        assert reads.count(selections.name) == 1

    def test_invalid_json_selections_exit_one(self, fixture_dir, tmp_path, capsys):
        selections = tmp_path / "selections.json"
        selections.write_text('{"selections": [', encoding="utf-8")
        outcome = run(["score", "--selections", str(selections),
                       "--key", str(fixture_dir / "questions_20.json")])
        assert outcome.exit_code == 1
        assert error_lines(capsys) == [
            f"ERROR MalformedFile: {selections}: invalid JSON: "
            "Expecting value: line 1 column 17 (char 16)"]

    @pytest.mark.parametrize("key", [
        [{"id": 1, "text": "t", "primary_target": "A"},
         {"id": 1, "text": "t", "primary_target": "A"}],
        [{"id": 1, "text": "t"}],
        [{"id": -1, "text": "t", "primary_target": "A"}],
    ], ids=["duplicate-id", "missing-primary-target", "negative-id"])
    def test_malformed_key_exits_one(self, tmp_path, capsys, key):
        key_path = tmp_path / "key.json"
        key_path.write_text(json.dumps(key), encoding="utf-8")
        selections = tmp_path / "response.txt"
        selections.write_text("Q01: A | x\n", encoding="utf-8")
        outcome = run(["score", "--selections", str(selections), "--key", str(key_path)])
        assert outcome.exit_code == 1
        assert "MalformedFile" in capsys.readouterr().err

    def test_negative_question_id_is_malformed(self, fixture_dir, tmp_path, capsys):
        # format_selections would write Q-1, a line parse_response does not read back.
        questions = tmp_path / "questions.json"
        questions.write_text(json.dumps([{"id": -1, "text": "t", "primary_target": "A"}]),
                             encoding="utf-8")
        outcome = run(["bench", "--conditions", "A", "--lib", str(fixture_dir / "library_r1.json"),
                       "--questions", str(questions)])
        assert outcome == CommandOutcome(1, "")
        assert error_lines(capsys) == [
            f"ERROR MalformedFile: {questions}: [0]: id must be >= 0, got -1"]

    def test_question_id_past_the_int_digit_limit_is_unknown(self, fixture_dir, tmp_path,
                                                              capsys):
        selections = tmp_path / "response.txt"
        selections.write_text("Q" + "1" * 5000 + ": A | b\n", encoding="utf-8")
        outcome = run(["score", "--selections", str(selections),
                       "--key", str(fixture_dir / "questions_20.json")])
        assert outcome == CommandOutcome(1, "")
        assert error_lines(capsys) == [
            "ERROR UnknownQuestion: line 1: a 5000-digit question id is not in the question set"]

    @pytest.mark.parametrize(("extra", "error"), [
        ({"question_id": 99, "primary": {"category": "X", "skill": "Y"}},
         "UnknownQuestion: question ids [99] are not in the answer key"),
        ({"question_id": 1, "primary": {"category": "X", "skill": "Y"}},
         "MalformedFile: {path}: duplicate question ids: [1]"),
    ], ids=["unknown-id", "repeated-id"])
    def test_json_selections_obey_the_key_ids(self, fixture_dir, tmp_path, capsys, extra, error):
        data = json.loads((fixture_dir / "selections_r1_B.json").read_text(encoding="utf-8"))
        data["selections"].append(extra)
        selections = tmp_path / "selections.json"
        selections.write_text(json.dumps(data), encoding="utf-8")
        outcome = run(["score", "--selections", str(selections),
                       "--key", str(fixture_dir / "questions_20.json")])
        assert outcome.exit_code == 1
        assert outcome.stdout_payload == ""
        assert error_lines(capsys) == [f"ERROR {error.format(path=selections)}"]

    def test_a_bare_list_of_selections_is_malformed(self, fixture_dir, tmp_path, capsys):
        data = json.loads((fixture_dir / "selections_r1_B.json").read_text(encoding="utf-8"))
        selections = tmp_path / "selections.json"
        selections.write_text(json.dumps(data["selections"]), encoding="utf-8")
        outcome = run(["score", "--selections", str(selections),
                       "--key", str(fixture_dir / "questions_20.json")])
        assert outcome == CommandOutcome(1, "")
        assert error_lines(capsys) == [
            f"ERROR MalformedFile: {selections}: expected an object, got a list"]

    def test_a_reply_transcript_opening_with_a_bracket_scores(self, fixture_dir, tmp_path,
                                                              capsys):
        selections = tmp_path / "reply.txt"
        selections.write_text(
            "[model reply]\nQ01: Cognitive_Architecture_&_Routing | Intent_Router\n",
            encoding="utf-8")
        outcome = run(["score", "--selections", str(selections),
                       "--key", str(fixture_dir / "questions_20.json")])
        assert outcome == CommandOutcome(0, "total 1.0/28.5  primary 1/20  secondary 0/17")
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(("text", "error"), [
        ("[]", "expected an object, got a list"),
        (" [ \n] ", "expected an object, got a list"),
        ('[{"question_id": 1', "invalid JSON: Expecting ',' delimiter: line 1 column 19 (char 18)"),
        ("[", "invalid JSON: Expecting value: line 1 column 2 (char 1)"),
        ("[null, 1", "invalid JSON: Expecting ',' delimiter: line 1 column 9 (char 8)"),
    ], ids=["empty", "empty-blank", "truncated", "bracket-only", "truncated-literal"])
    def test_an_empty_or_truncated_list_is_still_malformed(self, fixture_dir, tmp_path, capsys,
                                                            text, error):
        selections = tmp_path / "selections.json"
        selections.write_text(text, encoding="utf-8")
        outcome = run(["score", "--selections", str(selections),
                       "--key", str(fixture_dir / "questions_20.json")])
        assert outcome == CommandOutcome(1, "")
        assert error_lines(capsys) == [f"ERROR MalformedFile: {selections}: {error}"]


class TestSummarizeStripCondition:
    def test_summarize_then_validate(self, fixture_dir, tmp_path):
        out = tmp_path / "summarized.json"
        outcome = run(["summarize", "--in", str(fixture_dir / "library_r1_bare.json"),
                       "--out", str(out)])
        assert outcome.exit_code == 0
        lib = deserialize_library(out.read_text(encoding="utf-8"))
        assert lib.summary is not None
        assert len(lib.summary.category_index) == 36

    def test_strip_removes_summary(self, fixture_dir, tmp_path):
        out = tmp_path / "stripped.json"
        run(["strip", "--in", str(fixture_dir / "library_r1.json"), "--out", str(out)])
        assert '"_summary"' not in out.read_text(encoding="utf-8")

    @pytest.mark.parametrize("command,source,expected", [
        ("strip", "library_r1.json", "library_r1_bare.json"),
        ("summarize", "library_r1.json", "library_r1.json"),
        ("strip", "library_r1_bare.json", "library_r1_bare.json"),
    ])
    def test_committed_fixtures_rewrite_byte_for_byte(self, fixture_dir, tmp_path,
                                                      command, source, expected):
        out = tmp_path / "out.json"
        assert run([command, "--in", str(fixture_dir / source), "--out", str(out)]).exit_code == 0
        assert out.read_bytes() == (fixture_dir / expected).read_bytes()

    def test_body_is_written_under_the_key_it_was_read_under(self, fixture_dir, tmp_path):
        def renamed(name):
            path = tmp_path / f"renamed_{name}"
            path.write_bytes((fixture_dir / name).read_bytes().replace(
                b'"High_Impact_Skills_Library"', b'"My_Skills"', 1))
            return path

        full, bare = renamed("library_r1.json"), renamed("library_r1_bare.json")
        out = tmp_path / "out.json"
        for command, source, expected in [
                ("summarize", full, full), ("strip", full, bare), ("strip", bare, bare)]:
            assert run([command, "--in", str(source), "--out", str(out)]).exit_code == 0
            assert out.read_bytes() == expected.read_bytes()
        for command, extra in [("summarize", []),
                               ("expand", ["--specs", str(fixture_dir / "round2_specs.json")])]:
            assert run([command, "--in", str(bare), "--out", str(out), *extra]).exit_code == 0
            keys = [k for k in json.loads(out.read_text(encoding="utf-8")) if k[0] != "_"]
            assert keys == ["My_Skills"]
            assert run(["validate", "--in", str(out)]).exit_code == 0

    def test_a_library_whose_every_key_starts_with_an_underscore_is_malformed(
            self, fixture_dir, tmp_path, capsys):
        # The body is the first key without a leading underscore: "_skills" is no body.
        library = tmp_path / "library.json"
        library.write_bytes((fixture_dir / "library_r1.json").read_bytes().replace(
            b'"High_Impact_Skills_Library"', b'"_skills"', 1))
        outcome = run(["bench", "--conditions", "A,D", "--lib", str(library),
                       "--questions", str(fixture_dir / "questions_20.json"),
                       "--out-dir", str(tmp_path / "out")])
        assert outcome == CommandOutcome(1, "")
        assert error_lines(capsys) == [
            f"ERROR MalformedFile: {library}: no library body key found"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("version,expect_summary", [
        ("A", False), ("B", True), ("C", False), ("D", True)])
    def test_condition_writes_artifact_and_prompt(self, fixture_dir, tmp_path,
                                                  version, expect_summary):
        out_dir = tmp_path / "conditions"
        outcome = run([
            "condition", "--version", version,
            "--in", str(fixture_dir / "library_r1.json"),
            "--out-dir", str(out_dir),
            "--prompts", str(fixture_dir / "prompts.json"),
        ])
        assert outcome.exit_code == 0
        artifact = (out_dir / f"library_{version}.json").read_text(encoding="utf-8")
        assert ('"_summary"' in artifact) == expect_summary
        if expect_summary:
            assert artifact.lstrip().startswith('{\n  "_summary":')
        prompt = (out_dir / f"prompt_{version}.txt").read_text(encoding="utf-8")
        assert prompt.startswith("You are a professional Prompt Engineer.")
        if version in ("C", "D"):
            assert "Priority rule: when a broad" in prompt

    def test_without_prompts_the_built_in_config_is_used(self, fixture_dir, tmp_path):
        library = str(fixture_dir / "library_r1.json")
        outcome = run(["condition", "--version", "C", "--in", library,
                       "--out-dir", str(tmp_path / "out")])
        assert outcome.exit_code == 0
        assert (tmp_path / "out" / "prompt_C.txt").read_text(encoding="utf-8") == (
            expand_extended_prompt(PromptConfig()) + "\n")
        outcome = run(["bench", "--conditions", "A,B,C,D", "--lib", library,
                       "--questions", str(fixture_dir / "questions_20.json")])
        assert outcome.exit_code == 0


class TestExpand:
    def test_round2_expansion(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "lib_r2.json"
        outcome = run([
            "--format", "json", "expand",
            "--in", str(fixture_dir / "library_r1.json"),
            "--specs", str(fixture_dir / "round2_specs.json"),
            "--out", str(out),
        ])
        assert outcome.exit_code == 0
        payload = json.loads(outcome.stdout_payload)
        assert payload["categories"] == 60
        assert payload["skills"] == 262
        capsys.readouterr()

    def test_round3_prints_mismatch_warning_to_stderr(self, fixture_dir, tmp_path, capsys):
        mid = tmp_path / "lib_r2.json"
        run(["expand", "--in", str(fixture_dir / "library_r1.json"),
             "--specs", str(fixture_dir / "round2_specs.json"), "--out", str(mid)])
        capsys.readouterr()
        out = tmp_path / "lib_r3.json"
        outcome = run(["expand", "--in", str(mid),
                       "--specs", str(fixture_dir / "round3_specs.json"), "--out", str(out)])
        assert outcome.exit_code == 0  # warning, not error
        err = capsys.readouterr().err
        assert "EXPECTED_TOTAL_MISMATCH" in err

    @pytest.mark.parametrize("rounds", [(3, 2), (2,), ()], ids=["two", "one", "none"])
    def test_a_list_of_round_specs_is_malformed(self, fixture_dir, tmp_path, capsys, rounds):
        # A specs file is one round, as sdsr expand applies one round per run.
        specs = tmp_path / "rounds.json"
        specs.write_text(json.dumps([
            json.loads((fixture_dir / f"round{n}_specs.json").read_text(encoding="utf-8"))
            for n in rounds]), encoding="utf-8")
        capsys.readouterr()
        outcome = run(["expand", "--in", str(fixture_dir / "library_r1.json"),
                       "--specs", str(specs), "--out", str(tmp_path / "x.json")])
        assert outcome == CommandOutcome(1, "")
        assert error_lines(capsys) == [
            f"ERROR MalformedFile: {specs}: expected an object, got a list"]
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("specs", [
        [1],
        [{"round_id": None, "distractors": []}],
        [{"round_id": "2", "distractors": []}],
        {"round_id": None, "distractors": []},
    ], ids=["list-entry-not-object", "list-null-round", "list-string-round",
            "object-null-round"])
    def test_malformed_round_specs_exit_one(self, fixture_dir, tmp_path, capsys, specs):
        path = tmp_path / "specs.json"
        path.write_text(json.dumps(specs), encoding="utf-8")
        outcome = run(["expand", "--in", str(fixture_dir / "library_r1.json"),
                       "--specs", str(path), "--out", str(tmp_path / "x.json")])
        assert outcome.exit_code == 1
        assert "ERROR MalformedFile" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, code", [
        (lambda spec: spec.update(name="Bad|Name"), "CATEGORY_NAME_DELIMITER"),
        (lambda spec: spec["skills"][0].update(skill_name="x;y"), "SKILL_NAME_DELIMITER"),
        (lambda spec: spec.pop("description"), "EMPTY_DESCRIPTION"),
    ], ids=["category-delimiter", "skill-delimiter", "no-description"])
    def test_output_that_validate_rejects_exits_one(self, fixture_dir, tmp_path, capsys,
                                                    edit, code):
        specs = json.loads((fixture_dir / "round2_specs.json").read_text(encoding="utf-8"))
        edit(specs["distractors"][0])
        path = tmp_path / "specs.json"
        path.write_text(json.dumps(specs), encoding="utf-8")
        out = tmp_path / "out.json"
        capsys.readouterr()
        outcome = run(["expand", "--in", str(fixture_dir / "library_r1.json"),
                       "--specs", str(path), "--out", str(out)])
        assert outcome.exit_code == 1
        [line] = error_lines(capsys)
        assert line.startswith(f"ERROR {code}: ")
        validated = run(["validate", "--in", str(out)])
        assert validated.exit_code == 1
        assert f"ERROR {code}: " in validated.stdout_payload

    def test_fixture_rounds_report_no_error(self, fixture_dir, tmp_path, capsys):
        mid, out = tmp_path / "lib_r2.json", tmp_path / "lib_r3.json"
        for source, specs, target in [(fixture_dir / "library_r1.json", "round2_specs.json", mid),
                                      (mid, "round3_specs.json", out)]:
            outcome = run(["--format", "json", "expand", "--in", str(source),
                           "--specs", str(fixture_dir / specs), "--out", str(target)])
            assert outcome.exit_code == 0
            assert error_lines(capsys) == []
            assert all(f["severity"] != "ERROR"
                       for f in json.loads(outcome.stdout_payload)["findings"])


class TestRouteSelectBench:
    def test_route_over_directory(self, fixture_dir, tmp_path):
        reg = tmp_path / "registry"
        reg.mkdir()
        (reg / "skills.json").write_text(
            (fixture_dir / "library_r1.json").read_text(encoding="utf-8"), encoding="utf-8")
        outcome = run(["--format", "json", "route",
                       "--query", "tarot readings by spread position",
                       "--dir", str(reg)])
        assert outcome.exit_code == 0
        payload = json.loads(outcome.stdout_payload)
        assert payload["selected"][0]["file_id"] == "skills.json"

    def test_route_ignores_a_defect_after_the_summary(self, tmp_path):
        reg = tmp_path / "registry"
        reg.mkdir()
        (reg / "nocomma.json").write_text(
            '{"_summary": {"category_index": [], "_llm_instructions": "ok", '
            '"routing_roles": {}} "Body": {}}', encoding="utf-8")
        outcome = run(["route", "--query", "anything", "--dir", str(reg)])
        assert outcome.exit_code == 0
        assert outcome.stdout_payload.startswith("nocomma.json\t")

    def test_route_names_the_file_and_key_path_of_a_malformed_summary(self, fixture_dir,
                                                                      tmp_path, capsys):
        reg = tmp_path / "registry"
        reg.mkdir()
        data = json.loads((fixture_dir / "library_r1.json").read_text(encoding="utf-8"))
        del data["_summary"]["category_index"][3]["name"]
        (reg / "skills.json").write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
        outcome = run(["route", "--query", "anything", "--dir", str(reg)])
        assert outcome.exit_code == 1
        assert error_lines(capsys) == [
            f"ERROR MalformedFile: {reg / 'skills.json'}: _summary.category_index[3].name: "
            "missing required key"]

    def test_route_has_no_block_size_option(self, tmp_path, capsys):
        outcome = run(["route", "--query", "anything", "--dir", str(tmp_path),
                       "--block-size", "4096"])
        assert outcome.exit_code == 2
        assert "unrecognized arguments: --block-size 4096" in capsys.readouterr().err

    def test_route_stdout_is_reproducible(self, fixture_dir, tmp_path):
        reg = tmp_path / "registry"
        reg.mkdir()
        (reg / "skills.json").write_text(
            (fixture_dir / "library_r1.json").read_text(encoding="utf-8"), encoding="utf-8")
        argv = ["--format", "json", "route", "--query", "combat balance curves",
                "--dir", str(reg)]
        assert run(argv).stdout_payload == run(argv).stdout_payload

    def test_route_rejects_a_late_summary_naming_the_file(self, fixture_dir, tmp_path, capsys):
        reg = tmp_path / "registry"
        reg.mkdir()
        data = json.loads((fixture_dir / "library_r1.json").read_text(encoding="utf-8"))
        reordered = {"High_Impact_Skills_Library": data["High_Impact_Skills_Library"],
                     "_summary": data["_summary"]}
        (reg / "late.json").write_text(json.dumps(reordered, ensure_ascii=False),
                                       encoding="utf-8")
        capsys.readouterr()
        outcome = run(["--format", "json", "route", "--query", "tarot readings by spread position",
                       "--dir", str(reg)])
        assert outcome == CommandOutcome(1, "")
        assert error_lines(capsys) == [
            f"ERROR SummaryNotFirst: {reg / 'late.json'}: first top-level key is "
            "'High_Impact_Skills_Library', not '_summary'"]

    def test_bench_exit_three_when_a_condition_fails(self, fixture_dir, monkeypatch,
                                                     capsys):
        import sdsr.cli as cli_module
        from sdsr.errors import TransportError

        class DoomedBackend:
            def route(self, query, summaries):
                raise TransportError("down")

            def select(self, questions, libraries, system_prompt=None):
                raise TransportError("down")

        monkeypatch.setattr(cli_module, "_make_backend", lambda name, cfg: DoomedBackend())
        outcome = run([
            "bench", "--conditions", "A,B",
            "--lib", str(fixture_dir / "library_r1.json"),
            "--questions", str(fixture_dir / "questions_20.json"),
            "--prompts", str(fixture_dir / "prompts.json"),
        ])
        assert outcome.exit_code == 3
        assert "failed" in outcome.stdout_payload
        capsys.readouterr()

    def test_bench_json_names_each_failed_condition_and_its_error(self, fixture_dir,
                                                                  monkeypatch):
        import sdsr.cli as cli_module
        from sdsr.errors import TransportError

        class DoomedBackend:
            def select(self, questions, libraries, system_prompt=None):
                raise TransportError("down")

        monkeypatch.setattr(cli_module, "_make_backend", lambda name, cfg: DoomedBackend())
        outcome = run([
            "--format", "json", "bench", "--conditions", "A,B",
            "--lib", str(fixture_dir / "library_r1.json"),
            "--questions", str(fixture_dir / "questions_20.json"),
        ])
        assert outcome.exit_code == 3
        assert outcome.stdout_payload == json.dumps([
            {"condition": "A", "error": "TransportError: down"},
            {"condition": "B", "error": "TransportError: down"},
        ], indent=2)

    def test_select_exit_three_when_remote_transport_raises_socket_error(
            self, fixture_dir, tmp_path, monkeypatch, capsys):
        import sdsr.remote as remote_module

        def resetting_transport(url, payload, headers, timeout):
            raise ConnectionResetError(104, "Connection reset by peer")

        monkeypatch.setattr(remote_module, "_requests_transport", resetting_transport)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"remote": {
            "endpoint": "https://chat.example/v1/completions", "model": "m",
            "max_retries": 2, "retry_backoff": 0.0}}), encoding="utf-8")
        outcome = run([
            "--config", str(config), "select", "--backend", "remote",
            "--query", "route a task", "--libs", str(fixture_dir / "library_r1.json"),
        ])
        assert outcome.exit_code == 3
        assert "ConnectionResetError" in capsys.readouterr().err

    def test_bench_with_duplicate_question_ids_exits_one(self, fixture_dir, tmp_path, capsys):
        questions = json.loads((fixture_dir / "questions_20.json").read_text(encoding="utf-8"))
        questions[1]["id"] = questions[0]["id"]
        path = tmp_path / "questions.json"
        path.write_text(json.dumps(questions), encoding="utf-8")
        outcome = run([
            "bench", "--conditions", "A",
            "--lib", str(fixture_dir / "library_r1.json"),
            "--questions", str(path),
            "--prompts", str(fixture_dir / "prompts.json"),
        ])
        assert outcome.exit_code == 1
        assert "duplicate question ids" in capsys.readouterr().err

    def test_select_without_a_secondary_prints_null(self, fixture_dir):
        outcome = run(["--format", "json", "select", "--query", "tarot",
                       "--libs", str(fixture_dir / "library_r1.json")])
        assert outcome.exit_code == 0
        assert '"secondary": null' in outcome.stdout_payload
        assert json.loads(outcome.stdout_payload)["selections"][0]["secondary"] is None

    def test_select_with_complement_pass(self, fixture_dir):
        outcome = run([
            "--format", "json", "select",
            "--query", "probe competitor weak points and map systemic vulnerabilities",
            "--libs", str(fixture_dir / "library_r1.json"),
            "--complement-pass",
        ])
        payload = json.loads(outcome.stdout_payload)
        first = payload["selections"][0]
        assert first["primary"]["category"] == "Adversarial_Systems_Thinking"
        assert first["secondary"]["category"] == "Strategic_Decision_Frameworks"

    def test_complement_pass_over_several_libraries_warns(self, fixture_dir, capsys):
        first, second = fixture_dir / "library_r1.json", fixture_dir / "library_r1_bare.json"
        argv = ["--format", "json", "select", "--query", "map competitor weak points",
                "--libs", f"{first},{second}"]
        capsys.readouterr()
        assert main(argv) == 0
        plain_err = capsys.readouterr().err.splitlines()
        assert main(argv + ["--complement-pass"]) == 0
        captured = capsys.readouterr()
        assert [line for line in captured.err.splitlines() if line not in plain_err] == [
            f"WARNING --complement-pass resolves complements in {first} only"]
        assert "WARNING" not in captured.out
        assert json.loads(captured.out)["selections"]

    def test_complement_pass_over_one_library_does_not_warn(self, fixture_dir, capsys):
        capsys.readouterr()
        code = main(["select", "--query", "map competitor weak points",
                     "--libs", str(fixture_dir / "library_r1.json"), "--complement-pass"])
        assert code == 0
        assert "--complement-pass" not in capsys.readouterr().err

    def test_bench_sweep(self, fixture_dir, tmp_path):
        out_dir = tmp_path / "bench"
        outcome = run([
            "--format", "json", "bench",
            "--conditions", "A,B,C,D",
            "--lib", str(fixture_dir / "library_r1.json"),
            "--questions", str(fixture_dir / "questions_20.json"),
            "--prompts", str(fixture_dir / "prompts.json"),
            "--out-dir", str(out_dir),
        ])
        assert outcome.exit_code == 0
        payload = json.loads(outcome.stdout_payload)
        assert [entry["condition"] for entry in payload] == ["A", "B", "C", "D"]
        for entry in payload:
            assert entry["primary_accuracy"] == 1.0
            assert entry["max_total"] == 28.5
        assert (out_dir / "report.csv").exists()
        assert (out_dir / "transcript_D.txt").exists()


class TestStructureCoload:
    def test_structure_then_coload(self, fixture_dir, tmp_path):
        out = tmp_path / "judgment.sdsr.json"
        outcome = run([
            "structure",
            "--rules", str(fixture_dir / "judgment_rules.json"),
            "--in", str(fixture_dir / "judgment.txt"),
            "--out", str(out),
            "--doc-id", "2025-CV-0414",
            "--digests", str(fixture_dir / "judgment_digests.json"),
            "--refs", str(fixture_dir / "judgment_refs.json"),
        ])
        assert outcome.exit_code == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        assert [s["role"] for s in data["sections"]] == [
            "other", "claimant", "respondent", "reasoning", "holding"]
        assert data["summary"]["cross_references"]

        coload = run(["--format", "json", "coload",
                      "--query", "what was the quantum of damages",
                      "--in", str(out)])
        assert json.loads(coload.stdout_payload) == {"sections": ["s2", "s4"]}

    def test_coload_without_summary_falls_back(self, fixture_dir, tmp_path):
        out = tmp_path / "plain.sdsr.json"
        run(["structure",
             "--rules", str(fixture_dir / "judgment_rules.json"),
             "--in", str(fixture_dir / "judgment.txt"),
             "--out", str(out), "--doc-id", "d"])
        coload = run(["--format", "json", "coload",
                      "--query", "judgment sum and costs ordered",
                      "--in", str(out)])
        assert json.loads(coload.stdout_payload)["sections"] == ["s5"]


    def test_sidecar_summary_of_another_document_is_malformed(self, fixture_dir, tmp_path,
                                                              capsys):
        out = tmp_path / "judgment.sdsr.json"
        run(["structure", "--rules", str(fixture_dir / "judgment_rules.json"),
             "--in", str(fixture_dir / "judgment.txt"), "--out", str(out),
             "--digests", str(fixture_dir / "judgment_digests.json"),
             "--refs", str(fixture_dir / "judgment_refs.json")])
        data = json.loads(out.read_text(encoding="utf-8"))
        data["summary"]["doc_id"] = "other"
        out.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        outcome = run(["coload", "--query", "damages", "--in", str(out)])
        assert outcome.exit_code == 1
        [line] = error_lines(capsys)
        assert line.startswith(f"ERROR MalformedFile: {out}: summary.doc_id: ")

    def test_empty_rules_file_is_malformed(self, fixture_dir, tmp_path, capsys):
        rules = tmp_path / "rules.json"
        rules.write_text("[]", encoding="utf-8")
        outcome = run(["structure", "--rules", str(rules),
                       "--in", str(fixture_dir / "judgment.txt"),
                       "--out", str(tmp_path / "out.json")])
        assert outcome.exit_code == 1
        assert error_lines(capsys) == [f"ERROR MalformedFile: {rules}: ruleset must not be empty"]
        assert not (tmp_path / "out.json").exists()


BOM = b"\xef\xbb\xbf"


class TestByteOrderMark:
    """Every reader skips a leading UTF-8 BOM, as the prefix reader does."""

    @staticmethod
    def score(selections, fixture_dir):
        return run(["score", "--selections", str(selections),
                    "--key", str(fixture_dir / "questions_20.json")])

    def test_json_selections_score_as_without_it(self, fixture_dir, tmp_path, capsys):
        selections = tmp_path / "selections.json"
        selections.write_bytes(BOM + (fixture_dir / "selections_r1_B.json").read_bytes())
        outcome = self.score(selections, fixture_dir)
        assert outcome == CommandOutcome(0, "total 21.5/28.5  primary 20/20  secondary 3/17")
        assert outcome == self.score(fixture_dir / "selections_r1_B.json", fixture_dir)
        assert capsys.readouterr().err == ""

    def test_response_text_scores_as_without_it(self, fixture_dir, tmp_path, capsys):
        text = format_selections(decode_selections(json.loads(
            (fixture_dir / "selections_r1_B.json").read_text(encoding="utf-8"))))
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text(text, encoding="utf-8")
        marked.write_bytes(BOM + text.encode("utf-8"))
        outcome = self.score(marked, fixture_dir)
        assert outcome == CommandOutcome(0, "total 21.5/28.5  primary 20/20  secondary 3/17")
        assert outcome == self.score(plain, fixture_dir)
        assert capsys.readouterr().err == ""

    def test_a_library_reads_as_without_it(self, fixture_dir, tmp_path, capsys):
        plain = fixture_dir / "library_r1.json"
        registry = tmp_path / "registry"
        registry.mkdir()
        marked = registry / "library.json"
        marked.write_bytes(BOM + plain.read_bytes())
        query = ["--query", "tarot readings by spread position"]
        for command in (["validate", "--in"], ["select", *query, "--libs"],
                        ["bench", "--conditions", "A,D",
                         "--questions", str(fixture_dir / "questions_20.json"), "--lib"]):
            argv = ["--format", "json", *command]
            outcome = run(argv + [str(marked)])
            assert outcome.exit_code == 0
            assert outcome == run(argv + [str(plain)])
        assert run(["validate", "--in", str(marked)]) == CommandOutcome(0, "no findings")
        routed = run(["--format", "json", "route", *query, "--dir", str(registry)])
        assert routed.exit_code == 0
        assert json.loads(routed.stdout_payload)["selected"][0]["file_id"] == "library.json"
        out = tmp_path / "summarized.json"
        assert run(["summarize", "--in", str(marked), "--out", str(out)]).exit_code == 0
        assert out.read_bytes() == plain.read_bytes()  # written without one
        assert error_lines(capsys) == []


def test_the_readers_accept_what_the_writers_write(fixture_dir, tmp_path, capsys):
    # Every summary-bearing file sdsr writes is one a reader takes as it is.
    registry = tmp_path / "registry"
    summarized = registry / "summarized.json"
    bare = str(fixture_dir / "library_r1_bare.json")
    assert run(["summarize", "--in", bare, "--out", str(summarized)]).exit_code == 0
    for version in ("B", "D"):
        assert run(["condition", "--version", version, "--in", bare,
                    "--out-dir", str(registry)]).exit_code == 0
    assert run(["expand", "--in", str(summarized),
                "--specs", str(fixture_dir / "round2_specs.json"),
                "--out", str(registry / "expanded.json")]).exit_code == 0
    libraries = sorted(registry.glob("*.json"))
    assert [path.name for path in libraries] == [
        "expanded.json", "library_B.json", "library_D.json", "summarized.json"]
    query = ["--query", json.loads(
        (fixture_dir / "questions_20.json").read_text(encoding="utf-8"))[0]["text"]]
    assert run(["route", *query, "--dir", str(registry)]).exit_code == 0
    for library in libraries:
        assert run(["select", *query, "--libs", str(library)]).exit_code == 0
    selected = run(["--format", "json", "select", *query,
                    "--libs", ",".join(map(str, libraries))])
    assert selected.exit_code == 0
    selections = tmp_path / "selections.json"
    selections.write_text(selected.stdout_payload + "\n", encoding="utf-8")
    scored = run(["--format", "json", "score", "--selections", str(selections),
                  "--key", str(fixture_dir / "questions_20.json")])
    assert scored.exit_code == 0
    assert json.loads(scored.stdout_payload)["max_total"] == 28.5
    assert error_lines(capsys) == []


def test_main_prints_payload_and_returns_code(fixture_dir, capsys):
    code = main(["validate", "--in", str(fixture_dir / "library_r1.json")])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "no findings\n"


class TestPinnedOutput:
    """sha256 of CLI stdout, so scoring rewrites cannot shift a byte.

    The digests were taken before the lexical scorer was compiled once
    per call; the transcripts that ``bench --out-dir`` writes pin every
    selection, which the JSON summary on stdout does not show.
    """

    @pytest.fixture(scope="class")
    def round3_library(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("round3")
        dispatch(["expand", "--in", str(FIXTURES_DIR / "library_r1.json"),
                  "--specs", str(FIXTURES_DIR / "round2_specs.json"),
                  "--out", str(work / "lib_r2.json")])
        dispatch(["expand", "--in", str(work / "lib_r2.json"),
                  "--specs", str(FIXTURES_DIR / "round3_specs.json"),
                  "--out", str(work / "lib_r3.json")])
        return work / "lib_r3.json"

    @staticmethod
    def stdout_digest(argv, capsys):
        capsys.readouterr()
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0
        return hashlib.sha256(out.encode("utf-8")).hexdigest()

    @staticmethod
    def files_digest(directory):
        digest = hashlib.sha256()
        for path in sorted(directory.iterdir()):
            digest.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
        return digest.hexdigest()

    @pytest.mark.parametrize("library, stdout_sha, files_sha", [
        ("round1",
         "a9ad79b4c40fa3d64c58d84201eade6d314e51259466e69d3a295e5b9834c388",
         "d539da96596bd62d72a8ba5e25ec2863ae8173b6293e2cc6016de5d12b012898"),
        ("round3",
         "a9ad79b4c40fa3d64c58d84201eade6d314e51259466e69d3a295e5b9834c388",
         "984c056f0e2b3c7bd01420af295f735f4975bdfe6b79a59271cb85a219060dac"),
    ])
    def test_bench_conditions_abcd(self, library, stdout_sha, files_sha, round3_library,
                                   tmp_path, capsys):
        lib = FIXTURES_DIR / "library_r1.json" if library == "round1" else round3_library
        argv = ["--format", "json", "bench", "--conditions", "A,B,C,D",
                "--lib", str(lib), "--questions", str(FIXTURES_DIR / "questions_20.json"),
                "--prompts", str(FIXTURES_DIR / "prompts.json"),
                "--out-dir", str(tmp_path / "out")]
        assert self.stdout_digest(argv, capsys) == stdout_sha
        assert self.files_digest(tmp_path / "out") == files_sha

    def test_select_over_round1_and_round3(self, round3_library, capsys):
        query = json.loads(
            (FIXTURES_DIR / "questions_20.json").read_text(encoding="utf-8"))[0]["text"]
        argv = ["--format", "json", "select", "--query", query,
                "--libs", f"{FIXTURES_DIR / 'library_r1.json'},{round3_library}",
                "--complement-pass"]
        assert self.stdout_digest(argv, capsys) == (
            "14e571cc233b329bbef0438debc3cd93e9226e32981471b783665a1f5a0d6a07")

    # Summary text that every escape rule of the compact form touches.
    ESCAPES_LIBRARY = {
        "_summary": {
            "category_index": [
                {"name": 'Quote_"Desk"', "skill_count": 12,
                 "routing_hint": "back\\slash, tab\there, bell\x07, naïve café 競合 🎵 "
                                 "competitor weak points"},
                {"name": "Plain", "skill_count": 0, "routing_hint": ""},
            ],
            "_llm_instructions": 'Read the "hints" first.\n',
            "routing_roles": {"primary": ['Quote_"Desk"'], "empty": []},
        },
        "High_Impact_Skills_Library": {
            'Quote_"Desk"': {"category_description": "d", "skills": []},
            "Plain": {"category_description": "", "skills": []},
        },
    }

    @pytest.fixture(scope="class")
    def registry(self, round3_library, tmp_path_factory):
        """library_r1 at the top, round 3 in a subdirectory, and a sibling whose
        name sorts before that subdirectory as a string but after it by path parts."""
        root = tmp_path_factory.mktemp("registry")
        (root / "lib").mkdir()
        shutil.copy(FIXTURES_DIR / "library_r1.json", root / "library_r1.json")
        shutil.copy(round3_library, root / "lib" / "round3.json")
        (root / "lib-escapes.json").write_text(
            json.dumps(self.ESCAPES_LIBRARY, ensure_ascii=False), encoding="utf-8")
        return root

    def test_route_over_a_mixed_registry(self, registry, capsys):
        query = json.loads(
            (FIXTURES_DIR / "questions_20.json").read_text(encoding="utf-8"))[0]["text"]
        capsys.readouterr()
        assert main(["--format", "json", "route", "--query", query, "--dir", str(registry)]) == 0
        out, err = capsys.readouterr()
        assert "TOKEN_BUDGET_OVERRUN" in err
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "82500b9e0a7897227f421baf28f30dddc61eaf4eed45d69a76fe02623507c55c")
        assert hashlib.sha256(err.encode("utf-8")).hexdigest() == (
            "b4ffb85fc5000f171ec4324e091f57e8ad7f36c265eb23e8d4f870d900e1f2e1")

    def test_prefix_reads_of_the_mixed_registry(self, registry):
        reads = [(fid, block_size, r.bytes_read, r.summary_end_offset, r.summary.compact_length)
                 for block_size in (1, 7, 64, 4096)
                 for fid, r in prefix.read_registry_summaries(
                     prefix.scan_registry(registry), block_size=block_size)[0]]
        assert hashlib.sha256(repr(reads).encode("utf-8")).hexdigest() == (
            "ecd6de7b76c646e3dac886a8778145fd876ff938b509dc3e123cb58d30a83489")

    def test_score_selections(self, capsys):
        argv = ["--format", "json", "score",
                "--selections", str(FIXTURES_DIR / "selections_r1_B.json"),
                "--key", str(FIXTURES_DIR / "questions_20.json")]
        assert self.stdout_digest(argv, capsys) == (
            "cd1954fb81921bca75fdf996b50737cb8b262b63f87fd2b1ba76f18bf446906e")
