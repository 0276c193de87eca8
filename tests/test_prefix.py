import json
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdsr.engine import LexicalBackend, RoutingRequest, route_tier1
from sdsr.errors import IoFailure, MalformedFile, NoSummary, SummaryNotFirst
from sdsr.library import CategoryIndexEntry, SummaryBlock, serialize_library
from sdsr.prefix import (
    estimate_tokens,
    extract_summary,
    read_registry_summaries,
    scan_registry,
    summary_token_estimate,
)
from sdsr.wire import LONG_INTEGER, decode, encode

from _fixtures import build_fixture_library
from _generators import library_with_big_body


@pytest.fixture()
def library_file(tmp_path):
    path = tmp_path / "lib.json"
    path.write_text(serialize_library(build_fixture_library()), encoding="utf-8")
    return path


def oracle_summary_end(path):
    """Independent end-offset oracle built on the stdlib JSON decoder."""
    raw = path.read_bytes()
    text = raw.decode("utf-8")
    key_pos = text.index('"_summary"')
    colon = text.index(":", key_pos)
    start = colon + 1
    while text[start] in " \t\r\n":
        start += 1
    value, end_char = json.JSONDecoder().raw_decode(text, start)
    return value, len(text[:end_char].encode("utf-8"))


class TestScanRegistry:
    def test_sorted_by_path(self, tmp_path):
        (tmp_path / "b.json").write_text("{}")
        (tmp_path / "a.json").write_text("{}")
        registry = scan_registry(tmp_path)
        assert [e.file_id for e in registry.entries] == ["a.json", "b.json"]

    def test_empty_directory(self, tmp_path):
        assert len(scan_registry(tmp_path)) == 0

    def test_sizes_match_filesystem(self, tmp_path):
        expected = {}
        for i in range(20):
            p = tmp_path / f"f{i:03d}.json"
            p.write_text("x" * (i * 7 + 2))
            expected[p.name] = i * 7 + 2
        registry = scan_registry(tmp_path)
        assert {e.file_id: e.byte_size for e in registry.entries} == expected

    def test_extension_filter(self, tmp_path):
        (tmp_path / "keep.json").write_text("{}")
        (tmp_path / "skip.txt").write_text("{}")
        assert [e.file_id for e in scan_registry(tmp_path).entries] == ["keep.json"]

    def test_missing_directory(self, tmp_path):
        with pytest.raises(IoFailure):
            scan_registry(tmp_path / "nope")

    def test_a_file_is_not_a_directory(self, tmp_path):
        (tmp_path / "a.json").write_text("{}")
        with pytest.raises(IoFailure):
            scan_registry(tmp_path / "a.json")

    def test_order_is_by_path_parts_not_by_string(self, tmp_path):
        # As a string "a-b.json" < "a.json" < "a/b.json"; by parts "a" sorts first.
        (tmp_path / "a" / "a").mkdir(parents=True)
        for name in ("a.json", "a-b.json", "a/b.json", "a/a/z.json", "a/a.json"):
            (tmp_path / name).write_text("{}")
        assert [e.file_id for e in scan_registry(tmp_path).entries] == [
            "a/a/z.json", "a/a.json", "a/b.json", "a-b.json", "a.json"]

    def test_dot_files_and_dot_directories_are_listed(self, tmp_path):
        (tmp_path / ".d").mkdir()
        for name in (".hidden.json", ".d/x.json", ".json"):
            (tmp_path / name).write_text("{}")
        assert [e.file_id for e in scan_registry(tmp_path).entries] == [
            ".d/x.json", ".hidden.json", ".json"]

    def test_a_directory_named_like_a_file_is_walked_not_listed(self, tmp_path):
        (tmp_path / "x.json").mkdir()
        (tmp_path / "x.json" / "inner.json").write_text("{}")
        assert [e.file_id for e in scan_registry(tmp_path).entries] == ["x.json/inner.json"]

    def test_symlinks(self, tmp_path):
        (tmp_path / "d").mkdir()
        (tmp_path / "d" / "in.json").write_text("{" + " " * 40 + "}")
        (tmp_path / "file.json").write_text("{}")
        (tmp_path / "link.json").symlink_to(tmp_path / "d" / "in.json")
        (tmp_path / "broken.json").symlink_to(tmp_path / "missing.json")
        (tmp_path / "loop.json").symlink_to(tmp_path / "loop.json")
        (tmp_path / "dirlink").symlink_to(tmp_path / "d", target_is_directory=True)
        (tmp_path / "dirlink.json").symlink_to(tmp_path / "d", target_is_directory=True)
        registry = scan_registry(tmp_path)
        # A file link is listed with its target's size, under its own path; a
        # broken or looping link is skipped, and a directory link is not followed.
        assert [(e.file_id, e.byte_size) for e in registry.entries] == [
            ("d/in.json", 42), ("file.json", 2), ("link.json", 42)]
        assert registry.entries[2].path == str(tmp_path / "link.json")

    def test_a_symlinked_root_is_scanned(self, tmp_path):
        (tmp_path / "d").mkdir()
        (tmp_path / "d" / "a.json").write_text("{}")
        (tmp_path / "root").symlink_to(tmp_path / "d", target_is_directory=True)
        assert [e.path for e in scan_registry(tmp_path / "root").entries] == [
            str(tmp_path / "root" / "a.json")]

    @pytest.mark.parametrize("spelling", [".", "./", "sub/..", "sub/../", "./sub/../."])
    def test_paths_are_spelled_as_pathlib_joins_them(self, tmp_path, monkeypatch, spelling):
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "b.json").write_text("{}")
        (tmp_path / "a.json").write_text("{}")
        monkeypatch.chdir(tmp_path)
        assert [e.path for e in scan_registry(spelling).entries] == [
            str(Path(spelling) / "a.json"), str(Path(spelling) / "sub" / "b.json")]

    def test_extension_is_a_glob_suffix(self, tmp_path):
        for name in ("a.json", "b.jsonl", "c.JSON", "d.sdsr.json", "ejson"):
            (tmp_path / name).write_text("{}")
        ids = lambda ext: [e.file_id for e in scan_registry(tmp_path, extension=ext).entries]
        assert ids(".json") == ["a.json", "d.sdsr.json"]
        assert ids(".sdsr.json") == ["d.sdsr.json"]
        assert ids("json") == ["a.json", "d.sdsr.json", "ejson"]
        assert ids(".json?") == ["b.jsonl"]
        assert ids(".[jJ][sS][oO][nN]") == ["a.json", "c.JSON", "d.sdsr.json"]
        assert ids("") == ["a.json", "b.jsonl", "c.JSON", "d.sdsr.json", "ejson"]


class TestExtractSummary:
    def test_matches_full_parse(self, library_file):
        result = extract_summary(library_file)
        value, end = oracle_summary_end(library_file)
        assert result.summary == decode(SummaryBlock, value)
        assert result.summary_end_offset == end

    @pytest.mark.parametrize("block_size", [1, 3, 7, 64, 512, 4096, 1 << 20])
    def test_block_size_only_changes_bytes_read(self, library_file, block_size):
        baseline = extract_summary(library_file, block_size=4096)
        result = extract_summary(library_file, block_size=block_size)
        assert result.summary == baseline.summary
        assert result.summary_end_offset == baseline.summary_end_offset
        assert result.summary_end_offset <= result.bytes_read
        assert result.bytes_read <= result.summary_end_offset + block_size

    def test_one_mebibyte_file_reads_a_bounded_prefix(self, tmp_path):
        rng = random.Random(7)
        lib = library_with_big_body(rng, min_serialized_bytes=1 << 20)
        path = tmp_path / "big.json"
        path.write_text(serialize_library(lib), encoding="utf-8")
        assert path.stat().st_size >= 1 << 20
        result = extract_summary(path, block_size=4096)
        _, end = oracle_summary_end(path)
        assert result.summary_end_offset == end
        assert result.bytes_read <= end + 4096
        assert result.bytes_read < path.stat().st_size // 4

    def test_multibyte_hints_across_block_boundaries(self, tmp_path):
        text = json.dumps({
            "_summary": {
                "category_index": [
                    {"name": "Ωmega_Ünit", "skill_count": 1, "routing_hint": "héllo 中文 🎵 ok"},
                ],
                "_llm_instructions": "naïve café — ünïcode",
                "routing_roles": {},
            },
            "Body": {"Ωmega_Ünit": {"category_description": "x", "skills": []}},
        }, ensure_ascii=False)
        path = tmp_path / "uni.json"
        path.write_text(text, encoding="utf-8")
        expected = extract_summary(path, block_size=1 << 16).summary
        for block_size in (1, 2, 3, 5, 8):
            assert extract_summary(path, block_size=block_size).summary == expected

    @pytest.mark.parametrize("block_size", [1, 2, 3, 4096])
    def test_utf8_bom_is_skipped(self, tmp_path, block_size):
        body = ('{"_summary": {"category_index": [], "_llm_instructions": "bom ok", '
                '"routing_roles": {}}, "Body": {}}')
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xef\xbb\xbf" + body.encode("utf-8"))
        result = extract_summary(path, block_size=block_size)
        assert result.summary.llm_instructions == "bom ok"

    def test_escaped_quotes_inside_strings(self, tmp_path):
        text = ('{"_summary": {"category_index": [], '
                '"_llm_instructions": "say \\"hi\\" and \\\\ wave {not a brace}", '
                '"routing_roles": {}}, "Body": {}}')
        path = tmp_path / "esc.json"
        path.write_text(text, encoding="utf-8")
        result = extract_summary(path, block_size=4)
        assert result.summary.llm_instructions == 'say "hi" and \\ wave {not a brace}'

    def test_body_first_is_rejected_in_strict_mode(self, tmp_path):
        path = tmp_path / "bodyfirst.json"
        path.write_text('{"Body": {"A": {"category_description": "d", "skills": []}}, '
                        '"_summary": {"category_index": [], "_llm_instructions": "", '
                        '"routing_roles": {}}}', encoding="utf-8")
        with pytest.raises(SummaryNotFirst):
            extract_summary(path)

    def test_no_summary_at_all(self, tmp_path):
        # A library with no summary has its body first, which is not the summary.
        path = tmp_path / "nosummary.json"
        path.write_text('{"Body": {}}', encoding="utf-8")
        with pytest.raises(SummaryNotFirst):
            extract_summary(path)

    def test_empty_object_lacks_summary(self, tmp_path):
        path = tmp_path / "empty_obj.json"
        path.write_text("{}", encoding="utf-8")
        with pytest.raises(NoSummary):
            extract_summary(path)

    @pytest.mark.parametrize("content", ["", "[1, 2]", '{"_summary": {', "garbage"])
    def test_malformed_files(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(MalformedFile):
            extract_summary(path)

    @pytest.mark.parametrize("block_size", [1, 7, 4096])
    @pytest.mark.parametrize("rest", [b' "Body": {}}', b', "Body": "\xff\xfe"}'],
                             ids=["missing-comma", "not-utf8"])
    def test_bytes_past_the_summary_are_not_validated(self, tmp_path, block_size, rest):
        # A missing comma or bytes that are not UTF-8 after the summary
        # must not matter, however many of them share the summary's block.
        path = tmp_path / "trailing.json"
        path.write_bytes(b'{"_summary": {"category_index": [], "_llm_instructions": "ok", '
                         b'"routing_roles": {}}' + rest)
        result = extract_summary(path, block_size=block_size)
        assert result.summary.llm_instructions == "ok"

    @pytest.mark.parametrize("block_size", [1, 4096])
    def test_summary_that_is_not_utf8_is_malformed(self, tmp_path, block_size):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"_summary": {"category_index": [], "_llm_instructions": "caf\xe9", '
                         b'"routing_roles": {}}, "Body": {}}')
        with pytest.raises(MalformedFile):
            extract_summary(path, block_size=block_size)

    @pytest.mark.parametrize("block_size", [1, 7, 4096])
    def test_multibyte_text_keeps_the_byte_offset(self, tmp_path, block_size):
        # The offset counts raw bytes: 3 of BOM and 13 of '{"_summary": ',
        # then 114 of summary, whose unknown member "x" the reader decodes
        # and drops (e-acute 2, the CJK character 3, the emoji 4, each twice),
        # and bytes past it that are not UTF-8 are never decoded.
        head = b'\xef\xbb\xbf{"_summary": '
        summary = ('{"x": ["caf\u00e9 \u4e2d \U0001f3b5", 1.5e3], "category_index": [], '
                   '"_llm_instructions": "caf\u00e9 \u4e2d \U0001f3b5", '
                   '"routing_roles": {}}').encode("utf-8")
        path = tmp_path / "multibyte.json"
        path.write_bytes(head + summary + b', "Body": "caf\xe9 \xff\xfe"}')
        result = extract_summary(path, block_size=block_size)
        assert result.summary == SummaryBlock(llm_instructions="caf\u00e9 \u4e2d \U0001f3b5")
        assert result.summary_end_offset == len(head) + len(summary) == 16 + 114

    @pytest.mark.parametrize("block_size", [1, 7, 4096])
    @pytest.mark.parametrize("content", [
        '{"_summary": ' + "[" * 5000 + "]" * 5000 + "}",
        '{"_summary": {"x": ' + '{"a": ' * 5000 + "1" + "}" * 5000 + ', "routing_roles": {}}}',
    ], ids=["deep-summary", "deep-member"])
    def test_nesting_past_the_recursion_limit_is_malformed(self, tmp_path, content, block_size):
        path = tmp_path / "deep.json"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(MalformedFile) as info:
            extract_summary(path, block_size=block_size)
        assert str(info.value) == f"{path}: nested too deeply to decode"

    @pytest.mark.parametrize("block_size", [1, 7, 4096])
    def test_an_integer_literal_too_long_for_int_is_malformed(self, library_file, block_size):
        text = library_file.read_text(encoding="utf-8")
        long = text.replace('"skill_count": 7', '"skill_count": 1' + "0" * 5000, 1)
        assert long != text
        library_file.write_text(long, encoding="utf-8")
        with pytest.raises(MalformedFile) as info:
            extract_summary(library_file, block_size=block_size)
        assert str(info.value) == f"{library_file}: {LONG_INTEGER}"

    @pytest.mark.parametrize("block_size", [1, 7, 4096])
    def test_a_long_unknown_integer_in_the_summary_is_malformed(self, tmp_path, block_size):
        path = tmp_path / "long_member.json"
        path.write_text('{"_summary": {"x": 1' + "0" * 5000 + '}, "Body": {}}', encoding="utf-8")
        with pytest.raises(MalformedFile) as info:
            extract_summary(path, block_size=block_size)
        assert str(info.value) == f"{path}: {LONG_INTEGER}"

    @pytest.mark.parametrize("block_size", [1, 7, 4096])
    def test_a_long_float_is_not_taken_for_a_long_integer_at_a_block_edge(self, tmp_path,
                                                                          block_size):
        # A block edge can cut the float's digits before its "." or "e"; the
        # summary decodes its unknown member "x" and drops it.
        path = tmp_path / "long_float.json"
        for number in ["1" + "0" * 5000 + ".5", "1" + "0" * 5000 + "e-5000"]:
            path.write_text('{"_summary": {"x": ' + number + ', "routing_roles": {}}, "Body": {}}',
                            encoding="utf-8")
            result = extract_summary(path, block_size=block_size)
            assert result.summary == SummaryBlock()

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailure):
            extract_summary(tmp_path / "missing.json")

    def test_block_size_must_be_positive(self, library_file):
        with pytest.raises(ValueError):
            extract_summary(library_file, block_size=0)


# Property: the reader's outcome does not depend on the block size.

BLOCK_SIZES = (1, 2, 3, 7, 64, 4096)

# Quotes, backslashes, structural characters and multibyte text, but no
# underscore, so no generated string can spell "_summary".
_TEXT = st.text(alphabet='ab "\\{}[],:\n\té中🎵', max_size=10)
_SUMMARIES = st.fixed_dictionaries({
    "category_index": st.lists(st.fixed_dictionaries({
        "name": _TEXT, "skill_count": st.integers(0, 99), "routing_hint": _TEXT}), max_size=4),
    "_llm_instructions": _TEXT,
    "routing_roles": st.dictionaries(_TEXT, st.lists(_TEXT, max_size=2), max_size=2),
})
_TOP_LEVEL_VALUES = st.one_of(
    st.integers(), st.floats(), _TEXT, st.booleans(), st.none(),
    st.lists(st.one_of(st.integers(), st.floats(), _TEXT), max_size=4),
    st.dictionaries(_TEXT, st.integers(), max_size=3))


# One of these is inserted into a malformed summary, or "" deletes a character.
_EDITS = ("", *',:}]["x1 ')


@st.composite
def prefix_files(draw):
    """(file bytes, body first?, intact?) for one case.

    The summary holds up to three unknown members, which the reader
    decodes and drops, drawn in among its own; the body may come before
    it, which the reader refuses.  A case may have one character of its
    summary deleted or inserted, and may be cut short; an intact case has
    neither.
    """
    members = list(draw(_SUMMARIES).items())
    for key, value in draw(st.lists(st.tuples(_TEXT, _TOP_LEVEL_VALUES), max_size=3)):
        members.insert(draw(st.integers(0, len(members))), (key, value))
    top = [("_summary", dict(members)), ("Body", draw(_TOP_LEVEL_VALUES))]
    body_first = draw(st.booleans())
    if body_first:
        top.reverse()
    ascii_only = draw(st.booleans())
    indent = draw(st.sampled_from([None, 1]))
    values = [json.dumps(value, ensure_ascii=ascii_only, indent=indent) for _, value in top]
    malformed = draw(st.booleans())
    if malformed:
        at = 1 if body_first else 0  # the summary's index
        summary = values[at]
        cut = draw(st.integers(0, len(summary) - 1))
        edit = draw(st.sampled_from(_EDITS))
        values[at] = summary[:cut] + edit + summary[cut + (not edit):]
    data = ("{" + ", ".join(
        f"{json.dumps(key, ensure_ascii=ascii_only)}: {value}"
        for (key, _), value in zip(top, values)) + "}").encode("utf-8")
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    cut = draw(st.none() | st.integers(0, len(data)))
    return data[:cut], body_first, cut is None and not malformed


def _outcome(path, block_size):
    try:
        result = extract_summary(path, block_size=block_size)
    except MalformedFile as exc:
        return type(exc), str(exc)
    assert result.summary_end_offset <= result.bytes_read
    assert result.bytes_read <= result.summary_end_offset + block_size
    return result.summary, result.summary_end_offset


@settings(max_examples=300, deadline=None)
@given(case=prefix_files())
@example(case=(b'{"_summary": {"category_index": [], "_llm_instructions": "x",}, "B": {}}',
               False, False))
def test_outcome_is_independent_of_block_size(tmp_path_factory, case):
    data, body_first, intact = case
    path = tmp_path_factory.mktemp("prop") / "case.json"
    path.write_bytes(data)
    outcomes = [_outcome(path, block_size) for block_size in BLOCK_SIZES]
    assert all(outcome == outcomes[0] for outcome in outcomes), outcomes
    if intact and body_first:
        assert outcomes[0][0] is SummaryNotFirst
    elif intact:
        value, end = oracle_summary_end(path)
        assert outcomes[0] == (decode(SummaryBlock, value), end)


class TestTokenEstimation:
    @pytest.mark.parametrize("text,expected", [
        ("abcd", 1),
        ("", 0),
        ("x" * 800, 200),
        ("abc", 1),
        ("abcde", 2),
    ])
    def test_formula(self, text, expected):
        assert estimate_tokens(text) == expected

    def test_summary_estimate_counts_serialized_form(self, fixture_library):
        estimate = summary_token_estimate(fixture_library.summary)
        payload = json.dumps(
            {"category_index": [
                {"name": e.name, "skill_count": e.skill_count, "routing_hint": e.routing_hint}
                for e in fixture_library.summary.category_index],
             "_llm_instructions": fixture_library.summary.llm_instructions,
             "routing_roles": {k: list(v) for k, v in
                               fixture_library.summary.routing_roles.items()}},
            ensure_ascii=False, separators=(",", ":"))
        assert estimate == (len(payload) + 3) // 4


def test_summary_token_sum_independent_of_body_size(tmp_path):
    # Same summaries, bodies grown ~100x: tier-1 accounting must not move.
    import random as _random

    from sdsr.guidance import build_summary
    from sdsr.library import Category, KnowledgeLibrary, Skill

    from _generators import random_library

    rng = _random.Random(3)
    small_dir = tmp_path / "small"
    big_dir = tmp_path / "big"
    small_dir.mkdir()
    big_dir.mkdir()
    for i in range(5):
        lib = random_library(rng, n_categories=3, with_summary=True)
        (small_dir / f"f{i}.json").write_text(serialize_library(lib), encoding="utf-8")
        # pad skill descriptions only: hints and counts stay identical
        grown = build_summary(
            KnowledgeLibrary(summary=lib.summary, categories=tuple(
                Category(
                    name=cat.name, description=cat.description,
                    abstraction_level=cat.abstraction_level, complement=cat.complement,
                    skills=tuple(
                        Skill(name=s.name, description=s.description + " pad" * 2000)
                        for s in cat.skills),
                )
                for cat in lib.categories)))
        assert grown.summary == lib.summary
        (big_dir / f"f{i}.json").write_text(serialize_library(grown), encoding="utf-8")

    def token_sum(directory):
        registry = scan_registry(directory)
        results, _ = read_registry_summaries(registry)
        return sum(summary_token_estimate(res.summary) for _, res in results)

    assert token_sum(big_dir) == token_sum(small_dir)


def test_read_registry_summaries_order_and_budget(tmp_path):
    for i in range(3):
        lib = build_fixture_library()
        (tmp_path / f"f{i}.json").write_text(serialize_library(lib), encoding="utf-8")
    registry = scan_registry(tmp_path)
    results, findings = read_registry_summaries(registry)
    assert [fid for fid, _ in results] == ["f0.json", "f1.json", "f2.json"]
    # 36-entry index (1,704 tokens) blows the 200-token budget: one overrun finding per file
    assert [f.code for f in findings] == ["TOKEN_BUDGET_OVERRUN"] * 3


# Every character the compact form escapes, non-ASCII text and lone surrogates.
_ANY_TEXT = st.text(alphabet=st.sampled_from('"\\/\x00\x07\x1f\x7f\n\t é中🎵\u2028\ud800\udfff')
                    | st.integers(0, 0x10FFFF).map(chr), max_size=8)


class TestSummaryLengthCache:
    def test_estimate_leaves_equality_repr_and_wire_format_alone(self):
        summary = build_fixture_library().summary
        twin = build_fixture_library().summary
        before = (repr(summary), encode(summary))
        payload = json.dumps(encode(summary), ensure_ascii=False, separators=(",", ":"))
        assert summary_token_estimate(summary) == (len(payload) + 3) // 4
        assert summary == twin
        assert (repr(summary), encode(summary)) == before
        assert "compact_length" not in repr(summary)

    def test_each_summary_is_serialized_once_per_scan_and_route(self, tmp_path, monkeypatch):
        n = 4
        for i in range(n):
            (tmp_path / f"f{i}.json").write_text(
                serialize_library(build_fixture_library()), encoding="utf-8")
        compute, calls = SummaryBlock.compact_length.func, []

        def counting(summary):
            calls.append(summary)
            return compute(summary)

        monkeypatch.setattr(SummaryBlock.compact_length, "func", counting)
        results, findings = read_registry_summaries(scan_registry(tmp_path))
        route_tier1(RoutingRequest(query="map competitor weak points",
                                   summaries=tuple((fid, r.summary) for fid, r in results)),
                    LexicalBackend())
        assert len(findings) == n
        assert len(calls) == n

    @settings(max_examples=300, deadline=None)
    @given(summary=st.builds(
        SummaryBlock,
        category_index=st.lists(st.builds(
            CategoryIndexEntry, name=_ANY_TEXT, routing_hint=_ANY_TEXT,
            skill_count=st.integers(0, 99) | st.integers(-10**30, 10**30)), max_size=4),
        llm_instructions=_ANY_TEXT,
        routing_roles=st.dictionaries(_ANY_TEXT, st.lists(_ANY_TEXT, max_size=3), max_size=3)))
    @example(summary=SummaryBlock())
    @example(summary=SummaryBlock(routing_roles={"": ()}))
    @example(summary=SummaryBlock(category_index=(CategoryIndexEntry("", 1234567, ""),),
                                  routing_roles={"a": (), "b": ("x", "\ud800")}))
    def test_compact_length_is_the_length_of_the_compact_dump(self, summary):
        assert summary.compact_length == len(
            json.dumps(encode(summary), ensure_ascii=False, separators=(",", ":")))
