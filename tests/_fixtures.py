"""The tests' loader for the committed synthetic fixtures in ``fixtures/``.

The committed files are the only copy of the library, questions, round
configs, prompts, selections and judgment corpus; each function decodes
one with the decoder the CLI uses for that format.
"""

from __future__ import annotations

import json
from pathlib import Path

from sdsr.bench import Question, decode_questions
from sdsr.corpus import CrossReference, SectionRule
from sdsr.distractors import RoundConfig
from sdsr.engine import SelectionSet
from sdsr.guidance import PromptConfig
from sdsr.library import KnowledgeLibrary, deserialize_library
from sdsr.wire import decode

FIXTURES_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def _text(name: str) -> str:
    return (FIXTURES_DIR / name).read_text(encoding="utf-8")


def _json(name: str) -> object:
    return json.loads(_text(name))


def build_fixture_library(with_summary: bool = True) -> KnowledgeLibrary:
    """The 36-category / 190-skill library (summary optional)."""
    return deserialize_library(_text("library_r1.json" if with_summary else "library_r1_bare.json"))


def build_fixture_questions() -> list[Question]:
    """Twenty questions; 17 carry a designated secondary target."""
    return decode_questions(_json("questions_20.json"))


def fixture_prompt_config() -> PromptConfig:
    return decode(PromptConfig, _json("prompts.json"))


def round2_config() -> RoundConfig:
    """24 distractors (12 high, 12 low), three skills each: 60/262 totals."""
    return decode(RoundConfig, _json("round2_specs.json"))


def round3_config() -> RoundConfig:
    """60 more distractors; states 119 expected categories against 120 on purpose."""
    return decode(RoundConfig, _json("round3_specs.json"))


def round1_selection_fixture(condition: str) -> SelectionSet:
    """Hand-frozen round-1 hit matrices: A and C score 20/2, B 20/3."""
    condition = condition.strip().upper()
    if condition not in ("A", "B", "C"):
        raise ValueError(f"round-1 fixtures exist for conditions A, B, C; got {condition!r}")
    return decode(SelectionSet, _json(f"selections_r1_{condition}.json"))


def fixture_judgment() -> tuple[str, list[SectionRule], dict[str, str], list[CrossReference]]:
    """Document text, sectioning rules, digests, and cross-references."""
    return (_text("judgment.txt"),
            list(decode(tuple[SectionRule, ...], _json("judgment_rules.json"))),
            decode(dict[str, str], _json("judgment_digests.json")),
            list(decode(tuple[CrossReference, ...], _json("judgment_refs.json"))))
