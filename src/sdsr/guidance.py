"""Summary construction and the four-way guidance condition matrix.

Four conditions pair a library variant with a system prompt:

=========  =================  ==================
condition  library file       system prompt
=========  =================  ==================
A          bare (no summary)  minimal
B          summary first      minimal
C          bare (no summary)  extended (rules)
D          summary first      extended (rules)
=========  =================  ==================

The extended prompt carries an abstraction-priority rule plus one line
per high-priority category pair; condition D adds no prompt text beyond
C's.  Everything here is a pure function of its inputs, and identical
inputs produce byte-identical artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, partial
from string import Formatter

from .errors import EmptyLibrary
from .library import (
    CategoryIndexEntry,
    HINT_MAX,
    KnowledgeLibrary,
    SummaryBlock,
    serialize_library,
)
from .wire import decode

CONDITIONS = ("A", "B", "C", "D")

DEFAULT_LLM_INSTRUCTIONS = (
    "Navigate in two stages: first match the task against the routing_hint of each "
    "category_index entry and shortlist one to three categories, then read only the "
    "shortlisted categories' full entries before choosing skills. "
    "Answer in the form 'Q#: category_name | skill_name'."
)

DEFAULT_PRIORITY_RULE = (
    "Priority rule: when a broad pipeline/orchestration/governance category and a "
    "narrow mechanism/component category both seem relevant, prefer the broader one."
)

DEFAULT_MINIMAL_TEMPLATE = (
    "You are a professional Prompt Engineer.\n"
    "I will provide you with a skills.json library and a numbered list of task "
    "requirements.\n"
    "For each task, select the most relevant skills from the library.\n"
    "For each skill you select, list ONLY the category_name and skill_name.\n"
    "Do NOT explain your reasoning yet; list the selections for every task first.\n"
    "Ensure that every skill you reference actually exists in the library."
)

DEFAULT_EXTENDED_TEMPLATE = DEFAULT_MINIMAL_TEMPLATE + (
    "\n\nBefore reading the library:\n"
    "- Scan the category_description fields to understand each category's scope.\n"
    "- {priority_rule}\n"
    "- Key high-priority categories:\n"
    "{high_priority}\n"
    "- When a _summary block is present, use its category_index to shortlist "
    "categories before reading full entries."
)


@dataclass(frozen=True)
class HighPriorityEntry:
    """A category that keeps getting confused with a specific neighbour."""

    target: str
    confused_with: str
    confusion_type: str = ""

    def __post_init__(self) -> None:
        if self.target.strip() == self.confused_with.strip():
            raise ValueError(f"high-priority entry confuses {self.target!r} with itself")


@dataclass(frozen=True)
class PromptConfig:
    minimal_template: str = DEFAULT_MINIMAL_TEMPLATE
    extended_template: str = DEFAULT_EXTENDED_TEMPLATE
    high_priority: tuple[HighPriorityEntry, ...] = ()
    priority_rule: str = DEFAULT_PRIORITY_RULE

    def __post_init__(self) -> None:
        object.__setattr__(self, "high_priority", tuple(self.high_priority))
        # expand_extended_prompt fills two fields, neither with a conversion or format spec
        try:
            placeholders = {
                "{" + name + (f"!{conversion}" if conversion else "")
                + (f":{spec}" if spec else "") + "}"
                for _, name, spec, conversion in Formatter().parse(self.extended_template)
                if name is not None}
        except ValueError as exc:
            raise ValueError(f"extended_template: {exc}") from None
        unknown = sorted(placeholders - {"{priority_rule}", "{high_priority}"})
        if unknown:
            raise ValueError(f"extended_template: unknown placeholder {unknown[0]}")
        if "{high_priority}" not in placeholders:
            raise ValueError("extended_template must contain the {high_priority} placeholder")


@dataclass(frozen=True)
class GuidanceCondition:
    condition: str
    library: KnowledgeLibrary
    system_prompt: str

    @cached_property
    def library_artifact(self) -> bytes:
        """The library as the file a reader is handed; serialized on first use.

        Not a field, so == compares the libraries, not their bytes.
        """
        return serialize_library(self.library).encode("utf-8")


# perfbench/inputs.py imports this name.
prompt_config_from_dict = partial(decode, PromptConfig)


def build_summary(lib: KnowledgeLibrary) -> KnowledgeLibrary:
    """Return a copy of *lib* with a freshly computed summary block.

    Index entries follow library order; each routing hint is the first
    ``HINT_MAX`` Unicode scalar values of the category description with
    trailing whitespace trimmed (plain prefix truncation, no sentence
    search).  Instructions and roles are kept from the library's summary
    when present, else they are the shipped template and an empty role
    map.  Building twice equals building once.
    """
    if not lib.categories:
        raise EmptyLibrary("cannot summarize a library with no categories")
    previous = lib.summary or SummaryBlock(llm_instructions=DEFAULT_LLM_INSTRUCTIONS)
    index = tuple(
        CategoryIndexEntry(
            name=cat.name.strip(),
            skill_count=cat.skill_count,
            routing_hint=cat.description[:HINT_MAX].rstrip(),
        )
        for cat in lib.categories
    )
    return replace(lib, summary=replace(previous, category_index=index))


def strip_summary(lib: KnowledgeLibrary) -> KnowledgeLibrary:
    """Return *lib* without a summary block; idempotent."""
    return lib if lib.summary is None else replace(lib, summary=None)


def expand_extended_prompt(prompts: PromptConfig) -> str:
    lines = "\n".join(
        f"  {e.target} (commonly confused with {e.confused_with}; {e.confusion_type})"
        for e in prompts.high_priority
    ) or "  (none)"
    return prompts.extended_template.format(
        priority_rule=prompts.priority_rule, high_priority=lines)


def build_condition(
    lib: KnowledgeLibrary,
    condition: str,
    prompts: PromptConfig | None = None,
) -> GuidanceCondition:
    """Materialize one condition as a library variant and its system prompt.

    A and C serve the stripped library; B and D serve it with the
    summary rebuilt.  A and B use the minimal prompt; C and D use the
    expanded extended prompt, which quotes the priority rule verbatim
    and names every high-priority target.
    """
    condition = condition.strip().upper()
    if condition not in CONDITIONS:
        raise ValueError(f"unknown condition {condition!r}; expected one of {CONDITIONS}")
    if prompts is None:
        prompts = PromptConfig()
    if condition in ("B", "D"):
        variant = build_summary(lib)
    else:
        variant = strip_summary(lib)
    if condition in ("C", "D"):
        prompt = expand_extended_prompt(prompts)
    else:
        prompt = prompts.minimal_template
    return GuidanceCondition(condition=condition, library=variant, system_prompt=prompt)
