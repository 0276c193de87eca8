"""Seeded random builders shared by the property and acceptance suites.

Everything takes an explicit random.Random so generated cases are
reproducible; nothing here depends on global random state.
"""

from __future__ import annotations

import random
from dataclasses import replace
from pathlib import Path

from sdsr.corpus import SectionRule
from sdsr.engine import QuestionSelection, Selection, SelectionSet
from sdsr.guidance import DEFAULT_LLM_INSTRUCTIONS, build_summary
from sdsr.library import Category, KnowledgeLibrary, Skill, SummaryBlock, serialize_library

_WORDS = (
    "harbor lantern quartz meadow cipher violet ember drift anchor breeze "
    "carbon delta ridge summit hollow strand prism garnet tundra maple "
    "onyx petal quill raven sable thistle umber willow zephyr basalt "
    "copper dune fjord grove heron inlet juniper kelp lagoon moraine"
).split()

_NAME_EXTRAS = "éñüØ中語"


def word(rng: random.Random) -> str:
    return rng.choice(_WORDS)


def words(rng: random.Random, low: int, high: int) -> str:
    return " ".join(word(rng) for _ in range(rng.randint(low, high)))


def category_name(rng: random.Random, index: int) -> str:
    parts = [word(rng).capitalize() for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.2:
        parts.append(rng.choice(["&", _NAME_EXTRAS[rng.randrange(len(_NAME_EXTRAS))]]))
    parts.append(str(index))
    return "_".join(parts)


def random_skill(rng: random.Random, index: int) -> Skill:
    return Skill(
        name=f"{word(rng).capitalize()}_{word(rng).capitalize()}_{index}",
        description=words(rng, 3, 12) + ".",
    )


def random_library(
    rng: random.Random,
    n_categories: int | None = None,
    with_summary: bool | None = None,
) -> KnowledgeLibrary:
    """A structurally valid random library, optionally summarized."""
    if n_categories is None:
        n_categories = rng.randint(1, 8)
    if with_summary is None:
        with_summary = rng.random() < 0.5
    categories = []
    names = []
    for i in range(n_categories):
        names.append(category_name(rng, i))
    for i, name in enumerate(names):
        complement = None
        if len(names) > 1 and rng.random() < 0.3:
            complement = rng.choice([n for n in names if n != name])
        categories.append(Category(
            name=name,
            description=words(rng, 4, 30) + ".",
            skills=tuple(random_skill(rng, j) for j in range(rng.randint(1, 5))),
            abstraction_level=rng.choice(
                [None, "pipeline", "governance", "mechanism", "component"]),
            complement=complement,
        ))
    provenance = {"run": str(rng.randint(0, 999))} if rng.random() < 0.4 else {}
    lib = KnowledgeLibrary(categories=tuple(categories), provenance=provenance)
    if with_summary:
        roles = {}
        if rng.random() < 0.5:
            roles["anchor"] = (rng.choice(names),)
        # build_summary keeps the instructions and roles of the summary it replaces.
        lib = build_summary(replace(lib, summary=SummaryBlock(
            llm_instructions=DEFAULT_LLM_INSTRUCTIONS, routing_roles=roles)))
    return lib


def random_selection_set(rng: random.Random) -> SelectionSet:
    """A well-formed selection set: sorted unique ids, grammar-safe names."""
    ids = sorted(rng.sample(range(1, 41), rng.randint(1, 12)))
    selections = []
    for qid in ids:
        secondary = None
        if rng.random() < 0.5:
            secondary = Selection(
                category=f"{word(rng).capitalize()}_&_{word(rng).capitalize()}",
                skill=f"{word(rng).capitalize()}_{qid}")
        selections.append(QuestionSelection(
            question_id=qid,
            primary=Selection(
                category=f"{word(rng).capitalize()}_{word(rng).capitalize()}",
                skill=f"{word(rng).capitalize()}_Skill_{qid}"),
            secondary=secondary,
        ))
    return SelectionSet(selections=tuple(selections))


def random_document(rng: random.Random) -> tuple[str, list[SectionRule]]:
    """Random text with zero or more recognizable headers."""
    rules = [
        SectionRule(role="claimant", header_pattern=r"^== CLAIMS =="),
        SectionRule(role="respondent", header_pattern=r"^== RESPONSE =="),
        SectionRule(role="reasoning", header_pattern=r"^== REASONING =="),
        SectionRule(role="holding", header_pattern=r"^== HOLDING =="),
    ]
    headers = ["== CLAIMS ==", "== RESPONSE ==", "== REASONING ==", "== HOLDING =="]
    pieces = []
    if rng.random() < 0.7:
        pieces.append(words(rng, 5, 25) + "\n")
    for header in headers:
        if rng.random() < 0.7:
            pieces.append(header + "\n")
            pieces.append(words(rng, 5, 40) + "\n")
    if not pieces:
        pieces.append(words(rng, 3, 10))
    return "".join(pieces), rules


def library_with_big_body(
    rng: random.Random,
    n_categories: int = 4,
    min_serialized_bytes: int = 1_048_576,
) -> KnowledgeLibrary:
    """Small summary, huge body: for prefix-read and budget checks."""
    pool = [words(rng, 55, 70) + "." for _ in range(24)]
    bytes_per_skill = sum(len(d) for d in pool) // len(pool) + 70  # json overhead
    per_category = min_serialized_bytes // (bytes_per_skill * n_categories) + 2
    categories = tuple(
        Category(
            name=category_name(rng, i),
            description=words(rng, 12, 16) + ".",
            skills=tuple(
                Skill(name=f"Skill_{i}_{j}", description=rng.choice(pool))
                for j in range(per_category)
            ),
        )
        for i in range(n_categories)
    )
    lib = build_summary(KnowledgeLibrary(categories=categories))
    shortfall = min_serialized_bytes - len(serialize_library(lib))
    if shortfall > 0:
        # Pad the body (never the summary) with one oversized filler skill.
        first = lib.categories[0]
        padded = Category(
            name=first.name, description=first.description,
            skills=first.skills + (
                Skill(name="Padding_Entry", description="pad " * (shortfall // 4 + 2)),))
        lib = build_summary(KnowledgeLibrary(categories=(padded,) + lib.categories[1:]))
    return lib


def write_routing_registry(
    rng: random.Random, directory: Path, n_files: int = 10
) -> list[str]:
    """Write small summarized libraries and return the vocabulary pool."""
    directory.mkdir(parents=True, exist_ok=True)
    vocabulary = rng.sample(_WORDS, 24)
    for i in range(n_files):
        n_cats = rng.randint(2, 5)
        categories = tuple(
            Category(
                name=f"{vocabulary[(i * 3 + j) % len(vocabulary)].capitalize()}_Topic_{i}_{j}",
                description=" ".join(
                    rng.choice(vocabulary) for _ in range(rng.randint(6, 14))) + ".",
                skills=(Skill(name=f"Skill_{i}_{j}", description=words(rng, 3, 8)),),
            )
            for j in range(n_cats)
        )
        lib = build_summary(KnowledgeLibrary(categories=categories))
        (directory / f"file_{i:02d}.json").write_text(
            serialize_library(lib), encoding="utf-8")
    return vocabulary


def random_query(rng: random.Random, vocabulary: list[str]) -> str:
    picks = [rng.choice(vocabulary) for _ in range(rng.randint(2, 6))]
    noise = [word(rng) for _ in range(rng.randint(0, 3))]
    tokens = picks + noise
    rng.shuffle(tokens)
    return " ".join(tokens)
