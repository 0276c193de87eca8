"""Seeded input generators for the three perfbench workloads.

Everything here is a pure function of the seed (and, for the sweep, of
the committed ``fixtures/*.json``): the same seed yields byte-identical
files and strings.  The library under test only ever sees the generated
files and strings.

Vocabulary comes in two kinds:

- *pseudo-words*: consonant-vowel syllable strings of six or more
  letters.  Every pseudo-word is handed out once per generator, so a
  query built from one category's pseudo-words matches that category
  and no other.
- *filler* words: ordinary English words that pad descriptions and
  bodies.  Queries never contain them, so they cost tier-1/tier-2 time
  without changing which file or pair wins.

Sizes and category counts depend on the file or op position only, never
on the seed, so the byte and token counts of two seeds differ only by
word lengths.  That keeps the deterministic metrics steady across seeds.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

from sdsr.bench import Question, questions_from_json
from sdsr.corpus import CrossReference, SectionRule
from sdsr.distractors import DistractorSpec, RoundConfig, expand_round, round_config_from_dict
from sdsr.guidance import PromptConfig, build_summary, prompt_config_from_dict
from sdsr.library import Category, KnowledgeLibrary, Skill, deserialize_library, \
    serialize_library

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_SYLLABLES = tuple(c + v for c in _CONSONANTS for v in _VOWELS)
PSEUDO_WORD = re.compile(r"(?:[bdfgklmnprstvz][aeiou]){3,}")

_FILLER_TEXT = """
the and for with from into over under about each every other their this that
which while where record entry method process system field result support
review standard general project working careful practical overall summary
context simple clear shared planning tracking handling checking through
between across around during without within should could would always often
rarely quickly slowly notes report draft scope plan step steps task tasks team
teams owner owners stage stages output input check checks list lists track
tracks guide guides short long first last next prior later early
"""
FILLER = tuple(w for w in _FILLER_TEXT.split() if not PSEUDO_WORD.fullmatch(w))


class WordSource:
    """Hands out pseudo-words, each at most once.

    ``tag`` fixes the first three syllables of every word, so two
    sources with different tags can never produce the same word.
    """

    def __init__(self, rng: random.Random, banned: frozenset[str] = frozenset(),
                 tag: int | None = None) -> None:
        self.rng = rng
        self.used: set[str] = set(banned)
        self.prefix = "" if tag is None else syllable_code(tag)

    def fresh(self) -> str:
        while True:
            n = 2 if self.prefix else self.rng.randint(3, 4)
            word = self.prefix + "".join(self.rng.choice(_SYLLABLES) for _ in range(n))
            if word not in self.used:
                self.used.add(word)
                return word

    def many(self, n: int) -> list[str]:
        return [self.fresh() for _ in range(n)]


def syllable_code(n: int) -> str:
    """Fixed-width (three-syllable) encoding of 0 <= n < 70**3."""
    base = len(_SYLLABLES)
    if not 0 <= n < base ** 3:
        raise ValueError(f"tag {n} out of range")
    return _SYLLABLES[n // base // base] + _SYLLABLES[n // base % base] + _SYLLABLES[n % base]


def filler(rng: random.Random, low: int, high: int) -> str:
    return " ".join(rng.choice(FILLER) for _ in range(rng.randint(low, high)))


def camel_name(words: list[str]) -> str:
    return "_".join(w.capitalize() for w in words)


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.hexdigest()[:16]


# --- route_wide -----------------------------------------------------------

ROUTE_FILES = 64
ROUTE_MIN_BYTES = 8 * 1024
ROUTE_MAX_BYTES = 1024 * 1024
ROUTE_CYCLE = 32
# Files a multi-target query names: one, two or three, as tier 1 may pick.
_GROUP_PATTERN = (1, 1, 2, 1, 3, 1, 2, 1)
_BYTES_PER_SKILL = 170
_BYTES_PER_CATEGORY = 420


def route_file_plan(index: int) -> tuple[int, int]:
    """(category count, target serialized bytes) of registry file *index*.

    Sizes are log-uniform over [8 KiB, 1 MiB]; a fixed permutation keeps
    size uncorrelated with both file order and category count.
    """
    n_categories = 4 + (index * 11) % 27
    rank = (index * 23) % ROUTE_FILES
    ratio = ROUTE_MAX_BYTES / ROUTE_MIN_BYTES
    return n_categories, round(ROUTE_MIN_BYTES * ratio ** (rank / (ROUTE_FILES - 1)))


@dataclass(frozen=True)
class CategoryWords:
    name_words: tuple[str, ...]
    desc_words: tuple[str, ...]
    skill_word: str


@dataclass(frozen=True)
class RouteQuery:
    text: str
    target_file: str | None        # None: matches nothing, tier 1 must expand scope
    target_category: str | None


@dataclass(frozen=True)
class RouteInputs:
    queries: tuple[RouteQuery, ...]
    digest: str


def _route_library(rng: random.Random, words: WordSource, n_categories: int,
                   target_bytes: int, pool: list[str]) -> tuple[KnowledgeLibrary,
                                                                list[CategoryWords]]:
    n_skills = max(0, target_bytes - 600 - n_categories * _BYTES_PER_CATEGORY) \
        // _BYTES_PER_SKILL
    per_category = max(2, -(-n_skills // n_categories))
    categories = []
    plan = []
    for _ in range(n_categories):
        name_words = words.many(rng.randint(2, 3))
        desc_words = words.many(5)
        name = camel_name(name_words)
        skill_word = words.fresh()
        skill_name = f"{name_words[0].capitalize()}_{skill_word.capitalize()}"
        skills = [
            Skill(name=skill_name, description=f"{skill_word} {filler(rng, 4, 8)}."),
            Skill(name=f"{name_words[0].capitalize()}_Overview",
                  description=f"{filler(rng, 6, 10)}."),
        ]
        skills += [Skill(name=f"{name_words[0].capitalize()}_Note_{j}",
                         description=rng.choice(pool))
                   for j in range(per_category - 2)]
        categories.append(Category(
            name=name,
            description=" ".join(desc_words) + " " + filler(rng, 8, 14) + ".",
            skills=tuple(skills)))
        plan.append(CategoryWords(tuple(name_words), tuple(desc_words), skill_word))
    return build_summary(KnowledgeLibrary(categories=tuple(categories))), plan


def route_file_id(index: int) -> str:
    return f"lib_{index:03d}.json"


def write_route_inputs(seed: int, directory: Path) -> RouteInputs:
    """Write the route_wide registry into *directory* and build its query cycle."""
    rng = random.Random(f"{seed}/route_wide")
    words = WordSource(rng)
    pool = [filler(rng, 8, 16) + "." for _ in range(256)]
    directory.mkdir(parents=True, exist_ok=True)
    plans: list[list[CategoryWords]] = []
    h = hashlib.sha256()
    for index in range(ROUTE_FILES):
        n_categories, target_bytes = route_file_plan(index)
        lib, plan = _route_library(rng, words, n_categories, target_bytes, pool)
        data = serialize_library(lib).encode("utf-8")
        (directory / route_file_id(index)).write_bytes(data)
        h.update(data)
        plans.append(plan)

    order = [(k * 41) % ROUTE_FILES for k in range(ROUTE_FILES)]
    next_file = 0
    queries = []
    for position in range(ROUTE_CYCLE):
        if position % 16 == 15:
            queries.append(RouteQuery(" ".join(words.many(4)), None, None))
            continue
        group = order[next_file:next_file + _GROUP_PATTERN[position % len(_GROUP_PATTERN)]]
        next_file += len(group)
        primary = rng.choice(plans[group[0]])
        tokens = list(primary.name_words) + rng.sample(primary.desc_words, 2) \
            + [primary.skill_word]
        for other in group[1:]:
            tokens += list(rng.choice(plans[other]).name_words)
        rng.shuffle(tokens)
        queries.append(RouteQuery(
            text=" ".join(tokens),
            target_file=route_file_id(group[0]),
            target_category=camel_name(list(primary.name_words))))
    h.update(repr(queries).encode("utf-8"))
    return RouteInputs(queries=tuple(queries), digest=h.hexdigest()[:16])


# --- sweep_rounds ---------------------------------------------------------

CONDITIONS = ("A", "B", "C", "D")
SWEEP_VOLUME_ROUNDS = 2
SWEEP_VOLUME_DISTRACTORS = 60


@dataclass(frozen=True)
class SweepInputs:
    rounds: tuple[tuple[str, KnowledgeLibrary], ...]
    questions: tuple[Question, ...]
    prompts: PromptConfig
    order: tuple[tuple[int, str], ...]   # (round index, condition) per cycle position
    digest: str


def _token_set(text: str) -> frozenset[str]:
    return frozenset(re.findall(r"[0-9a-z]+", text.lower()))


def sweep_inputs(seed: int, fixtures_dir: Path) -> SweepInputs:
    """Rounds 1-3 from the committed fixtures plus seeded volume rounds.

    Rounds 4 and 5 each add 60 low-tier distractors (180 and 240
    categories) built from pseudo-words that share no token with the
    questions, so they add volume without changing which answer is
    right.  Five rounds also keep the median op inside one round's
    latency cluster instead of in the gap between two.
    """
    rng = random.Random(f"{seed}/sweep_rounds")
    raw = {name: (fixtures_dir / name).read_bytes() for name in (
        "library_r1_bare.json", "round2_specs.json", "round3_specs.json",
        "questions_20.json", "prompts.json")}
    base = deserialize_library(raw["library_r1_bare.json"])
    questions = tuple(questions_from_json(raw["questions_20.json"]))
    prompts = prompt_config_from_dict(json.loads(raw["prompts.json"]))
    round2 = expand_round(base, round_config_from_dict(json.loads(raw["round2_specs.json"])))
    round3 = expand_round(
        round2.library, round_config_from_dict(json.loads(raw["round3_specs.json"])))
    rounds = [("r1", base), ("r2", round2.library), ("r3", round3.library)]

    banned = frozenset().union(*(_token_set(q.text) for q in questions))
    words = WordSource(rng, banned=banned)
    generated = []
    for round_id in range(4, 4 + SWEEP_VOLUME_ROUNDS):
        specs = tuple(
            DistractorSpec(
                tier="low",
                name=camel_name(words.many(2)),
                description=" ".join(words.many(3)) + " " + filler(rng, 6, 12) + ".",
                skills=tuple(Skill(name=f"{camel_name(words.many(1))}_{j}",
                                   description=filler(rng, 4, 8) + ".")
                             for j in range(1 + k % 3)))
            for k in range(SWEEP_VOLUME_DISTRACTORS))
        generated.append(specs)
        expanded = expand_round(rounds[-1][1], RoundConfig(round_id=round_id, distractors=specs))
        rounds.append((f"r{round_id}", expanded.library))

    order = [(r, c) for r in range(len(rounds)) for c in CONDITIONS]
    rng.shuffle(order)
    return SweepInputs(
        rounds=tuple(rounds), questions=questions, prompts=prompts, order=tuple(order),
        digest=digest(*raw.values(), repr(generated).encode("utf-8"),
                      repr(order).encode("utf-8")))


# --- author_churn ---------------------------------------------------------

CHURN_SLOTS = 16
CHURN_BASE_CATEGORIES = 16
CHURN_HIGH = 8
CHURN_LOW = 16
JUDGMENT_HEADERS = ("CLAIMS OF THE CLAIMANT", "RESPONSE OF THE RESPONDENT",
                    "REASONING OF THE COURT", "HOLDING AND ORDERS")


@dataclass(frozen=True)
class ChurnBuild:
    """One library to author: a base, a distractor round, and a query aimed at it."""

    base: KnowledgeLibrary
    config: RoundConfig
    query: str
    target_category: str


@dataclass(frozen=True)
class ChurnDocument:
    text: str
    rules: tuple[SectionRule, ...]
    digests: dict[str, str]
    refs: tuple[CrossReference, ...]
    query: str


def churn_build(seed: int, tag: int) -> ChurnBuild:
    """The library authored under *tag* (slots use 0..15, op i uses 16 + i)."""
    rng = random.Random(f"{seed}/author_churn/{tag}")
    words = WordSource(rng, tag=tag)
    base_words = []
    categories = []
    for j in range(CHURN_BASE_CATEGORIES):
        name_words, desc_words = words.many(2), words.many(5)
        base_words.append((name_words, desc_words))
        categories.append(Category(
            name=camel_name(name_words),
            description=" ".join(desc_words) + " " + filler(rng, 6, 10) + ".",
            skills=tuple(Skill(name=f"{camel_name(name_words[:1])}_{words.fresh()}",
                               description=filler(rng, 5, 10) + ".")
                         for _ in range(3 + j % 3))))
    specs = []
    for j in range(CHURN_HIGH):
        target_name, target_desc = base_words[2 * j]
        name_words = words.many(2)
        specs.append(DistractorSpec(
            tier="high", name=camel_name(name_words), target=camel_name(target_name),
            description=" ".join(target_desc[:2] + words.many(3)) + " " + filler(rng, 4, 8) + ".",
            skills=tuple(Skill(name=f"{camel_name(name_words[:1])}_{words.fresh()}",
                               description=filler(rng, 4, 8) + ".")
                         for _ in range(2 + j % 2))))
    low_words = []
    for j in range(CHURN_LOW):
        name_words, desc_words = words.many(2), words.many(4)
        low_words.append((name_words, desc_words))
        specs.append(DistractorSpec(
            tier="low", name=camel_name(name_words),
            description=" ".join(desc_words) + " " + filler(rng, 4, 8) + ".",
            skills=tuple(Skill(name=f"{camel_name(name_words[:1])}_{words.fresh()}",
                               description=filler(rng, 4, 8) + ".")
                         for _ in range(1 + j % 3))))
    # Aim at an odd base category (no high-tier neighbour shares its words)
    # or at a low-tier distractor, alternately.
    if tag % 2 == 0:
        name_words, desc_words = base_words[2 * rng.randrange(CHURN_BASE_CATEGORIES // 2) + 1]
    else:
        name_words, desc_words = rng.choice(low_words)
    tokens = name_words + rng.sample(desc_words, 2)
    rng.shuffle(tokens)
    return ChurnBuild(
        base=KnowledgeLibrary(categories=tuple(categories),
                              provenance={"source": "perfbench", "tag": str(tag)}),
        config=RoundConfig(round_id=2, distractors=tuple(specs)),
        query=" ".join(tokens),
        target_category=camel_name(name_words))


def churn_document(seed: int, tag: int) -> ChurnDocument:
    """A seeded judgment-shaped document with one cross-reference (s4 -> s2)."""
    rng = random.Random(f"{seed}/author_churn/doc/{tag}")
    words = WordSource(rng, tag=tag)
    lines = ["IN THE MATTER OF " + " ".join(words.many(3)).upper(), ""]
    section_words = []
    for header in JUDGMENT_HEADERS:
        lines.append(header)
        own = words.many(6)
        section_words.append(own)
        for n in range(8):
            picks = rng.sample(own, 2)
            lines.append(
                f"{n + 1}. {picks[0]} {filler(rng, 5, 9)} {picks[1]} {filler(rng, 3, 6)}.")
        lines.append("")
    trigger = words.many(3)
    refs = (CrossReference(from_section="s4", to_section="s2", locator="paragraphs 1-8",
                           trigger=" ".join(trigger)),)
    digests = {"claimant": " ".join(section_words[0][:4]) + " " + filler(rng, 6, 10),
               "reasoning": " ".join(section_words[2][:4]) + " " + filler(rng, 6, 10)}
    if tag % 2 == 0:   # every other query names the cross-reference trigger
        query = f"{rng.choice(trigger)} {filler(rng, 2, 3)}"
    else:
        query = " ".join(rng.sample(rng.choice(section_words), 3))
    rules = tuple(SectionRule(role=role, header_pattern=f"^{header}") for role, header in zip(
        ("claimant", "respondent", "reasoning", "holding"), JUDGMENT_HEADERS))
    return ChurnDocument(text="\n".join(lines), rules=rules, digests=digests, refs=refs,
                         query=query)


def write_churn_slots(seed: int, directory: Path) -> str:
    """Fill the churn registry's slots; returns a digest of what was written."""
    directory.mkdir(parents=True, exist_ok=True)
    parts = []
    for slot in range(CHURN_SLOTS):
        build = churn_build(seed, slot)
        lib = build_summary(expand_round(build.base, build.config).library)
        data = serialize_library(lib).encode("utf-8")
        (directory / churn_file_id(slot)).write_bytes(data)
        parts.append(data)
    return digest(*parts)


def churn_file_id(slot: int) -> str:
    return f"slot_{slot:02d}.json"
