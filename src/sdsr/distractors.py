"""Distractor category generation and uniform interleaving.

Rounds of library expansion inject noise categories between the real
ones.  Placement is fully deterministic: distractor k of D goes after
real category ceil((k+1) * R / D), which spreads the D insertions as
evenly as possible over the R real categories (consecutive gaps differ
by at most one real category, and no two distractors are adjacent
whenever D <= R).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

from .errors import NameCollision, UnknownTarget
from .guidance import build_summary
from .library import (
    Category,
    Finding,
    KnowledgeLibrary,
    SEVERITY_INFO,
    SEVERITY_WARNING,
    Skill,
    surface_similarity,
)
from .wire import decode

DEFAULT_THETA = 0.2


@dataclass(frozen=True)
class DistractorSpec:
    """Recipe for one distractor category.

    High-tier specs name the real category they are meant to interfere
    with and carry 2-3 skills; low-tier specs are pure volume and have
    no target.  ``theta`` is the surface-similarity level above which
    the interference intent is considered confirmed.
    """

    tier: str
    name: str
    description: str = ""
    skills: tuple[Skill, ...] = ()
    target: str | None = None
    theta: float = DEFAULT_THETA

    def __post_init__(self) -> None:
        object.__setattr__(self, "skills", tuple(self.skills))
        if self.tier not in ("high", "low"):
            raise ValueError(f"{self.name}: tier must be 'high' or 'low', not {self.tier!r}")
        if self.tier == "high" and self.target is None:
            raise ValueError(f"{self.name}: high-tier spec requires a target")
        if self.tier == "low" and self.target is not None:
            raise ValueError(f"{self.name}: low-tier spec must not carry a target")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"{self.name}: theta must be in [0, 1]")


@dataclass(frozen=True)
class RoundConfig:
    round_id: int
    distractors: tuple[DistractorSpec, ...] = ()
    expected_categories: int | None = None
    expected_skills: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "distractors", tuple(self.distractors))
        if self.round_id >= 2 and not self.distractors:
            raise ValueError(f"round {self.round_id}: expansion rounds need distractors")


@dataclass(frozen=True)
class ExpansionResult:
    library: KnowledgeLibrary
    report: tuple[Finding, ...]


# perfbench/inputs.py imports this name.
round_config_from_dict = partial(decode, RoundConfig)


def generate_distractors(
    specs: tuple[DistractorSpec, ...] | list[DistractorSpec],
    real: KnowledgeLibrary,
) -> tuple[list[Category], list[Finding]]:
    """Materialize one category per spec, tier recorded on each.

    For high-tier specs the surface similarity to the target category
    is reported as a finding (INFO when it clears the spec's theta,
    WARNING when the name/description overlap falls short); similarity
    never blocks generation.
    """
    categories: list[Category] = []
    findings: list[Finding] = []
    for spec in specs:
        cat = Category(
            name=spec.name,
            description=spec.description,
            skills=spec.skills,
            distractor_tier=spec.tier,
        )
        if spec.tier == "high":
            target = real.category(spec.target)
            if target is None:
                raise UnknownTarget(
                    f"{spec.name}: target category {spec.target!r} not in library")
            similarity = surface_similarity(cat, target)
            if similarity >= spec.theta:
                findings.append(Finding(
                    SEVERITY_INFO, "DISTRACTOR_SIMILARITY",
                    f"{spec.name}: similarity {similarity:.3f} to {spec.target} "
                    f"(theta {spec.theta})"))
            else:
                findings.append(Finding(
                    SEVERITY_WARNING, "LOW_DISTRACTOR_SIMILARITY",
                    f"{spec.name}: similarity {similarity:.3f} below theta {spec.theta} "
                    f"for target {spec.target}"))
        categories.append(cat)
    return categories, findings


def interleave_positions(n_real: int, n_distractors: int) -> list[int]:
    """After which real category (1-based) each distractor slot falls."""
    if n_distractors == 0:
        return []
    if n_real == 0:
        return [0] * n_distractors
    return [-(-(k + 1) * n_real // n_distractors) for k in range(n_distractors)]


def inject_interleaved(
    real: KnowledgeLibrary,
    distractors: list[Category] | tuple[Category, ...],
) -> KnowledgeLibrary:
    """Merge *distractors* into *real* with even spacing.

    Relative order of real categories and of distractors is preserved;
    placement follows :func:`interleave_positions` and contains no
    randomness.  A summary on the input is rebuilt to match the merged
    category list.
    """
    distractors = list(distractors)
    if not distractors:
        return real
    real_names = set(real.category_names)
    injected_names: set[str] = set()
    for cat in distractors:
        name = cat.name.strip()
        if name in real_names:
            raise NameCollision(f"distractor {name!r} collides with an existing category")
        if name in injected_names:
            raise NameCollision(f"distractor {name!r} appears twice in the batch")
        injected_names.add(name)

    slots = interleave_positions(len(real.categories), len(distractors))
    merged: list[Category] = []
    next_distractor = 0
    for position, cat in enumerate(real.categories, start=1):
        merged.append(cat)
        while next_distractor < len(distractors) and slots[next_distractor] == position:
            merged.append(distractors[next_distractor])
            next_distractor += 1
    merged.extend(distractors[next_distractor:])

    out = replace(real, categories=tuple(merged))
    return out if real.summary is None else build_summary(out)


def expand_round(base: KnowledgeLibrary, cfg: RoundConfig) -> ExpansionResult:
    """Generate and inject one round of distractors.

    The report always carries INFO totals for the resulting library.
    When the config states expected totals and the arithmetic disagrees,
    the mismatch is surfaced as a warning; totals are never silently
    adjusted to match expectations.
    """
    generated, findings = generate_distractors(cfg.distractors, base)
    library = inject_interleaved(base, generated)
    total_categories = len(library.categories)
    total_skills = library.total_skills
    findings.append(Finding(
        SEVERITY_INFO, "TOTALS",
        f"round {cfg.round_id}: categories={total_categories}, skills={total_skills}"))
    if cfg.expected_categories is not None and cfg.expected_categories != total_categories:
        findings.append(Finding(
            SEVERITY_WARNING, "EXPECTED_TOTAL_MISMATCH",
            f"round {cfg.round_id}: expected {cfg.expected_categories} categories, "
            f"arithmetic yields {total_categories}"))
    if cfg.expected_skills is not None and cfg.expected_skills != total_skills:
        findings.append(Finding(
            SEVERITY_WARNING, "EXPECTED_TOTAL_MISMATCH",
            f"round {cfg.round_id}: expected {cfg.expected_skills} skills, "
            f"arithmetic yields {total_skills}"))
    return ExpansionResult(library=library, report=tuple(findings))
