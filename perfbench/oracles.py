"""Independent oracles, written without calling the code they check.

They work on stdlib-``json`` parses of the files and artifacts the
program read, and re-derive from the documented rules what the program
should have returned:

- the summary block and its end offset (full parse, criterion 3);
- the tier-1 ranking (brute-force weighted overlap, criterion 6);
- the tier-2 best (category, skill) pair and secondary guess;
- the complement pass and the co-load set;
- the benchmark score of a selection set against the answer key.

Each returns plain data; the workloads compare it with the program's
output outside the timed region.
"""

from __future__ import annotations

import json
import re

_TOKEN = re.compile(r"[0-9a-z]+")
SUMMARY_KEY = "_summary"


def tokens(text: str) -> frozenset[str]:
    return frozenset(_TOKEN.findall(text.lower()))


def overlap(query: frozenset[str], name: frozenset[str], text: frozenset[str]) -> float:
    """Weighted overlap: name tokens weigh 2, text-only tokens 1 (engine docstring)."""
    text_only = text - name
    numerator = 2 * len(query & name) + len(query & text_only)
    denominator = 2 * len(query | name) + len(text_only - query)
    return numerator / denominator if denominator else 0.0


def parse_file(data: bytes) -> tuple[dict, dict, int]:
    """Full stdlib parse: (top-level object, summary value, summary end byte offset).

    Raises ValueError when the summary is missing or not the first key.
    """
    text = data.decode("utf-8")
    obj = json.loads(text)
    if next(iter(obj), None) != SUMMARY_KEY:
        raise ValueError("summary is not the first key")
    start = text.index(":", text.index(f'"{SUMMARY_KEY}"')) + 1
    while text[start] in " \t\r\n":
        start += 1
    value, end = json.JSONDecoder().raw_decode(text, start)
    return obj, value, len(text[:end].encode("utf-8"))


def summary_matches(block, value: dict) -> bool:
    """Field-by-field comparison of a SummaryBlock with its parsed JSON value."""
    index = [(e.name, e.skill_count, e.routing_hint) for e in block.category_index]
    expected = [(e["name"], e["skill_count"], e["routing_hint"]) for e in value["category_index"]]
    roles = {k: tuple(v) for k, v in value["routing_roles"].items()}
    return (index == expected and block.llm_instructions == value["_llm_instructions"]
            and block.routing_roles == roles)


def tier1(query: str, summaries: list[tuple[str, dict]], k_max: int,
          threshold: float) -> tuple[list[tuple[str, float]], bool]:
    """Expected tier-1 selection and expanded-scope flag over parsed summaries."""
    q = tokens(query)
    scores = []
    for file_id, value in summaries:
        best = 0.0
        for entry in value["category_index"]:
            best = max(best, overlap(q, tokens(entry["name"]), tokens(entry["routing_hint"])))
        scores.append((file_id, best))
    ranked = sorted(scores, key=lambda fs: (-fs[1], fs[0]))
    eligible = [fs for fs in ranked if fs[1] >= threshold]
    if eligible:
        return eligible[:k_max], False
    return ranked[:k_max], True


def body_of(obj: dict) -> dict:
    return next(v for k, v in obj.items() if not k.startswith("_"))


def tier2(question: str, bodies: list[dict]) -> tuple[tuple[str, str],
                                                       tuple[str, str] | None]:
    """Brute-force best (category, skill) pair and the secondary guess.

    A pair scores category overlap plus skill overlap; ties break on
    (category, skill) text.  The secondary is the best pair from another
    category, kept only when it scores above zero.
    """
    q = tokens(question)
    pairs = []
    for body in bodies:
        for name, cat in body.items():
            cat_score = overlap(q, tokens(name), tokens(cat["category_description"]))
            for skill in cat["skills"]:
                score = cat_score + overlap(
                    q, tokens(skill["skill_name"]), tokens(skill["description"]))
                pairs.append((-score, name.strip(), skill["skill_name"].strip()))
    pairs.sort()
    best = pairs[0]
    for other in pairs[1:]:
        if other[1] != best[1]:
            secondary = (other[1], other[2]) if other[0] < 0 else None
            return (best[1], best[2]), secondary
    return (best[1], best[2]), None


def complement_secondary(body: dict, primary_category: str,
                         fallback: tuple[str, str] | None) -> tuple[str, str] | None:
    """Secondary after the complement pass: the complement's first skill, if any."""
    cat = body.get(primary_category)
    complement = None if cat is None else cat.get("complement")
    if complement is None:
        return fallback
    target = body[complement.strip()]
    if not target["skills"]:
        return fallback
    return complement.strip(), target["skills"][0]["skill_name"].strip()


def score(key: list[tuple[int, str, str | None]],
          selections: dict[int, tuple[str, str | None]]) -> tuple[list[tuple[int, bool, bool, float]],
                                                               float, float]:
    """Per-question (id, primary hit, secondary hit, points), total and maximum.

    *key* rows are (question id, primary target, secondary target or None);
    *selections* maps a question id to its (primary, secondary) categories.
    A primary hit is an exact trimmed match and earns 1.0 point.  With the
    primary right, the keyed secondary in either slot raises it to 1.5.
    The maximum counts 1.0 per question plus 0.5 per keyed secondary.
    """
    rows, total, maximum = [], 0.0, 0.0
    for qid, primary, secondary in key:
        maximum += 1.0 if secondary is None else 1.5
        chosen = selections.get(qid)
        p_hit = chosen is not None and chosen[0].strip() == primary.strip()
        s_hit = p_hit and secondary is not None and secondary.strip() in {
            c.strip() for c in chosen if c is not None}
        points = 1.5 if s_hit else 1.0 if p_hit else 0.0
        rows.append((qid, p_hit, s_hit, points))
        total += points
    return rows, total, maximum


def coload(query: str, sections: list[tuple[str, str]],
           refs: list[tuple[str, str, str]]) -> set[str]:
    """Sections to co-load: trigger endpoints, else the best-overlap section."""
    q = tokens(query)
    hit = {end for src, dst, trigger in refs if q & tokens(trigger) for end in (src, dst)}
    if hit:
        return hit
    best_id, best = None, -1.0
    for section_id, text in sections:
        score = overlap(q, frozenset(), tokens(text))
        if score > best:
            best_id, best = section_id, score
    return {best_id}
