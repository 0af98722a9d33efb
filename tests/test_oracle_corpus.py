"""search_min_plan returns the same plans, move for move, as a frozen corpus.

``oracle_corpus.json`` holds one entry per target: every even
non-identity permutation of {1..6} at m = 3, d = 1 with at most 6 steps,
every non-identity permutation of {1..4} at m = 2, d = 2 with at most 8
steps, of {1..5} at m = 2, d = 2 with at most 10 steps, and of {1..6} at
m = 4, d = 1 with at most 4 steps.  Each entry keeps the plan the search returned as move strings,
or null.  A faster search must prune only subtrees that hold no plan, so
it finds the same first plan in the same order.  To recapture the fixture
on purpose, and review its diff:

    PYTHONPATH=src python tests/test_oracle_corpus.py
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

from mindswap.oracle import RuleSet, search_min_plan
from mindswap.perm import format_cycles, outsider, parse_cycles

from conftest import move_text, permutation_from_images

FIXTURE = Path(__file__).with_name("oracle_corpus.json")

# (insiders, m, d, max_steps, even targets only)
SPACES = (
    (6, 3, 1, 6, True), (4, 2, 2, 8, False), (5, 2, 2, 10, False), (6, 4, 1, 4, False),
)


def corpus_cases():
    for n, m, d, max_steps, even_only in SPACES:
        for images in itertools.permutations(range(1, n + 1)):
            target = permutation_from_images(list(images))
            if target.is_identity() or (even_only and target.parity()):
                continue
            yield format_cycles(target), m, d, max_steps


def search(text: str, m: int, d: int, max_steps: int) -> list[str] | None:
    rules = RuleSet(m=m, outsiders=tuple(outsider(i) for i in range(1, d + 1)))
    plan = search_min_plan(parse_cycles(text), rules, max_steps)
    return None if plan is None else [move_text(move) for move in plan]


def capture() -> list[dict]:
    return [
        {"target": text, "m": m, "d": d, "max_steps": max_steps,
         "plan": search(text, m, d, max_steps)}
        for text, m, d, max_steps in corpus_cases()
    ]


def test_fixture_covers_the_corpus():
    frozen = json.loads(FIXTURE.read_text())
    assert [(e["target"], e["m"], e["d"], e["max_steps"]) for e in frozen] == list(
        corpus_cases()
    )
    assert len(frozen) == 1220


def test_search_returns_the_frozen_plans():
    frozen = json.loads(FIXTURE.read_text())
    differ = [
        e["target"]
        for e in frozen
        if search(e["target"], e["m"], e["d"], e["max_steps"]) != e["plan"]
    ]
    assert differ == []


if __name__ == "__main__":
    FIXTURE.write_text("[\n" + ",\n".join(json.dumps(e) for e in capture()) + "\n]\n")
