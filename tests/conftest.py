import random

from mindswap.oracle import RuleSet, verify_plan
from mindswap.perm import Permutation, insider


def permutation_from_images(images: list[int]) -> Permutation:
    """Permutation sending insider i+1 to insider images[i]."""
    return Permutation({insider(i + 1): insider(images[i]) for i in range(len(images))})


def random_permutation(rng: random.Random, n: int) -> Permutation:
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return permutation_from_images(images)


def random_even_permutation(rng: random.Random, n: int) -> Permutation:
    while True:
        p = random_permutation(rng, n)
        if p.parity() == 0:
            return p


def random_cycle(rng: random.Random, k: int, universe: int) -> tuple:
    picks = rng.sample(range(1, universe + 1), k)
    return tuple(insider(i) for i in picks)


def duplicate_supports(moves) -> list[int]:
    """Indices of moves that verify_plan flags as duplicate-support.

    Only that rule's verdict is read; the other rules and the product do
    not matter here.
    """
    rules = RuleSet(m=2, outsiders=(), require_outsider_per_move=False)
    report = verify_plan(Permutation.identity(), list(moves), rules)
    return [i for i, kind in report.rule_violations if kind == "duplicate-support"]
