"""The tail-map algebra reproduces a frozen corpus of single-stream results.

``infinite_corpus.json`` holds plain-data inputs and what the algebra made
of them.  A map is ``{"exceptions": [[key, image], ...], "tail": t}``,
where a point is ``["a", i]`` for stream point ``insider(i)``, ``["z"]``
or ``["w"]`` for that label, and ``t`` is ``[threshold, delta]`` or
null.  The corpus has:

- seeded random map pairs, invalid ones included, each map recorded with
  the composites ``compose(f, g)`` and ``compose(g, f)`` when both maps
  build;
- every non-identity permutation of 1..5, recorded through
  ``invert_finitary_two_step``, ``compose_all`` of its swaps and
  ``finitary_extension``;
- the three swaps that undo the shift, their composite and
  ``inverse_shift_map()``.

Each map is recorded as its ``repr``, its exception-key order, the text
of ``dom``, ``img`` and ``participants``, ``classify``, and ``step_table``
and ``cycle_string`` at horizons 0, 1 and 3; or, when building it raises,
as the error's class name.  To recapture the fixture on purpose, and
review its diff:

    PYTHONPATH=src python tests/test_infinite_corpus.py
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

from mindswap import infinite
from mindswap.infinite import (
    TailMap,
    TailRule,
    classify,
    compose,
    compose_all,
    cycle_string,
    finitary_extension,
    invert_finitary_two_step,
    invert_shift_three_step,
    inverse_shift_map,
    step_table,
)
from mindswap.perm import insider

from conftest import permutation_from_images

FIXTURE = Path(__file__).with_name("infinite_corpus.json")
HORIZONS = (0, 1, 3)
SEED = 11
PAIRS = 600
UNIVERSE = [["a", i] for i in range(1, 8)] + [["z"], ["w"]]


def point(data: list):
    if data[0] == "a":
        return insider(data[1])
    return data[0]


def tail_map(data: dict) -> TailMap:
    exceptions = {point(k): point(v) for k, v in data["exceptions"]}
    return TailMap(exceptions, None if data["tail"] is None else TailRule(*data["tail"]))


def describe(f: TailMap) -> dict:
    return {
        "repr": repr(f),
        "keys": [str(k) for k in f.exceptions],
        "dom": str(f.dom()),
        "img": str(f.img()),
        "participants": str(f.participants()),
        "classify": classify(f),
        "step_table": [step_table(f, h) for h in HORIZONS],
        "cycle_string": [cycle_string(f, h) for h in HORIZONS],
    }


def outcome(build) -> dict | str:
    """describe() of the built map, or the class name of the error it raised."""
    try:
        return describe(build())
    except ValueError as err:
        return type(err).__name__


def random_map(rng: random.Random) -> dict:
    """A map drawn over a1..a7, z and w.  Half of the draws keep their keys
    below the tail and their images out of its image region; in the other
    half, repeated images and tails that collide with exceptions make some
    maps invalid."""
    tail = None if rng.random() < 0.25 else [rng.randint(1, 8), rng.choice([-1, 0, 1])]
    keys, images = UNIVERSE, UNIVERSE
    if tail is not None and rng.random() < 0.5:
        threshold, delta = tail
        keys = [p for p in UNIVERSE if p[0] != "a" or p[1] < threshold]
        images = [p for p in UNIVERSE if p[0] != "a" or p[1] < threshold + delta]
    keys = rng.sample(keys, rng.randint(0, min(5, len(keys), len(images))))
    if rng.random() < 0.9:
        images = rng.sample(images, len(keys))
    else:
        images = rng.choices(images, k=len(keys))
    return {"exceptions": [[k, v] for k, v in zip(keys, images)], "tail": tail}


def corpus_inputs() -> dict:
    rng = random.Random(SEED)
    pairs = [{"f": random_map(rng), "g": random_map(rng)} for _ in range(PAIRS)]
    finitary = [
        list(images)
        for images in itertools.permutations(range(1, 6))
        if list(images) != sorted(images)
    ]
    return {"pairs": pairs, "finitary": finitary}


def pair_record(entry: dict) -> dict:
    f, g = outcome(lambda: tail_map(entry["f"])), outcome(lambda: tail_map(entry["g"]))
    composites = None
    if isinstance(f, dict) and isinstance(g, dict):
        fg = tail_map(entry["f"]), tail_map(entry["g"])
        composites = [outcome(lambda: compose(*fg)), outcome(lambda: compose(*fg[::-1]))]
    return {"maps": [f, g], "composites": composites}


def finitary_record(images: list[int]) -> dict:
    sigma = permutation_from_images(images)
    swaps = invert_finitary_two_step(sigma)
    return {
        "swaps": [describe(s) for s in swaps],
        "composite": describe(compose_all(swaps)),
        "extension": describe(finitary_extension(sigma)),
    }


def shift_record() -> dict:
    swaps = invert_shift_three_step()
    return {
        "swaps": [describe(s) for s in swaps],
        "composite": describe(compose_all(swaps)),
        "inverse": describe(inverse_shift_map()),
    }


def capture() -> dict:
    inputs = corpus_inputs()
    return {
        "pairs": [{**entry, **pair_record(entry)} for entry in inputs["pairs"]],
        "finitary": [
            {"images": images, **finitary_record(images)} for images in inputs["finitary"]
        ],
        "shift": shift_record(),
    }


def load() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_the_corpus():
    frozen, inputs = load(), corpus_inputs()
    assert [{"f": e["f"], "g": e["g"]} for e in frozen["pairs"]] == inputs["pairs"]
    assert [e["images"] for e in frozen["finitary"]] == inputs["finitary"]
    assert len(inputs["finitary"]) == 119


def test_random_pairs_reproduce():
    differ = [
        i
        for i, entry in enumerate(load()["pairs"])
        if pair_record(entry) != {k: entry[k] for k in ("maps", "composites")}
    ]
    assert differ == []


def test_finitary_targets_reproduce():
    differ = [
        entry["images"]
        for entry in load()["finitary"]
        if finitary_record(entry["images"]) != {k: v for k, v in entry.items() if k != "images"}
    ]
    assert differ == []


def test_each_described_map_walks_its_chains_once(monkeypatch):
    # describe() reads classify, step_table and cycle_string at three horizons,
    # and all three read the one cached walk of each map
    walked = []
    walk = infinite._walk
    monkeypatch.setattr(infinite, "_walk", lambda f: walked.append(f) or walk(f))
    entries = load()["finitary"]
    for entry in entries:
        assert finitary_record(entry["images"]) == {k: v for k, v in entry.items() if k != "images"}
    assert len(walked) == 4 * len(entries)  # two swaps, their composite, the extension
    assert len({id(f) for f in walked}) == len(walked)


def test_shift_swaps_reproduce():
    assert shift_record() == load()["shift"]


if __name__ == "__main__":
    corpus = capture()
    lines = ['{"shift": ' + json.dumps(corpus["shift"]) + ","]
    for key in ("pairs", "finitary"):
        lines.append(f'"{key}": [')
        lines.append(",\n".join(json.dumps(e) for e in corpus[key]))
        lines.append("]" + ("," if key == "pairs" else "}"))
    FIXTURE.write_text("\n".join(lines) + "\n")
