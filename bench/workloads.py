"""Seeded job mixes for the benchmark.

A workload is a list of cells.  Each cell draws one CLI argv from a
band of input sizes; a round is one job from every cell, in a seeded
random order.  The runner executes whole rounds, so every run of a
workload sees the same mix of sizes whatever its seed, and the seed
only moves each job within its band.  Cells come in tiers of cost (see
``_tiered``) that pin the median and tail jobs to narrow bands.  That
keeps throughput and latency comparable across seeds while no two jobs
of a run are identical.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator

Draw = Callable[[random.Random, int], list[str]]

FORMATS = ("text", "csv", "json")
Z_MODES = ("tracked", "one", "zero")


def _table_cell(index: int, t_band, n_band, z: str) -> Draw:
    def draw(rng: random.Random, round_no: int) -> list[str]:
        return [
            "table",
            "--t", str(rng.randint(*t_band)),
            "--max-n", str(rng.randint(*n_band)),
            "--z", z,
            "--format", FORMATS[(index + round_no) % 3],
        ]

    return draw


def _tiered(low: list, middle: tuple, high: list, top: list) -> list:
    """Cells in four tiers of cost, cheapest first.

    Each round runs one job from every cell, so where the median and the
    tail fall is fixed by the counts, whatever the seed: the ``middle``
    tier, one narrow band repeated ``count`` times, holds the median job
    because ``low`` has as many cells as ``high`` and ``top`` together;
    the ``top`` cells cost about the same and give more than ten jobs in
    a run, so the tail job is one of them.
    """
    count, band = middle
    if len(low) != len(high) + len(top):
        raise ValueError("the middle tier must hold the median job")
    return [*low, *[band] * count, *high, *top]


def _tables() -> list[Draw]:
    # t spans [2, 40] and max_n [100, 800] over every z mode; the costliest
    # corner (z tracked at t 40, max_n 800, ~2.7 s) is left out so that a
    # run fits enough rounds for the tail to read the top tier.
    bands = _tiered(
        low=[
            ((2, 5), (100, 400), "tracked"),
            ((10, 14), (100, 150), "tracked"),
            ((2, 10), (100, 250), "one"),
            ((2, 4), (300, 800), "one"),
            ((30, 40), (100, 120), "one"),
            ((2, 6), (300, 800), "zero"),
            ((7, 12), (300, 500), "zero"),
            ((20, 40), (100, 200), "zero"),
        ],
        middle=(8, ((22, 40), (195, 215), "one")),
        high=[
            ((20, 24), (200, 250), "tracked"),
            ((10, 12), (750, 800), "tracked"),
            ((30, 40), (300, 350), "one"),
            ((20, 24), (600, 800), "one"),
            ((30, 40), (700, 800), "zero"),
        ],
        top=[((36, 40), (380, 400), "tracked")] * 3,
    )
    return [_table_cell(i, t_band, n_band, z) for i, (t_band, n_band, z) in enumerate(bands)]


def _verify_cell(suite: str, t_band, order_band) -> Draw:
    def draw(rng: random.Random, round_no: int) -> list[str]:
        return [
            "verify",
            "--suite", suite,
            "--t", str(rng.randint(*t_band)),
            "--order", str(rng.randint(*order_band)),
        ]

    return draw


def _identities() -> list[Draw]:
    # t spans [1, 12] and order [40, 100].  Above t 6 the cost of
    # transform barely depends on t, which makes its bands the middle
    # and top tiers.
    bands = _tiered(
        low=[
            ("chu", (1, 4), (40, 100)),
            ("chu", (1, 4), (40, 100)),
            ("chu", (5, 8), (40, 80)),
            ("chu", (10, 12), (40, 60)),
            ("chu", (9, 12), (61, 70)),
            ("transform", (1, 2), (40, 55)),
            ("transform", (3, 12), (40, 44)),
            ("chain", (1, 1), (40, 58)),
        ],
        middle=(4, ("transform", (6, 12), (50, 60))),
        high=[
            ("transform", (3, 5), (66, 76)),
            ("transform", (6, 12), (63, 68)),
            ("chain", (2, 4), (58, 66)),
            ("chain", (5, 8), (52, 58)),
            ("chain", (9, 12), (40, 46)),
        ],
        top=[("transform", (6, 12), (82, 88))] * 3,
    )
    return [_verify_cell(*band) for band in bands]


def _marked_text(parts: list[int], no_mark: Callable[[int], bool], rng) -> str:
    """Comma-separated decreasing parts, marking some first occurrences."""
    parts = sorted(parts, reverse=True)
    tokens = []
    for i, part in enumerate(parts):
        first = i == 0 or parts[i - 1] != part
        mark = first and not no_mark(part) and rng.random() < 0.5
        tokens.append(f"{part}~" if mark else str(part))
    return ",".join(tokens)


def _bounded_parts(rng: random.Random, t: int, weight: int) -> list[int]:
    parts = []
    while weight:
        part = rng.randint(1, min(t, weight))
        parts.append(part)
        weight -= part
    return parts


def _gf(order: int) -> Draw:
    # The census walks every overpartition below `order` once for all
    # bounds, so cost depends on the order and the number of bounds, and
    # only a little on the bounds from 12 up.
    def draw(rng, round_no):
        low = rng.randint(12, 60)
        return ["verify", "--suite", "gf", "--t", f"{low}..{low + 2}", "--order", str(order)]

    return draw


def _fibers(t_band, n_band) -> Draw:
    def draw(rng, round_no):
        return [
            "verify", "--suite", "fibers",
            "--t", str(rng.randint(*t_band)),
            "--max-n", str(rng.randint(*n_band)),
        ]

    return draw


def _table_check(max_n: int) -> Draw:
    def draw(rng, round_no):
        return [
            "table", "--check",
            "--t", str(rng.randint(4, 12)),
            "--max-n", str(max_n),
            "--z", rng.choice(Z_MODES),
            "--format", rng.choice(FORMATS),
        ]

    return draw


def _preimages(which: str, t: int, weight_band) -> Draw:
    # Brute force visits every candidate of the target's weight, so the
    # weight band, not the drawn target, sets the cost.
    def draw(rng, round_no):
        parts = _bounded_parts(rng, t, rng.randint(*weight_band))
        return [
            "preimages", "--check", "--t", str(t), "--map", which,
            "--format", rng.choice(("text", "json")),
            _marked_text(parts, lambda part: part == t, rng),
        ]

    return draw


def _fold(quotient_band) -> Draw:
    # Parts near t * quotient: the maps expand each part into about
    # `quotient` copies of t, so the band fixes the work and memory per job.
    def draw(rng, round_no):
        t = rng.randint(1, 9)
        low = t * rng.randint(*quotient_band)
        parts = [rng.randint(low, low + t) for _ in range(3)]
        top, gap = max(parts), max(parts) - min(parts)
        return [
            "fold", "--t", str(t), "--format", rng.choice(("text", "json")),
            _marked_text(parts, lambda part: part == top and gap == t, rng),
        ]

    return draw


def _merge(count_band) -> Draw:
    def draw(rng, round_no):
        t = rng.randint(2, 9)
        second = _bounded_parts(rng, t, rng.randint(1, 4 * t))
        text = _marked_text(second, lambda part: False, rng)
        return [
            "merge", "--t", str(t), "--format", rng.choice(("text", "json")),
            f"[{t}^{rng.randint(*count_band)} | {text}]",
        ]

    return draw


def _census() -> list[Draw]:
    # Above t 8 the fibers suite costs the same for every t.
    return _tiered(
        low=[
            _fold((1, 6)),
            _merge((0, 20)),
            _fold((10_000, 11_000)),
            _merge((10_000, 11_000)),
            _merge((100, 1_000)),
            _fibers((8, 40), (10, 10)),
            _fibers((8, 40), (11, 11)),
            _table_check(21),
        ],
        middle=(3, _preimages("merge", 4, (29, 30))),
        high=[
            _preimages("fold", 5, (23, 24)),
            _fibers((8, 40), (12, 12)),
            _gf(29),
            _preimages("fold", 3, (29, 30)),
            _table_check(25),
        ],
        top=[_gf(33)] * 3,
    )


WORKLOADS: dict[str, Callable[[], list[Draw]]] = {
    "tables": _tables,
    "identities": _identities,
    "census": _census,
}

_DRAW_ATTEMPTS = 64


def rounds(workload: str, seed: int) -> Iterator[list[list[str]]]:
    """Rounds of distinct jobs, the same for the same seed.

    Ends early when some cell cannot draw a job unused in this run.
    """
    cells = WORKLOADS[workload]()
    rng = random.Random(seed)
    seen: set[tuple[str, ...]] = set()
    round_no = 0
    while True:
        jobs = []
        for draw in cells:
            for _ in range(_DRAW_ATTEMPTS):
                argv = draw(rng, round_no)
                if tuple(argv) not in seen:
                    break
            else:
                return
            seen.add(tuple(argv))
            jobs.append(argv)
        rng.shuffle(jobs)
        yield jobs
        round_no += 1
