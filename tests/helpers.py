"""Naive reference implementations the tests compare the library against.

Everything here is deliberately dumb: polynomials are plain dictionaries
mapping (q_exp, z_exp) to integer coefficients with no truncation
tracking, counts come from textbook dynamic programming, and
overpartitions are regenerated by recursion on the largest remaining
part.  None of it imports the package's arithmetic.
"""

from __future__ import annotations


def poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, coeff in b.items():
        total = out.get(key, 0) + coeff
        if total:
            out[key] = total
        else:
            out.pop(key, None)
    return out


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (qa, za), ca in a.items():
        for (qb, zb), cb in b.items():
            key = (qa + qb, za + zb)
            total = out.get(key, 0) + ca * cb
            if total:
                out[key] = total
            else:
                out.pop(key, None)
    return out


def poly_from_series(series) -> dict:
    """Window contents of a library series as an oracle dictionary."""
    out = {}
    for q_exp, poly in series.enumerate_terms():
        for z_exp, coeff in poly.items():
            out[(q_exp, z_exp)] = coeff
    return out


def assert_series_matches(series, reference: dict) -> None:
    """The series must agree with the reference inside its own window.

    Below the window the reference must vanish: a series promises
    exact zeros there, not ignorance.
    """
    for (q_exp, z_exp), coeff in reference.items():
        if q_exp < series.min_exp:
            assert coeff == 0, (
                f"reference has q^{q_exp} below the window start {series.min_exp}"
            )
    for q_exp in range(series.min_exp, series.order):
        got = {z: c for z, c in series.coeff(q_exp).items()}
        want = {
            z: c for (q, z), c in reference.items() if q == q_exp and c
        }
        assert got == want, f"mismatch at q^{q_exp}: {got} != {want}"


def partition_counts(max_n: int) -> list[int]:
    """p(0..max_n) by the standard unbounded-knapsack recurrence."""
    counts = [1] + [0] * max_n
    for part in range(1, max_n + 1):
        for n in range(part, max_n + 1):
            counts[n] += counts[n - part]
    return counts


def distinct_partition_counts(max_n: int) -> list[int]:
    counts = [1] + [0] * max_n
    for part in range(1, max_n + 1):
        for n in range(max_n, part - 1, -1):
            counts[n] += counts[n - part]
    return counts


def overpartition_counts(max_n: int) -> list[int]:
    """Number of overpartitions of 0..max_n: marked sizes form a distinct
    partition, the rest is unrestricted."""
    plain = partition_counts(max_n)
    distinct = distinct_partition_counts(max_n)
    return [
        sum(distinct[k] * plain[n - k] for k in range(n + 1))
        for n in range(max_n + 1)
    ]


def brute_overpartitions(n: int, max_part: int | None = None) -> list[tuple]:
    """Every overpartition of n as a tuple of (part, marked) pairs,
    weakly decreasing, marks only on first occurrences."""
    if n < 1:
        raise ValueError("weight must be positive")
    cap = n if max_part is None else min(max_part, n)
    results: list[tuple] = []

    def extend(remaining: int, bound: int, acc: list) -> None:
        if remaining == 0:
            results.append(tuple(acc))
            return
        for part in range(min(bound, remaining), 0, -1):
            fresh = not acc or acc[-1][0] != part
            acc.append((part, False))
            extend(remaining - part, part, acc)
            acc.pop()
            if fresh:
                acc.append((part, True))
                extend(remaining - part, part, acc)
                acc.pop()

    extend(n, cap, [])
    return results


def gap_stats(parts: tuple) -> tuple[int, int, bool]:
    """(largest, smallest, largest_is_marked) of a brute tuple."""
    largest, largest_marked = parts[0]
    smallest = parts[-1][0]
    return largest, smallest, largest_marked


def brute_bounded_gap(n: int, t: int) -> list[tuple]:
    kept = []
    for candidate in brute_overpartitions(n):
        largest, smallest, marked = gap_stats(candidate)
        gap = largest - smallest
        if gap > t or (gap == t and marked):
            continue
        kept.append(candidate)
    return kept


def mask_order_overpartitions(n: int, max_part: int | None = None) -> list[tuple]:
    """Every overpartition of n as a tuple of (part, mult, marked) runs, in
    the enumeration order the package promises: shapes in decreasing
    lexicographic order, then the 2^d mark patterns counted in binary with
    the largest size as the least significant bit."""
    if n < 1:
        return []
    cap = n if max_part is None else min(max_part, n)

    def shapes(remaining: int, bound: int):
        if remaining == 0:
            yield ()
            return
        for part in range(min(bound, remaining), 0, -1):
            for mult in range(remaining // part, 0, -1):
                for rest in shapes(remaining - part * mult, part - 1):
                    yield ((part, mult),) + rest

    results = []
    for shape in shapes(n, cap):
        d = len(shape)
        for mask in range(1 << d):
            results.append(
                tuple((p, m, bool((mask >> i) & 1)) for i, (p, m) in enumerate(shape))
            )
    return results
