"""Output checks for benchmark jobs that share no code with ``overgap``.

Every check takes the job's argv, its exit code and its captured stdout
and returns ``None`` when the output is right, or a one-line reason.
Nothing here imports the package: table counts come from a plain-integer
evaluation of the closed form

    1/(1 - q^t) * ((-zq; q)_t / (q; q)_t - 1)

on int lists, and partitions are parsed from their text form.

Run as a script, it answers checks over a pipe: each stdin line is a
JSON ``[argv, code, stdout]`` and each reply line the JSON reason or
``null``.  The benchmark runs it so, in its own process, so that the
checks' memory never counts toward the peak RSS of the measured one.
"""

from __future__ import annotations

import json
import sys
from itertools import accumulate


# -- closed form on int lists ------------------------------------------------


def _times_one_plus(row: list[int], src: list[int], k: int) -> None:
    """row += q^k * src, in place, truncated to len(row)."""
    n = len(row)
    if k < n:
        row[k:] = [a + b for a, b in zip(row[k:], src[: n - k])]


def _divide_one_minus(row: list[int], k: int) -> None:
    """row /= (1 - q^k), in place: prefix sums along each residue class."""
    for r in range(min(k, len(row))):
        row[r::k] = list(accumulate(row[r::k]))


def closed_form_rows(t: int, max_n: int, z: str) -> list[list[int]]:
    """Coefficients of the closed form for weights 0..max_n.

    Returns one list per power of z: ``rows[m][n]`` counts weight-n
    members with m marks.  With ``z`` "one" or "zero" the mark variable
    is specialised first and a single row comes back.
    """
    size = max_n + 1
    if z == "tracked":
        rows = [[0] * size for _ in range(t + 1)]
        rows[0][0] = 1
        for k in range(1, t + 1):
            for m in range(k, 0, -1):
                _times_one_plus(rows[m], rows[m - 1], k)
    else:
        row = [0] * size
        row[0] = 1
        if z == "one":
            for k in range(1, t + 1):
                _times_one_plus(row, row[:], k)
        rows = [row]
    for row in rows:
        for k in range(1, t + 1):
            _divide_one_minus(row, k)
    rows[0][0] -= 1
    for row in rows:
        _divide_one_minus(row, t)
    return rows


# -- partition text ------------------------------------------------------------


def parse_parts(text: str) -> list[tuple[int, bool]]:
    """``"3,3~,1"`` as (part, marked) pairs; raises ValueError if malformed."""
    pairs = []
    for token in text.split(","):
        token = token.strip()
        marked = token.endswith("~")
        value = int(token[:-1] if marked else token)
        if value < 1:
            raise ValueError(f"nonpositive part {token!r}")
        pairs.append((value, marked))
    return pairs


def parse_bipartition(text: str) -> tuple[int, int, list[tuple[int, bool]]]:
    """``"[3^2 | 3,1~]"`` as (t, count of t's, second component)."""
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"bad bipartition {text!r}")
    head, _, second = body[1:-1].partition("|")
    t, _, count = head.strip().partition("^")
    return int(t), int(count), parse_parts(second)


def _weight(pairs) -> int:
    return sum(part for part, _ in pairs)


def _overpartition_weight(text: str) -> int:
    return _weight(parse_parts(text))


def _bipartition_weight(text: str) -> int:
    t, count, second = parse_bipartition(text)
    return t * count + _weight(second)


def _opt(argv: list[str], flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


# -- per-command checks ----------------------------------------------------------


def check_table(argv: list[str], out: str) -> str | None:
    t = int(_opt(argv, "--t"))
    max_n = int(_opt(argv, "--max-n"))
    z = _opt(argv, "--z", "tracked")
    fmt = _opt(argv, "--format", "text")
    rows = closed_form_rows(t, max_n, z)
    if z == "tracked":
        columns = [m for m, row in enumerate(rows) if any(row[1:])]
        columns = list(range(max(columns, default=0) + 1))
        want = [[rows[m][n] for m in columns] for n in range(1, max_n + 1)]
    else:
        columns = None
        want = [[rows[0][n]] for n in range(1, max_n + 1)]
    if fmt == "json":
        data = json.loads(out)
        if (data["t"], data["max_n"], data["z"]) != (t, max_n, z):
            return "json header does not echo the request"
        if z == "tracked":
            if data["columns"] != columns:
                return f"columns {data['columns']} != {columns}"
            got = [[int(c) for c in row["counts"]] for row in data["rows"]]
        else:
            got = [[int(row["count"])] for row in data["rows"]]
        ns = [row["n"] for row in data["rows"]]
    else:
        lines = out.splitlines()
        split = (lambda line: line.split(",")) if fmt == "csv" else str.split
        header = split(lines[0])
        want_header = ["n"] + (
            [f"m={m}" for m in columns] if columns is not None else ["count"]
        )
        if header != want_header:
            return f"header {header[:4]}... != {want_header[:4]}..."
        cells = [split(line) for line in lines[1:]]
        ns = [int(cell[0]) for cell in cells]
        got = [[int(c) for c in cell[1:]] for cell in cells]
    if ns != list(range(1, max_n + 1)):
        return "rows are not n = 1..max_n"
    for n, (have, need) in enumerate(zip(got, want), start=1):
        if have != need:
            return f"counts at n={n} disagree with the closed form"
    return None


_SUITE_ENTRIES = {"gf": 1, "fibers": 2, "chu": 1, "transform": 1, "chain": 1}


def _t_values(text: str) -> list[int]:
    lo, sep, hi = text.partition("..")
    return list(range(int(lo), int(hi) + 1)) if sep else [int(text)]


def check_verify(argv: list[str], out: str) -> str | None:
    suite = _opt(argv, "--suite")
    ts = _t_values(_opt(argv, "--t"))
    entries = json.loads(out)
    if len(entries) != _SUITE_ENTRIES[suite] * len(ts):
        return f"{len(entries)} entries, expected {_SUITE_ENTRIES[suite] * len(ts)}"
    for entry in entries:
        if entry["suite"] != suite or entry["t"] not in ts:
            return f"unexpected entry {entry['suite']} t={entry['t']}"
        if entry["pass"] is not True:
            return f"{suite} t={entry['t']} did not pass"
    return None


def check_preimages(argv: list[str], out: str) -> str | None:
    t = int(_opt(argv, "--t"))
    which = _opt(argv, "--map")
    mu = parse_parts(argv[-1])
    m = sum(1 for part, _ in mu if part == t)
    expected = 2 * m if m == len(mu) else 2 * m + 1
    if _opt(argv, "--format", "text") == "json":
        data = json.loads(out)
        fiber = data["fiber"]
        same, extra, size = (
            data["same_overlines"], data["one_more_overline"], data["expected_size"]
        )
    else:
        lines = out.splitlines()
        fiber = lines[:-3]
        tail = dict(line.split(": ") for line in lines[-3:])
        same, extra, size = (
            int(tail["same_overlines"]),
            int(tail["one_more_overline"]),
            int(tail["expected_size"]),
        )
    if len(fiber) != expected or size != expected:
        return f"fiber has {len(fiber)} members, expected {expected}"
    if same + extra != len(fiber) or extra != m:
        return f"overline split {same}+{extra} does not fit m={m}"
    if len(set(fiber)) != len(fiber):
        return "fiber repeats a member"
    measure = _overpartition_weight if which == "fold" else _bipartition_weight
    target = _weight(mu)
    for member in fiber:
        w = measure(member)
        if w != target:
            return f"member {member} has weight {w}, expected {target}"
    return None


def check_map(argv: list[str], out: str) -> str | None:
    command, t = argv[0], int(_opt(argv, "--t"))
    source = argv[-1]
    measure = _overpartition_weight if command == "fold" else _bipartition_weight
    weight = measure(source)
    if _opt(argv, "--format", "text") == "json":
        data = json.loads(out)
    else:
        data = dict(line.split(": ", 1) for line in out.splitlines())
    image = parse_parts(str(data["image"]))
    if int(data["weight"]) != weight or _weight(image) != weight:
        return f"weight {data['weight']} not preserved from {weight}"
    if int(data["parts"]) != len(image):
        return "part count does not match the image"
    if max(part for part, _ in image) > t:
        return f"image has a part above t={t}"
    return None


_CHECKS = {
    "table": check_table,
    "verify": check_verify,
    "preimages": check_preimages,
    "fold": check_map,
    "merge": check_map,
}


def check_job(argv: list[str], code: int, out: str) -> str | None:
    """None when the job exited 0 and its output is right, else a reason."""
    if code != 0:
        return f"exit code {code}"
    try:
        return _CHECKS[argv[0]](argv, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparseable output: {exc!r}"


def serve(requests, replies) -> None:
    """Answer each ``[argv, code, stdout]`` line with a reason line."""
    for line in requests:
        argv, code, out = json.loads(line)
        replies.write(json.dumps(check_job(argv, code, out)) + "\n")
        replies.flush()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
