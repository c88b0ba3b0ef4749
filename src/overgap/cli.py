"""Command line front end.

Five subcommands: ``table`` renders refined counts of bounded-gap
overpartitions from the closed-form series, ``fold`` and ``merge`` apply
the two weight-preserving maps to a single input, ``preimages`` lists a
fiber of either map, and ``verify`` runs the library's consistency
suites.  Output is deterministic: identical invocations produce
byte-identical text, and every JSON rendering uses a fixed key order.

Exit codes are a stable contract: 0 on success, 1 on a usage or domain
error (over-budget input and running out of memory included), 2 when a
requested cross-check or verification suite fails or an internal
invariant breaks (reported as ``internal error: ...``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from functools import cache

from .hyper import check_3phi2_transform, check_q_chu_vandermonde, verify_identity_chain
from .maps import NotInDomain, fold, fold_preimages, merge, merge_preimages, verify_fiber_identity
from .partitions import (
    InvalidPartition,
    enumerated_bounded_gap_gf,
    is_bounded_parts,
    iter_bipartitions,
    iter_bounded_gap,
    parse_bipartition,
    parse_overpartition,
    stats,
)
from .qseries import QMonomial, QSeriesError, bounded_gap_columns, bounded_gap_overpartition_gf

__all__ = ["main"]

_DEFAULT_ORDER = 30
_DEFAULT_T_RANGE = "1..5"
_DEFAULT_FIBER_MAX_N = 12
_SUITES = ("gf", "fibers", "chu", "transform", "chain")
# Renderings write every copy of a part, so their size is the part count.
_PRINT_BUDGET = 1_000_000
# The series kernels skip every factor past the truncation window, so the
# cost of `table` and of the chu, transform and chain suites follows the
# window, the number of bounds in a `--t` range and the largest bound.
# Each is checked before anything is built.
_WINDOW_BUDGET = 2_000  # table --max-n, verify --order, OVERPART_DEFAULT_ORDER
_BOUND_BUDGET = 2_000  # the largest bound in a verify --t range
_RANGE_BUDGET = 100  # the number of bounds in a verify --t range


class _Parser(argparse.ArgumentParser):
    """argparse subclass keeping usage errors on exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _window(text: str) -> int:
    value = _positive_int(text)
    if value > _WINDOW_BUDGET:
        raise argparse.ArgumentTypeError(
            f"{value} is over the window budget of {_WINDOW_BUDGET}"
        )
    return value


def _t_range(text: str) -> list[int]:
    """Either a single bound like "3" or an inclusive range like "1..5"."""
    lo, sep, hi = text.partition("..")
    try:
        if sep:
            low, high = int(lo), int(hi)
        else:
            low = high = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N or LO..HI, got {text!r}")
    if low < 1 or high < low:
        raise argparse.ArgumentTypeError(f"bad bound range {text!r}")
    if high > _BOUND_BUDGET:
        raise argparse.ArgumentTypeError(
            f"bound {high} is over the bound budget of {_BOUND_BUDGET}"
        )
    if high - low >= _RANGE_BUDGET:
        raise argparse.ArgumentTypeError(
            f"{text!r} holds {high - low + 1} bounds, over the range budget of "
            f"{_RANGE_BUDGET}"
        )
    return list(range(low, high + 1))


def _default_order() -> int:
    raw = os.environ.get("OVERPART_DEFAULT_ORDER")
    if raw is None:
        return _DEFAULT_ORDER
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"OVERPART_DEFAULT_ORDER is not an integer: {raw!r}")
    if value < 1:
        raise ValueError(f"OVERPART_DEFAULT_ORDER must be positive, got {value}")
    if value > _WINDOW_BUDGET:
        raise ValueError(
            f"OVERPART_DEFAULT_ORDER {value} is over the window budget of "
            f"{_WINDOW_BUDGET}"
        )
    return value


def _emit(text: str, output_path: str | None) -> None:
    if output_path is None:
        sys.stdout.write(text)
        # Flush inside the handler so a closed pipe raises here, where
        # main() can turn it into a quiet exit, not at interpreter shutdown.
        sys.stdout.flush()
    else:
        try:
            with open(output_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValueError(
                f"cannot write {output_path}: {exc.strerror or exc}"
            ) from exc


def _check_print_budget(parts: int) -> None:
    """Refuse a rendering of more than ``_PRINT_BUDGET`` parts before any
    of it is built."""
    if parts > _PRINT_BUDGET:
        raise ValueError(
            f"the rendering has {parts} parts, over the printing budget of "
            f"{_PRINT_BUDGET}"
        )


def _render_columns(header: list[str], columns: list[list[str]], fmt: str) -> str:
    """One line for ``header`` and one per row of ``columns``: csv joins
    the cells with commas, text right-aligns each column to its widest
    cell and joins with two spaces."""
    lines = [header, *zip(*columns)]
    if fmt == "csv":
        text = map(",".join, lines)
    else:
        widths = [max(len(name), *map(len, column)) for name, column in zip(header, columns)]
        text = ("  ".join(map(str.rjust, line, widths)) for line in lines)
    return "\n".join(text) + "\n"


def _table_json(t: int, max_n: int, z: str, counts: list[list[str]]) -> str:
    """``json.dumps(payload, indent=2) + "\n"`` of the table's payload,
    written directly: every count is a decimal string and ``z`` is one of
    three plain words, so no value needs escaping."""
    head = f'{{\n  "t": {t},\n  "max_n": {max_n},\n  "z": "{z}",\n'
    if z == "tracked":
        marks = ",\n    ".join(map(str, range(len(counts))))
        head += f'  "columns": [\n    {marks}\n  ],\n'
        rows = (
            f'    {{\n      "n": {n},\n      "counts": [\n        "'
            + '",\n        "'.join(cells)
            + '"\n      ]\n    }'
            for n, cells in enumerate(zip(*counts), 1)
        )
    else:
        rows = (
            f'    {{\n      "n": {n},\n      "count": "{cell}"\n    }}'
            for n, cell in enumerate(counts[0], 1)
        )
    return head + '  "rows": [\n' + ",\n".join(rows) + "\n  ]\n}\n"


def _cmd_table(args) -> int:
    t, max_n, z = args.t, args.max_n, args.z
    buffer = bounded_gap_columns(t, max_n + 1, z)
    if args.check:
        reference = enumerated_bounded_gap_gf([t], max_n)[t]
        if z != "tracked":
            reference = reference.subs_z(0 if z == "zero" else 1)
        diff = buffer.to_series().first_difference(reference, max_n + 1)
        if diff is not None:
            n, m, closed, counted = diff
            print(
                f"cross-check failed: closed form disagrees with enumeration "
                f"for t={t}, n<={max_n}; first difference at q^{n} z^{m}: "
                f"closed form {closed}, enumeration {counted}",
                file=sys.stderr,
            )
            return 2
    # the z^k column over q^1..q^max_n, as printed
    counts = [list(map(str, col[1:])) for col in buffer.columns]
    if args.format == "json":
        text = _table_json(t, max_n, z, counts)
    else:
        header = ["n"] + ([f"m={m}" for m in range(len(counts))] if z == "tracked" else ["count"])
        text = _render_columns(header, [list(map(str, range(1, max_n + 1))), *counts], args.format)
    _emit(text, args.output)
    return 0


def _emit_fields(fields: list[tuple[str, object]], args) -> None:
    if args.format == "json":
        _emit(json.dumps(dict(fields), indent=2) + "\n", args.output)
    else:
        _emit("".join(f"{key}: {value}\n" for key, value in fields), args.output)


def _cmd_fold(args) -> int:
    source = parse_overpartition(args.input)
    measured = stats(source, args.t)
    image = fold(source, args.t)
    _check_print_budget(image.num_parts)
    _emit_fields(
        [
            ("image", str(image)),
            ("weight", image.weight),
            ("parts", image.num_parts),
            ("marked", image.num_marked),
            ("quotient", measured.quotient),
            ("raised", measured.raised),
        ],
        args,
    )
    return 0


def _cmd_merge(args) -> int:
    source = parse_bipartition(args.input)
    image = merge(source, args.t)
    _check_print_budget(image.num_parts)
    _emit_fields(
        [
            ("image", str(image)),
            ("weight", image.weight),
            ("parts", image.num_parts),
            ("marked", image.num_marked),
            ("merged_t_count", source.t_count),
        ],
        args,
    )
    return 0


def _fiber_mismatch(built: list, found: list) -> str | None:
    """Name the first member in one of the constructed fiber ``built`` and
    the brute-force fiber ``found`` but not the other, brute-force ones
    first, else the first member the two hold a different number of
    times; None when they agree."""
    in_built, in_found = Counter(built), Counter(found)
    for member in found:
        if member not in in_built:
            return f"{member} is in the brute-force fiber but not the constructed one"
    for member in built:
        if member not in in_found:
            return f"{member} is in the constructed fiber but not the brute-force one"
    for member in built:
        if in_built[member] != in_found[member]:
            return (
                f"{member} is {in_built[member]} times in the constructed fiber, "
                f"{in_found[member]} in the brute-force one"
            )
    return None


def _cmd_preimages(args) -> int:
    mu = parse_overpartition(args.input)
    t = args.t
    if args.map == "fold":
        preimages, domain, apply_map = fold_preimages, iter_bounded_gap, fold
    else:
        preimages, domain, apply_map = merge_preimages, iter_bipartitions, merge
    # With m copies of t and r other parts, either fiber prints
    # r + 2mr + m(m+1) parts: a member of r + k parts and its marked twin
    # for each k in 1..m, and one of r parts when r > 0 (for merge, the
    # second components).  JSON also prints mu.  Out of the family the
    # fiber builder refuses mu at once, with its own message.
    if is_bounded_parts(mu, t):
        m = mu.multiplicity(t)
        r = mu.num_parts - m
        shown = r + 2 * m * r + m * (m + 1)
        _check_print_budget(shown + mu.num_parts if args.format == "json" else shown)
    report = preimages(mu, t)
    if args.check:
        found = [beta for beta in domain(t, mu.weight) if apply_map(beta, t) == mu]
        mismatch = _fiber_mismatch(report.fiber, found)
        if mismatch is not None:
            print(
                f"cross-check failed: constructed fiber of {mu} disagrees with "
                f"the brute-force fiber; {mismatch}",
                file=sys.stderr,
            )
            return 2
    members = [str(member) for member in report.fiber]
    census = [
        ("same_overlines", report.same_marks),
        ("one_more_overline", report.one_more_mark),
        ("expected_size", report.expected_size),
    ]
    if args.format == "json":
        _emit_fields([("mu", str(report.mu)), ("t", report.t), ("fiber", members), *census], args)
    else:
        lines = members + [f"{key}: {value}" for key, value in census]
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def _with_difference(entry: dict, diff, sides: tuple[str, str]) -> dict:
    """``entry`` with a check's first difference ``(q, z, lhs, rhs)``
    added as its ``first_difference`` object, the two coefficients under
    the names in ``sides``; a falsy ``diff`` (none found) adds nothing."""
    if diff:
        q_exp, z_exp, lhs, rhs = diff
        entry["first_difference"] = {
            "q": q_exp, "z": z_exp, sides[0]: str(lhs), sides[1]: str(rhs)
        }
    return entry


def _verify_entries(suites: list[str], ts: list[int], order: int, max_n: int) -> list[dict]:
    census = enumerated_bounded_gap_gf(ts, order - 1) if "gf" in suites else None
    q1 = QMonomial.q_power(1)
    neg_z = QMonomial(-1, 1, 0)
    neg_zq = QMonomial(-1, 1, 1)
    entries: list[dict] = []
    for suite in suites:
        for t in ts:
            # one (pass, details) pair per entry: the fibers suite gives
            # one per map, the others one each
            if suite == "fibers":
                results = []
                for which in ("fold", "merge"):
                    check = verify_fiber_identity(t, max_n, which)
                    details = {
                        "which": check.which, "t": check.t, "max_n": check.max_n,
                        "pass": check.passed, "images_checked": check.images_checked,
                        "first_failure": check.first_failure,
                    }
                    _with_difference(details, check.first_difference, ("fibers", "enumeration"))
                    results.append((check.passed, details))
            elif suite == "chain":
                report = verify_identity_chain(t, order)
                lines = [
                    _with_difference(
                        {"label": line.label, "equal_to_previous": line.equal_to_previous},
                        line.first_difference,
                        ("line", "previous"),
                    )
                    for line in report.lines
                ]
                details = {
                    "t": report.t, "order": report.order, "lines": lines, "pass": report.passed
                }
                results = [(report.passed, details)]
            else:
                if suite == "gf":
                    series = bounded_gap_overpartition_gf(t, order)
                    diff = series.first_difference(census[t], order)
                    details = {"compared_to": "enumeration", "max_n": order - 1}
                    sides = ("closed_form", "enumeration")
                elif suite == "chu":
                    diff = check_q_chu_vandermonde(neg_z, neg_zq, t, order, locate=True)
                    details = {"a": str(neg_z), "c": str(neg_zq), "n": t}
                    sides = ("series", "sum")
                else:
                    params = dict(
                        a=q1,
                        b=q1,
                        c=QMonomial(-1, 1, t + 1),
                        d=QMonomial(-1, 1, 2),
                        e=QMonomial.q_power(t + 2),
                    )
                    diff = check_3phi2_transform(**params, target_order=order, locate=True)
                    details = {k: str(v) for k, v in params.items()}
                    sides = ("series", "transformed")
                # diff is the check's first difference, None when the sides agree
                results = [(diff is None, _with_difference(details, diff, sides))]
            # the fibers suite records its weight ceiling as the order
            span = max_n if suite == "fibers" else order
            entries += (
                {"suite": suite, "t": t, "order": span, "pass": ok, "details": details}
                for ok, details in results
            )
    return entries


def _cmd_verify(args) -> int:
    suites = list(_SUITES) if args.suite == "all" else [args.suite]
    order = args.order if args.order is not None else _default_order()
    entries = _verify_entries(suites, args.t, order, args.max_n)
    for entry in entries:
        details = entry["details"]
        where = f"{entry['suite']} at t={entry['t']}, order {entry['order']}"
        if entry["suite"] == "fibers":
            where += f", map {details['which']}"
        # a chain entry carries one first difference per failing line
        failures = [(where, details.get("first_difference"))] + [
            (f"{where}, line {line['label']}", line.get("first_difference"))
            for line in details.get("lines", ())
        ]
        lines = [
            f"verify failed: {place}; first difference at q^{diff['q']} z^{diff['z']}: "
            + ", ".join(f"{k} {v}" for k, v in diff.items() if k not in ("q", "z"))
            for place, diff in failures
            if diff is not None
        ]
        if not entry["pass"] and not lines:
            reason = details.get("first_failure")
            lines.append(f"verify failed: {where}" + (f"; {reason}" if reason else ""))
        for line in lines:
            print(line, file=sys.stderr)
    _emit(json.dumps(entries, indent=2) + "\n", args.output)
    return 0 if all(entry["pass"] for entry in entries) else 2


@cache
def _build_parser() -> _Parser:
    """The argument parser, built on the first call and shared by every
    later one; a parse never changes it."""
    parser = _Parser(
        prog="overgap",
        description=(
            "Exact generating functions, maps, and fiber counts for "
            "overpartitions whose largest and smallest parts differ by at "
            "most a fixed bound."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    table = sub.add_parser(
        "table", help="tabulate refined counts from the closed-form series"
    )
    table.add_argument("--t", type=_positive_int, required=True, help="gap bound")
    table.add_argument(
        "--max-n", type=_window, required=True, help="largest weight shown"
    )
    table.add_argument(
        "--z",
        choices=("tracked", "zero", "one"),
        default="tracked",
        help="overline marking: full matrix, none allowed, or summed out",
    )
    table.add_argument("--format", choices=("text", "json", "csv"), default="text")
    table.add_argument(
        "--check",
        action="store_true",
        help="cross-check every entry against an enumeration of partition shapes",
    )
    table.add_argument("--output", help="write the rendering to this file")

    fold_cmd = sub.add_parser(
        "fold", help="apply the gap-reducing map to one overpartition"
    )
    fold_cmd.add_argument("--t", type=_positive_int, required=True)
    fold_cmd.add_argument("input", help='overpartition text, e.g. "7,4~"')
    fold_cmd.add_argument("--format", choices=("text", "json"), default="text")
    fold_cmd.add_argument("--output")

    merge_cmd = sub.add_parser(
        "merge", help="absorb a bipartition's reserved parts into one overpartition"
    )
    merge_cmd.add_argument("--t", type=_positive_int, required=True)
    merge_cmd.add_argument("input", help='bipartition text, e.g. "[3^1 | 3,3,1~,1]"')
    merge_cmd.add_argument("--format", choices=("text", "json"), default="text")
    merge_cmd.add_argument("--output")

    pre = sub.add_parser("preimages", help="list one fiber of either map")
    pre.add_argument("--t", type=_positive_int, required=True)
    pre.add_argument("--map", choices=("fold", "merge"), required=True)
    pre.add_argument("input", help="target overpartition text")
    pre.add_argument("--format", choices=("text", "json"), default="text")
    pre.add_argument(
        "--check",
        action="store_true",
        help="validate the fiber against brute-force enumeration",
    )
    pre.add_argument("--output")

    verify = sub.add_parser("verify", help="run the consistency suites")
    verify.add_argument(
        "--suite", choices=_SUITES + ("all",), default="all"
    )
    verify.add_argument(
        "--t",
        type=_t_range,
        default=_t_range(_DEFAULT_T_RANGE),
        help='bound or range of bounds, e.g. "3" or "1..5"',
    )
    verify.add_argument(
        "--order",
        type=_window,
        default=None,
        help="truncation order (default: $OVERPART_DEFAULT_ORDER or 30)",
    )
    verify.add_argument(
        "--max-n",
        type=_positive_int,
        default=_DEFAULT_FIBER_MAX_N,
        help="weight ceiling for the fiber suite",
    )
    verify.add_argument("--output")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    # looked up per call, so a replaced _cmd_* function is the one that runs
    handler = globals()[f"_cmd_{args.command}"]
    try:
        return handler(args)
    except BrokenPipeError:
        # Downstream consumer (head, less, ...) closed stdout; suppress the
        # interpreter's shutdown flush instead of dumping a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (InvalidPartition, NotInDomain, QSeriesError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        # Past the budgets a run can still outgrow the memory it is given.
        print("error: out of memory", file=sys.stderr)
        return 1
    except AssertionError as exc:
        # A broken internal invariant: the result cannot be trusted, so
        # report it like a failed check instead of dumping a traceback.
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
