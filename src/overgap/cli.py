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

from .hyper import check_3phi2_transform, check_q_chu_vandermonde, verify_identity_chain
from .maps import NotInDomain, fold, fold_preimages, merge, merge_preimages, verify_fiber_identity
from .partitions import (
    InvalidPartition,
    enumerated_bounded_gap_gf,
    gf_from_enumeration,
    is_bounded_parts,
    iter_bipartitions,
    iter_bounded_gap,
    parse_bipartition,
    parse_overpartition,
    stats,
)
from .qseries import (
    QMonomial,
    QSeriesError,
    bounded_gap_overpartition_gf,
    bounded_gap_partition_gf,
)

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


def _render_rows(header: list[str], rows: list[list[str]], fmt: str) -> str:
    if fmt == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(row) for row in rows)
        return "\n".join(lines) + "\n"
    widths = [len(cell) for cell in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(cell.rjust(widths[i]) for i, cell in enumerate(header))]
    for row in rows:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines) + "\n"


def _cmd_table(args) -> int:
    t, max_n = args.t, args.max_n
    if args.z == "tracked":
        series = bounded_gap_overpartition_gf(t, max_n + 1, z_tracked=True)
    elif args.z == "one":
        series = bounded_gap_overpartition_gf(t, max_n + 1, z_tracked=False)
    else:
        series = bounded_gap_partition_gf(t, max_n + 1)
    if args.check:
        reference = gf_from_enumeration("bounded_gap", t, max_n)
        if args.z == "zero":
            reference = reference.subs_z(0)
        elif args.z == "one":
            reference = reference.subs_z(1)
        diff = series.first_difference(reference, max_n + 1)
        if diff is not None:
            n, m, closed, counted = diff
            print(
                f"cross-check failed: closed form disagrees with enumeration "
                f"for t={t}, n<={max_n}; first difference at q^{n} z^{m}: "
                f"closed form {closed}, enumeration {counted}",
                file=sys.stderr,
            )
            return 2
    tracked = args.z == "tracked"
    polys = [series.coeff(n) for n in range(1, max_n + 1)]
    columns = [0]
    if tracked:
        mark_max = max([0] + [poly.max_z_exp() for poly in polys if poly])
        columns = list(range(mark_max + 1))
    rows = [
        [str(n)] + [str(poly.coefficient(m)) for m in columns]
        for n, poly in enumerate(polys, 1)
    ]
    if args.format == "json":
        payload = {"t": t, "max_n": max_n, "z": args.z}
        if tracked:
            payload["columns"] = columns
            payload["rows"] = [{"n": int(row[0]), "counts": row[1:]} for row in rows]
        else:
            payload["rows"] = [{"n": int(row[0]), "count": row[1]} for row in rows]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        header = ["n"] + ([f"m={m}" for m in columns] if tracked else ["count"])
        text = _render_rows(header, rows, args.format)
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
    if source.t != args.t:
        print(
            f"error: input is a bipartition at t={source.t}, but --t {args.t} "
            f"was given",
            file=sys.stderr,
        )
        return 1
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
        if set(found) != set(report.fiber) or len(found) != len(report.fiber):
            print(
                f"cross-check failed: constructed fiber of {mu} disagrees with "
                f"the brute-force fiber",
                file=sys.stderr,
            )
            return 2
    if args.format == "json":
        _emit(json.dumps(report.to_json_dict(), indent=2) + "\n", args.output)
    else:
        lines = [str(member) for member in report.fiber]
        lines.append(f"same_overlines: {report.same_marks}")
        lines.append(f"one_more_overline: {report.one_more_mark}")
        lines.append(f"expected_size: {report.expected_size}")
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def _verify_entries(suites: list[str], ts: list[int], order: int, max_n: int) -> list[dict]:
    entries: list[dict] = []

    def add(suite: str, t: int, order: int, ok: bool, details: dict) -> None:
        entries.append(
            {"suite": suite, "t": t, "order": order, "pass": ok, "details": details}
        )

    q1 = QMonomial.q_power(1)
    neg_z = QMonomial(-1, 1, 0)
    neg_zq = QMonomial(-1, 1, 1)
    for suite in suites:
        if suite == "gf":
            census = enumerated_bounded_gap_gf(ts, order - 1)
            for t in ts:
                diff = bounded_gap_overpartition_gf(t, order).first_difference(
                    census[t], order
                )
                details = {"compared_to": "enumeration", "max_n": order - 1}
                if diff is not None:
                    n, m, closed, counted = diff
                    details["first_difference"] = {
                        "q": n, "z": m, "closed_form": str(closed), "enumeration": str(counted)
                    }
                add(suite, t, order, diff is None, details)
        elif suite == "fibers":
            for t in ts:
                for which in ("fold", "merge"):
                    check = verify_fiber_identity(t, max_n, which)
                    add(suite, t, max_n, check.passed, check.to_json_dict())
        elif suite == "chu":
            for t in ts:
                ok = check_q_chu_vandermonde(neg_z, neg_zq, t, order)
                add(suite, t, order, ok, {"a": str(neg_z), "c": str(neg_zq), "n": t})
        elif suite == "transform":
            for t in ts:
                params = dict(
                    a=q1,
                    b=q1,
                    c=QMonomial(-1, 1, t + 1),
                    d=QMonomial(-1, 1, 2),
                    e=QMonomial.q_power(t + 2),
                )
                ok = check_3phi2_transform(**params, target_order=order)
                add(suite, t, order, ok, {k: str(v) for k, v in params.items()})
        elif suite == "chain":
            for t in ts:
                report = verify_identity_chain(t, order, "tracked")
                add(suite, t, order, report.passed, report.to_json_dict())
    return entries


def _cmd_verify(args) -> int:
    suites = list(_SUITES) if args.suite == "all" else [args.suite]
    order = args.order if args.order is not None else _default_order()
    entries = _verify_entries(suites, args.t, order, args.max_n)
    _emit(json.dumps(entries, indent=2) + "\n", args.output)
    return 0 if all(entry["pass"] for entry in entries) else 2


def _build_parser() -> _Parser:
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
        help="cross-check every entry against brute-force enumeration",
    )
    table.add_argument("--output", help="write the rendering to this file")
    table.set_defaults(handler=_cmd_table)

    fold_cmd = sub.add_parser(
        "fold", help="apply the gap-reducing map to one overpartition"
    )
    fold_cmd.add_argument("--t", type=_positive_int, required=True)
    fold_cmd.add_argument("input", help='overpartition text, e.g. "7,4~"')
    fold_cmd.add_argument("--format", choices=("text", "json"), default="text")
    fold_cmd.add_argument("--output")
    fold_cmd.set_defaults(handler=_cmd_fold)

    merge_cmd = sub.add_parser(
        "merge", help="absorb a bipartition's reserved parts into one overpartition"
    )
    merge_cmd.add_argument("--t", type=_positive_int, required=True)
    merge_cmd.add_argument("input", help='bipartition text, e.g. "[3^1 | 3,3,1~,1]"')
    merge_cmd.add_argument("--format", choices=("text", "json"), default="text")
    merge_cmd.add_argument("--output")
    merge_cmd.set_defaults(handler=_cmd_merge)

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
    pre.set_defaults(handler=_cmd_preimages)

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
    verify.set_defaults(handler=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.handler(args)
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
