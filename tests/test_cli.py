"""CLI behavior: renderings, exit codes, determinism, file output."""

import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import overgap.cli as cli
import overgap.hyper as hyper
from overgap.cli import main
from overgap.partitions import Bipartition, iter_bounded_parts
from overgap.qseries import QSeries, ZLaurentPoly, bounded_gap_overpartition_gf

TABLE_T3 = """\
n  m=0  m=1  m=2
1    1    1    0
2    2    2    0
3    3    4    1
4    5    7    2
5    7   11    4
"""

# the m=2 column is wider than its header, every other one is not
TABLE_T6_N19 = """\
 n  m=0  m=1   m=2  m=3  m=4  m=5
 1    1    1     0    0    0    0
 2    2    2     0    0    0    0
 3    3    4     1    0    0    0
 4    5    7     2    0    0    0
 5    7   12     5    0    0    0
 6   11   19     9    1    0    0
 7   15   30    17    2    0    0
 8   22   44    27    5    0    0
 9   29   64    45   10    0    0
10   40   90    67   18    1    0
11   51  125   102   30    2    0
12   69  169   145   50    5    0
13   86  227   208   76    9    0
14  112  298   284  115   17    0
15  139  388   391  168   27    1
16  176  498   518  239   45    2
17  214  634   689  332   67    4
18  268  797   891  457  102    7
19  321  996  1154  612  145   12
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- table -----------------------------------------------------------------


def test_table_text(capsys):
    code, out, err = run(capsys, "table", "--t", "3", "--max-n", "5")
    assert code == 0 and err == ""
    assert out == TABLE_T3


def test_table_text_column_widths(capsys):
    code, out, err = run(capsys, "table", "--t", "6", "--max-n", "19")
    assert code == 0 and err == ""
    assert out == TABLE_T6_N19


@pytest.mark.parametrize(
    "z, counts", [("one", ["2", "4", "8", "14"]), ("zero", ["1", "2", "3", "5"])]
)
def test_table_json_untracked(capsys, z, counts):
    code, out, err = run(
        capsys, "table", "--t", "3", "--max-n", "4", "--z", z, "--format", "json"
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert list(payload) == ["t", "max_n", "z", "rows"]
    assert payload == {
        "t": 3,
        "max_n": 4,
        "z": z,
        "rows": [{"n": n, "count": c} for n, c in enumerate(counts, start=1)],
    }


def test_table_check_passes(capsys):
    code, _, err = run(capsys, "table", "--t", "2", "--max-n", "8", "--check")
    assert code == 0 and err == ""


def test_table_check_names_first_difference(capsys, monkeypatch):
    real = cli.gf_from_enumeration

    def bumped(family, t, max_n):
        # one extra overpartition of 5 with one mark
        return real(family, t, max_n) + QSeries.from_terms({5: ZLaurentPoly({1: 1})}, max_n + 1)

    monkeypatch.setattr(cli, "gf_from_enumeration", bumped)
    closed = bounded_gap_overpartition_gf(2, 9).zq_coeff(5, 1)
    code, out, err = run(capsys, "table", "--t", "2", "--max-n", "8", "--check")
    assert code == 2 and out == ""
    assert err == (
        "cross-check failed: closed form disagrees with enumeration for t=2, n<=8; "
        f"first difference at q^5 z^1: closed form {closed}, enumeration {closed + 1}\n"
    )


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "--t", "3", "--max-n", "3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,m=0,m=1,m=2"
    assert lines[1] == "1,1,1,0"
    assert lines[3] == "3,3,4,1"


def test_table_json_round_trips(capsys):
    code, out, _ = run(capsys, "table", "--t", "3", "--max-n", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["t"] == 3 and payload["max_n"] == 4 and payload["z"] == "tracked"
    assert payload["columns"] == [0, 1, 2]
    row3 = payload["rows"][2]
    assert row3 == {"n": 3, "counts": ["3", "4", "1"]}


def test_table_summed_marks(capsys):
    code, out, _ = run(capsys, "table", "--t", "3", "--max-n", "3", "--z", "one")
    assert code == 0
    assert out.splitlines()[-1].split() == ["3", "8"]


def test_table_no_marks(capsys):
    code, out, _ = run(
        capsys, "table", "--t", "3", "--max-n", "5", "--z", "zero", "--format", "csv"
    )
    assert code == 0
    # partitions with gap at most 3: weights 1..5
    assert out.splitlines()[1:] == ["1,1", "2,2", "3,3", "4,5", "5,7"]


def test_table_usage_errors(capsys):
    assert run(capsys, "table", "--max-n", "4")[0] == 1
    assert run(capsys, "table", "--t", "0", "--max-n", "4")[0] == 1
    assert run(capsys, "table", "--t", "2", "--max-n", "4", "--z", "half")[0] == 1


# -- fold / merge ------------------------------------------------------------


def test_fold_text(capsys):
    code, out, err = run(capsys, "fold", "--t", "3", "7,4~")
    assert code == 0 and err == ""
    assert out == (
        "image: 3,3,3,1~,1\nweight: 11\nparts: 5\nmarked: 1\n"
        "quotient: 1\nraised: 1\n"
    )


def test_fold_json(capsys):
    code, out, _ = run(capsys, "fold", "--t", "3", "4~,4,3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "image": "3,3,3,1~,1",
        "weight": 11,
        "parts": 5,
        "marked": 1,
        "quotient": 1,
        "raised": 0,
    }


def test_fold_domain_error(capsys):
    code, out, err = run(capsys, "fold", "--t", "3", "7~,4")
    assert code == 1 and out == ""
    assert "error:" in err and "largest" in err


def test_fold_parse_error(capsys):
    code, _, err = run(capsys, "fold", "--t", "3", "1,2,3")
    assert code == 1 and "error:" in err


def test_merge_text(capsys):
    code, out, _ = run(capsys, "merge", "--t", "3", "[3^1 | 3,3,1~,1]")
    assert code == 0
    assert out.startswith("image: 3,3,3,1~,1\n")
    assert "merged_t_count: 1" in out


def test_merge_bound_mismatch(capsys):
    code, _, err = run(capsys, "merge", "--t", "2", "[3^1 | 3]")
    assert code == 1 and "t=3" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("fold", "--t", "1", "1000000000000"),
        ("merge", "--t", "2", "[2^10000000000 | 1]"),
        ("preimages", "--t", "1", "--map", "fold", ",".join(["1"] * 1000)),
    ],
)
def test_renderings_over_the_printing_budget_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "over the printing budget" in err


def test_printing_budget_counts_printed_parts(capsys, monkeypatch):
    fold_argv = ("fold", "--t", "3", "7,4~")  # image 3,3,3,1~,1
    fiber_argv = ("preimages", "--t", "3", "--map", "fold", "3,3,3")
    monkeypatch.setattr(cli, "_PRINT_BUDGET", 5)
    assert run(capsys, *fold_argv)[0] == 0
    monkeypatch.setattr(cli, "_PRINT_BUDGET", 4)
    assert run(capsys, *fold_argv)[0] == 1
    # the fiber 9 | 9~ | 6,3 | 6,3~ | 3,3,3 | 3~,3,3 has 12 parts; JSON
    # also prints the target 3,3,3
    monkeypatch.setattr(cli, "_PRINT_BUDGET", 12)
    assert run(capsys, *fiber_argv)[0] == 0
    assert run(capsys, *fiber_argv, "--format", "json")[0] == 1
    monkeypatch.setattr(cli, "_PRINT_BUDGET", 15)
    assert run(capsys, *fiber_argv, "--format", "json")[0] == 0


# -- preimages ---------------------------------------------------------------


def test_preimages_text(capsys):
    code, out, _ = run(capsys, "preimages", "--t", "3", "--map", "fold", "3,3,3")
    assert code == 0
    assert out == (
        "9\n9~\n6,3\n6,3~\n3,3,3\n3~,3,3\n"
        "same_overlines: 3\none_more_overline: 3\nexpected_size: 6\n"
    )


def test_preimages_json_schema(capsys):
    code, out, _ = run(
        capsys,
        "preimages", "--t", "3", "--map", "fold", "3,3,3,1~,1", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == [
        "mu", "t", "fiber", "same_overlines", "one_more_overline", "expected_size",
    ]
    assert payload["mu"] == "3,3,3,1~,1" and payload["expected_size"] == 7
    assert len(payload["fiber"]) == 7


def test_preimages_merge_with_check(capsys):
    code, out, _ = run(
        capsys, "preimages", "--t", "3", "--map", "merge", "3,3,3", "--check"
    )
    assert code == 0
    assert out.splitlines()[-1] == "expected_size: 6"


def test_preimages_check_detects_wrong_fiber(capsys, monkeypatch):
    real = cli.fold_preimages

    def corrupted(mu, t):
        report = real(mu, t)
        return type(report)(
            mu=report.mu,
            t=report.t,
            fiber=report.fiber[:-1],
            same_marks=report.same_marks,
            one_more_mark=report.one_more_mark,
        )

    monkeypatch.setattr(cli, "fold_preimages", corrupted)
    code, _, err = run(
        capsys, "preimages", "--t", "3", "--map", "fold", "3,3,3", "--check"
    )
    assert code == 2 and "cross-check failed" in err


def test_internal_error_exits_2_without_traceback(capsys, monkeypatch):
    def broken(mu, t):
        raise AssertionError("fold preimage produced a nonpositive part")

    monkeypatch.setattr(cli, "fold_preimages", broken)
    code, out, err = run(capsys, "preimages", "--t", "3", "--map", "fold", "3,3,3")
    assert code == 2 and out == ""
    assert err == "internal error: fold preimage produced a nonpositive part\n"


@pytest.mark.parametrize("which", ["fold", "merge"])
def test_preimages_budget_is_checked_before_the_fiber(capsys, monkeypatch, which):
    def refuse(mu, t):
        raise AssertionError("the fiber was built")

    monkeypatch.setattr(cli, "fold_preimages", refuse)
    monkeypatch.setattr(cli, "merge_preimages", refuse)
    # m = 1000 copies of t and r = 1 other part: r + 2mr + m(m+1) parts
    mu = ",".join(["3"] * 1000 + ["1"])
    code, out, err = run(capsys, "preimages", "--t", "3", "--map", which, mu)
    assert code == 1 and out == ""
    assert err == (
        "error: the rendering has 1003001 parts, over the printing budget of 1000000\n"
    )


def test_preimages_budget_count_matches_the_built_fiber(capsys, monkeypatch):
    # at a budget of 0 every rendering is refused with its part count
    monkeypatch.setattr(cli, "_PRINT_BUDGET", 0)
    for t in (1, 2, 3):
        for n in range(1, 13):
            for mu in iter_bounded_parts(t, n):
                for which in ("fold", "merge"):
                    build = cli.fold_preimages if which == "fold" else cli.merge_preimages
                    printed = sum(
                        (m.second if isinstance(m, Bipartition) else m).num_parts
                        for m in build(mu, t).fiber
                    )
                    for fmt, parts in (("text", printed), ("json", printed + mu.num_parts)):
                        code, out, err = run(
                            capsys, "preimages", "--t", str(t), "--map", which,
                            str(mu), "--format", fmt,
                        )
                        assert (code, out) == (1, "")
                        assert err == (
                            f"error: the rendering has {parts} parts, over the "
                            f"printing budget of 0\n"
                        ), (t, str(mu), which, fmt)


def test_preimages_domain_error(capsys):
    code, _, err = run(capsys, "preimages", "--t", "3", "--map", "fold", "4,1")
    assert code == 1 and "error:" in err


# -- verify -------------------------------------------------------------------


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "chu", "--t", "1..2", "--order", "12")
    assert code == 0
    entries = json.loads(out)
    assert [e["t"] for e in entries] == [1, 2]
    for entry in entries:
        assert list(entry) == ["suite", "t", "order", "pass", "details"]
        assert entry["suite"] == "chu" and entry["order"] == 12 and entry["pass"]


def test_verify_details_name_the_parameters(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "chu", "--t", "1..3", "--order", "6")
    assert code == 0
    assert [entry["details"] for entry in json.loads(out)] == [
        {"a": "-z", "c": "-z*q", "n": 1},
        {"a": "-z", "c": "-z*q", "n": 2},
        {"a": "-z", "c": "-z*q", "n": 3},
    ]
    code, out, _ = run(
        capsys, "verify", "--suite", "transform", "--t", "1..3", "--order", "6"
    )
    assert code == 0
    assert [entry["details"] for entry in json.loads(out)] == [
        {"a": "q", "b": "q", "c": "-z*q^2", "d": "-z*q^2", "e": "q^3"},
        {"a": "q", "b": "q", "c": "-z*q^3", "d": "-z*q^2", "e": "q^4"},
        {"a": "q", "b": "q", "c": "-z*q^4", "d": "-z*q^2", "e": "q^5"},
    ]


def test_verify_all_small(capsys):
    code, out, _ = run(
        capsys, "verify", "--t", "1..2", "--order", "10", "--max-n", "6"
    )
    assert code == 0
    entries = json.loads(out)
    suites = {entry["suite"] for entry in entries}
    assert suites == {"gf", "fibers", "chu", "transform", "chain"}
    assert all(entry["pass"] for entry in entries)
    # fibers run once per map per bound
    assert sum(1 for e in entries if e["suite"] == "fibers") == 4


def test_verify_failure_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(cli, "check_q_chu_vandermonde", lambda *a, **k: False)
    code, out, _ = run(capsys, "verify", "--suite", "chu", "--t", "1", "--order", "8")
    assert code == 2
    assert json.loads(out)[0]["pass"] is False


def test_verify_chain_failure_names_the_coefficient(capsys, monkeypatch):
    lines = hyper.chain_lines(2, 12)
    wrong, previous = hyper.chain_lines(3, 12)[-1][1], lines[2][1]
    tampered = lines[:3] + [("closed_form", wrong)]
    monkeypatch.setattr(hyper, "chain_lines", lambda t, order: tampered)
    code, out, _ = run(capsys, "verify", "--suite", "chain", "--t", "2", "--order", "12")
    assert code == 2
    [entry] = json.loads(out)
    n, m, line_value, previous_value = wrong.first_difference(previous, 12)
    assert [line.get("first_difference") for line in entry["details"]["lines"]] == [
        None, None, None,
        {"q": n, "z": m, "line": str(line_value), "previous": str(previous_value)},
    ]


def test_verify_gf_failure_names_the_coefficient(capsys, monkeypatch):
    # one coefficient of the closed form bumped at t = 3 only
    def bumped(t, order, z_tracked=True):
        series = bounded_gap_overpartition_gf(t, order, z_tracked)
        if t == 3:
            series = series + QSeries.from_terms({5: ZLaurentPoly({1: 1})}, order)
        return series

    monkeypatch.setattr(cli, "bounded_gap_overpartition_gf", bumped)
    code, out, _ = run(capsys, "verify", "--suite", "gf", "--t", "2..3", "--order", "9")
    assert code == 2
    passed, failed = json.loads(out)
    assert passed["pass"] is True and "first_difference" not in passed["details"]
    counted = bounded_gap_overpartition_gf(3, 9).zq_coeff(5, 1)
    assert failed["pass"] is False
    assert failed["details"] == {
        "compared_to": "enumeration",
        "max_n": 8,
        "first_difference": {
            "q": 5, "z": 1, "closed_form": str(counted + 1), "enumeration": str(counted)
        },
    }


def test_verify_env_default_order(capsys, monkeypatch):
    monkeypatch.setenv("OVERPART_DEFAULT_ORDER", "8")
    code, out, _ = run(capsys, "verify", "--suite", "gf", "--t", "1")
    assert code == 0
    assert json.loads(out)[0]["order"] == 8


def test_verify_env_rejects_garbage(capsys, monkeypatch):
    monkeypatch.setenv("OVERPART_DEFAULT_ORDER", "soon")
    code, _, err = run(capsys, "verify", "--suite", "gf", "--t", "1")
    assert code == 1 and "OVERPART_DEFAULT_ORDER" in err


@pytest.mark.parametrize("suite", ["chain", "all"])
def test_verify_order_one(capsys, suite):
    # every series is 0 + O(q) at order 1, so each suite passes
    code, out, err = run(capsys, "verify", "--suite", suite, "--order", "1")
    assert code == 0 and err == ""
    entries = json.loads(out)
    assert entries and all(entry["pass"] for entry in entries)


def test_verify_bad_range(capsys):
    assert run(capsys, "verify", "--t", "5..1")[0] == 1
    assert run(capsys, "verify", "--t", "x")[0] == 1


def test_over_budget_range_is_refused_without_a_list(capsys):
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "verify", "--t", "1..1000000000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    assert f"over the bound budget of {cli._BOUND_BUDGET}" in err
    assert peak < 1_000_000


@pytest.mark.parametrize(
    "argv, budget",
    [
        (("table", "--t", "3", "--max-n", str(cli._WINDOW_BUDGET + 1)), "window"),
        (("verify", "--order", str(cli._WINDOW_BUDGET + 1)), "window"),
        (("verify", "--suite", "chu", "--t", str(cli._BOUND_BUDGET + 1)), "bound"),
        (("verify", "--suite", "chu", "--t", f"1..{cli._RANGE_BUDGET + 1}"), "range"),
    ],
)
def test_over_budget_input_exits_1(capsys, monkeypatch, argv, budget):
    def refuse(args):
        raise AssertionError("a command ran on an over-budget input")

    monkeypatch.setattr(cli, "_cmd_table", refuse)
    monkeypatch.setattr(cli, "_cmd_verify", refuse)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert f"over the {budget} budget" in err


def test_env_default_order_has_the_window_budget(capsys, monkeypatch):
    monkeypatch.setenv("OVERPART_DEFAULT_ORDER", str(cli._WINDOW_BUDGET + 1))
    code, out, err = run(capsys, "verify", "--suite", "chu", "--t", "1")
    assert code == 1 and out == ""
    assert err == (
        f"error: OVERPART_DEFAULT_ORDER {cli._WINDOW_BUDGET + 1} is over the "
        f"window budget of {cli._WINDOW_BUDGET}\n"
    )


def test_inputs_at_the_budgets_run(capsys):
    top = str(cli._WINDOW_BUDGET)
    code, out, _ = run(capsys, "table", "--t", "5", "--max-n", top, "--z", "zero")
    assert code == 0 and out.splitlines()[-1].split()[0] == top
    for bounds, count in ((f"1..{cli._RANGE_BUDGET}", cli._RANGE_BUDGET),
                          (str(cli._BOUND_BUDGET), 1)):
        code, out, _ = run(capsys, "verify", "--suite", "chu", "--t", bounds,
                           "--order", "1")
        assert code == 0 and len(json.loads(out)) == count


def test_memory_error_exits_1_without_traceback(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "bounded_gap_overpartition_gf", exhausted)
    code, out, err = run(capsys, "table", "--t", "3", "--max-n", "5")
    assert (code, out, err) == (1, "", "error: out of memory\n")


# -- shared behavior -----------------------------------------------------------


def test_missing_subcommand_is_usage_error(capsys):
    assert run(capsys)[0] == 1


def test_output_file_matches_stdout(tmp_path, capsys):
    code, out, _ = run(capsys, "table", "--t", "2", "--max-n", "6", "--format", "json")
    assert code == 0
    path = tmp_path / "table.json"
    code2, out2, _ = run(
        capsys,
        "table", "--t", "2", "--max-n", "6", "--format", "json",
        "--output", str(path),
    )
    assert code2 == 0 and out2 == ""
    assert path.read_text(encoding="utf-8") == out


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "--t", "3", "--max-n", "5"),
        ("verify", "--suite", "chu", "--t", "2", "--order", "6"),
        ("preimages", "--t", "3", "--map", "fold", "3,3,1"),
    ],
)
@pytest.mark.parametrize(
    "target, reason",
    [("missing/out.txt", "No such file or directory"), (".", "Is a directory")],
)
def test_unwritable_output_exits_1(tmp_path, capsys, argv, target, reason):
    path = tmp_path / target
    code, out, err = run(capsys, *argv, "--output", str(path))
    assert code == 1 and out == ""
    assert err == f"error: cannot write {path}: {reason}\n"


def test_invocations_are_deterministic(capsys):
    first = run(capsys, "verify", "--suite", "chain", "--t", "2", "--order", "14")
    second = run(capsys, "verify", "--suite", "chain", "--t", "2", "--order", "14")
    assert first == second


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "overgap", "table", "--t", "3", "--max-n", "5"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0
    assert result.stdout == TABLE_T3


def test_broken_pipe_exits_without_traceback():
    # stdout is a pipe whose reader is already gone, as with `overgap | head`
    reader, writer = os.pipe()
    os.close(reader)
    proc = subprocess.Popen(
        [sys.executable, "-m", "overgap", "table", "--t", "3", "--max-n", "5"],
        stdout=writer,
        stderr=subprocess.PIPE,
    )
    os.close(writer)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == b""
