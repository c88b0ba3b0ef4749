"""CLI output pinned to recorded digests: every run below must print exactly
what it printed when ``tests/golden_cli.json`` was written.

Each entry is the sha256 of the JSON list ``[exit code, stdout, stderr]``
of one in-process ``overgap`` run.  The runs cover every rendering of
``table`` and the ``verify`` suites; none is a usage error, because
argparse's wording differs between Python versions.  After a change that
is meant to alter the output, rewrite the file with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import hashlib
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from overgap.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

ARGVS = [
    ("table", "--t", str(t), "--max-n", str(max_n), "--z", z, "--format", fmt)
    for t in (1, 3, 10, 40)
    for max_n in (1, 50, 200)
    for z in ("tracked", "zero", "one")
    for fmt in ("text", "json", "csv")
]
ARGVS.append(("verify", "--suite", "all", "--t", "1..5", "--order", "30"))
ARGVS += [
    ("verify", "--suite", suite, "--t", "1..12", "--order", "40")
    for suite in ("chain", "transform", "chu")
]


def digest(argv) -> str:
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    record = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(record.encode()).hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_run(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in ARGVS)


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_cli_output_matches_golden(golden, argv):
    assert digest(argv) == golden[" ".join(argv)]


if __name__ == "__main__":
    digests = {" ".join(argv): digest(argv) for argv in ARGVS}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
