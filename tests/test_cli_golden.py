"""Golden CLI output: every verb on a fixed set of problems over QQ and over
parameter fields must print exactly the stdout (sha256) and exit code stored
in tests/data/cli_golden.json.

Re-record (only for an intended output change, named in CHANGES.md) with
    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from dfan import cli

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

PROBLEMS = {
    "airy": "vars: x1\ncap: 8\nideal: dx1^2 + x1*z^2\ndividend: dx1^3 + x1\n",
    "two_var": ("vars: x1 x2\ncap: 4\nideal: x1*dx1 + x2*dx2; dx1*dx2 + z^2\n"
                "dividend: dx1*dx2*x1\n"),
    "plain": "vars: x1\ncap: 6\nideal: x1*dx1 - 2*x1 + 1\ndividend: dx1*x1^2\n",
    "series": ("params: y\nvars: x1 x2\norder: antigraded_lex x2 > x1\ncap: 5\n"
               "ideal: y*x2 - x1*x2 + x1\ndividend: dx2*x2\n"),
    "airy_y": "params: y\nvars: x1\ncap: 8\nideal: dx1^2 - y*x1*z^2\n"
              "dividend: dx1^3 + 2*x1\n",
    "sqrt2": ("params: y\nvars: x1\ncap: 6\nqideal: y^2 - 2\n"
              "ideal: dx1^2 - y*x1*z^2 + x1*z\ndividend: dx1^2*x1\n"),
    "two_params": ("params: a b\nvars: x1\ncap: 6\n"
                   "ideal: a*dx1^2 - b*x1*z^2 + x1*z\ndividend: dx1^2 + x1\n"),
    "factors": ("params: y\nvars: x1 x2\ncap: 3\n"
                "ideal: (y - 1)*x1*dx1 + x2*dx2; (y + 1)*dx1*dx2 + z^2\n"
                "dividend: dx1*x2^2\n"),
    "euler": ("params: y\nvars: x1\ncap: 6\nideal: x1*dx1 - y*x1 + 2\n"
              "dividend: x1*dx1^2\n"),
}

VERBS = {
    "div": ["div"],
    "sb": ["sb"],
    "reduce": ["reduce"],
    "gensb": ["gensb"],
    "fan": ["fan"],
    "certify": ["certify"],
    "compfan": ["compfan"],
    "oracle-fan": ["oracle-fan", "--samples", "20"],
    "specialize": ["specialize"],
}

# `specialize` runs at this point, given for the problem's own parameters
# only: `--at` refuses a name that is not a parameter
AT = {"y": "2", "a": "3", "b": "-1/2"}


def argv(problem, verb):
    params = re.search(r"^params: (.*)$", PROBLEMS[problem], re.M)
    if verb != "specialize" or params is None:
        return VERBS[verb]
    return VERBS[verb] + ["--at", ",".join(f"{p}={AT[p]}" for p in params[1].split())]


def run(argv, text):
    """(exit code, stdout) of dfan.cli.main on the problem text."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv + ["-"])
    finally:
        sys.stdin = stdin
    return rc, out.getvalue()


def record(problem, verb):
    rc, stdout = run(argv(problem, verb), PROBLEMS[problem])
    return {"exit": rc, "sha256": hashlib.sha256(stdout.encode()).hexdigest()}


def cases():
    return [(p, v) for p in PROBLEMS for v in VERBS]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(f"{p}|{v}" for p, v in cases())


@pytest.mark.parametrize("problem,verb", cases())
def test_cli_output_matches_golden(golden, problem, verb):
    assert record(problem, verb) == golden[f"{problem}|{verb}"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({f"{p}|{v}": record(p, v) for p, v in cases()},
                                 indent=1, sort_keys=True) + "\n")
