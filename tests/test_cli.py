"""The dfan command line: verbs, exit codes, and deterministic output."""

import io
import json
import subprocess
import sys
from fractions import Fraction

SERIES = """params: y
vars: x1 x2
order: antigraded_lex x2 > x1
cap: 5
ideal: y*x2 - x1*x2 + x1
"""

AIRY = """vars: x1
cap: 8
ideal: dx1^2 + x1*z^2
"""

DIV = """vars: x1
cap: 6
ideal: x1
dividend: dx1*x1
"""


def run_cli(args, text):
    proc = subprocess.run(
        [sys.executable, "-m", "dfan.cli"] + list(args) + ["-"],
        input=text, capture_output=True, text=True, timeout=120)
    return proc


def test_reduce_series_example():
    proc = run_cli(["reduce"], SERIES)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["h"] == "y"
    assert doc["basis"] == [
        "x2 + 1/y*x1 + 1/y^2*x1^2 + 1/y^3*x1^3 + 1/y^4*x1^4 + 1/y^5*x1^5"]
    assert doc["tainted"] is True


def test_div_verb():
    proc = run_cli(["div"], DIV)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["quotients"] == ["dx1"]
    assert doc["remainder"] == "0" and doc["t_part"] == "0"
    assert doc["denominator_certificate"] is True


def test_fan_verb_counts_cells():
    proc = run_cli(["fan"], AIRY)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["num_cells"] == 4
    dims = sorted(c["dim"] for c in doc["cells"])
    assert dims == [0, 1, 1, 2]


def test_certify_and_compfan():
    text = """params: y
vars: x1
cap: 8
ideal: dx1^2 - y*x1*z^2
"""
    cert = run_cli(["certify"], text)
    assert cert.returncode == 0
    cdoc = json.loads(cert.stdout)
    assert cdoc["h"] == "y" and cdoc["num_cells"] == 4
    comp = run_cli(["compfan"], text)
    assert comp.returncode == 0
    sdoc = json.loads(comp.stdout)
    assert [s["q_ideal"] for s in sdoc["strata"]] == [[], ["y"]]


def test_specialize_verb():
    proc = run_cli(["specialize", "--at", "y=1"], SERIES)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["ideal"] == ["x2 + x1 - x1*x2"]


def test_output_is_byte_deterministic():
    a = run_cli(["fan"], AIRY)
    b = run_cli(["fan"], AIRY)
    assert a.stdout == b.stdout and a.returncode == 0


def test_exit_codes():
    bad_syntax = run_cli(["reduce"], "vars: x1\nideal: x1 + x9\n")
    assert bad_syntax.returncode == 2
    assert "x9" in bad_syntax.stderr
    math_err = run_cli(["fan"], "vars: x1\nideal: 0*x1\n")
    assert math_err.returncode == 1
    # no generators at all: oracle-fan used to die with an IndexError
    for text in ("vars: x1\n", "vars: x1 x2\nideal: 0\n"):
        zero = run_cli(["oracle-fan"], text)
        assert zero.returncode == 1 and "ZeroOperator" in zero.stderr
        assert "Traceback" not in zero.stderr and not zero.stdout
    missing_div = run_cli(["div"], AIRY)
    assert missing_div.returncode == 2
    # the guard band's slack is fixed, not a flag
    guard = run_cli(["div", "--guard", "4"], DIV)
    assert guard.returncode == 2 and "--guard" in guard.stderr
    # every `--at` name is a parameter, given once; a problem without
    # parameters takes none
    for at, words in (("y=1,foo=2", "unknown parameter 'foo'"),
                      ("y=1,y=2", "repeated parameter 'y'")):
        _usage_error(run_cli(["specialize", "--at", at], SERIES), "--at", words)
    _usage_error(run_cli(["specialize"], SERIES), "specialize needs --at")
    _usage_error(run_cli(["specialize", "--at", "y=1"], DIV),
                 "unknown parameter 'y'")


def test_cap_override_below_one_is_a_usage_error():
    # a `cap:` line below 1 is refused by the parser; --cap is refused alike
    for verb, text, cap in (("reduce", AIRY, "0"), ("sb", AIRY, "0"),
                            ("reduce", AIRY, "-1"), ("div", DIV, "-1")):
        proc = run_cli([verb, "--cap", cap], text)
        assert proc.returncode == 2, (verb, cap)
        assert "cap must be at least 1" in proc.stderr and not proc.stdout


def test_budget_flags_out_of_range_are_usage_errors():
    # a budget out of range is a usage error, not a traversal that gives
    # up (exit 1) or, for --samples, the whole grid
    compfan = "params: y\nvars: x1\ncap: 8\nideal: dx1^2 - y*x1*z^2\n"
    for verb, text, flag, value, floor in (
            ("fan", AIRY, "--max-cells", "0", 1),
            ("fan", AIRY, "--max-cells", "-3", 1),
            ("compfan", compfan, "--max-depth", "-1", 0),
            ("oracle-fan", AIRY, "--samples", "-5", 0)):
        _usage_error(run_cli([verb, flag, value], text),
                     f"{flag} must be at least {floor}")
    # values in range still run; a budget too small is still exit 1
    assert run_cli(["fan", "--max-cells", "4"], AIRY).returncode == 0
    assert run_cli(["compfan", "--max-depth", "1"], compfan).returncode == 0
    too_shallow = run_cli(["compfan", "--max-depth", "0"], compfan)
    assert too_shallow.returncode == 1 and "DepthExceeded" in too_shallow.stderr
    assert run_cli(["oracle-fan", "--samples", "0"], AIRY).returncode == 0


def test_sb_at_cap_one_is_not_certified_against_itself():
    # sb compares the caps max(1, cap - 2) and cap, which coincide at cap 1;
    # this ideal's staircase grows between caps 1 and 3
    proc = run_cli(["sb", "--cap", "1"],
                   "vars: x1\nideal: dx1^2 - x1*z^2; x1*dx1 - x1^3\n")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["cap"] == 1 and doc["cap_certified"] is False


def test_oracle_fan_groups_weights():
    proc = run_cli(["oracle-fan", "--samples", "20"], AIRY)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["num_weights"] == 20
    assert sum(len(c["weights"]) for c in doc["classes"]) == 20
    # the sample spans the grid, so it reaches the u = 0 weights
    assert any(c["signature"]["u_zero"] == [0] for c in doc["classes"])


def test_one_parameter_qideal_must_be_prime():
    body = "vars: x1\nideal: dx1^2 - y*x1*z^2\n"
    # the unit ideal was once read as a denominator lying in <1>
    for q, why in (("y^2 - 1", "is not prime"), ("y^2", "is not prime"),
                   ("1", "is the unit ideal"), ("y^2 + 1; y - 1", "is the unit ideal")):
        proc = run_cli(["compfan"], f"params: y\nqideal: {q}\n" + body)
        assert proc.returncode == 1 and not proc.stdout
        assert "NotPrime" in proc.stderr and why in proc.stderr, q
    proc = run_cli(["compfan"], "params: y\nqideal: y^2 - 2\n" + body)
    assert proc.returncode == 0


def test_principal_qideal_must_be_prime_for_any_number_of_parameters():
    """A Q with one generator is prime exactly when the generator is
    irreducible, whatever the number of parameters; a Q with more
    generators is not checked."""
    body = "vars: x1\nideal: dx1^2 - a*x1*z^2\n"
    for q in ("a*b", "a^2", "a^2*b - b"):
        proc = run_cli(["gensb"], f"params: a b\nqideal: {q}\n" + body)
        assert proc.returncode == 1 and not proc.stdout, q
        assert "NotPrime" in proc.stderr and "is not prime" in proc.stderr, q
    for q in ("a*b - 1", "b - 1; a - 2"):
        proc = run_cli(["gensb"], f"params: a b\nqideal: {q}\n" + body)
        assert proc.returncode == 0, q


def test_max_cells_bounds_every_traversal():
    """--max-cells reaches the traversals of certify and compfan too."""
    compfan = "params: y\nvars: x1\ncap: 8\nideal: dx1^2 - y*x1*z^2\n"
    for verb, text in (("fan", AIRY), ("certify", compfan), ("compfan", compfan)):
        proc = run_cli([verb, "--max-cells", "1"], text)
        assert proc.returncode == 1 and not proc.stdout, verb
        assert "NonConvergentTraversal" in proc.stderr, verb
        assert run_cli([verb, "--max-cells", "4"], text).returncode == 0, verb


def test_deep_nesting_exits_2_at_the_expression():
    proc = run_cli(["sb"], "vars: x1\nideal: " + "(" * 2000 + "x1"
                   + ")" * 2000 + "\n")
    _usage_error(proc, "nested too deeply", "line 2, column 8")


def _usage_error(proc, *words):
    assert proc.returncode == 2 and not proc.stdout
    assert "Traceback" not in proc.stderr
    assert all(w in proc.stderr for w in words), proc.stderr


def test_unknown_order_is_a_usage_error():
    _usage_error(run_cli(["reduce"], "vars: x1\norder: foo\nideal: dx1 + x1\n"),
                 "unknown base order 'foo'", "line 2")


# `reduce` of WEIGHTED with the retired `--seed-weight 0 0 1 2` flag, which
# prepended that weight to the problem's order
SEED_WEIGHTED = {
    "basis": ["3/2*x2*dx1 + x1*dx1", "dx2 + 2/3*dx1", "dx1*z"],
    "cap": 4, "h": "1", "h_factors": [], "q_ideal": [], "tainted": False}

WEIGHTED = """vars: x1 x2
weight: u 0 0 v 2 1
cap: 4
ideal: 2*dx1 + 3*dx2; x2*dx1 - x1*dx2
"""


def test_seed_weight_must_be_rational():
    """A seed weight is a leading `weight:` line, the outermost refinement;
    the flag is gone, and a weight entry must be rational."""
    proc = run_cli(["reduce", "--seed-weight", "0", "0", "1", "2"], WEIGHTED)
    _usage_error(proc, "--seed-weight")
    seeded = WEIGHTED.replace("weight:", "weight: u 0 0 v 1 2\nweight:", 1)
    proc = run_cli(["reduce"], seeded)
    assert proc.returncode == 0 and json.loads(proc.stdout) == SEED_WEIGHTED
    assert json.loads(run_cli(["reduce"], WEIGHTED).stdout) != SEED_WEIGHTED
    for u in ("a b", "1/0 0"):
        _usage_error(run_cli(["reduce"], f"vars: x1 x2\nweight: u {u} v 1 2\n"
                                         "ideal: dx1\n"),
                     "weight line must read", "line 2")


def test_vanishing_denominator_names_the_point():
    """The point prints as `--at` reads it, not as a tuple of Fractions."""
    proc = run_cli(["specialize", "--at", "y=0"], "params: y\nvars: x1\nideal: dx1/y\n")
    assert proc.returncode == 1 and not proc.stdout
    assert "denominator y vanishes at y=0" in proc.stderr
    assert "Fraction" not in proc.stderr
    proc = run_cli(["specialize", "--at", "a=1/2,b=-1"],
                   "params: a b\nvars: x1\nideal: dx1/(a + 2*b + 3/2) + x1\n")
    assert proc.returncode == 1 and "vanishes at a=1/2,b=-1" in proc.stderr


def test_specialize_point_must_be_rational():
    for at in ("y=abc", "y=1/0"):
        _usage_error(run_cli(["specialize", "--at", at], SERIES),
                     "--at", repr(at[2:]))


def test_duplicate_names_are_usage_errors():
    # x1 declared twice used to parse `dx1 + x1` as x2 + dx2
    _usage_error(run_cli(["reduce"], "vars: x1 x1\nideal: dx1 + x1\n"),
                 "duplicate name 'x1'", "line 1, column 10")
    _usage_error(run_cli(["reduce"], "params: y y\nvars: x1\nideal: y*x1\n"),
                 "duplicate name 'y'", "line 1, column 11")


def test_bad_names_are_usage_errors():
    # dx1 declared as a variable used to overwrite x1's dx-partner
    _usage_error(run_cli(["reduce"], "vars: x1 dx1\nideal: dx1*x1 - 1\n"),
                 "'dx1' is the dx-partner of variable 'x1'", "line 1, column 10")
    _usage_error(run_cli(["reduce"], "params: y.\nvars: x1\nideal: x1\n"),
                 "'y.' is not a name", "line 1, column 9")


SERIES_I = """params: y
vars: x1 x2
order: antigraded_lex x2 > x1
cap: 3
qideal: y^2 + 1
ideal: y*x2 - x1*x2 + x1
dividend: dx1*x2
"""


def test_div_reduces_each_monomial_once(monkeypatch, capsys):
    """Normal forms modulo y^2 + 1 come from the ideal's monomial table:
    `div` calls sympy's `rem` once per reducible monomial it meets (33),
    not once per coefficient it builds (310 by the whole-basis route)."""
    from sympy.polys.rings import PolyElement
    from dfan import cli
    calls = []
    rem = PolyElement.rem
    monkeypatch.setattr(PolyElement, "rem",
                        lambda self, G: calls.append(self) or rem(self, G))
    monkeypatch.setattr(sys, "stdin", io.StringIO(SERIES_I))
    assert cli.main(["div", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["remainder"]
    assert len(calls) <= 40


def test_weight_doc_matches_the_fraction_route():
    """A weight's coordinates print from its integer vector as the
    Fractions of `Weight.u` and `Weight.v` print."""
    from dfan.cli import _weight_doc
    from dfan.orders import Weight
    for u, v in (((0, 1), (2, -3)), ((Fraction(1, 2), Fraction(-3, 4)), (1, 0)),
                 ((Fraction(2, 6),), (Fraction(-4, 3),)), ((0,), (0,))):
        w = Weight.make(u, v)
        assert _weight_doc(w) == {"u": [str(a) for a in w.u], "v": [str(b) for b in w.v]}


BIG_SB = """vars: x1
cap: 4
ideal: dx1^70000 + x1*dx1^69999*z
"""


def test_sb_on_exponents_beyond_sixteen_bits():
    """The packed width comes from the computation's own bounds, so a level
    of 70000 (17 bits) prints the basis and staircase it always did."""
    proc = run_cli(["sb"], BIG_SB)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {
        "basis": ["dx1^70000 + x1*dx1^69999*z"], "cap": 4,
        "cap_certified": True, "tainted": False,
        "staircase": [{"alpha": [0], "beta": [70000], "k": 0}]}


def test_exponent_beyond_the_packed_width_exits_1(monkeypatch, capsys):
    """A codec narrower than the computation's exponents (here forced to
    2-bit fields) raises ExponentOverflow, exit 1, and prints no answer."""
    from dfan import cli
    from dfan.operators import Codec
    monkeypatch.setattr(Codec, "for_bound", staticmethod(lambda n, bound: Codec(n, 2)))
    for verb, text in (("sb", AIRY.replace("dx1^2", "dx1^5")),
                       ("div", DIV.replace("dx1*x1", "dx1^5*x1"))):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert cli.main([verb, "-"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "ExponentOverflow" in err


def test_parser_is_built_once():
    """Every call of `main` parses with the one parser `build_parser` made."""
    from dfan import cli
    assert cli.build_parser() is cli.build_parser()
    args = cli.build_parser().parse_args(["sb", "-", "--cap", "3"])
    assert (args.verb, args.cap) == ("sb", 3)
    assert cli.build_parser().parse_args(["fan", "-"]).cap is None
