"""Expression parser for operators and the line-based problem-file format.

Operator expressions use explicit `*` for the (noncommutative) product, `^`
for powers, `+`/`-`, parentheses and integer literals; `/` divides by an
invertible scalar (a nonzero rational or parameter polynomial).  Names are
the declared variables, their dx-partners (`dx` + name), `z`, and the
declared parameters.  All diagnostics carry line and column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .errors import NotPrime, OperatorSyntaxError, UnknownName
from .operators import HOperator, exponent
from .params import (ParamField, ParamIdeal, QQ_FIELD, factor_squarefree, param_ring,
                     poly_str)
from .orders import OrderSpec, Weight

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_TOKEN = re.compile(_NAME + r"|\d+|[-+*/^()]|\S")


def tokenize(text, line=1, col=1):
    """Token stream; `line`/`col` anchor the first character of `text` in the
    enclosing file so diagnostics point at the real position."""
    out = []
    for ln, raw in enumerate(text.splitlines() or [text], start=line):
        shift = col - 1 if ln == line else 0
        for mt in _TOKEN.finditer(raw):
            v = mt.group(0)
            c = mt.start() + 1 + shift
            if v.isdigit():
                out.append(("int", v, ln, c))
            elif v[0].isalpha() or v[0] == "_":
                out.append(("name", v, ln, c))
            elif v in "+-*/^()":
                out.append(("op", v, ln, c))
            else:
                raise OperatorSyntaxError(f"unexpected character {v!r}", ln, c)
    return out


class _Env:
    """Name resolution: variables, dx-partners, z, parameters."""

    def __init__(self, var_names, param_names, field):
        self.n = len(var_names)
        self.field = field
        self.atoms = {}
        for i, v in enumerate(var_names):
            self.atoms[v] = exponent(self.n, alpha=[0] * i + [1])
            self.atoms["d" + v] = exponent(self.n, beta=[0] * i + [1])
        self.atoms["z"] = exponent(self.n, k=1)
        self.params = {p: i for i, p in enumerate(param_names)}

    def lookup(self, name, ln, col):
        if name in self.atoms:
            return HOperator.monomial(self.n, self.field, self.atoms[name])
        if name in self.params:
            if not self.field.is_param:
                raise UnknownName(f"parameter {name!r} in a parameter-free context "
                                  f"(line {ln}, column {col})")
            c = self.field.from_poly(self.field.ring.gens[self.params[name]])
            return HOperator.monomial(self.n, self.field, exponent(self.n), c)
        raise UnknownName(f"unknown name {name!r} (line {ln}, column {col})")


class _Parser:
    def __init__(self, tokens, env):
        self.toks = tokens
        self.i = 0
        self.env = env

    def _peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def _next(self):
        t = self._peek()
        if t is None:
            last = self.toks[-1] if self.toks else ("", "", 1, 1)
            raise OperatorSyntaxError("unexpected end of expression", last[2],
                                      last[3] + len(str(last[1])))
        self.i += 1
        return t

    def parse(self):
        try:
            v = self.expr()
        except RecursionError:
            first = self.toks[0]
            raise OperatorSyntaxError("expression nested too deeply",
                                      first[2], first[3]) from None
        t = self._peek()
        if t is not None:
            raise OperatorSyntaxError(f"unexpected {t[1]!r}", t[2], t[3])
        return v

    def expr(self):
        v = self.term()
        while True:
            t = self._peek()
            if t and t[0] == "op" and t[1] in "+-":
                self._next()
                w = self.term()
                v = v + w if t[1] == "+" else v - w
            else:
                return v

    def term(self):
        v = self.factor()
        while True:
            t = self._peek()
            if t and t[0] == "op" and t[1] in "*/":
                self._next()
                w = self.factor()
                if t[1] == "*":
                    v = v * w
                else:
                    v = v.scale(_invert_scalar(w, t[2], t[3]))
            else:
                return v

    def factor(self):
        v = self.atom()
        t = self._peek()
        while t and t[:2] == ("op", "^"):
            self._next()
            p = self._next()
            if p[0] != "int":
                raise OperatorSyntaxError("exponent must be an integer", p[2], p[3])
            v = _power(v, int(p[1]))
            t = self._peek()
        return v

    def atom(self):
        t = self._next()
        if t[0] == "int":
            c = self.env.field.coerce(Fraction(int(t[1])))
            return HOperator.monomial(self.env.n, self.env.field,
                                      exponent(self.env.n), c)
        if t[0] == "name":
            return self.env.lookup(t[1], t[2], t[3])
        if t[:2] == ("op", "("):
            v = self.expr()
            t2 = self._next()
            if t2[:2] != ("op", ")"):
                raise OperatorSyntaxError("expected ')'", t2[2], t2[3])
            return v
        # a unary sign applies to the factor after it, power included
        if t[:2] == ("op", "-"):
            return -self.factor()
        if t[:2] == ("op", "+"):
            return self.factor()
        raise OperatorSyntaxError(f"unexpected {t[1]!r}", t[2], t[3])


def _power(v, k):
    """v^k by repeated squaring, high bit first: at most 2*log2(k)
    products, where multiplying k times would hang on a large k."""
    if k == 0:
        return HOperator.monomial(v.n, v.field, exponent(v.n))
    r = v
    for bit in bin(k)[3:]:
        r = r * r
        if bit == "1":
            r = r * v
    return r


def _invert_scalar(w, ln, col):
    """The inverse coefficient of a scalar (no x/dx/z) operator."""
    if w.is_zero():
        raise OperatorSyntaxError("division by zero", ln, col)
    if len(w.terms) != 1 or next(iter(w.terms)) != exponent(w.n):
        raise OperatorSyntaxError("can only divide by a scalar", ln, col)
    c = next(iter(w.terms.values()))
    return w.field.one / c if not isinstance(c, Fraction) else Fraction(1) / c


def parse_operator(text, var_names, param_names=(), field=None, line=1, col=1):
    """Parse one operator expression over the declared names, which obey
    the rules of the `vars:` and `params:` lines; a broken rule raises
    OperatorSyntaxError at line, col."""
    var_names, param_names = list(var_names), list(param_names)
    for names, other in ((var_names, param_names), (param_names, var_names)):
        for i, name in enumerate(names):
            fault = (_name_fault(name, names[:i], other)
                     or _partner_fault(name, var_names))
            if fault:
                raise OperatorSyntaxError(fault, line, col)
    if field is None:
        field = QQ_FIELD if not param_names else ParamField(param_names)
    env = _Env(var_names, param_names, field)
    toks = tokenize(text, line=line, col=col)
    if not toks:
        raise OperatorSyntaxError("empty expression", line, col)
    return _Parser(toks, env).parse()


def parse_param_poly(text, param_names, line=1, col=1):
    """Parse a parameter-only polynomial (used for Q generators)."""
    field = ParamField(param_names)
    op = parse_operator(text, [], param_names, field=field, line=line, col=col)
    e0 = exponent(0)
    if any(e != e0 for e in op.terms):
        raise OperatorSyntaxError("expected a parameter-only polynomial", line, 1)
    c = op.terms.get(e0)
    if c is None:
        return field.ring.zero
    if not c.den.is_ground:
        raise OperatorSyntaxError("Q generators must be polynomial", line, 1)
    return c.num.quo_ground(c.den.LC)


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------

@dataclass
class ProblemFile:
    """Parsed problem: names, order, cap, coefficient constraints, operators."""

    params: list
    var_names: list
    order: OrderSpec
    order_desc: str
    cap: int
    q_ideal: ParamIdeal
    generators: list
    dividend: object = None
    weights: list = dc_field(default_factory=list)

    @property
    def n(self):
        return len(self.var_names)

    @property
    def m(self):
        return len(self.params)

    def serialize(self):
        lines = []
        if self.params:
            lines.append("params: " + " ".join(self.params))
        lines.append("vars: " + " ".join(self.var_names))
        lines.append("order: " + self.order_desc)
        for w in self.weights:
            lines.append("weight: u " + " ".join(str(a) for a in w.u)
                         + " v " + " ".join(str(b) for b in w.v))
        lines.append(f"cap: {self.cap}")
        for g in self.q_ideal.generators:
            lines.append("qideal: " + poly_str(g))
        for g in self.generators:
            lines.append("ideal: " + str(g))
        if self.dividend is not None:
            lines.append("dividend: " + str(self.dividend))
        return "\n".join(lines) + "\n"


# Two names for the one base comparison of `OrderSpec`.
ORDER_NAMES = ("antigraded_lex", "tdeg")


def _parse_order_line(value, var_names, ln):
    """The x-priority of an `order:` line: a base name, then optionally
    every variable once, highest priority first."""
    parts = value.split()
    if not parts:
        raise OperatorSyntaxError("empty order", ln, 1)
    if parts[0] not in ORDER_NAMES:
        raise OperatorSyntaxError(f"unknown base order {parts[0]!r}; expected one of "
                                  + ", ".join(ORDER_NAMES), ln, 1)
    rest = [p for p in parts[1:] if p != ">"]
    xprio = ()
    if rest:
        idx = {v: i for i, v in enumerate(var_names)}
        for v in rest:
            if v not in idx:
                raise UnknownName(f"unknown variable {v!r} in order (line {ln})")
        if sorted(rest) != sorted(var_names):
            raise OperatorSyntaxError("order must list every variable once", ln, 1)
        xprio = tuple(idx[v] for v in rest)
    return xprio


def _parse_weight_line(value, n, ln):
    toks = value.split()
    try:
        iu = toks.index("u")
        iv = toks.index("v")
        u = [Fraction(t) for t in toks[iu + 1:iv]]
        v = [Fraction(t) for t in toks[iv + 1:]]
    except (ValueError, ZeroDivisionError):
        raise OperatorSyntaxError("weight line must read: u a1..an v b1..bn", ln, 1)
    if len(u) != n or len(v) != n:
        raise OperatorSyntaxError(f"weight needs {n} + {n} entries", ln, 1)
    return Weight.make(u, v)


def _name_fault(name, same, other):
    """Why name cannot be declared after the names `same` of its own list
    and next to the names `other` of the other list (variables or
    parameters), or None: it must be an identifier a token can spell, new,
    and not 'z'."""
    if not re.fullmatch(_NAME, name):
        return f"{name!r} is not a name"
    if name in same:
        return f"duplicate name {name!r}"
    if name == "z" or name in other:
        return "names must be disjoint and avoid 'z'"
    return None


def _partner_fault(name, var_names):
    """Why name cannot be declared next to the variables var_names, or
    None: d + a variable names that variable's dx-partner."""
    if name[0] == "d" and name[1:] in var_names:
        return f"{name!r} is the dx-partner of variable {name[1:]!r}"
    return None


def _parse_names(value_raw, ln, col, other):
    """The names of a `params:` or `vars:` line, mapped to their columns,
    each checked by `_name_fault` against the names of the other line;
    col is the column of value_raw in the line."""
    names = {}
    for mt in re.finditer(r"\S+", value_raw):
        name, at = mt.group(0), col + mt.start()
        fault = _name_fault(name, names, other)
        if fault:
            raise OperatorSyntaxError(fault, ln, at)
        names[name] = at
    return names


def parse_problem(text):
    """Parse a problem file (line-based `key: value` records)."""
    params, params_ln = {}, 1
    var_names, vars_ln = None, 1
    order_desc, order_ln = "antigraded_lex", 1
    cap = None
    q_texts = []
    gen_texts = []
    div_text = None
    weight_lines = []
    seen = set()  # the single-valued keys read so far
    for ln, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0]
        line = content.strip()
        if not line:
            continue
        if ":" not in line:
            raise OperatorSyntaxError("expected 'key: value'", ln, 1)
        key, value_raw = content.split(":", 1)
        vstart = len(key) + 2  # 1-based column of the value text
        key = key.strip().lower()
        value = value_raw.strip()
        if key in seen:
            raise OperatorSyntaxError(f"repeated {key!r} line", ln, 1)
        if key in ("params", "vars", "order", "cap", "dividend"):
            seen.add(key)

        def segments():
            off = 0
            for part in value_raw.split(";"):
                stripped = part.strip()
                if stripped:
                    lead = len(part) - len(part.lstrip())
                    yield stripped, ln, vstart + off + lead
                off += len(part) + 1

        if key == "params":
            params = _parse_names(value_raw, ln, vstart, var_names or ())
            params_ln = ln
        elif key == "vars":
            var_names = _parse_names(value_raw, ln, vstart, params)
            vars_ln = ln
        elif key == "order":
            order_desc, order_ln = value, ln
        elif key == "weight":
            weight_lines.append((value, ln))
        elif key == "cap":
            try:
                cap = int(value)
            except ValueError:
                raise OperatorSyntaxError("cap must be an integer", ln, 1)
            if cap < 1:
                raise OperatorSyntaxError("cap must be at least 1", ln, 1)
        elif key == "qideal":
            q_texts.extend(segments())
        elif key == "ideal":
            gen_texts.extend(segments())
        elif key == "dividend":
            div_text = (value, ln, vstart + len(value_raw) - len(value_raw.lstrip()))
        else:
            raise OperatorSyntaxError(f"unknown key {key!r}", ln, 1)
    if var_names is None:
        raise OperatorSyntaxError("missing 'vars:' line", 1, 1)
    for names, names_ln in ((params, params_ln), (var_names, vars_ln)):
        for name, at in names.items():
            fault = _partner_fault(name, var_names)
            if fault:
                raise OperatorSyntaxError(fault, names_ln, at)
    params, var_names = list(params), list(var_names)
    if cap is None:
        cap = 8
    xprio = _parse_order_line(order_desc, var_names, order_ln)
    n = len(var_names)
    weights = [_parse_weight_line(v, n, ln) for v, ln in weight_lines]
    q_gens = [parse_param_poly(t, params, line=ln, col=c) for t, ln, c in q_texts]
    ring = param_ring(params)
    q_ideal = ParamIdeal(ring, q_gens)
    if q_ideal.is_unit_ideal():
        raise NotPrime(f"qideal {q_ideal} is the unit ideal")
    if len(q_ideal.gb) == 1:
        # a principal Q = (g) is prime iff g is irreducible; a Q with more
        # generators is not checked
        g = q_ideal.gb[0]
        if factor_squarefree(g) != [g]:
            raise NotPrime(f"qideal {q_ideal} is not prime")
    field = QQ_FIELD if not params else ParamField(ring, q_ideal)
    order = OrderSpec(n, xprio=xprio, weights=tuple(weights))
    gens = [parse_operator(t, var_names, params, field=field, line=ln, col=c)
            for t, ln, c in gen_texts]
    dividend = None
    if div_text is not None:
        dividend = parse_operator(div_text[0], var_names, params, field=field,
                                  line=div_text[1], col=div_text[2])
    return ProblemFile(params, var_names, order, order_desc, cap, q_ideal,
                       gens, dividend, weights)
