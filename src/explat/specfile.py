"""Flat key-section problem files: [group], [curve k], [equations], [solver].

Complex literals are written `a+bi`.  Equations are polynomial relations in
z1..zn and the group coordinates (wk torus, xk/yk elliptic), one per line,
`lhs = rhs` or a bare expression meaning `expr = 0`.
"""
from __future__ import annotations

import cmath
import functools
import re
from dataclasses import dataclass

from .elliptic import EllipticCurveParams, Lattice
from .fiber import (
    GroupSignature,
    MPoly,
    NonTriangularSystem,
    ProblemSpec,
    SectorDomain,
    build_problem,
)


class ParseError(ValueError):
    """Malformed document; carries the 1-based source line (and column, if known)."""

    def __init__(self, msg: str, line: int, column: int | None = None):
        at = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{at}: {msg}")
        self.line = line
        self.column = column


class ValidationError(ValueError):
    """Well-formed document describing an unusable problem."""


_SECTIONS = ("group", "curve", "equations", "solver")
_GROUP_KEYS = {"factors"}
_CURVE_KEYS = {"omega1", "omega2"}
_SOLVER_KEYS = {"c", "chart", "epsilon", "theta", "eta", "radius", "tol", "max_iter"}
_COMPLEX_RE = r"^[0-9eEij+\-. ]+$"
# equation tokens; a letter right after a number is "glued" (2z1 is not 2*z1), any other stray character "bad"
_TOKEN_RE = (
    r"(?P<num>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)(?P<glued>[A-Za-z_])?"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>\*\*|[-+*/^()=])|\s+|(?P<bad>.)"
)
_MAX_DEGREE = 1000  # a power of higher degree (or constant power of higher exponent) is refused unexpanded
_MAX_WORK = 10**5  # term products one equation may form while it is expanded


@dataclass(frozen=True)
class RunSetup:
    """Everything a solve run needs from a spec file."""

    problem: ProblemSpec
    domain: SectorDomain
    radius: tuple
    tol: float
    max_iter: int


def parse_complex(tok: str, line: int) -> complex:
    """Finite `a+bi` literal (also bare reals and bare imaginaries)."""
    s = tok.strip()
    if not s or not re.match(_COMPLEX_RE, s) or "inf" in s.lower() or "nan" in s.lower():
        raise ParseError(f"bad complex literal {tok!r}", line)
    try:
        v = complex(s.replace(" ", "").replace("i", "j"))
    except ValueError:
        raise ParseError(f"bad complex literal {tok!r}", line) from None
    if not cmath.isfinite(v):
        raise ParseError(f"complex literal {tok!r} overflows", line)
    return v


def _parse_real(tok: str, line: int) -> float:
    v = parse_complex(tok, line)
    if v.imag != 0.0:
        raise ParseError(f"expected a real number, got {tok!r}", line)
    return v.real


def _split_sections(text: str):
    """-> list of (section name, curve index or None, [(lineno, line), ...])."""
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].rstrip()  # left as is, so columns count in the file's line
        line = content.strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError("unterminated section header", lineno)
            head = line[1:-1].strip().split()
            if not head or head[0] not in _SECTIONS:
                raise ParseError(f"unknown section {line!r}", lineno)
            idx = None
            if head[0] == "curve":
                if len(head) != 2 or not head[1].isdigit():
                    raise ParseError("curve sections are written [curve k]", lineno)
                idx = int(head[1])
            elif len(head) != 1:
                raise ParseError(f"unknown section {line!r}", lineno)
            current = (head[0], idx, [])
            sections.append(current)
            continue
        if current is None:
            raise ParseError("content before any section header", lineno)
        current[2].append((lineno, content))
    return sections


def _keyvals(section_name, rows, allowed):
    out = {}
    for lineno, line in rows:
        if "=" not in line:
            raise ParseError(f"expected key = value in [{section_name}]", lineno)
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in allowed:
            raise ValidationError(f"line {lineno}: unknown key {key!r} in [{section_name}]")
        if key in out:
            raise ValidationError(f"line {lineno}: duplicate key {key!r}")
        out[key] = (lineno, val.strip())
    return out


class _Equation:
    """One equation line -> MPoly by recursive descent; nothing in it is run as code.

    equation := expr ['=' expr]   expr := term (('+'|'-') term)*   term := unary (('*'|'/') unary)*
    unary := ('+'|'-') unary | power   power := atom [('^'|'**') unary]   atom := number | name | '(' expr ')'
    Values are dicts {exponent tuple over names: complex coefficient}; `i` is the imaginary unit.
    """

    def __init__(self, line: str, lineno: int, names: tuple):
        self.lineno, self.names, self.one, self.k, self.work, self.toks = lineno, names, (0,) * len(names), 0, 0, []
        for m in re.finditer(_TOKEN_RE, line):
            if m.lastgroup in ("bad", "glued"):
                raise ParseError(f"unexpected character {m.group()[-1]!r}", lineno, m.end())
            if m.lastgroup:
                self.toks.append((m.lastgroup, m.group(), m.start() + 1))
        self.toks.append(("end", "", len(line) + 1))

    def peek(self) -> str:
        return self.toks[self.k][1]

    def take(self):  # each caller that takes the end token returns or raises next
        self.k += 1
        return self.toks[self.k - 1]

    def poly(self) -> MPoly:
        stray = {t for (kind, t, _), nxt in zip(self.toks, self.toks[1:]) if kind == "name" and nxt[1] != "("}
        stray -= {*self.names, "i"}
        if stray:
            raise ValidationError(f"line {self.lineno}: undeclared variable(s) {', '.join(sorted(stray))}")
        try:
            p = self.expr()
            if self.peek() == "=":
                self.take()
                p = self.add(True, p, self.expr())
        except RecursionError:
            raise ParseError("equation nested too deeply", self.lineno, self.toks[self.k - 1][2]) from None
        _, text, col = self.take()
        if text:
            raise ParseError(f"unexpected {text!r}", self.lineno, col)
        if not all(cmath.isfinite(c) for c in p.values()):
            raise ValidationError(f"line {self.lineno}: non-finite coefficient")
        # + 0.0 clears the sign of a zero part, so -z1 and z1*(-1) give one coefficient
        return MPoly.from_dict(self.names, {k: complex(c.real + 0.0, c.imag + 0.0) for k, c in p.items()})

    def expr(self) -> dict:
        p = self.term()
        while self.peek() in ("+", "-"):
            p = self.add(self.take()[1] == "-", p, self.term())
        return p

    def term(self) -> dict:
        p = self.unary()
        while self.peek() in ("*", "/"):
            if self.take()[1] == "*":
                p = self.mul(p, self.unary())
            elif (d := self.const(self.unary(), "division by a non-constant")) == 0:
                raise ValidationError(f"line {self.lineno}: division by zero")
            else:
                p = {k: c / d for k, c in p.items()}
        return p

    def unary(self) -> dict:
        if self.peek() in ("+", "-"):
            return self.add(self.take()[1] == "-", {}, self.unary())
        return self.power()

    def power(self) -> dict:
        p = self.atom()
        if self.peek() not in ("^", "**"):
            return p
        self.take()
        e = self.const(self.unary(), "non-constant exponent")
        if e.imag or not e.real.is_integer() or e.real < 0:
            raise ValidationError(f"line {self.lineno}: not polynomial: exponents must be non-negative integers")
        if e.real * max([1] + [sum(k) for k, c in p.items() if c]) > _MAX_DEGREE:
            raise ValidationError(f"line {self.lineno}: power too large (degree above {_MAX_DEGREE})")
        return functools.reduce(self.mul, [p] * int(e.real), {self.one: 1 + 0j})

    def atom(self) -> dict:
        kind, text, col = self.take()
        if text == "(":
            p = self.expr()
            _, close, at = self.take()
            if close != ")":
                raise ParseError("expected ')'" if close else "'(' was never closed", self.lineno, at if close else col)
            return p
        if kind == "num":
            return {self.one: complex(float(text))}
        if kind != "name":
            raise ParseError("expected a number, a variable or '('", self.lineno, col)
        if self.peek() == "(":
            raise ValidationError(f"line {self.lineno}: not polynomial: call of {text}")
        return {self.one: 1j} if text == "i" else {tuple(int(v == text) for v in self.names): 1 + 0j}

    def const(self, p: dict, what: str) -> complex:
        if any(c for k, c in p.items() if any(k)):
            raise ValidationError(f"line {self.lineno}: not polynomial: {what}")
        return p.get(self.one, 0j)

    @staticmethod
    def add(neg: bool, p: dict, q: dict) -> dict:
        """p - q if neg else p + q; the sign comes first so it is taken before q is parsed."""
        out = dict(p)
        for k, c in q.items():
            out[k] = out.get(k, 0j) + (-c if neg else c)
        return out

    def mul(self, p: dict, q: dict) -> dict:
        self.work += len(p) * len(q)
        if self.work > _MAX_WORK:
            raise ValidationError(f"line {self.lineno}: equation too large to expand")
        out = {}
        for a, c in p.items():
            for b, d in q.items():
                k = tuple(x + y for x, y in zip(a, b))
                out[k] = out.get(k, 0j) + c * d
        return out


def _build_signature(sections) -> GroupSignature:
    groups = [s for s in sections if s[0] == "group"]
    if len(groups) != 1:
        bad = groups[1][2][0][0] if len(groups) > 1 else 1
        raise ParseError("exactly one [group] section required", bad)
    kv = _keyvals("group", groups[0][2], _GROUP_KEYS)
    if "factors" not in kv:
        raise ValidationError("[group] is missing the factors key")
    lineno, val = kv["factors"]
    kinds = [t.strip() for t in val.split(",") if t.strip()]
    if not kinds:
        raise ParseError("factors list is empty", lineno)
    for t in kinds:
        if t not in ("torus", "elliptic"):
            raise ValidationError(f"line {lineno}: unknown factor type {t!r}")

    curves = {}
    for name, idx, rows in sections:
        if name != "curve":
            continue
        if idx in curves:
            raise ValidationError(f"duplicate [curve {idx}] section")
        if idx < 1 or idx > len(kinds) or kinds[idx - 1] != "elliptic":
            raise ValidationError(f"[curve {idx}] does not match an elliptic factor")
        kv = _keyvals(f"curve {idx}", rows, _CURVE_KEYS)
        for key in ("omega1", "omega2"):
            if key not in kv:
                raise ValidationError(f"[curve {idx}] is missing {key}")
        w1 = parse_complex(kv["omega1"][1], kv["omega1"][0])
        w2 = parse_complex(kv["omega2"][1], kv["omega2"][0])
        try:
            curves[idx] = EllipticCurveParams.from_lattice(Lattice(w1, w2))
        except (ValueError, ArithmeticError) as exc:
            raise ValidationError(f"[curve {idx}]: {exc}") from None

    factors = []
    for k, kind in enumerate(kinds, start=1):
        if kind == "torus":
            factors.append(("torus", None))
        else:
            if k not in curves:
                raise ValidationError(f"elliptic factor {k} has no [curve {k}] section")
            factors.append(("elliptic", curves[k]))
    return GroupSignature(factors=tuple(factors))


def parse_spec(text: str) -> ProblemSpec:
    """Document -> validated ProblemSpec (degree, stages, curve invariants)."""
    sections = _split_sections(text)
    sig = _build_signature(sections)
    eq_sections = [s for s in sections if s[0] == "equations"]
    if len(eq_sections) != 1 or not eq_sections[0][2]:
        raise ParseError("exactly one nonempty [equations] section required", 1)
    names = sig.z_vars + sig.group_vars
    equations = [_Equation(line, lineno, names).poly() for lineno, line in eq_sections[0][2]]
    try:
        return build_problem(sig, equations)
    except NonTriangularSystem as exc:
        raise ValidationError(str(exc)) from None


def parse_run(text: str) -> RunSetup:
    """Document including [solver] -> problem + domain + run parameters."""
    problem = parse_spec(text)
    sections = _split_sections(text)
    solver = [s for s in sections if s[0] == "solver"]
    if len(solver) != 1:
        raise ParseError("exactly one [solver] section required", 1)
    kv = _keyvals("solver", solver[0][2], _SOLVER_KEYS)
    for key in ("c", "epsilon", "theta", "eta", "radius"):
        if key not in kv:
            raise ValidationError(f"[solver] is missing {key}")

    lineno, val = kv["c"]
    c = tuple(parse_complex(t, lineno) for t in val.split(","))
    if len(c) != problem.n:
        raise ValidationError(f"line {lineno}: c has {len(c)} coordinates, expected {problem.n}")
    chart = 1
    if "chart" in kv:
        lineno, val = kv["chart"]
        if not val.isdigit() or not 1 <= int(val) <= problem.n:
            raise ValidationError(f"line {lineno}: chart must be 1..{problem.n}")
        chart = int(val)
    lineno, val = kv["radius"]
    parts = val.split(":")
    if len(parts) != 2:
        raise ParseError("radius is written MIN:MAX", lineno)
    radius = (_parse_real(parts[0], lineno), _parse_real(parts[1], lineno))
    tol = 1e-10
    if "tol" in kv:
        tol = _parse_real(kv["tol"][1], kv["tol"][0])
        if not tol > 0:
            raise ValidationError(f"line {kv['tol'][0]}: tol must be positive")
    max_iter = 60
    if "max_iter" in kv:
        lineno, val = kv["max_iter"]
        if not val.isdigit() or int(val) < 1:
            raise ParseError("max_iter must be a positive integer", lineno)
        max_iter = int(val)
    epsilon, theta, eta = (_parse_real(kv[key][1], kv[key][0]) for key in ("epsilon", "theta", "eta"))
    try:
        domain = SectorDomain(c=c, chart=chart - 1, epsilon=epsilon, theta=theta, eta=eta)
    except ValueError as exc:
        raise ValidationError(f"[solver]: {exc}") from None
    return RunSetup(problem=problem, domain=domain, radius=radius, tol=tol, max_iter=max_iter)
