"""Problem-file parsing: sections, equations, run setup, and rejections."""

import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from explat.specfile import (
    ParseError,
    ValidationError,
    parse_complex,
    parse_run,
    parse_spec,
)

TORUS_SRC = """
[group]
factors = torus

[equations]
{eq}

[solver]
c = 1
chart = 1
epsilon = 0.49
theta = 0.15
eta = 2.33
radius = 2.6:250
"""

WP_SRC = """
[group]
factors = elliptic, elliptic

[curve 1]
omega1 = 1
omega2 = 1i

[curve 2]
omega1 = 1
omega2 = 1i

[equations]
z2 = x1^2
z1 = y2

[solver]
c = 1, 1
chart = 1
epsilon = 0.6
theta = 0.04
eta = 0.095
radius = 29.5:30.5
tol = 1e-10
max_iter = 60
"""

MIXED_SRC = """
[group]
factors = elliptic, torus

[curve 1]
omega1 = 1
omega2 = 1i

[equations]
z2 = x1^2
w2^2 = z1

[solver]
c = 1, 1i
chart = 1
epsilon = 0.3
theta = 0.04
eta = 0.095
radius = 29.5:60
"""

TWO_TORUS_SRC = """
[group]
factors = torus, torus

[equations]
{eq}
w2 = z2
"""


def test_torus_identity_parses():
    spec = parse_spec(TORUS_SRC.format(eq="w1 = z1"))
    assert spec.n == 1
    assert spec.degree == 1
    assert [(s.unknown, s.degree) for s in spec.stages] == [("w1", 1)]
    assert spec.signature.factors[0][0] == "torus"


def test_square_root_cover_parses():
    spec = parse_spec(TORUS_SRC.format(eq="w1^2 = z1"))
    assert spec.degree == 2
    assert [(s.unknown, s.degree) for s in spec.stages] == [("w1", 2)]


def test_curve_product_stage_order():
    spec = parse_spec(WP_SRC)
    assert spec.n == 2
    assert spec.degree == 12      # 2 * 1 * 2 * 3 through the four stages
    assert [(s.unknown, s.degree) for s in spec.stages] == [
        ("x1", 2),
        ("y2", 1),
        ("y1", 2),
        ("x2", 3),
    ]


def test_run_setup_fields():
    st = parse_run(WP_SRC)
    assert st.radius == (29.5, 30.5)
    assert st.tol == 1e-10 and st.max_iter == 60
    assert st.domain.chart == 0          # file counts coordinates from 1
    assert st.domain.c == (1 + 0j, 1 + 0j)
    assert st.domain.epsilon == 0.6


def test_run_defaults():
    st = parse_run(TORUS_SRC.format(eq="w1 = z1"))
    assert st.tol == 1e-10 and st.max_iter == 60


def test_equation_coefficients():
    spec = parse_spec(TORUS_SRC.format(eq="w1 = z1^2/2 + i*z1 + 3/4"))
    stage = spec.stages[0]
    assert stage.degree == 1
    # residual = w1 - (z1^2/2 + i z1 + 3/4); constant coefficient poly in z1
    c0 = stage.coeff_polys[0]
    assert c0.eval({"z1": 2.0}) == pytest.approx(-(2.0 + 2j + 0.75))


def test_comments_and_blank_lines():
    src = TORUS_SRC.format(eq="w1 = z1  # identity cover\n\n# trailing note")
    assert parse_spec(src).degree == 1


def test_parse_complex_forms():
    assert parse_complex("2+3i", 1) == 2 + 3j
    assert parse_complex("-1.5e-2i", 1) == -0.015j
    assert parse_complex("4", 1) == 4 + 0j
    with pytest.raises(ParseError):
        parse_complex("abc", 1)
    with pytest.raises(ParseError):
        parse_complex("inf", 1)


@pytest.mark.parametrize("text", ["1e309", "-2e308", "1+1e999i"])
def test_parse_complex_rejects_overflow(text):
    # the text holds no "inf", but the value does
    with pytest.raises(ParseError, match="overflows"):
        parse_complex(text, 1)


# ----------------------------------------------------------------------
# rejections


def test_undeclared_variable():
    with pytest.raises(ValidationError, match="undeclared"):
        parse_spec(TORUS_SRC.format(eq="w1 = z1 + q"))


def test_non_polynomial_equation():
    with pytest.raises(ValidationError, match="not polynomial"):
        parse_spec(TORUS_SRC.format(eq="w1 = sin(z1)"))
    with pytest.raises(ValidationError, match="not polynomial"):
        parse_spec(TORUS_SRC.format(eq="w1 = 1/z1"))


def test_equation_grammar():
    spec = parse_spec(TWO_TORUS_SRC.format(eq="w1 = -z1^2^2 + 2**3*z2 - (z1 - i)*(z1 + i) + .5 - 1e-3/4"))
    at = {"z1": 1.5 - 0.5j, "z2": 2.0 + 1j, "w1": 0j, "w2": 0j}
    z1, z2 = at["z1"], at["z2"]
    # ^ and ** are one right-associative operator that binds tighter than unary minus
    want = -(z1 ** 4) + 8 * z2 - (z1 * z1 + 1) + 0.5 - 0.00025
    assert -spec.equations[0].eval(at) == pytest.approx(want, rel=1e-12)
    bare = parse_spec(TWO_TORUS_SRC.format(eq="w1 - z1"))   # a bare expression means expr = 0
    assert bare.equations[0] == parse_spec(TWO_TORUS_SRC.format(eq="w1 = z1")).equations[0]


@pytest.mark.parametrize("eq", ["w1 = z1^-1", "w1 = z1^(1/2)", "w1 = z1**0.5", "w1 = z1^z1", "w1 = q(z1)"])
def test_non_polynomial_forms(eq):
    with pytest.raises(ValidationError, match="not polynomial"):
        parse_spec(TORUS_SRC.format(eq=eq))


def test_non_finite_coefficients():
    with pytest.raises(ValidationError, match="line 6: division by zero"):
        parse_spec(TORUS_SRC.format(eq="w1 = z1 / 0"))
    with pytest.raises(ValidationError, match="line 6: non-finite coefficient"):
        parse_spec(TORUS_SRC.format(eq="w1 = 1e400*z1"))


@pytest.mark.parametrize(
    "eq",
    [
        "w1 = z1 + 0*(lambda: ().__class__.__base__.__subclasses__().__len__())()",
        "w1 = z1 + 0*().__class__.__name__.__len__()",
    ],
)
def test_equation_text_is_never_run(eq):
    with pytest.raises(ParseError):
        parse_spec(TORUS_SRC.format(eq=eq))


@pytest.mark.parametrize(
    "eq, column",
    [
        ("w1 = z1 + 2 3", 13),
        ("w1 = (z1", 6),        # the '(' that is never closed
        ("w1 = z1 !", 9),
        ("  w1 = z1 + 2 3", 15),  # columns count in the file's line, indent included
        ("w1 = 2z1", 7),        # no implicit multiplication
        ("w1 = 2j*z1", 7),      # no j suffix
        ("w1 =", 5),            # an empty side is an error, at the end of the line
        ("= z1", 1),
        ("w1 = z1 = z1", 9),
    ],
)
def test_syntax_error_columns(eq, column):
    with pytest.raises(ParseError) as info:
        parse_spec(TORUS_SRC.format(eq=eq))
    assert (info.value.line, info.value.column) == (6, column)


def test_runaway_equations_are_refused():
    with pytest.raises(ValidationError, match="degree above"):
        parse_spec(TORUS_SRC.format(eq="w1 = z1^1000000000000"))
    with pytest.raises(ValidationError, match="too large"):
        parse_spec(TORUS_SRC.format(eq="w1 = (z1 + 1)^999"))
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_spec(TORUS_SRC.format(eq="w1 = " + "(" * 5000 + "z1" + ")" * 5000))


FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def poly_text(draw, depth=4):
    """Polynomial text over z1, z2 from small integers, i, + - * ^ and parentheses."""
    if depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from(["z1", "z2", "i"]) | st.integers(0, 12).map(str))
    op = draw(st.sampled_from(["+", "-", "*", "^", "neg", "()"]))
    a = draw(poly_text(depth - 1))
    if op == "^":
        return f"({a})^{draw(st.integers(0, 3))}"
    if op == "neg":
        return f"-{a}"
    if op == "()":
        return f"({a})"
    return f"{a} {op} {draw(poly_text(depth - 1))}"


POINTS = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@FUZZ
@given(text=poly_text(), z1=POINTS, z2=POINTS)
def test_equation_matches_python_arithmetic(text, z1, z2):
    spec = parse_spec(TWO_TORUS_SRC.format(eq=f"w1 = {text}"))
    got = -spec.equations[0].eval({"z1": z1, "z2": z2, "w1": 0j, "w2": 0j})
    py = text.replace("^", "**")
    want = eval(py.replace("i", "1j"), {"__builtins__": {}, "z1": z1, "z2": z2})
    # every term taken positive bounds each partial result, so rounding stays below eps times it
    scale = eval(py.replace("i", "1").replace("-", "+"), {"__builtins__": {}, "z1": abs(z1), "z2": abs(z2)})
    assert abs(got - want) <= 1e-9 * max(1.0, scale)


EQUATION_CHARS = st.sampled_from(list("zwxyi12 +-*/^()=.e0#[]\n")) | st.characters()


@FUZZ
@given(text=st.text(EQUATION_CHARS, max_size=40))
def test_any_equation_text_fails_cleanly(text):
    try:
        parse_spec(TORUS_SRC.format(eq=text))
    except (ParseError, ValidationError):
        pass


def test_empty_equations():
    with pytest.raises(ParseError, match="equations"):
        parse_spec(TORUS_SRC.format(eq=""))


def test_unknown_section_and_key():
    with pytest.raises(ParseError, match="widgets"):
        parse_spec(TORUS_SRC.format(eq="w1 = z1") + "\n[widgets]\nfoo = 1\n")
    with pytest.raises(ValidationError, match="frob"):
        parse_run(TORUS_SRC.format(eq="w1 = z1") + "frob = 1\n")
    with pytest.raises(ValidationError, match="duplicate"):
        parse_run(TORUS_SRC.format(eq="w1 = z1") + "tol = 1e-10\ntol = 1e-9\n")


def test_bad_solver_values():
    with pytest.raises(ParseError, match="MIN:MAX"):
        parse_run(TORUS_SRC.format(eq="w1 = z1").replace("2.6:250", "250"))
    with pytest.raises(ParseError, match="complex"):
        parse_run(TORUS_SRC.format(eq="w1 = z1").replace("0.49", "abc"))
    with pytest.raises(ValidationError, match="theta"):
        parse_run(TORUS_SRC.format(eq="w1 = z1").replace("2.33", "0.10"))
    with pytest.raises(ValidationError, match="chart"):
        parse_run(TORUS_SRC.format(eq="w1 = z1").replace("chart = 1", "chart = 3"))


@pytest.mark.parametrize(
    "old, new, error, match",
    [
        ("epsilon = 0.49", "epsilon = 1e309", ParseError, "overflows"),
        ("2.6:250", "29.5:1e999", ParseError, "overflows"),
        ("2.6:250", "2.6:250\ntol = 0", ValidationError, "tol must be positive"),
        ("2.6:250", "2.6:250\ntol = -1", ValidationError, "tol must be positive"),
        ("2.6:250", "2.6:250\nmax_iter = 0", ParseError, "positive integer"),
    ],
)
def test_run_parameters_are_finite_and_usable(old, new, error, match):
    with pytest.raises(error, match=match):
        parse_run(TORUS_SRC.format(eq="w1 = z1").replace(old, new))
    smallest = parse_run(TORUS_SRC.format(eq="w1 = z1").replace("2.6:250", "2.6:250\ntol = 1e-300\nmax_iter = 1"))
    assert (smallest.tol, smallest.max_iter) == (1e-300, 1)


def test_non_triangular_system():
    src = """
[group]
factors = torus, torus

[equations]
w1 * w2 = z1
w1 = w2 + z2

[solver]
c = 1, 1
chart = 1
epsilon = 0.4
theta = 0.1
eta = 1.0
radius = 5:50
"""
    with pytest.raises(ValidationError, match="one new unknown"):
        parse_spec(src)


def test_curve_section_bookkeeping():
    missing = WP_SRC.replace("[curve 2]\nomega1 = 1\nomega2 = 1i\n", "")
    with pytest.raises(ValidationError, match="curve 2"):
        parse_spec(missing)
    with pytest.raises(ValidationError, match="curve 1"):
        parse_spec(TORUS_SRC.format(eq="w1 = z1") + "\n[curve 1]\nomega1 = 1\nomega2 = 1i\n")


TORUS_ID = TORUS_SRC.format(eq="w1 = z1")

# every structural guard of the file reader: (text, error, message, line); a
# ParseError carries its line, a ValidationError names it in the message if
# it has one, and here line None means the message names no line
GUARDS = {
    "unterminated-section": (TORUS_ID.replace("[group]", "[group"), ParseError, "unterminated section header", 2),
    "unknown-section": (TORUS_ID.replace("[group]", "[group extra]"), ParseError, "unknown section '[group extra]'", 2),
    "curve-form": (WP_SRC.replace("[curve 2]", "[curve two]"), ParseError, "curve sections are written [curve k]", 9),
    "content-before-header": ("factors = torus\n" + TORUS_ID, ParseError, "content before any section header", 1),
    "key-value": (TORUS_ID.replace("factors = torus", "factors torus"), ParseError,
                  "expected key = value in [group]", 3),
    "unknown-key": (TORUS_ID.replace("factors = torus", "factors = torus\ncolour = red"), ValidationError,
                    "unknown key 'colour' in [group]", 4),
    "duplicate-key": (TORUS_ID.replace("factors = torus", "factors = torus\nfactors = torus"), ValidationError,
                      "duplicate key 'factors'", 4),
    "two-groups": (TORUS_ID + "\n[group]\nfactors = torus\n", ParseError, "exactly one [group] section required", 17),
    "no-group": (TORUS_ID.replace("[group]\nfactors = torus\n", ""), ParseError,
                 "exactly one [group] section required", 1),
    "missing-factors": (TORUS_ID.replace("factors = torus", ""), ValidationError,
                        "[group] is missing the factors key", None),
    "empty-factors": (TORUS_ID.replace("factors = torus", "factors = ,"), ParseError, "factors list is empty", 3),
    "unknown-factor": (TORUS_ID.replace("factors = torus", "factors = sphere"), ValidationError,
                       "unknown factor type 'sphere'", 3),
    "duplicate-curve": (WP_SRC.replace("[curve 2]", "[curve 1]"), ValidationError, "duplicate [curve 1] section", None),
    "mismatched-curve": (WP_SRC.replace("[curve 2]", "[curve 3]"), ValidationError,
                         "[curve 3] does not match an elliptic factor", None),
    "missing-curve": (WP_SRC.replace("[curve 2]\nomega1 = 1\nomega2 = 1i\n", ""), ValidationError,
                      "elliptic factor 2 has no [curve 2] section", None),
    "missing-omega1": (WP_SRC.replace("[curve 1]\nomega1 = 1\n", "[curve 1]\n"), ValidationError,
                       "[curve 1] is missing omega1", None),
    "collinear-periods": (WP_SRC.replace("omega2 = 1i", "omega2 = 2", 1), ValidationError,
                          "[curve 1]: periods are collinear; not a rank-2 lattice", None),
    "no-solver": (TORUS_ID[: TORUS_ID.index("[solver]")], ParseError, "exactly one [solver] section required", 1),
    "two-solvers": (TORUS_ID + "\n[solver]\nc = 1\n", ParseError, "exactly one [solver] section required", 1),
    "missing-solver-key": (TORUS_ID.replace("theta = 0.15\n", ""), ValidationError, "[solver] is missing theta", None),
    "c-length": (TORUS_ID.replace("c = 1", "c = 1, 1"), ValidationError, "c has 2 coordinates, expected 1", 9),
    "chart-form": (TORUS_ID.replace("chart = 1", "chart = x"), ValidationError, "chart must be 1..1", 10),
    "radius-form": (TORUS_ID.replace("2.6:250", "2.6:250:300"), ParseError, "radius is written MIN:MAX", 14),
    "complex-real": (TORUS_ID.replace("epsilon = 0.49", "epsilon = 0.49+1i"), ParseError,
                     "expected a real number, got '0.49+1i'", 11),
}


@pytest.mark.parametrize("text, error, message, line", GUARDS.values(), ids=GUARDS.keys())
def test_file_guards(text, error, message, line):
    with pytest.raises(error) as info:
        parse_run(text)
    assert type(info.value) is error
    assert str(info.value) == (message if line is None else f"line {line}: {message}")


def test_c_count_must_match_factors():
    with pytest.raises(ValidationError):
        parse_run(WP_SRC.replace("c = 1, 1", "c = 1"))


# ----------------------------------------------------------------------
# committed example files: the pinned acceptance figures hold only for
# these exact bytes, so each file must stay equal to the fixture text above


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
EXAMPLE_SOURCES = {
    "torus_identity": (TORUS_SRC.format(eq="w1 = z1"), 1),
    "sqrt_branch": (TORUS_SRC.format(eq="w1^2 = z1"), 2),
    "wp_example": (WP_SRC, 12),
    "mixed_product": (MIXED_SRC, 8),
}


@pytest.mark.parametrize("name", EXAMPLE_SOURCES)
def test_example_files_match_fixtures(name):
    src, degree = EXAMPLE_SOURCES[name]
    text = (EXAMPLES / f"{name}.spec").read_text()
    assert text == src
    assert parse_spec(text).degree == degree
