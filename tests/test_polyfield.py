import ast
import hashlib
import math
import re
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flowbound
from flowbound import integrator, polyfield
from flowbound import (
    Monomial,
    Polynomial,
    PolyField,
    SystemConfigError,
    certify_lower_bound,
    parse_system,
)


def poly(field, index=0):
    return field.components[index]


def coeffs(p):
    return {m.exponents: m.coefficient for m in p.terms}


# each row: text, line, column, message; the id keeps (text, line, column)
MALFORMED_LINES = [
    ("param", 1, 6, "expected parameter name in param line"),
    ("param a", 1, 8, "expected '=' in param line"),
    ("param a =", 1, 10, "expected numeric value in param line"),
    ("param a = x", 1, 11, "expected numeric value in param line"),
    ("param a = 1 2", 1, 13, "unexpected '2' after param value"),
    ("param a = 1\nparam a = 2", 2, 7, "duplicate param 'a'"),
    ("param a = 1e999", 1, 11, "param value overflows double precision"),
    ("param 3 = 1", 1, 7, "expected parameter name in param line"),
    ("dx/dt =", 1, 8, "empty right-hand side"),
    ("dx/dt", 1, 1, "equation must start 'd<var>/dt ='"),
    ("d/dt = 1", 1, 1, "expected 'param' or 'd<var>/dt = ...'"),
    ("dx/dx = 1", 1, 1, "equation must start 'd<var>/dt ='"),
    ("dx/dt = " + "(" * 65 + "x" + ")" * 65, 1, 73,
     "parentheses nested more than 64 deep"),
    ("dx/dt = \u0663*x", 1, 9, "unexpected character '\u0663'"),  # Arabic-Indic 3
    ("dx/dt = x^65", 1, 11, "exponent too large (limit 64)"),
    ("dx/dt = 1e999*x", 1, 9, "numeric literal overflows double precision"),
]


_LOWER = "abcdefghijklmnopqrstuvwxyz"
_NAMES = st.lists(st.builds(str.__add__, st.sampled_from(_LOWER),
                            st.text(_LOWER + "0123456789_", max_size=3)),
                  min_size=1, max_size=3, unique=True)
# up to 5 terms in n variables, exponents 0-3, coefficients small enough
# that merging like terms stays finite
_TERMS = {n: st.lists(st.builds(Monomial, st.floats(-1e150, 1e150).filter(bool),
                                st.tuples(*[st.integers(0, 3)] * n)), max_size=5)
          for n in (1, 2, 3)}


@st.composite
def small_fields(draw):
    """Fields of 1-3 variables named like `[a-z][a-z0-9_]{0,3}`."""
    names = draw(_NAMES)
    return PolyField([Polynomial.from_terms(draw(_TERMS[len(names)]))
                      for _ in names], names)


class TestParsing:
    def test_parameter_substitution(self):
        field = parse_system(
            "param a=40\ndx/dt = a*(y - x)\ndy/dt = 0\ndz/dt = 0")
        assert coeffs(poly(field)) == {(0, 1, 0): 40.0, (1, 0, 0): -40.0}
        assert field.parameters["a"] == 40.0

    def test_zero_polynomial(self):
        field = parse_system("dx/dt = 0")
        assert field.dimension == 1
        assert poly(field).terms == ()
        assert poly(field).is_zero

    def test_double_star_is_a_syntax_error(self):
        with pytest.raises(SystemConfigError):
            parse_system("dx/dt = x ** y")

    def test_power_binds_tighter_than_product(self):
        field = parse_system("dx/dt = 2*x^3 + 1")
        assert coeffs(poly(field)) == {(0,): 1.0, (3,): 2.0}

    def test_product_binds_tighter_than_sum(self):
        field = parse_system("dx/dt = 1 + 2*x - x")
        assert coeffs(poly(field)) == {(0,): 1.0, (1,): 1.0}

    def test_unary_minus_and_parentheses(self):
        field = parse_system("dx/dt = -x\ndy/dt = -(x + y)^2")
        assert coeffs(poly(field, 0)) == {(1, 0): -1.0}
        assert coeffs(poly(field, 1)) == {
            (2, 0): -1.0, (1, 1): -2.0, (0, 2): -1.0}

    def test_comments_and_blank_lines(self):
        field = parse_system(
            "# leading comment\n\n"
            "param c = 2  # trailing comment\n"
            "dx/dt = c*x\n")
        assert coeffs(poly(field)) == {(1,): 2.0}

    def test_variable_order_follows_equations(self):
        field = parse_system("dq/dt = w\ndw/dt = q")
        assert field.variable_names == ("q", "w")
        assert coeffs(poly(field, 0)) == {(0, 1): 1.0}

    def test_undefined_name_reports_position(self):
        with pytest.raises(SystemConfigError) as exc_info:
            parse_system("dx/dt = x + nope")
        assert "nope" in str(exc_info.value)
        assert exc_info.value.line == 1

    def test_duplicate_equation_rejected(self):
        with pytest.raises(SystemConfigError):
            parse_system("dx/dt = 0\ndx/dt = 1")

    def test_param_variable_clash_rejected(self):
        with pytest.raises(SystemConfigError):
            parse_system("param x = 1\ndx/dt = 0")

    def test_empty_input_rejected(self):
        with pytest.raises(SystemConfigError):
            parse_system("# nothing here\n")

    def test_negative_exponent_rejected(self):
        with pytest.raises(SystemConfigError):
            parse_system("dx/dt = x^-1")

    @pytest.mark.parametrize("text, line, column, message", MALFORMED_LINES,
                             ids=[f"{t}-{l}-{c}" for t, l, c, _ in MALFORMED_LINES])
    def test_malformed_line_reports_position(self, text, line, column, message):
        with pytest.raises(SystemConfigError) as exc_info:
            parse_system(text)
        assert (exc_info.value.line, exc_info.value.column) == (line, column)
        assert str(exc_info.value) == f"line {line}, column {column}: {message}"

    @pytest.mark.parametrize("rhs, message", [
        ("1e308*x^64 - y", "its derivative by x has the coefficient 64 * 1e+308"),
        ("x - 3e307*x*y^7", "its derivative by y has the coefficient 7 * -3e+307"),
    ])
    def test_unwritable_jacobian_is_refused_at_its_equation(self, rhs, message):
        # differentiation merges no terms within a Jacobian entry, so an
        # entry overflows exactly where one term's coefficient times its
        # exponent does
        with pytest.raises(SystemConfigError) as exc_info:
            parse_system(f"param a = 1\ndy/dt = x\ndx/dt = {rhs}")
        assert (exc_info.value.line, exc_info.value.column) == (3, 1)
        assert str(exc_info.value) == (
            f"line 3, column 1: dx/dt has no finite Jacobian: {message}")

    def test_largest_writable_jacobian_parses(self):
        field = parse_system("dx/dt = 8e296*x^64 - y\ndy/dt = x")
        assert coeffs(field.jacobian_polynomials()[0][0]) == {(63, 0): 64 * 8e296}

    def test_nesting_up_to_the_limit_parses(self):
        field = parse_system("dx/dt = " + "(" * 64 + "x" + ")" * 64)
        assert coeffs(poly(field)) == {(1,): 1.0}

    @pytest.mark.parametrize("rhs, expected", [
        ("0^0 + x", {(0, 0): 1.0, (1, 0): 1.0}),
        ("(x-x)^0", {(0, 0): 1.0}),
    ])
    def test_zeroth_power_is_one(self, rhs, expected):
        field = parse_system(f"dx/dt = {rhs}\ndy/dt = 0")
        assert coeffs(poly(field)) == expected

    @pytest.mark.parametrize("rhs, op, message", [
        ("(x^40)^2", "^", "total degree 80"),
        ("x^64*y", "*", "total degree 65"),
        ("(x+y+z)^30*(x+y+z)^30", "*", "246016 monomial products"),
    ])
    def test_expansion_caps_report_the_operator(self, rhs, op, message):
        line = f"dx/dt = {rhs}"
        with pytest.raises(SystemConfigError, match=message) as exc_info:
            parse_system(f"param a = 1\n{line}\ndy/dt = 0\ndz/dt = 0")
        assert exc_info.value.line == 2
        assert exc_info.value.column == line.rindex(op) + 1

    def test_largest_expansions_within_caps_parse(self):
        field = parse_system("dx/dt = (x+y+z)^64\ndy/dt = ((x+y+z)^5)^5\n"
                             "dz/dt = x^64")
        assert [len(p.terms) for p in field.components] == [2145, 351, 1]
        assert [p.degree for p in field.components] == [64, 25, 64]

    def test_round_trip_through_formatting(self, lorenz, stuart_landau,
                                            closed_orbit, equilibrium):
        for field in (lorenz, stuart_landau, closed_orbit, equilibrium):
            assert parse_system(str(field)) == field

    @settings(derandomize=True, deadline=None, max_examples=120)
    @given(small_fields())
    def test_random_fields_round_trip_through_formatting(self, field):
        assert parse_system(str(field)) == field


class TestEvaluation:
    def test_single_polynomial(self):
        field = parse_system("dx/dt = x^2 - 10")
        assert field.evaluate([3.0]) == pytest.approx(-1.0)

    def test_zero_state_gives_constant_terms(self, lorenz):
        field = parse_system("dx/dt = 5 + x*y\ndy/dt = y^3 - 2")
        assert field.evaluate([0.0, 0.0]) == pytest.approx([5.0, -2.0])
        assert lorenz.evaluate([0.0, 0.0, 0.0]) == pytest.approx([0.0, 0.0, 0.0])

    def test_linear_field_is_additive(self):
        field = parse_system("dx/dt = 2*x - y\ndy/dt = x + 3*y")
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=2), rng.normal(size=2)
        np.testing.assert_allclose(
            field.evaluate(a + b),
            field.evaluate(a) + field.evaluate(b), rtol=1e-12, atol=1e-12)

    def test_dimension_mismatch(self, lorenz):
        with pytest.raises(ValueError):
            lorenz.evaluate([1.0, 2.0])

    def test_lorenz_values(self, lorenz):
        x, y, z = 1.5, -2.0, 10.0
        expected = [10.0 * (y - x), x * (28.0 - z) - y,
                    x * y - 2.6666666666666665 * z]
        np.testing.assert_allclose(lorenz.evaluate([x, y, z]), expected,
                                   rtol=1e-15)


SHIPPED = ("lorenz", "stuart-landau", "closed-orbit", "equilibrium")
# the shipped systems go up to cubes; these powers, odd and even up to
# 13, take every branch of the powering rule
POWERS = parse_system("dx/dt = x^5 - x^2*y^3 + y^7\n"
                      "dy/dt = x^13 - 2*x^4*y - z^6\n"
                      "dz/dt = y^8 - x^3*z^2")
SYSTEMS = ("rhs", "tangent_rhs", "liouville_rhs", "jacobian")


def _power(x, e):
    """x^e by the generator's rule: x^(2k) = x^k x^k, x^(2k+1) = x^(2k) x."""
    if e == 1:
        return x
    if e % 2:
        return _power(x, e - 1) * x
    half = _power(x, e // 2)
    return half * half


def _term_value(m, w):
    """A term straight from its Monomial: coefficient times its powers."""
    v = m.coefficient
    for x, e in zip(w, m.exponents):
        if e:
            v = v * _power(x, e)
    return v


def _left_sum(values):
    """values[0] + values[1] + ..., from the first value, not from 0."""
    total = values[0]
    for v in values[1:]:
        total = total + v
    return total


def _poly_value(p, w):
    return _left_sum([_term_value(m, w) for m in p.terms]) if p.terms else 0.0


def _reference_slope(field, system, w):
    """A generated system evaluated from Polynomial terms, independently
    of the generated code."""
    n = field.dimension
    x = w[:n]
    f = [_poly_value(p, x) for p in field.components]
    jac = [[_poly_value(p, x) for p in row] for row in field.jacobian_polynomials()]
    if system == "rhs":
        return f
    if system == "jacobian":
        return [e for row in jac for e in row]
    if system == "liouville_rhs":
        return f + [_poly_value(field.divergence(), x)]
    return f + [_left_sum([jac[i][k] * w[n + k * n + c] for k in range(n)])
                for i in range(n) for c in range(n)]


def _size(field, system):
    n = field.dimension
    return {"rhs": n, "jacobian": n, "liouville_rhs": n + 1}.get(system, n + n * n)


def _is_unit(node):
    """A literal 1.0 or -1.0 (ast.parse keeps -1.0 as a negation)."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return isinstance(node, ast.Constant) and node.value == 1.0


class TestGeneratedEvaluator:
    """`compiled_slope` against values computed straight from the
    Polynomial terms, bit for bit and sign of zero included, and the
    generated sources free of identity arithmetic."""

    @pytest.mark.parametrize("name", [*SHIPPED, "powers"])
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_matches_polynomial_terms_bit_for_bit(self, name, system):
        field = POWERS if name == "powers" else flowbound.load_system(name)
        slope = field.compiled_slope(system)
        size = _size(field, system)
        rng = np.random.default_rng(sum(map(ord, name + system)))
        states = rng.normal(size=(50, size)) * 10.0 ** rng.uniform(-3, 3, (50, size))
        states[rng.random(states.shape) < 0.3] = 0.0
        # signed zeros, among other values and alone
        states = np.concatenate([states, np.zeros((8, size))])
        states[rng.random(states.shape) < 0.5] *= -1.0
        for w in states.tolist():
            assert ([float.hex(v) for v in slope(w)]
                    == [float.hex(v) for v in _reference_slope(field, system, w)])

    @pytest.mark.parametrize("e", range(2, polyfield._MAX_DEGREE + 1))
    def test_power_within_product_error_bound(self, e):
        # x^e is a tree of e - 1 multiplications, each rounding once: its
        # relative error is at most gamma(e - 1) = (e - 1)u / (1 - (e - 1)u),
        # u = 2^-53 (Higham, Accuracy and Stability of Numerical
        # Algorithms, 2nd ed., 2002, §3.1)
        slope = PolyField([Polynomial((Monomial(1.0, (e,)),))]).compiled_slope("rhs")
        ku = Fraction(e - 1, 2 ** 53)
        rng = np.random.default_rng(e)
        for x in rng.normal(size=200).tolist():
            exact = Fraction(x) ** e
            (value,) = slope((x,))
            assert abs(value) >= np.finfo(float).tiny  # no underflow
            assert abs(Fraction(value) - exact) <= ku / (1 - ku) * abs(exact)

    def test_monomial_expressions(self):
        assert polyfield._monomial_expr(Monomial(1.0, (1, 0, 2)), "x") == "x0*x2_2"
        assert polyfield._monomial_expr(Monomial(-1.0, (0, 1, 0)), "x") == "-x1"
        assert polyfield._monomial_expr(Monomial(-1.0, (2, 1, 0)), "v") == "-v0_2*v1"
        assert polyfield._monomial_expr(Monomial(2.5, (0, 0, 1)), "x") == "2.5*x2"
        assert polyfield._monomial_expr(Monomial(1.0, (0, 0, 0)), "x") == "1.0"
        assert polyfield._monomial_expr(Monomial(-1.0, (0, 0, 0)), "x") == "-1.0"
        assert polyfield._monomial_expr(Monomial(-0.5, (0, 0, 0)), "x") == "-0.5"
        p = poly(parse_system("dx/dt = x - y - x*y^2\ndy/dt = -y^7 - 2*x"))
        assert polyfield._poly_expr(p, "x") == "x0 - x1 - x0*x1_2"
        q = poly(parse_system("dx/dt = -y^7 - 2*x\ndy/dt = 0"))
        assert polyfield._poly_expr(q, "x") == "-x1_7 - 2.0*x0"
        assert polyfield._power_lines([p, q], "x") == [
            "x1_2 = x1*x1", "x1_3 = x1_2*x1", "x1_6 = x1_3*x1_3", "x1_7 = x1_6*x1"]

    def test_no_multiplication_or_division_by_unit(self, generated_sources):
        # the four slopes and the DP5(4), DOP853 and RK4 steps and
        # stepping loops of the three stepped systems; 21.0*x is no
        # identity, 1.0*x and x/1.0 are. Powers are products and nothing
        # is caught: the one `**` is the step controller's err ** -0.2,
        # or err ** -0.125 for DOP853
        for name in SHIPPED:
            field = flowbound.load_system(name)
            for system in SYSTEMS:
                field.compiled_slope(system)
            for system in SYSTEMS[:3]:
                for tableau in (integrator._DP54, integrator._DOP853, integrator._RK4):
                    integrator._compiled_step(field, system, tableau)
                    integrator._compiled_loop(field, system, tableau)
        assert len(generated_sources) == 4 * (4 + 3 * 2 * 3)
        for source in generated_sources:
            for node in ast.walk(ast.parse(source)):
                if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Div)):
                    assert not (_is_unit(node.left) or _is_unit(node.right)), \
                        ast.unparse(node)
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
                    assert ast.unparse(node) in ("err ** (-0.2)", "err ** (-0.125)")
                assert not isinstance(node, ast.ExceptHandler), ast.unparse(node)

    def test_power_of_two_weights_scale_the_step(self, generated_sources):
        # RK4's two 0.5 rows add hc*k with hc = hs*0.5, taken once a step
        # by `_step` and once a run by the fixed-step loop;
        # the state-only loops of DP5(4) and DOP853, which have no such
        # rows, keep the source they had before the fold: one digest
        for name in SHIPPED:
            field = flowbound.load_system(name)
            for system in SYSTEMS[:3]:
                integrator._compiled_step(field, system, integrator._RK4)
                integrator._compiled_loop(field, system, integrator._RK4)
        assert len(generated_sources) == len(SHIPPED) * 3 * 2
        for source in generated_sources:
            assert "hs*(0.5*" not in source and source.count("hc = hs*0.5\n") == 1
        generated_sources.clear()
        for name in SHIPPED:
            for tableau in (integrator._DP54, integrator._DOP853):
                integrator._compiled_loop(flowbound.load_system(name), "rhs", tableau)
        assert hashlib.sha256("".join(generated_sources).encode()).hexdigest() == (
            "b3adbf7352e45ef17170416383bd44d0fb54e64648e7c7673700a9d7e04503dd")

    @pytest.mark.parametrize("tableau, inside", [("_RK4", False), ("_DP54", True)])
    def test_step_sizes_are_taken_once_a_run_of_equal_steps(self, generated_sources,
                                                             tableau, inside):
        # a fixed-step run's hs never changes: hb and hc precede its loop;
        # an adaptive run recomputes them after each new hs
        integrator._compiled_loop(flowbound.load_system("lorenz"), "rhs",
                                  getattr(integrator, tableau))
        lines = generated_sources[0].splitlines()
        loop = next(i for i, x in enumerate(lines) if x.lstrip().startswith("while "))
        sizes = [i for i, x in enumerate(lines) if re.match(r"\s*h[bc] = hs", x)]
        assert sizes and all((i > loop) == inside for i in sizes)

    @pytest.mark.parametrize("name, system, unread", [
        ("closed-orbit", "rhs", {2}),   # no slope reads z
        ("equilibrium", "rhs", {2}),
        ("lorenz", "rhs", set()),
        ("lorenz", "liouville_rhs", {3}),  # nor the divergence integral
    ])
    @pytest.mark.parametrize("tableau", ["_DP54", "_DOP853", "_RK4"])
    def test_trial_stages_assign_only_what_slopes_read(self, generated_sources, name,
                                                       system, unread, tableau):
        tableau = getattr(integrator, tableau)
        field = flowbound.load_system(name)
        integrator._compiled_step(field, system, tableau)
        size = _size(field, system)
        assigned = Counter(line.split(" = ")[0] for line in generated_sources[0].splitlines()
                           if re.match(r"\s+a\d+ = ", line))
        assert assigned == {f"    a{i}": len(tableau.A) for i in range(size)
                            if i not in unread}

    @pytest.mark.parametrize("name", SHIPPED)
    def test_zero_jacobian_entries_keep_their_term(self, generated_sources, name):
        # J V sums every k: a 0.0*v term can decide the sign of a zero sum
        field = flowbound.load_system(name)
        zeros = sum(p.is_zero for row in field.jacobian_polynomials() for p in row)
        field.compiled_slope("tangent_rhs")
        terms = [node for node in ast.walk(ast.parse(generated_sources[0]))
                 if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                 and isinstance(node.left, ast.Constant) and node.left.value == 0.0]
        assert zeros and len(terms) == zeros * field.dimension


class TestFieldCode:
    """A field generates each function once and keeps it; equal
    components generate equal code."""

    LORENZ = flowbound.system_path("lorenz").read_text()

    def _functions(self, field):
        """The slopes, and the one-step function and stepping loop of
        each stepped system and tableau."""
        return ([field.compiled_slope(s) for s in SYSTEMS]
                + [f(field, s, t) for s in SYSTEMS[:3]
                   for t in (integrator._DP54, integrator._RK4)
                   for f in (integrator._compiled_step, integrator._compiled_loop)])

    def test_same_function_on_every_call(self, generated_sources):
        field = parse_system(self.LORENZ)
        first = self._functions(field)
        generated_sources.clear()
        assert all(f is g for f, g in zip(first, self._functions(field)))
        assert not generated_sources

    def test_code_is_freed_with_its_field(self):
        # by reference counting alone: generated code holds no cycle
        field = parse_system(self.LORENZ)
        refs = [weakref.ref(f) for f in self._functions(field)]
        del field
        assert not any(ref() for ref in refs)

    def test_equal_components_generate_equal_source(self, generated_sources):
        exact = [Polynomial((Monomial(Fraction(1, 2), (1, 0)),)),
                 Polynomial((Monomial(3, (0, 0)),))]
        for a, b in [
            (parse_system(self.LORENZ), parse_system(self.LORENZ)),
            # names and parameters do not enter the generated code
            (parse_system(self.LORENZ),
             PolyField(parse_system(self.LORENZ).components, ("u", "v", "w"))),
            # coefficients are written as floats
            (PolyField(exact), parse_system("dx/dt = 0.5*x\ndy/dt = 3")),
        ]:
            assert a.components == b.components
            generated_sources.clear()
            count = len(self._functions(a))
            self._functions(b)
            assert generated_sources[:count] == generated_sources[count:]
            assert len(generated_sources) == 2 * count
        values = PolyField(exact).compiled_slope("rhs")((2.0, 0.0))
        assert values == (1.0, 3.0) and all(type(v) is float for v in values)

    def test_one_coefficient_apart_gives_other_functions(self):
        a = parse_system(self.LORENZ)
        b = parse_system(self.LORENZ.replace("rho = 28", "rho = 28.5"))
        state = [1.0, 2.0, 3.0]
        assert a.compiled_slope("rhs")(state)[1] == 23.0  # x*(rho - z) - y
        assert b.compiled_slope("rhs")(state)[1] == 23.5
        f = a.compiled_slope("rhs")(state)
        steps = [integrator._compiled_step(field, "rhs", integrator._DP54)(state, f, 0.01, 1e-10)
                 for field in (a, b)]
        assert steps[0][0] != steps[1][0]

    def test_list_built_polynomial_compiles(self):
        field = PolyField([Polynomial([Monomial(-1.0, (1,))])])
        assert field.compiled_slope("rhs")((2.0,)) == (-2.0,)

    def test_define_is_the_one_exec_site(self):
        # an AST scan of the package for calls of exec, eval and compile,
        # each with its module and enclosing function
        sites = []

        def visit(node, owner):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("exec", "eval", "compile")):
                sites.append((*owner, node.func.id))
            for child in ast.iter_child_nodes(node):
                visit(child, (owner[0], child.name) if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)

        for path in sorted(Path(polyfield.__file__).parent.glob("*.py")):
            visit(ast.parse(path.read_text(encoding="utf-8")), (path.stem, None))
        assert sites == [("polyfield", "_define", "exec")]


class TestCheckState:
    """`_check_state` gives a tuple of floats and refuses what the NumPy
    check it replaced refused, with the same text."""

    FIELD = parse_system("dx/dt = y\ndy/dt = z\ndz/dt = x")

    @pytest.mark.parametrize("state", [
        5.0, np.array(5.0), "123", [[1.0, 2.0, 3.0]], np.zeros((3, 1)),
        [[1.0], [2.0], [3.0]], [1.0, 2.0], np.zeros(4), [],
    ], ids=["scalar", "0-d", "string", "nested", "column", "nested-column",
            "short", "long", "empty"])
    def test_refused_with_numpy_shape(self, state):
        shape = np.asarray(state, dtype=float).shape
        with pytest.raises(ValueError) as info:
            self.FIELD._check_state(state)
        assert str(info.value) == f"state has shape {shape}, expected (3,)"

    @pytest.mark.parametrize("state", [
        [1, 2.5, -0.0], (1.0, 2.5, -0.0), np.array([1.0, 2.5, -0.0]),
        ["1", "2.5", "-0"], [np.float32(1.0), np.int64(2), Fraction(5, 2)],
    ])
    def test_floats_out(self, state):
        x = self.FIELD._check_state(state)
        assert type(x) is tuple and all(type(v) is float for v in x)
        assert x == tuple(np.asarray(state, dtype=float).tolist())

    def test_none_is_nan_as_before(self):
        x = self.FIELD._check_state([None, 1.0, 2.0])
        assert math.isnan(x[0]) and x[1:] == (1.0, 2.0)


class TestJacobian:
    def test_power_rule(self):
        field = parse_system("dx/dt = x^2*y\ndy/dt = 0\ndz/dt = 0")
        J = field.jacobian([2.0, 3.0, 7.0])
        assert J[0, 0] == pytest.approx(12.0)
        assert J[0, 1] == pytest.approx(4.0)
        assert J[0, 2] == 0.0

    def test_linear_field_constant_jacobian(self):
        field = parse_system("dx/dt = 2*x - y\ndy/dt = x + 3*y")
        expected = np.array([[2.0, -1.0], [1.0, 3.0]])
        for state in ([0.0, 0.0], [4.0, -7.0], [1e3, 1e-3]):
            np.testing.assert_allclose(field.jacobian(state), expected)

    def test_random_cubic_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        n = 3
        terms = []
        exps = [(e1, e2, e3) for e1 in range(4) for e2 in range(4)
                for e3 in range(4) if e1 + e2 + e3 <= 3]
        components = []
        for _ in range(n):
            chosen = rng.choice(len(exps), size=6, replace=False)
            terms = [Monomial(float(rng.normal()), exps[i]) for i in chosen]
            components.append(Polynomial.from_terms(terms))
        field = PolyField(components)

        h = 1e-6
        for _ in range(5):
            state = rng.uniform(-2.0, 2.0, size=n)
            J = field.jacobian(state)
            for k in range(n):
                e = np.zeros(n)
                e[k] = h
                fd = (field.evaluate(state + e) - field.evaluate(state - e)) / (2 * h)
                scale = np.maximum(np.abs(J[:, k]), 1.0)
                assert np.max(np.abs(J[:, k] - fd) / scale) < 1e-6

    def test_tangent_rhs_with_two_digit_indices(self):
        # from twelve variables on, Jacobian entries such as (1, 10) and
        # (11, 0) need distinct names in the generated code
        n = 12
        rng = np.random.default_rng(12)
        A = rng.normal(size=(n, n)).round(3)
        field = PolyField([
            Polynomial.from_terms(
                Monomial(float(A[i, k]), tuple(int(j == k) for j in range(n)))
                for k in range(n))
            for i in range(n)])
        x, V = rng.normal(size=n), rng.normal(size=(n, n))
        out = field.compiled_tangent_rhs()(np.concatenate([x, V.ravel()]))
        np.testing.assert_allclose(out[:n], A @ x, atol=1e-12)
        np.testing.assert_allclose(out[n:].reshape(n, n), A @ V, atol=1e-12)

    def test_divergence_polynomial(self, lorenz):
        div = lorenz.divergence()
        assert coeffs(div) == {(0, 0, 0): pytest.approx(-13.666666666666666)}


class TestCertifier:
    def test_shifted_square(self):
        field = parse_system("dx/dt = x^2 - 10")
        assert certify_lower_bound(poly(field)) == pytest.approx(-10.0)

    def test_even_powers_positive_coefficients(self):
        field = parse_system("dx/dt = 2*x^4 + 3*y^2 + 3\ndy/dt = 0")
        assert certify_lower_bound(poly(field)) == pytest.approx(3.0)

    def test_cross_term_not_certified(self):
        field = parse_system("dx/dt = x*y\ndy/dt = 0")
        assert certify_lower_bound(poly(field)) is None

    def test_odd_power_not_certified(self):
        field = parse_system("dx/dt = -x")
        assert certify_lower_bound(poly(field)) is None

    def test_negative_even_coefficient_not_certified(self):
        field = parse_system("dx/dt = -x^2 + 5")
        assert certify_lower_bound(poly(field)) is None

    def test_pure_square_bound_is_zero(self, equilibrium):
        assert certify_lower_bound(equilibrium.components[2]) == pytest.approx(0.0)

    def test_soundness_on_random_states(self, equilibrium, closed_orbit):
        candidates = [
            equilibrium.components[2],
            closed_orbit.components[2],
            poly(parse_system("dx/dt = 2*x^4 + 3*y^2 + 3\ndy/dt = 0\ndz/dt = 0")),
        ]
        rng = np.random.default_rng(11)
        states = rng.uniform(-100.0, 100.0, size=(100_000, 3))
        for p in candidates:
            alpha = certify_lower_bound(p)
            assert alpha is not None
            values = np.array([[m.coefficient
                                * np.prod(states[i] ** np.array(m.exponents))
                                for m in p.terms] for i in range(0, 100_000, 997)])
            # spot rows exactly, full grid via compiled evaluation
            field = PolyField([p, Polynomial.zero(), Polynomial.zero()])
            rhs = field.compiled_rhs()
            full = np.array([rhs(s)[0] for s in states])
            assert full.min() >= alpha - 1e-9
            assert np.allclose(values.sum(axis=1),
                               full[np.arange(0, 100_000, 997)])


class TestCanonicalForm:
    def test_like_terms_merge(self):
        p = Polynomial.from_terms([
            Monomial(1.0, (1, 0)), Monomial(2.5, (1, 0)), Monomial(1.0, (0, 1))])
        assert coeffs(p) == {(0, 1): 1.0, (1, 0): 3.5}

    def test_cancellation_drops_terms(self):
        p = Polynomial.from_terms([Monomial(1.0, (2,)), Monomial(-1.0, (2,))])
        assert p.is_zero

    def test_no_duplicate_exponent_tuples_in_shipped_systems(
            self, lorenz, stuart_landau, closed_orbit, equilibrium):
        for field in (lorenz, stuart_landau, closed_orbit, equilibrium):
            for p in field.components:
                keys = [m.exponents for m in p.terms]
                assert len(keys) == len(set(keys))
                assert keys == sorted(keys)
                assert all(m.coefficient != 0.0 for m in p.terms)

    def test_constructor_rejects_unsorted_terms(self):
        with pytest.raises(ValueError):
            Polynomial((Monomial(1.0, (1,)), Monomial(1.0, (0,))))

    def test_monomial_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            Monomial(1.0, (-1, 0))

    @pytest.mark.parametrize("build, message", [
        (lambda: Monomial(math.inf, (1,)), "monomial coefficient must be finite"),
        (lambda: Monomial(math.nan, (1,)), "monomial coefficient must be finite"),
        (lambda: Polynomial((Monomial(1.0, (1,)), Monomial(2.0, (1,)))),
         "duplicate exponent tuples; use Polynomial.from_terms"),
        (lambda: Polynomial((Monomial(0.0, (1,)),)),
         "zero-coefficient term; use Polynomial.from_terms"),
        (lambda: Polynomial.variable(0, 1) ** -1,
         "polynomial exponent must be a non-negative integer"),
        (lambda: PolyField([]), "field needs at least one component"),
        (lambda: PolyField([Polynomial.variable(0, 2)] * 2, ("x",)),
         "variable_names length must equal dimension"),
        (lambda: PolyField([Polynomial.variable(0, 1)] * 2),
         "monomial exponent tuple has wrong length"),
    ], ids=["monomial-inf", "monomial-nan", "duplicate-terms", "zero-term",
            "negative-power", "no-component", "names-length", "exponents-length"])
    def test_refused_construction(self, build, message):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message

    def test_field_repr(self, lorenz):
        assert repr(lorenz) == "PolyField(n=3, vars=('x', 'y', 'z'))"

    def test_parsing_canonicalizes_scattered_terms(self):
        field = parse_system("dx/dt = x + 2 + x + x^2 - 2")
        assert coeffs(poly(field)) == {(1,): 2.0, (2,): 1.0}

    def test_fraction_coefficients_stay_exact(self):
        # g = x^2 + y^2 - 1: d(g^2)/dx = 4 x g with no rounding anywhere
        one = Fraction(1)
        x = Polynomial((Monomial(one, (1, 0)),))
        g = Polynomial.from_terms([Monomial(one, (2, 0)), Monomial(one, (0, 2)),
                                   Monomial(-one, (0, 0))])
        g2 = g ** 2
        assert all(isinstance(m.coefficient, Fraction) for m in g2.terms)
        four = Polynomial.constant(Fraction(4), 2)
        assert (g2.differentiate(0) - four * x * g).is_zero
        assert coeffs(g ** 0) == {(0, 0): 1.0}
        assert isinstance(coeffs(g ** 0)[(0, 0)], float)

    def test_zeroth_power_of_zero_polynomial_is_refused(self):
        # no term tells how many variables its constant 1 has
        with pytest.raises(ValueError, match=r"Polynomial\.constant\(1\.0, n\)"):
            Polynomial.zero() ** 0
        assert Polynomial.variable(0, 2) ** 0 == Polynomial.constant(1.0, 2)


class TestShippedSystems:
    def test_every_system_is_a_nonzero_field_listed_in_readme(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        listed = set(re.findall(r"^\| `([\w-]+)` \|", readme.read_text(),
                                re.MULTILINE))
        files = sorted((Path(flowbound.__file__).parent / "systems")
                       .glob("*.sys"))
        assert files
        for path in files:
            field = parse_system(path.read_text(encoding="utf-8"))
            assert any(p.terms for p in field.components), path.name
            assert path.stem in listed, path.name
