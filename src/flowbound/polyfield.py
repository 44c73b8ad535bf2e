"""Polynomial vector fields in n real variables.

Provides the canonical representation (monomials with sorted exponent
tuples, like terms merged, zero terms dropped), a parser for the
system-config text format, symbolic differentiation, generated float
evaluators, and a sound-but-incomplete syntactic lower-bound certifier.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Optional, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Monomial",
    "Polynomial",
    "PolyField",
    "SystemConfigError",
    "parse_system",
    "certify_lower_bound",
]


class SystemConfigError(ValueError):
    """Malformed system-config text; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Monomial:
    """A single term: coefficient times a product of variable powers."""

    coefficient: float
    exponents: tuple[int, ...]

    def __post_init__(self):
        if not math.isfinite(self.coefficient):
            raise ValueError("monomial coefficient must be finite")
        if any(e < 0 or int(e) != e for e in self.exponents):
            raise ValueError("exponents must be non-negative integers")
        object.__setattr__(self, "exponents", tuple(int(e) for e in self.exponents))

    @property
    def degree(self) -> int:
        return sum(self.exponents)


@dataclass(frozen=True)
class Polynomial:
    """Canonical polynomial: terms sorted by exponent tuple, merged, nonzero."""

    terms: tuple[Monomial, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        keys = [m.exponents for m in self.terms]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate exponent tuples; use Polynomial.from_terms")
        if keys != sorted(keys):
            raise ValueError("terms not sorted; use Polynomial.from_terms")
        if any(m.coefficient == 0.0 for m in self.terms):
            raise ValueError("zero-coefficient term; use Polynomial.from_terms")

    @classmethod
    def from_terms(cls, terms: Iterable[Monomial]) -> "Polynomial":
        merged: dict[tuple[int, ...], float] = {}
        for m in terms:
            merged[m.exponents] = merged.get(m.exponents, 0) + m.coefficient
        kept = [Monomial(c, e) for e, c in sorted(merged.items()) if c != 0.0]
        return cls(tuple(kept))

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def constant(cls, value: float, n: int) -> "Polynomial":
        return cls.from_terms([Monomial(value, (0,) * n)])

    @classmethod
    def variable(cls, index: int, n: int) -> "Polynomial":
        exps = [0] * n
        exps[index] = 1
        return cls((Monomial(1.0, tuple(exps)),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        return max((m.degree for m in self.terms), default=0)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial.from_terms(self.terms + other.terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(Monomial(-m.coefficient, m.exponents) for m in self.terms))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        prods = [
            Monomial(a.coefficient * b.coefficient,
                     tuple(ea + eb for ea, eb in zip(a.exponents, b.exponents)))
            for a in self.terms for b in other.terms
        ]
        return Polynomial.from_terms(prods)

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0 or int(exponent) != exponent:
            raise ValueError("polynomial exponent must be a non-negative integer")
        if not (exponent or self.terms):
            raise ValueError("a zero polynomial does not know its variable count; "
                             "write its zeroth power as Polynomial.constant(1.0, n)")
        n = len(self.terms[0].exponents) if self.terms else 0
        result = self if exponent else Polynomial.constant(1.0, n)
        for _ in range(int(exponent) - 1):
            result = result * self
        return result

    def differentiate(self, index: int) -> "Polynomial":
        """Exact partial derivative with respect to variable `index`."""
        out = []
        for m in self.terms:
            e = m.exponents[index]
            if e:
                exps = list(m.exponents)
                exps[index] = e - 1
                out.append(Monomial(m.coefficient * e, tuple(exps)))
        return Polynomial.from_terms(out)

    def format(self, names: Sequence[str]) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for i, m in enumerate(self.terms):
            factors = []
            for name, e in zip(names, m.exponents):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            c = abs(m.coefficient)
            if not factors or c != 1.0:
                factors.insert(0, repr(c))
            body = "*".join(factors)
            if i == 0:
                pieces.append(f"-{body}" if m.coefficient < 0 else body)
            else:
                pieces.append(f"- {body}" if m.coefficient < 0 else f"+ {body}")
        return " ".join(pieces)


class PolyField:
    """An n-component polynomial vector field f: R^n -> R^n.

    Immutable after construction; evaluation and Jacobian callables, and
    `integrator`'s step and loop, are generated lazily and cached on the
    field, so sharing one instance across threads or repeated
    integrations is cheap. Generated code lives as long as its field.
    """

    def __init__(
        self,
        components: Sequence[Polynomial],
        variable_names: Optional[Sequence[str]] = None,
        parameters: Optional[Mapping[str, float]] = None,
    ):
        self.components = tuple(components)
        self.dimension = len(self.components)
        if self.dimension < 1:
            raise ValueError("field needs at least one component")
        if variable_names is None:
            if self.dimension <= 3:
                variable_names = ("x", "y", "z")[: self.dimension]
            else:
                variable_names = tuple(f"x{i+1}" for i in range(self.dimension))
        self.variable_names = tuple(variable_names)
        if len(self.variable_names) != self.dimension:
            raise ValueError("variable_names length must equal dimension")
        self.parameters = MappingProxyType(dict(parameters or {}))
        for p in self.components:
            for m in p.terms:
                if len(m.exponents) != self.dimension:
                    raise ValueError("monomial exponent tuple has wrong length")
        self._jac_polys: Optional[tuple] = None
        self._generated: dict = {}  # key of `_compiled` -> generated function

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyField):
            return NotImplemented
        return (self.dimension == other.dimension
                and self.variable_names == other.variable_names
                and self.components == other.components)

    def __repr__(self) -> str:
        return f"PolyField(n={self.dimension}, vars={self.variable_names})"

    def __str__(self) -> str:
        return "\n".join(
            f"d{name}/dt = {p.format(self.variable_names)}"
            for name, p in zip(self.variable_names, self.components)
        )

    def _check_state(self, state) -> tuple[float, ...]:
        """`state` as n floats, else ValueError naming its NumPy shape."""
        try:
            x = () if isinstance(state, str) else tuple([float(v) for v in state])
        except TypeError:  # a scalar or a nested sequence
            x = ()
        if len(x) != self.dimension:
            import numpy as np
            arr = np.asarray(state, dtype=float)  # None reads as nan
            if arr.shape != (self.dimension,):
                raise ValueError(f"state has shape {arr.shape}, expected ({self.dimension},)")
            x = tuple(arr.tolist())
        return x

    def evaluate(self, state: Sequence[float]) -> np.ndarray:
        return self.compiled_rhs()(self._check_state(state))

    def jacobian(self, state: Sequence[float]) -> np.ndarray:
        n = self.dimension
        return self._array("jacobian")(self._check_state(state)).reshape(n, n)

    def jacobian_polynomials(self) -> tuple[tuple[Polynomial, ...], ...]:
        """The n x n grid of exact partial derivatives dF_i/dx_k."""
        if self._jac_polys is None:
            self._jac_polys = tuple(
                tuple(p.differentiate(k) for k in range(self.dimension))
                for p in self.components
            )
        return self._jac_polys

    def divergence(self) -> Polynomial:
        """Trace of the Jacobian as a polynomial (sum of dF_i/dx_i)."""
        out = Polynomial.zero()
        for i, p in enumerate(self.components):
            out = out + p.differentiate(i)
        return out

    # -- compiled callables ------------------------------------------------

    def compiled_slope(self, system: str) -> Callable[[Sequence[float]], tuple]:
        """Float evaluator of a `_system`, floats in, tuple out: products,
        sums and negations only, so NumPy columns in give columns out,
        equal bit for bit. An overflow gives inf or nan in each component
        it reaches, as NumPy arrays would."""
        return self._compiled(system, lambda: _compile(*self._system(system, "x")))

    def compiled_rhs(self) -> Callable[[np.ndarray], np.ndarray]:
        """f(y) -> ndarray, an adapter over `compiled_slope("rhs")`."""
        return self._array("rhs")

    def compiled_tangent_rhs(self) -> Callable[[np.ndarray], np.ndarray]:
        """(x, V) -> (f(x), J(x) V) as flat ndarrays of length n + n*n, V
        row-major; an adapter over `compiled_slope("tangent_rhs")`."""
        return self._array("tangent_rhs")

    def _array(self, system: str) -> Callable[[np.ndarray], np.ndarray]:
        slope = self.compiled_slope(system)

        def array(y):  # NumPy is imported on the first call, not here
            import numpy as np
            return np.array(slope(np.asarray(y, dtype=float).tolist()))
        return array

    def _compiled(self, key, build: Callable[[], Callable]) -> Callable:
        """The generated function cached under `key` (a `_system` name
        first, alone or with its method's name), built by `build` on first
        use; `integrator` caches its steps and loops here too."""
        if key not in self._generated:
            self._generated[key] = build()
        return self._generated[key]

    def _system(self, name: str, v: str) -> tuple[int, list[str], list[str]]:
        """(inputs, body lines, output expressions) of one generated
        function of the variables v0, v1, ...: "rhs" is f, "tangent_rhs"
        (f(x), J(x) V) with V row-major after x, "liouville_rhs"
        (f(x), div f(x)) for Liouville's formula, "jacobian" J(x)
        row-major. The body starts with the powers of `_power_lines`."""
        n = self.dimension
        polys = list(self.components)
        if name == "liouville_rhs":  # inputs and outputs: x and div f
            polys.append(self.divergence())
        if name in ("rhs", "liouville_rhs"):
            return len(polys), _power_lines(polys, v), [_poly_expr(p, v) for p in polys]
        jac = self.jacobian_polynomials()
        entries = [p for row in jac for p in row]
        if name == "jacobian":
            return n, _power_lines(entries, v), [_poly_expr(p, v) for p in entries]
        # constant and single-variable entries are inlined into J V; a
        # zero entry keeps its 0.0*v term, so that no zero changes sign
        inline = [[len(p.terms) <= 1 and p.degree <= 1 for p in row] for row in jac]
        body = _power_lines(polys + entries, v) + [
            f"j{i}_{k} = {_poly_expr(p, v)}" for i, row in enumerate(jac)
            for k, p in enumerate(row) if not inline[i][k]]
        zero = Monomial(0.0, (0,) * n)

        def product(i, k, c):  # J[i][k] V[k][c]
            vk = f"{v}{n + k * n + c}"
            if not inline[i][k]:
                return f"j{i}_{k}*{vk}"
            return _monomial_expr((jac[i][k].terms or (zero,))[0], v, vk)

        return n + n * n, body, [_poly_expr(p, v) for p in polys] + [
            _signed_sum([product(i, k, c) for k in range(n)])
            for i in range(n) for c in range(n)]


# -- code generation -------------------------------------------------------


def _power(i: int, e: int, v: str) -> str:
    """The name of v_i^e in generated code: v{i} itself, or v{i}_{e}."""
    return f"{v}{i}" if e == 1 else f"{v}{i}_{e}"


def _power_lines(polys: Iterable[Polynomial], v: str) -> list[str]:
    """Lines that compute every power v_i^e (e > 1) of the terms of
    `polys` once, by products: v^(2k) = v^k*v^k and v^(2k+1) = v^(2k)*v,
    the intermediate powers shared. No `**`: a product cannot raise,
    it overflows to inf, and IEEE 754 rounds it correctly, as libm
    `pow` need not."""
    needed = set()
    for p in polys:
        for m in p.terms:
            for i, e in enumerate(m.exponents):
                while e > 1 and (i, e) not in needed:
                    needed.add((i, e))
                    e = e - 1 if e % 2 else e // 2
    return [f"{_power(i, e, v)} = " + (f"{_power(i, e - 1, v)}*{v}{i}" if e % 2
                                       else f"{_power(i, e // 2, v)}*{_power(i, e // 2, v)}")
            for i, e in sorted(needed)]


def _monomial_expr(m: Monomial, v: str, *factors: str) -> str:
    """c*v0_e0*v1_e1*...*factors, the powers named by `_power`, or c
    alone for a constant term."""
    parts = [_power(i, e, v) for i, e in enumerate(m.exponents) if e]
    parts += factors
    if not parts:
        return repr(float(m.coefficient))
    return _scaled(m.coefficient, "*".join(parts))


def _scaled(c: float, expr: str) -> str:
    """c*expr for a product or power `expr`, without identity arithmetic:
    1.0*x is x and -1.0*x is -x in floating point, bit for bit. `c` is
    written as a float, so equal coefficients give equal code."""
    return expr if c == 1.0 else f"-{expr}" if c == -1.0 else f"{float(c)!r}*{expr}"


def _signed_sum(terms: Sequence[str]) -> str:
    """terms[0] + terms[1] + ... with each negated term -b written as a
    subtraction - b, and -a + b, a first term negated and a second not,
    as b - a. Both are exact: a + (-b) is a - b and (-c)*x is -(c*x) in
    floating point, signed zeros included, and a sum of two commutes."""
    if len(terms) > 1 and terms[0][0] == "-" and terms[1][0] != "-":
        terms = [terms[1], terms[0], *terms[2:]]
    return terms[0] + "".join(f" - {t[1:]}" if t[0] == "-" else f" + {t}"
                              for t in terms[1:])


def _poly_expr(p: Polynomial, v: str) -> str:
    if not p.terms:
        return "0.0"
    return _signed_sum([_monomial_expr(m, v) for m in p.terms])


def _names(v: str, size: int) -> str:
    return ", ".join(f"{v}{i}" for i in range(size)) + ","


def _define(signature: str, lines: Sequence[str]) -> Callable:
    """The function `def <signature>:` with the body `lines`, each
    indented once; the one exec site of generated code. The function is
    taken out of its globals, so that no reference cycle keeps it alive
    once its owner lets it go."""
    ns = {"_sqrt": math.sqrt, "_isfinite": math.isfinite, "_hypot": math.hypot}
    exec("\n".join([f"def {signature}:", *(f"    {x}" for x in lines)]), ns)
    return ns.pop(signature.partition("(")[0])


def _compile(size: int, body: Sequence[str], outputs: Sequence[str]) -> Callable:
    """Generate `def _slope(y)`: unpack x0..x{size-1} from the floats y, run
    `body`, return the tuple of the `outputs` expressions. Its arithmetic
    is products and sums, which cannot raise: an overflow leaves inf or
    nan in the outputs it reaches, as arrays would."""
    return _define("_slope(y)", [f"{_names('x', size)} = y", *body,
                                 f"return ({', '.join(outputs)},)"])


# -- parsing ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>[0-9]+\.?[0-9]*(?:[eE][+-]?[0-9]+)?"
    r"|\.[0-9]+(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^()/=])|(?P<bad>\S))"
)
_MAX_DEGREE = 64
_MAX_NESTING = 64  # parentheses open at once
_MAX_PRODUCTS = 100_000  # monomial products formed by one multiplication


def _power_products(p: Polynomial, e: int, n: int) -> int:
    """Most monomial products one multiplication of `p ** e` can form.

    The last one is the largest: p^(e-1) times p. p^(e-1) has at most
    as many terms as there are multisets of e-1 of p's terms, and as
    there are monomials in n variables up to its degree.
    """
    m = len(p.terms)
    if e == 0 or m == 0:
        return 0
    j = e - 1
    return m * min(math.comb(m + j - 1, j), math.comb(n + j * p.degree, n))


@dataclass
class _Token:
    kind: str  # "number" | "name" | "op" | "end"
    text: str
    line: int
    column: int


def _tokenize_line(text: str, lineno: int) -> list[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text.partition("#")[0]):
        kind = m.lastgroup
        if kind == "bad":
            raise SystemConfigError(f"unexpected character {m.group(kind)!r}",
                                    lineno, m.start(kind) + 1)
        tokens.append(_Token(kind, m.group(kind), lineno, m.start(kind) + 1))
    return tokens


class _Line:
    """Recursive descent over one line's tokens: a `param` line, or an
    equation head `d<var>/dt =` whose right-hand side is read later, once
    every variable and parameter is known.

    Grammar: param := 'param' NAME '=' ['+'|'-'] NUMBER
             head := NAME '/' 'dt' '='   (NAME is d<var>)
             expr := ['+'|'-'] term (('+'|'-') term)*
             term := factor ('*' factor)*
             factor := base ['^' integer]
             base := NUMBER | NAME | '(' expr ')'

    A product or power is refused at its operator, before it is
    expanded, when its total degree would exceed 64 or one of its
    multiplications would form more than 100,000 monomial products; a
    '(' is refused when it opens more than 64 levels of nesting.
    """

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # parentheses open at the cursor

    def _peek(self) -> _Token:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        last = self.tokens[-1]
        return _Token("end", "", last.line, last.column + len(last.text))

    def _next(self) -> _Token:
        tok = self._peek()
        self.pos += 1
        return tok

    def _error(self, message: str, tok: _Token):
        raise SystemConfigError(message, tok.line, tok.column)

    def _accept(self, kind: str, *texts: str) -> Optional[_Token]:
        """The next token, consumed, if it is of `kind` and, when `texts`
        are given, one of them; else None."""
        tok = self._peek()
        if tok.kind != kind or (texts and tok.text not in texts):
            return None
        self.pos += 1
        return tok

    def _expect(self, message: str, kind: str, *texts: str) -> _Token:
        """Like `_accept`, but refuses any other token with `message`."""
        return self._accept(kind, *texts) or self._error(message, self._peek())

    def _end(self, after: str):
        tok = self._peek()
        if tok.kind != "end":
            self._error(f"unexpected {tok.text!r} after {after}", tok)

    def _check_size(self, op: _Token, degree: int, products: int):
        """Refuse a product or power at `op` before it is expanded."""
        if degree > _MAX_DEGREE:
            self._error(f"total degree {degree} exceeds the limit "
                        f"{_MAX_DEGREE}", op)
        if products > _MAX_PRODUCTS:
            self._error(f"expansion would form up to {products} monomial "
                        f"products (limit {_MAX_PRODUCTS})", op)

    def param(self, params: dict[str, float]):
        """Read the rest of a `param` line into `params`."""
        name = self._expect("expected parameter name in param line", "name")
        self._expect("expected '=' in param line", "op", "=")
        sign = self._accept("op", "+", "-")
        tok = self._expect("expected numeric value in param line", "number")
        self._end("param value")
        if name.text in params:
            self._error(f"duplicate param {name.text!r}", name)
        value = -float(tok.text) if sign and sign.text == "-" else float(tok.text)
        if not math.isfinite(value):
            self._error("param value overflows double precision", tok)
        params[name.text] = value

    def head(self) -> str:
        """Read an equation head `d<var>/dt =` and return <var>."""
        head = self._next()
        if head.kind != "name" or not head.text.startswith("d") or len(head.text) < 2:
            self._error("expected 'param' or 'd<var>/dt = ...'", head)
        for kind, text in (("op", "/"), ("name", "dt"), ("op", "=")):
            if not self._accept(kind, text):
                self._error("equation must start 'd<var>/dt ='", head)
        if self._peek().kind == "end":
            self._error("empty right-hand side", self._peek())
        return head.text[1:]

    def rhs(self, var_index: Mapping[str, int],
            params: Mapping[str, float]) -> Polynomial:
        """Read the right-hand side after the head as a polynomial in the
        variables of `var_index`."""
        self.var_index, self.params, self.n = var_index, params, len(var_index)
        poly = self.expr()
        self._end("expression")
        return poly

    def expr(self) -> Polynomial:
        sign = self._accept("op", "+", "-")
        poly = self.term()
        if sign and sign.text == "-":
            poly = -poly
        while tok := self._accept("op", "+", "-"):
            rhs = self.term()
            poly = poly - rhs if tok.text == "-" else poly + rhs
        return poly

    def term(self) -> Polynomial:
        poly = self.factor()
        while tok := self._accept("op", "*"):
            rhs = self.factor()
            self._check_size(tok, poly.degree + rhs.degree,
                             len(poly.terms) * len(rhs.terms))
            poly = poly * rhs
        return poly

    def factor(self) -> Polynomial:
        poly = self.base()
        tok = self._accept("op", "^")
        if tok is None:
            return poly
        etok = self._next()
        if etok.kind != "number" or not re.fullmatch(r"\d+", etok.text):
            self._error("exponent must be a non-negative integer literal", etok)
        e = int(etok.text)
        if e > _MAX_DEGREE:
            self._error(f"exponent too large (limit {_MAX_DEGREE})", etok)
        self._check_size(tok, poly.degree * e, _power_products(poly, e, self.n))
        # a zeroth power is 1 in all n variables, even of a zero polynomial
        return poly ** e if e else Polynomial.constant(1.0, self.n)

    def base(self) -> Polynomial:
        tok = self._next()
        if tok.kind == "number":
            value = float(tok.text)
            if not math.isfinite(value):
                self._error("numeric literal overflows double precision", tok)
            return Polynomial.constant(value, self.n)
        if tok.kind == "name":
            if tok.text in self.var_index:
                return Polynomial.variable(self.var_index[tok.text], self.n)
            if tok.text in self.params:
                return Polynomial.constant(self.params[tok.text], self.n)
            self._error(f"undefined variable or parameter {tok.text!r}", tok)
        if tok.kind == "op" and tok.text == "(":
            self.depth += 1
            if self.depth > _MAX_NESTING:
                self._error(f"parentheses nested more than {_MAX_NESTING} deep", tok)
            poly = self.expr()
            self._expect("expected ')'", "op", ")")
            self.depth -= 1
            return poly
        if tok.kind == "end":
            self._error("unexpected end of expression", tok)
        self._error(f"unexpected {tok.text!r}", tok)


def parse_system(text: str) -> PolyField:
    """Parse system-config text into a canonical PolyField.

    Format: zero or more `param name=value` lines, then one
    `d<var>/dt = <expr>` line per state variable. Equation order fixes
    component order; parameters are substituted numerically here.
    """
    params: dict[str, float] = {}
    equations: dict[str, _Line] = {}  # by variable, in equation order

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(raw, lineno)
        if not tokens:
            continue
        line = _Line(tokens)
        if line._accept("name", "param"):
            line.param(params)
            continue
        var = line.head()
        if var in equations:
            raise SystemConfigError(
                f"duplicate equation for {var!r}", lineno, tokens[0].column)
        equations[var] = line

    if not equations:
        raise SystemConfigError("no equations found", 1, 1)

    clash = set(equations) & set(params)
    if clash:
        name = sorted(clash)[0]
        raise SystemConfigError(
            f"{name!r} is declared both as parameter and state variable", 1, 1)
    var_index = {v: i for i, v in enumerate(equations)}
    components = [line.rhs(var_index, params) for line in equations.values()]
    return PolyField(components, tuple(equations), params)


def certify_lower_bound(poly: Polynomial) -> Optional[float]:
    """Sound syntactic lower bound: c0 when every non-constant term has
    all-even exponents and a non-negative coefficient; None otherwise.

    None means "could not certify", not "unbounded below".
    """
    alpha = 0.0
    for m in poly.terms:
        if m.degree == 0:
            alpha = m.coefficient
        elif any(e % 2 for e in m.exponents) or m.coefficient < 0.0:
            return None
    return alpha
