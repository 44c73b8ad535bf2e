"""Polynomial vector fields in n real variables.

Provides the canonical representation (monomials with sorted exponent
tuples, like terms merged, zero terms dropped), a parser for the
system-config text format, exact evaluation, symbolic differentiation,
and a sound-but-incomplete syntactic lower-bound certifier.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Optional, Sequence

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
        if not np.isfinite(self.coefficient):
            raise ValueError("monomial coefficient must be finite")
        if any(e < 0 or int(e) != e for e in self.exponents):
            raise ValueError("exponents must be non-negative integers")
        object.__setattr__(self, "exponents", tuple(int(e) for e in self.exponents))

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def evaluate(self, state: Sequence[float]) -> float:
        v = self.coefficient
        for x, e in zip(state, self.exponents):
            if e:
                v *= x ** e
        return v


@dataclass(frozen=True)
class Polynomial:
    """Canonical polynomial: terms sorted by exponent tuple, merged, nonzero."""

    terms: tuple[Monomial, ...]

    def __post_init__(self):
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
            merged[m.exponents] = merged.get(m.exponents, 0.0) + m.coefficient
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

    def evaluate(self, state: Sequence[float]) -> float:
        return sum(m.evaluate(state) for m in self.terms)

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
        n = len(self.terms[0].exponents) if self.terms else 0
        result = Polynomial.constant(1.0, n)
        for _ in range(int(exponent)):
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

    Immutable after construction; evaluation, Jacobian and step callables are
    compiled lazily and cached, so sharing one instance across threads
    or repeated integrations is cheap.
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
        self._generated: dict = {}  # compiled callables by name or (system, tableau)

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

    def _check_state(self, state) -> np.ndarray:
        arr = np.asarray(state, dtype=float)
        if arr.shape != (self.dimension,):
            raise ValueError(
                f"state has shape {arr.shape}, expected ({self.dimension},)")
        return arr

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
        """Float evaluator of a `_system`, floats in, tuple out. If a power
        overflows, every component is +inf, whatever its sign or true value."""
        return self._compiled(system)

    def compiled_rhs(self) -> Callable[[np.ndarray], np.ndarray]:
        """f(y) -> ndarray, an adapter over `compiled_slope("rhs")`."""
        return self._array("rhs")

    def compiled_tangent_rhs(self) -> Callable[[np.ndarray], np.ndarray]:
        """(x, V) -> (f(x), J(x) V) as flat ndarrays of length n + n*n, V
        row-major; an adapter over `compiled_slope("tangent_rhs")`."""
        return self._array("tangent_rhs")

    def _array(self, system: str) -> Callable[[np.ndarray], np.ndarray]:
        slope = self._compiled(system)
        return lambda y: np.array(slope(np.asarray(y, dtype=float).tolist()))

    def compiled_step(self, system: str, tableau) -> Callable:
        """The generated step of `system` ("rhs", "tangent_rhs" or
        "liouville_rhs") for a tableau, built on first use."""
        return self._compiled((system, tableau))

    def _compiled(self, key):
        """The cached callable for a `_system` name, or for (name, tableau)."""
        if key not in self._generated:
            self._generated[key] = (
                _compile_step(lambda v: self._system(key[0], v), key[1])
                if isinstance(key, tuple) else _compile(*self._system(key, "x")))
        return self._generated[key]

    def _system(self, name: str, v: str) -> tuple[int, list[str], list[str]]:
        """(inputs, body lines, output expressions) of one generated
        function of the variables v0, v1, ...: "rhs" is f, "tangent_rhs"
        (f(x), J(x) V) with V row-major after x, "liouville_rhs"
        (f(x), div f(x)) for Liouville's formula, "jacobian" J(x)
        row-major."""
        n = self.dimension
        out = [_poly_expr(p, v) for p in self.components]
        if name == "liouville_rhs":
            return n + 1, [], out + [_poly_expr(self.divergence(), v)]
        if name == "rhs":
            return n, [], out
        grid = [[_poly_expr(p, v) for p in row] for row in self.jacobian_polynomials()]
        if name == "jacobian":
            return n, [], [e for row in grid for e in row]
        body = [f"j{i}_{k} = {e}" for i, row in enumerate(grid) for k, e in enumerate(row)]
        out += [" + ".join(f"j{i}_{k}*{v}{n + k * n + c}" for k in range(n))
                for i in range(n) for c in range(n)]
        return n + n * n, body, out


# -- code generation -------------------------------------------------------


def _monomial_expr(m: Monomial, v: str) -> str:
    parts = [repr(m.coefficient)]
    for i, e in enumerate(m.exponents):
        if e == 1:
            parts.append(f"{v}{i}")
        elif e > 1:
            parts.append(f"{v}{i}**{e}")
    return "*".join(parts)


def _poly_expr(p: Polynomial, v: str) -> str:
    if not p.terms:
        return "0.0"
    return " + ".join(_monomial_expr(m, v) for m in p.terms)


def _names(v: str, size: int) -> str:
    return ", ".join(f"{v}{i}" for i in range(size)) + ","


def _compile(size: int, body: Sequence[str], outputs: Sequence[str]) -> Callable:
    """exec `def _slope(y)`: unpack x0..x{size-1} from the floats y, run
    `body`, return the tuple of the `outputs` expressions, or of infs when
    a power overflows (float `**` raises where arrays would hold inf)."""
    lines = [f"{_names('x', size)} = y", "try:", *(f"    {x}" for x in body),
             f"    return ({', '.join(outputs)},)", "except OverflowError:",
             f"    return ({'_inf, ' * len(outputs)})"]
    ns = {"_inf": math.inf}
    exec("def _slope(y):\n    " + "\n    ".join(lines), ns)
    return ns["_slope"]


def _numpy_sum(terms: list, add: Callable = lambda a, b: f"({a} + {b})"):
    """Sum of `terms` in the order of NumPy's pairwise `add.reduce`;
    `add` joins two partial sums: code strings by default, or floats
    with `operator.add`."""
    n, rest = len(terms), len(terms) - len(terms) % 8
    if n > 128:
        half = n // 2 - n // 2 % 8
        return add(_numpy_sum(terms[:half], add), _numpy_sum(terms[half:], add))
    if n >= 8:  # eight running sums, added pairwise, then the rest in turn
        r = [functools.reduce(add, terms[j:rest:8]) for j in range(8)]
        while len(r) > 1:
            r = [add(a, b) for a, b in zip(r[::2], r[1::2])]
        terms = r + terms[rest:]
    return functools.reduce(add, terms)


def _compile_step(system: Callable, tableau) -> Callable:
    """exec `def _step(y, f, hs, tol)`: one explicit Runge-Kutta step of
    `system(v)` -> (size, body, outputs) as straight-line float code.

    `tableau` (A, b, d, e) gives the stage rows A, the new state z = y +
    (hs/d) Σ b_j k_j, whose slope g is the next first stage (FSAL), and
    the error weights e (None: no estimate). Zero coefficients are
    skipped and sums run in NumPy's order, so the step equals the same
    array arithmetic bit for bit. Returns (z, g, err, ss): err is the
    RMS of hs Σ e_j k_j in units of tol + tol max(|y|, |z|), else 0.0,
    and ss = Σ z_i². Where arrays would hold inf, an overflowing power
    raises OverflowError, or, evaluating g, makes g inf.
    """
    A, b, d, e = tableau
    m = system("y")[0]
    k = [f"k{s}_" for s in range(len(A) + 2)]  # k[0] is f, k[-1] is g

    def combo(weights, i):
        return " + ".join(f"{c!r}*{k[j]}{i}" for j, c in enumerate(weights) if c)

    lines = [f"{_names('y', m)} = y", f"{_names(k[0], m)} = f", f"hb = hs / {d!r}"]
    for s, row in enumerate([*A, b], start=1):
        v, h = ("z", "hb") if s > len(A) else ("a", "hs")
        lines += [f"{v}{i} = y{i} + {h}*({combo(row, i)})" for i in range(m)]
        _size, body, out = system(v)
        stage = [*body, *(f"{k[s]}{i} = {o}" for i, o in enumerate(out))]
        if s > len(A):
            stage = ["try:", *(f"    {x}" for x in stage), "except OverflowError:",
                     f"    {' = '.join(f'{k[s]}{i}' for i in range(m))} = _inf"]
        lines += stage
    err = "0.0"
    if e is not None:
        lines += [f"p = abs(y{i}); q = abs(z{i}); u{i} = hs*({combo(e, i)}) / "
                  f"(tol + tol*(p if p >= q else q))" for i in range(m)]
        err = f"_sqrt({_numpy_sum([f'u{i}*u{i}' for i in range(m)])} / {m})"
    ss = " + ".join(f"z{i}*z{i}" for i in range(m))
    lines.append(f"return ({_names('z', m)}), ({_names(k[-1], m)}), {err}, {ss}")
    ns = {"_sqrt": math.sqrt, "_inf": math.inf}
    exec("def _step(y, f, hs, tol):\n    " + "\n    ".join(lines), ns)
    return ns["_step"]


# -- parsing ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^()/=]))"
)
_MAX_DEGREE = 64
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
    hash_pos = text.find("#")
    if hash_pos >= 0:
        text = text[:hash_pos]
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            col = pos + (len(text[pos:]) - len(stripped)) + 1
            raise SystemConfigError(f"unexpected character {stripped[0]!r}", lineno, col)
        kind = m.lastgroup
        tokens.append(_Token(kind, m.group(kind), lineno, m.start(kind) + 1))
        pos = m.end()
    return tokens


class _ExprParser:
    """Recursive descent over one equation's token list.

    Grammar: expr := ['+'|'-'] term (('+'|'-') term)*
             term := factor ('*' factor)*
             factor := base ['^' integer]
             base := NUMBER | NAME | '(' expr ')'

    A product or power is refused at its operator, before it is
    expanded, when its total degree would exceed 64 or one of its
    multiplications would form more than 100,000 monomial products.
    """

    def __init__(self, tokens: list[_Token], lineno: int, n: int,
                 var_index: Mapping[str, int], params: Mapping[str, float]):
        self.tokens = tokens
        self.pos = 0
        self.lineno = lineno
        self.n = n
        self.var_index = var_index
        self.params = params

    def _peek(self) -> _Token:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        col = self.tokens[-1].column + len(self.tokens[-1].text) if self.tokens else 1
        return _Token("end", "", self.lineno, col)

    def _next(self) -> _Token:
        tok = self._peek()
        self.pos += 1
        return tok

    def _error(self, message: str, tok: _Token):
        raise SystemConfigError(message, tok.line, tok.column)

    def _check_size(self, op: _Token, degree: int, products: int):
        """Refuse a product or power at `op` before it is expanded."""
        if degree > _MAX_DEGREE:
            self._error(f"total degree {degree} exceeds the limit "
                        f"{_MAX_DEGREE}", op)
        if products > _MAX_PRODUCTS:
            self._error(f"expansion would form up to {products} monomial "
                        f"products (limit {_MAX_PRODUCTS})", op)

    def parse(self) -> Polynomial:
        poly = self.expr()
        tok = self._peek()
        if tok.kind != "end":
            self._error(f"unexpected {tok.text!r} after expression", tok)
        return poly

    def expr(self) -> Polynomial:
        tok = self._peek()
        negate = False
        if tok.kind == "op" and tok.text in "+-":
            self._next()
            negate = tok.text == "-"
        poly = self.term()
        if negate:
            poly = -poly
        while True:
            tok = self._peek()
            if tok.kind == "op" and tok.text in "+-":
                self._next()
                rhs = self.term()
                poly = poly - rhs if tok.text == "-" else poly + rhs
            else:
                return poly

    def term(self) -> Polynomial:
        poly = self.factor()
        while True:
            tok = self._peek()
            if tok.kind == "op" and tok.text == "*":
                self._next()
                rhs = self.factor()
                self._check_size(tok, poly.degree + rhs.degree,
                                 len(poly.terms) * len(rhs.terms))
                poly = poly * rhs
            else:
                return poly

    def factor(self) -> Polynomial:
        poly = self.base()
        tok = self._peek()
        if tok.kind == "op" and tok.text == "^":
            self._next()
            etok = self._next()
            if etok.kind != "number" or not re.fullmatch(r"\d+", etok.text):
                self._error("exponent must be a non-negative integer literal", etok)
            e = int(etok.text)
            if e > _MAX_DEGREE:
                self._error(f"exponent too large (limit {_MAX_DEGREE})", etok)
            self._check_size(tok, poly.degree * e,
                             _power_products(poly, e, self.n))
            poly = poly ** e
        return poly

    def base(self) -> Polynomial:
        tok = self._next()
        if tok.kind == "number":
            value = float(tok.text)
            if not np.isfinite(value):
                self._error("numeric literal overflows double precision", tok)
            return Polynomial.constant(value, self.n)
        if tok.kind == "name":
            if tok.text in self.var_index:
                return Polynomial.variable(self.var_index[tok.text], self.n)
            if tok.text in self.params:
                return Polynomial.constant(self.params[tok.text], self.n)
            self._error(f"undefined variable or parameter {tok.text!r}", tok)
        if tok.kind == "op" and tok.text == "(":
            poly = self.expr()
            closing = self._next()
            if closing.kind != "op" or closing.text != ")":
                self._error("expected ')'", closing)
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
    equations: list[tuple[str, list[_Token], int, _Token]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(raw, lineno)
        if not tokens:
            continue
        head = tokens[0]
        if head.kind == "name" and head.text == "param":
            _parse_param_line(tokens, lineno, params)
        else:
            var, rhs_tokens = _split_equation(tokens, lineno)
            if any(var == v for v, *_ in equations):
                raise SystemConfigError(
                    f"duplicate equation for {var!r}", lineno, head.column)
            equations.append((var, rhs_tokens, lineno, head))

    if not equations:
        raise SystemConfigError("no equations found", 1, 1)

    names = [var for var, *_ in equations]
    clash = set(names) & set(params)
    if clash:
        name = sorted(clash)[0]
        raise SystemConfigError(
            f"{name!r} is declared both as parameter and state variable", 1, 1)
    var_index = {v: i for i, v in enumerate(names)}
    n = len(names)

    components = []
    for var, rhs_tokens, lineno, _head in equations:
        parser = _ExprParser(rhs_tokens, lineno, n, var_index, params)
        components.append(parser.parse())

    return PolyField(components, names, params)


def _parse_param_line(tokens: list[_Token], lineno: int, params: dict[str, float]):
    def expect(i: int, kind: str, text: Optional[str] = None, what: str = "") -> _Token:
        if i >= len(tokens):
            last = tokens[-1]
            raise SystemConfigError(
                f"expected {what} in param line", lineno, last.column + len(last.text))
        tok = tokens[i]
        if tok.kind != kind or (text is not None and tok.text != text):
            raise SystemConfigError(f"expected {what} in param line", tok.line, tok.column)
        return tok

    name_tok = expect(1, "name", what="parameter name")
    expect(2, "op", "=", what="'='")
    idx = 3
    sign = 1.0
    if idx < len(tokens) and tokens[idx].kind == "op" and tokens[idx].text in "+-":
        sign = -1.0 if tokens[idx].text == "-" else 1.0
        idx += 1
    value_tok = expect(idx, "number", what="numeric value")
    if idx + 1 < len(tokens):
        extra = tokens[idx + 1]
        raise SystemConfigError(
            f"unexpected {extra.text!r} after param value", extra.line, extra.column)
    if name_tok.text in params:
        raise SystemConfigError(
            f"duplicate param {name_tok.text!r}", lineno, name_tok.column)
    value = sign * float(value_tok.text)
    if not np.isfinite(value):
        raise SystemConfigError(
            "param value overflows double precision", value_tok.line, value_tok.column)
    params[name_tok.text] = value


def _split_equation(tokens: list[_Token], lineno: int) -> tuple[str, list[_Token]]:
    head = tokens[0]
    if head.kind != "name" or not head.text.startswith("d") or len(head.text) < 2:
        raise SystemConfigError(
            "expected 'param' or 'd<var>/dt = ...'", head.line, head.column)
    fail = SystemConfigError("equation must start 'd<var>/dt ='", head.line, head.column)
    if len(tokens) < 4:
        raise fail
    slash, dt, eq = tokens[1], tokens[2], tokens[3]
    if not (slash.kind == "op" and slash.text == "/"
            and dt.kind == "name" and dt.text == "dt"
            and eq.kind == "op" and eq.text == "="):
        raise fail
    if len(tokens) == 4:
        raise SystemConfigError(
            "empty right-hand side", lineno, eq.column + 1)
    return head.text[1:], tokens[4:]


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
