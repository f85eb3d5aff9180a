"""Whitelisted polynomial expressions.

Config files and moment specifications name functions as strings. The
admissible language is deliberately small. An expression may use:

- numeric constants (integers and decimals, read as exact rationals),
- the declared variable names,
- `+`, `-`, `*` and unary `+` / `-`,
- division by a nonzero constant,
- `**` with a constant integer exponent from 0 to MAX_POWER.

After expansion every variable must appear with degree at most
MAX_POWER. Anything else (other names, calls, attributes, division by a
variable, complex or non-finite numbers) is rejected with SensanError.

A parsed expression is a `Poly`: a map from exponent tuples to exact
`Fraction` coefficients. That is enough for every bundled functional and
moment condition, and it makes the exact derivatives that the GMM
influence formulas (theta Jacobians and Hessians) and chart partials
require a matter of shifting exponents.
"""

from __future__ import annotations

import ast
import math
from fractions import Fraction

import numpy as np

from .errors import SensanError

__all__ = ["Poly", "parse_whitelisted", "as_array_function", "MAX_POWER"]

MAX_POWER = 4

# resource guards for pathological input; no whitelisted polynomial in a
# handful of variables comes near them
_MAX_PRODUCT = 200_000      # term pairs one multiplication may form
_MAX_BITS = 4096            # size of an intermediate coefficient


class Poly:
    """Exact polynomial over `variables`: `terms` maps exponent tuples, one
    entry per variable, to nonzero Fraction coefficients."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: tuple[str, ...], terms: dict):
        self.variables = tuple(variables)
        self.terms = {e: Fraction(c) for e, c in terms.items() if c}

    @property
    def free_symbols(self) -> frozenset[str]:
        """Names of the variables that appear in a nonzero term."""
        return frozenset(v for i, v in enumerate(self.variables)
                         if any(e[i] for e in self.terms))

    def degree(self, name: str) -> int:
        i = self.variables.index(name)
        return max((e[i] for e in self.terms), default=0)

    def diff(self, name: str) -> "Poly":
        """Exact partial derivative with respect to variable `name`."""
        i = self.variables.index(name)
        return Poly(self.variables,
                    {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
                     for e, c in self.terms.items() if e[i]})

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.variables == other.variables
                and self.terms == other.terms)

    def __repr__(self) -> str:
        return f"Poly({self.variables!r}, {self.terms!r})"


def _add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def _mul(a: dict, b: dict, text: str) -> dict:
    if len(a) * len(b) > _MAX_PRODUCT:
        raise SensanError(f"expression {text!r} is too large to expand")
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(p + q for p, q in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    out = {e: c for e, c in out.items() if c}
    if any(max(c.numerator.bit_length(), c.denominator.bit_length())
           > _MAX_BITS for c in out.values()):
        raise SensanError(f"expression {text!r} has a coefficient out of "
                          "range")
    return out


class _Parser:
    """Folds a whitelisted syntax tree into a term dict."""

    def __init__(self, text: str, variables: tuple[str, ...]):
        self.text = text
        self.index = {v: i for i, v in enumerate(variables)}
        self.zero = (0,) * len(variables)

    def fail(self, what: str):
        raise SensanError(f"expression {self.text!r} {what}")

    def constant(self, terms: dict) -> Fraction | None:
        if not terms:
            return Fraction(0)
        if len(terms) == 1 and self.zero in terms:
            return terms[self.zero]
        return None

    def fold(self, node) -> dict:
        if isinstance(node, ast.Constant):
            v = node.value
            if type(v) not in (int, float):
                self.fail("is not in the polynomial whitelist: constant "
                          f"{v!r} is not a real number")
            if type(v) is float and not math.isfinite(v):
                self.fail("has a coefficient out of range")
            if not v:
                return {}
            if type(v) is int:
                return {self.zero: Fraction(v)}
            # read the literal as written: 0.1 is 1/10, not its binary double
            try:
                c = Fraction(ast.get_source_segment(self.text, node))
            except ValueError:
                self.fail("has a coefficient out of range")
            return {self.zero: c}
        if isinstance(node, ast.Name):
            i = self.index[node.id]
            return {self.zero[:i] + (1,) + self.zero[i + 1:]: Fraction(1)}
        if isinstance(node, ast.UnaryOp) and isinstance(node.op,
                                                        (ast.UAdd, ast.USub)):
            val = self.fold(node.operand)
            return val if isinstance(node.op, ast.UAdd) else _add({}, val, -1)
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)):
            a = self.fold(node.left)
            b = self.fold(node.right)
            if isinstance(node.op, (ast.Add, ast.Sub)):
                return _add(a, b, 1 if isinstance(node.op, ast.Add) else -1)
            if isinstance(node.op, ast.Mult):
                return _mul(a, b, self.text)
            if isinstance(node.op, ast.Div):
                c = self.constant(b)
                if c is None:
                    self.fail("is not in the polynomial whitelist: it "
                              "divides by a non-constant")
                if c == 0:
                    self.fail("divides by zero")
                return {e: v / c for e, v in a.items()}
            n = self.constant(b)
            if n is None or n.denominator != 1:
                self.fail("is not in the polynomial whitelist: powers must "
                          "be constant integers")
            if n < 0:
                self.fail("uses a negative power")
            if n > MAX_POWER:
                self.fail(f"exceeds the power limit {MAX_POWER}")
            out = {self.zero: Fraction(1)}
            for _ in range(int(n)):
                out = _mul(out, a, self.text)
            return out
        what = getattr(node, "op", node)
        self.fail("is not in the polynomial whitelist: "
                  f"{type(what).__name__} is not allowed")


def parse_whitelisted(text: str, variables: tuple[str, ...]) -> Poly:
    """Parse `text` into an exact polynomial over `variables`.

    Rejects anything that is not a polynomial with per-variable degree at
    most MAX_POWER and rational coefficients; see the module docstring for
    the accepted syntax."""
    if not isinstance(text, str) or not text.strip():
        raise SensanError("expression must be a nonempty string")
    variables = tuple(variables)
    text = text.strip()
    try:
        tree = ast.parse(text, mode="eval")
        unknown = {n.id for n in ast.walk(tree)
                   if isinstance(n, ast.Name)} - set(variables)
        if unknown:
            raise SensanError(f"expression {text!r} uses unknown symbols: "
                              f"{', '.join(sorted(unknown))}")
        poly = Poly(variables, _Parser(text, variables).fold(tree.body))
    except SyntaxError as exc:
        raise SensanError(f"cannot parse expression {text!r}: {exc.msg}") from None
    except (RecursionError, MemoryError):
        # the parser and the fold both recurse once per nesting level
        raise SensanError(f"expression {text!r} is nested too deeply") from None
    for name in variables:
        if poly.degree(name) > MAX_POWER:
            raise SensanError(f"expression {text!r} exceeds the power limit "
                              f"{MAX_POWER} in {name}")
    _floats(poly, f"expression {text!r}")
    return poly


def _floats(expr: Poly, label: str = "expression") -> list[float]:
    try:
        return [float(c) for c in expr.terms.values()]
    except OverflowError:
        raise SensanError(f"{label} has a coefficient out of range") from None


def as_array_function(expr: Poly, variables: tuple[str, ...]):
    """Compile an expression to a numpy-broadcasting callable of the
    declared variables, constant expressions included."""
    # (coefficient, ((argument position, power), ...)) per term; every
    # variable that appears must be among `variables`
    pos = {v: tuple(variables).index(v) for v in expr.free_symbols}
    terms = [(c, tuple((pos[v], k) for v, k in zip(expr.variables, e) if k))
             for e, c in zip(expr.terms, _floats(expr))]

    def wrapped(*args):
        # x ** 1 is x, and 1.0 * p is p for a floating p, so neither is
        # computed; the closing 0.0 + ... still turns -0.0 into 0.0, and
        # no array is written in place
        powers = {}
        out = 0.0
        for c, factors in terms:
            val = c
            for j, key in enumerate(factors):
                p = powers.get(key)
                if p is None:
                    i, k = key
                    p = powers[key] = args[i] if k == 1 else args[i] ** k
                val = p if j == 0 and c == 1.0 and _floating(p) else val * p
            out = out + val
        return np.broadcast_to(np.asarray(out, dtype=float),
                               np.broadcast_shapes(*(np.shape(a) for a in args)))

    return wrapped


def _floating(p) -> bool:
    """Whether 1.0 * p has the bits of p: a real floating scalar or array."""
    return isinstance(p, float) or (isinstance(p, (np.ndarray, np.generic))
                                    and p.dtype.kind == "f")
