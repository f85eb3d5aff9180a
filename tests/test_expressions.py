from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensan.errors import SensanError
from sensan.expressions import (Poly, _floats, as_array_function,
                                parse_whitelisted)


def test_parse_simple_polynomials():
    e = parse_whitelisted("u*v + u**2", ("u", "v"))
    assert e.terms == {(1, 1): 1, (2, 0): 1}
    assert e.free_symbols == {"u", "v"}


def test_parse_rationalizes_coefficients():
    e = parse_whitelisted("0.5*x", ("x",))
    assert e.terms == {(1,): Fraction(1, 2)}
    assert all(type(c) is Fraction for c in e.terms.values())


def test_parse_allows_division_by_constants():
    e = parse_whitelisted("x/2 + 3", ("x",))
    assert e.terms == {(1,): Fraction(1, 2), (0,): Fraction(3)}


def test_parse_rejects_unknown_symbols():
    with pytest.raises(SensanError, match="unknown symbols: y"):
        parse_whitelisted("x + y", ("x",))


def test_parse_rejects_non_polynomial():
    for text in ("1/x", "x**-1", "x**5"):
        with pytest.raises(SensanError):
            parse_whitelisted(text, ("x",))


def test_parse_degree_limit_is_four():
    parse_whitelisted("x**4", ("x",))
    with pytest.raises(SensanError, match="power limit"):
        parse_whitelisted("x**4 * x", ("x",))


def test_parse_rejects_forbidden_characters():
    for text in ("x!", "x; import os", "x^2", "f(x)=x"):
        with pytest.raises(SensanError):
            parse_whitelisted(text, ("x",))


def test_parse_rejects_empty():
    with pytest.raises(SensanError, match="nonempty"):
        parse_whitelisted("   ", ("x",))


def test_symbols_are_real():
    # the derivative is exact: 2*x with an integer coefficient, no rounding
    e = parse_whitelisted("x**2", ("x",))
    assert e.diff("x") == parse_whitelisted("2*x", ("x",))
    assert e.diff("x").terms == {(1,): Fraction(2)}


def test_as_array_function_broadcasts():
    e = parse_whitelisted("u + 2*v", ("u", "v"))
    f = as_array_function(e, ("u", "v"))
    u = np.array([0.0, 1.0])
    v = np.array([1.0, 3.0])
    np.testing.assert_allclose(f(u, v), [2.0, 7.0])


def test_as_array_function_constant_expression():
    f = as_array_function(parse_whitelisted("3", ("x",)), ("x",))
    out = f(np.zeros((2, 3)))
    assert out.shape == (2, 3)
    assert np.all(out == 3.0)


def _term_by_term(expr, variables, args):
    """The compiled function's value as every power and every coefficient
    product computed, x ** 1 and 1.0 * p included, then 0.0 + the sum."""
    pos = {v: tuple(variables).index(v) for v in expr.free_symbols}
    powers = {}
    out = 0.0
    for e, c in zip(expr.terms, _floats(expr)):
        val = c
        for v, k in zip(expr.variables, e):
            if k:
                key = (pos[v], k)
                if key not in powers:
                    powers[key] = args[pos[v]] ** k
                val = val * powers[key]
        out = out + val
    return np.broadcast_to(np.asarray(out, dtype=float),
                           np.broadcast_shapes(*(np.shape(a) for a in args)))


_SPECIAL = [0.0, -0.0, 1.0, -1.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324,
            1e300, -3.5]
_COEFS = st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2),
                          Fraction(3), Fraction(1, 3), Fraction(-7, 5),
                          Fraction(10) ** 20])
_EXPONENTS = st.tuples(st.integers(0, 4), st.integers(0, 4))
_ARGUMENT = st.one_of(
    st.sampled_from(_SPECIAL),
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.one_of(st.sampled_from(_SPECIAL), st.floats()), min_size=1,
             max_size=6).map(np.array),
    st.lists(st.sampled_from(_SPECIAL), min_size=6, max_size=6).map(
        lambda a: np.array(a).reshape(2, 3)),
    st.lists(st.floats(), min_size=3, max_size=3).map(
        lambda a: np.array(a).reshape(1, 3)),
    st.integers(-2 ** 40, 2 ** 40),
    st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=1, max_size=4).map(
        lambda a: np.array(a, dtype=np.int64)))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(_EXPONENTS, _COEFS, max_size=5),
       _ARGUMENT, _ARGUMENT)
def test_compiled_function_gives_the_term_by_term_bits(terms, x, y):
    """Skipping x ** 1 and a unit coefficient's product changes no bit: on
    -0.0, NaN, infinities, subnormals and finite floats, scalar and 1-d and
    2-d arguments alike, and on integers, whose products wrap where a
    float's would not, repeated factors and constants included; a
    broadcast that fails, or a Python float power that overflows, fails on
    both. The arguments are read-only, so an in-place write raises."""
    expr = Poly(("x", "y"), terms)
    f = as_array_function(expr, ("x", "y"))
    for a in (x, y):
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    with np.errstate(all="ignore"):
        try:
            want = _term_by_term(expr, ("x", "y"), (x, y))
        except (ValueError, OverflowError) as exc:
            with pytest.raises(type(exc)):
                f(x, y)
            return
        got = f(x, y)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


# inputs outside "rational coefficients" that a computer-algebra parser
# would read as constants, attributes, branches or infinities
OUTSIDE_THE_WHITELIST = (
    "pi*x", "E*x", "oo*x", "nan", "I*x", "S", "x.real", "x/0",
    "x if x else 1", "x/x", "1j*x", "True*x", "1e400*x", "x**0.5", "x**x",
)


def test_parse_rejects_inputs_outside_the_whitelist():
    for text in OUTSIDE_THE_WHITELIST:
        with pytest.raises(SensanError, match="expression"):
            parse_whitelisted(text, ("x",))


def test_parse_rejects_over_deep_input():
    for text in ("-" * 5000 + "x", "+".join(["x"] * 3000)):
        with pytest.raises(SensanError, match="nested too deeply"):
            parse_whitelisted(text, ("x",))
