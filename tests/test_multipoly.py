import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fjump import (EXP_LIMIT, GREVLEX, LEX, FjumpError, Poly, PolyParseError,
                   PrimeField, RingCtx, elimination_order, parse)

from conftest import random_poly, ring


R2 = ring(2, "x", "y")
R3 = ring(3, "x")
R5 = ring(5, "x", "y", "z")


def test_ring_validation():
    with pytest.raises(FjumpError):
        RingCtx(PrimeField(5), ())
    with pytest.raises(FjumpError):
        RingCtx(PrimeField(5), ("x", "x"))
    with pytest.raises(FjumpError):
        RingCtx(PrimeField(5), ("2bad",))


def test_arith_examples():
    f = R2.poly("x+y")
    assert f * f == R2.poly("x^2+y^2")
    g = random_poly(__import__("random").Random(1), R2)
    assert g + R2.zero() == g
    assert R3.poly("x+1") * R3.poly("x+2") == R3.poly("x^2+2")


def test_pow_examples():
    assert R5.poly("x+y") ** 0 == R5.one()
    assert R2.poly("x+y") ** 2 == R2.poly("x^2+y^2")
    assert R5.poly("x") ** 3 == R5.poly("x^3")


def test_total_degree():
    assert R2.poly("x^3*y^2").total_degree() == 5
    assert R2.one().total_degree() == 0
    assert R2.zero().total_degree() is None


def test_parse_examples():
    f = R2.poly("x^3*y^2 + x*y")
    assert f.num_terms() == 2
    assert ring(5, "x").poly("7*x") == ring(5, "x").poly("2*x")
    with pytest.raises(PolyParseError) as exc:
        R2.poly("x^")
    assert exc.value.offset == 2


def test_parse_minus_and_whitespace():
    Rx = ring(5, "x")
    assert Rx.poly("-x") == Rx.poly("4*x")
    assert Rx.poly("x - 2") == Rx.poly("x + 3")
    assert Rx.poly("  x ^ 2 *   x") == Rx.poly("x^3")
    assert Rx.poly("0") == Rx.zero()


def test_parse_errors():
    with pytest.raises(PolyParseError):
        R2.poly("x + + y")
    with pytest.raises(PolyParseError) as exc:
        R2.poly("x*q")
    assert "unknown variable" in str(exc.value)
    with pytest.raises(PolyParseError):
        R2.poly("")
    with pytest.raises(PolyParseError):
        R2.poly(f"x^{EXP_LIMIT * 2}")
    with pytest.raises(PolyParseError):
        R2.poly("x$y")


_BIG = f"x^{EXP_LIMIT}"


@pytest.mark.parametrize("text,message,offset", [
    ("x^", "expected an exponent", 2),
    ("x ^ ", "expected an exponent", 4),
    ("x^y", "expected an exponent", 2),
    ("x + + y", "expected a variable name", 4),
    ("- - x", "expected a variable name", 2),
    ("x*", "expected a variable name", 2),
    ("2*3", "expected a variable name", 2),
    ("", "expected a variable name", 0),
    (" ", "expected a variable name", 1),
    ("x y", "expected '+' or '-' between terms", 2),
    ("2^3", "expected '+' or '-' between terms", 1),
    ("x^2y", "expected '+' or '-' between terms", 3),
    ("x*q", "unknown variable 'q'", 2),
    ("xy", "unknown variable 'xy'", 0),
    ("x$y", "unexpected character '$'", 1),
    ("x + + y$", "unexpected character '$'", 7),
    ("x*q + é", "unexpected character 'é'", 6),
    (f"x^{EXP_LIMIT * 2}", "exponent overflow", 2),
    # Each exponent fits; the overflow appears once they are added, and is
    # reported at the token after the factor that overflows.
    (_BIG + "*x", "exponent overflow", len(_BIG) + 2),
    (_BIG + " * y*x^2 + y", "exponent overflow", len(_BIG) + 9),
    # Past the interpreter's limit on the digits int() reads.
    ("x + x^" + "9" * 5000, "number too long", 6),
])
def test_parse_error_table(text, message, offset):
    with pytest.raises(PolyParseError) as exc:
        parse(text, R2)
    assert (exc.value.message, exc.value.offset) == (message, offset)


def test_parse_accepts_unicode_digits_and_spaces():
    assert parse("x^\u0662 +\u00a0\u0663*y", R2) == R2.poly("x^2 + y")


def test_orders():
    # grevlex: degree first, then the rightmost variable counts against.
    a, b = (2, 0), (0, 2)
    assert GREVLEX.key(a) > GREVLEX.key(b)
    assert LEX.key((1, 0)) > LEX.key((0, 5))
    elim = elimination_order(1)
    assert elim.key((1, 0)) > elim.key((0, 7))
    with pytest.raises(FjumpError):
        elimination_order(0)


def test_canonical_printing_is_sorted():
    f = R5.poly("y + x^2 + 1 + x*y*z")
    assert str(f) == "x*y*z + x^2 + y + 1"


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**64), st.data())
def test_roundtrip_random(seed, data):
    import random

    rnd = random.Random(seed)
    R = [R2, R3, R5][data.draw(st.integers(0, 2))]
    f = random_poly(rnd, R, max_degree=6, max_terms=6)
    assert parse(str(f), R) == f


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**64))
def test_ring_axioms_random(seed):
    import random

    rnd = random.Random(seed)
    R = R5 if seed % 2 else R2
    f = random_poly(rnd, R)
    g = random_poly(rnd, R)
    h = random_poly(rnd, R)
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * (g + h) == f * g + f * h
    assert (f * g) * h == f * (g * h)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_frobenius_additivity(p):
    import random

    rnd = random.Random(p)
    R = ring(p, "x", "y")
    for _ in range(25):
        f = random_poly(rnd, R)
        g = random_poly(rnd, R)
        assert (f + g) ** p == f**p + g**p


def test_pow_matches_repeated_multiplication():
    import random

    rnd = random.Random(7)
    for R in (R2, ring(3, "x", "y")):
        for _ in range(10):
            f = random_poly(rnd, R, max_degree=3)
            acc = R.one()
            for r in range(7):
                assert f**r == acc
                acc = acc * f


def test_substitute():
    f = R2.poly("x^2 + x*y")
    img = f.substitute(R2, [R2.poly("y"), R2.poly("x+y")])
    assert img == R2.poly("y^2 + y*x + y^2")
    small = ring(2, "x")
    proj = f.substitute(small, [small.poly("x"), small.zero()])
    assert proj == small.poly("x^2")


def test_mismatched_rings_rejected():
    from fjump import RingMismatchError

    with pytest.raises(RingMismatchError):
        R2.poly("x") + ring(2, "x", "z").poly("x")
