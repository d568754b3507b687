import random
from fractions import Fraction

import pytest

from fjump import FjumpError, parse_rational, simplest_between
from fjump.ratutil import format_rational, multiplicative_order


def brute_simplest(lo, hi, include_lo, include_hi, max_den=200):
    best = None
    for d in range(1, max_den + 1):
        n = (lo * d).__ceil__()
        while Fraction(n, d) <= hi:
            x = Fraction(n, d)
            ok_lo = x > lo or (x == lo and include_lo)
            ok_hi = x < hi or (x == hi and include_hi)
            if ok_lo and ok_hi and x.denominator == d:
                if best is None:
                    best = x
            n += 1
        if best is not None:
            return best
    return None


def test_parse_rational():
    assert parse_rational("3") == 3
    assert parse_rational("5/6") == Fraction(5, 6)
    assert parse_rational(" 10/4 ") == Fraction(5, 2)
    for bad in ("1/0", "-1/2", "a/b", "1/2/3", ""):
        with pytest.raises(FjumpError):
            parse_rational(bad)
    assert format_rational(Fraction(5, 2)) == "5/2"
    assert format_rational(Fraction(4, 2)) == "2"


def test_simplest_between_known_values():
    assert simplest_between(Fraction(15, 16), Fraction(17, 16)) == 1
    assert simplest_between(Fraction(40, 49), Fraction(6, 7)) == Fraction(5, 6)
    assert simplest_between(Fraction(5, 16), Fraction(7, 16)) == Fraction(1, 3)
    assert simplest_between(Fraction(0), Fraction(1, 7)) == Fraction(1, 7)
    assert simplest_between(Fraction(1), Fraction(3, 2)) == Fraction(3, 2)
    assert simplest_between(Fraction(1), Fraction(3, 2), include_lo=True) == 1


def test_simplest_between_brute_force():
    rnd = random.Random(77)
    for _ in range(400):
        d1 = rnd.randint(1, 40)
        d2 = rnd.randint(1, 40)
        lo = Fraction(rnd.randint(0, 80), d1)
        hi = lo + Fraction(rnd.randint(0, 60), d2)
        inc_lo = rnd.random() < 0.5
        inc_hi = rnd.random() < 0.5
        if lo == hi and not (inc_lo and inc_hi):
            continue
        want = brute_simplest(lo, hi, inc_lo, inc_hi)
        if want is None:
            continue
        got = simplest_between(lo, hi, include_lo=inc_lo, include_hi=inc_hi)
        assert got == want, (lo, hi, inc_lo, inc_hi)


def test_multiplicative_order():
    assert multiplicative_order(2, 1) == 1
    assert multiplicative_order(2, 3) == 2
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(3, 8) == 2
    assert multiplicative_order(7, 6) == 1
    for t in (3, 5, 7, 9, 11, 63):
        b = multiplicative_order(2, t)
        assert pow(2, b, t) == 1
        assert all(pow(2, k, t) != 1 for k in range(1, b))
