"""Exact helpers on nonnegative rationals: Stern-Brocot search for the
simplest fraction in an interval, multiplicative orders, and the
command-line rational syntax ``num`` / ``num/den``."""

from __future__ import annotations

from fractions import Fraction

from .errors import FjumpError, ResourceLimitError


def parse_rational(text: str) -> Fraction:
    """Parse ``num`` or ``num/den`` with nonnegative decimal integers."""
    s = text.strip()
    num_s, sep, den_s = s.partition("/")
    try:
        num = int(num_s)
        den = int(den_s) if sep else 1
    except ValueError:
        raise FjumpError(f"bad rational {text!r}: expected num or num/den") from None
    if num < 0 or den < 0:
        raise FjumpError(f"bad rational {text!r}: parts must be nonnegative")
    if sep and den == 0:
        raise FjumpError(f"bad rational {text!r}: denominator zero")
    return Fraction(num, den)


def format_rational(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _simplest_in_unit(lo: Fraction, hi: Fraction, inc_lo: bool, inc_hi: bool) -> Fraction:
    # Invariant: 0 <= lo < hi or (lo == hi and both endpoints included).
    n = lo.numerator // lo.denominator  # floor(lo)
    lo -= n
    hi -= n
    if lo == 0 and inc_lo:
        return Fraction(n)
    if hi > 1 or (hi == 1 and inc_hi):
        return Fraction(n + 1)
    # Now 0 <= lo < hi <= 1 inside one unit interval; recurse on reciprocals.
    # x in (lo, hi) iff 1/x in (1/hi, 1/lo), with endpoint inclusion swapped.
    if lo == 0:
        # x <= hi (or < hi): smallest denominator means 1/m with minimal m.
        m = -((-hi.denominator) // hi.numerator)  # ceil(1/hi)
        if not inc_hi and Fraction(1, m) == hi:
            m += 1
        return Fraction(n) + Fraction(1, m)
    inner = _simplest_in_unit(1 / hi, 1 / lo, inc_hi, inc_lo)
    return Fraction(n) + 1 / inner


def simplest_between(lo: Fraction, hi: Fraction, *, include_lo: bool = False,
                     include_hi: bool = True) -> Fraction:
    """The smallest-denominator rational in the interval [lo, hi] with the
    requested endpoint inclusion; equal-denominator ties resolve to the
    smaller value.  Both endpoints must be >= 0."""
    lo = Fraction(lo)
    hi = Fraction(hi)
    if lo < 0 or hi < lo or (lo == hi and not (include_lo and include_hi)):
        raise FjumpError("empty or negative interval")
    if lo == hi:
        return lo
    return _simplest_in_unit(lo, hi, include_lo, include_hi)


def multiplicative_order(p: int, t: int, *, limit: int = 2_000_000) -> int:
    """Least b >= 1 with p^b = 1 (mod t); requires gcd(p, t) = 1."""
    if t <= 1:
        return 1
    acc = p % t
    b = 1
    while acc != 1:
        acc = (acc * p) % t
        b += 1
        if b > limit:
            raise ResourceLimitError(f"multiplicative order of {p} mod {t} exceeds {limit}")
    return b
