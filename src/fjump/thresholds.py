"""nu counts, F-threshold brackets, and enumeration of F-jumping exponents.

nu(a, J, e) is the largest r with a^r not inside J^[p^e]; the F-threshold
of a at J is the limit of nu/p^e.  Each finite level e brackets it:

    nu(q)/q  <=  threshold  <=  (nu(q) + 1 + m)/q,        q = p^e,

where m is the generator count.  The width comes from a pigeonhole step: a
product of q'v + m(q'-1) + 1 generators, the i-th taken k_i times, has
sum floor(k_i/q') >= v + 1, so a^{q'v+m(q'-1)+1} lies in (a^{v+1})^[q'].
With v = nu(q), that is inside J^[qq'], so nu(qq') <= q' nu(q) + m(q'-1).

a^r lies in J^[q] exactly when its root (a^r)^[1/q] lies in J, so nu needs
J's Groebner basis and roots only.  By flatness of Frobenius and the step
above with q' = p, nu(pq) lies in [p nu(q), p nu(q) + m(p-1)]
(Mustata-Takagi-Watanabe for m = 1), so nu is walked up one level at a
time from nu(1) = ell - 1, ell the least power of a inside J, testing at
most m(p-1) candidates per level.  A principal ideal (f) takes each root
by digit descent without expanding f^r.

Jumping exponents of the test-ideal family are located by bisecting on
test-ideal equality (the family is constant between jumps and
right-continuous), then snapping to the smallest-denominator rational in
the final bracket.  Denominators of true jumps divide p^a(p^b-1) for
bounded a, b, which fixes the bisection resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb

from .errors import PreconditionError, ResourceLimitError
from .frobroot import _check_e, frobenius_root, power_root
from .groebner import Ideal, ideal_power, normal_form, radical_member
from .oracle import minimal_vectors, monomial_exponents
from .ratutil import multiplicative_order, simplest_between
from .testideal import TauParams, TauResult, test_ideal

_MAX_ELL = 10_000
_MAX_JUMPS = 10_000


@dataclass(frozen=True)
class NuRecord:
    e: int
    q: int
    nu: int


@dataclass(frozen=True)
class ThresholdEstimate:
    """A bracketed F-threshold.  ``guess`` is the smallest-denominator
    admissible rational in [lower, upper] consistent with every recorded
    level; it is a conjecture, so ``certified`` stays False."""

    lower: Fraction
    upper: Fraction
    guess: Fraction | None
    certified: bool
    records: tuple[NuRecord, ...]

    def __post_init__(self):
        if not self.lower <= self.upper:
            raise PreconditionError("threshold bracket is inverted")
        if self.guess is not None and not self.lower <= self.guess <= self.upper:
            raise PreconditionError("threshold guess escapes its bracket")


@dataclass(frozen=True)
class DenomBound:
    """Denominator family for the jumping exponents of a: every jump alpha
    satisfies p^a (p^b - 1) * alpha integral for some a <= a_max, b <= b_max."""

    p: int
    m: int
    d: int
    e0: int
    N: int
    a_max: int
    b_max: int
    max_denominator: int
    cap: int | None = None

    @property
    def capped(self) -> bool:
        return self.cap is not None and self.max_denominator > self.cap

    def describe(self) -> str:
        return (f"denominators divide p^a*(p^b-1) with p={self.p}, "
                f"a <= {self.a_max}, 1 <= b <= {self.b_max}")

    def admits(self, x: Fraction) -> bool:
        den = Fraction(x).denominator
        rest = den
        a = 0
        while rest % self.p == 0:
            rest //= self.p
            a += 1
        if a > self.a_max:
            return False
        if rest == 1:
            return True
        try:
            return multiplicative_order(self.p, rest) <= self.b_max
        except ResourceLimitError:
            return False


@dataclass(frozen=True)
class JumpList:
    """Jumping exponents up to a bound, starting with 0 by convention, and
    the constant test-ideal value on each interval [jumps[i], jumps[i+1])."""

    jumps: tuple[Fraction, ...]
    ideals: tuple[Ideal, ...]
    certified: bool


def _check_nu_preconditions(a: Ideal, J: Ideal):
    if a.is_zero():
        raise PreconditionError("nu needs a nonzero ideal a")
    if a.ring != J.ring:
        raise PreconditionError("a and J must live in one ring")
    for g in a.gens:
        if not radical_member(g, J):
            raise PreconditionError(
                f"a must lie in rad(J): generator {g} does not")


def _nu_setup(a: Ideal, J: Ideal, *, gen_limit, step_limit):
    """Check the preconditions; return J's basis and the least ell with
    a^ell inside J, so that nu(1) = ell - 1."""
    _check_nu_preconditions(a, J)
    gb = J.groebner_basis(step_limit=step_limit)
    for ell in range(1, _MAX_ELL + 1):
        if not _escapes(ideal_power(a, ell, gen_limit=gen_limit), gb):
            return gb, ell
    raise ResourceLimitError(f"no power of a inside J up to {_MAX_ELL}")


def _escapes(b: Ideal, gb) -> bool:
    return not all(normal_form(g, gb).is_zero() for g in b.gens)


def _nu_levels(a: Ideal, J: Ideal, e_min: int, e_max: int, *,
               gen_limit, step_limit, e_limit) -> list[int]:
    """nu(p^e) for e = e_min..e_max from one walk up from nu(1) = ell - 1,
    with the preconditions, J's basis and ell computed once.  Each level
    tests the window (p nu, p nu + m(p - 1)] from the top; its bottom holds
    by flatness of Frobenius, so it is the answer when nothing escapes."""
    gb, ell = _nu_setup(a, J, gen_limit=gen_limit, step_limit=step_limit)
    _check_e(e_max, e_limit)

    def root(r: int, e: int) -> Ideal:
        if len(a.gens) == 1:
            return power_root(a.gens[0], r, e, e_limit=e_limit)
        return frobenius_root(ideal_power(a, r, gen_limit=gen_limit), e,
                              e_limit=e_limit)

    p = a.ring.p
    width = len(a.gens) * (p - 1)
    out = []
    v = ell - 1
    for e in range(1, e_max + 1):
        base = p * v
        v = next((r for r in range(base + width, base, -1)
                  if _escapes(root(r, e), gb)), base)
        out.append(v)
    return out[e_min - 1:]


def nu(a: Ideal, J: Ideal, e: int, *,
       gen_limit: int | None = None,
       step_limit: int | None = None,
       e_limit: int | None = None) -> int:
    """Largest r with a^r not contained in J^[p^e].

    Containment of a^r in the bracket power is equivalent to the level-e
    root of a^r landing inside J (that is exactly the minimality in the
    definition of the root), so only one Groebner basis -- J's -- is ever
    needed.  nu is walked up from nu(1) = ell - 1 one level at a time,
    testing at most m(p - 1) candidates per level, m the generator count;
    for a = (f) each root is taken by digit descent (``power_root``)."""
    if e < 1:
        raise PreconditionError("nu needs e >= 1")
    return _nu_levels(a, J, e, e, gen_limit=gen_limit, step_limit=step_limit,
                      e_limit=e_limit)[0]


def f_threshold(a: Ideal, J: Ideal, e_max: int, *,
                cap: int | None = None,
                gen_limit: int | None = None,
                step_limit: int | None = None,
                e_limit: int | None = None) -> ThresholdEstimate:
    """Bracket the F-threshold of a at J from the levels e = 1..e_max; the
    nu records all come from one walk, as in ``nu``."""
    if e_max < 1:
        raise PreconditionError("f_threshold needs e_max >= 1")
    nus = _nu_levels(a, J, 1, e_max, gen_limit=gen_limit,
                     step_limit=step_limit, e_limit=e_limit)
    records = [NuRecord(e, a.ring.p ** e, v) for e, v in enumerate(nus, 1)]
    m = len(a.gens)
    last = records[-1]
    lower = Fraction(last.nu, last.q)
    upper = Fraction(last.nu + m + 1, last.q)
    guess = _threshold_guess(a, records, lower, upper, m, cap)
    return ThresholdEstimate(lower, upper, guess, False, tuple(records))


def _threshold_guess(a, records, lower, upper, m, cap):
    p = a.ring.p
    db = denominator_bound(a, cap)
    # Denominators past p^e_max cannot be told apart by the recorded data.
    d_limit = min(cap if cap is not None else db.max_denominator,
                  records[-1].q * (m + 2))
    for den in range(1, d_limit + 1):
        n0 = ceil(lower * den)
        n1 = int(upper * den)  # floor
        for num in range(n0, n1 + 1):
            x = Fraction(num, den)
            if x.denominator != den:
                continue  # already tried in reduced form
            if not db.admits(x):
                continue
            if _consistent_with_records(x, records, m, p):
                return x
    return None


def _consistent_with_records(x: Fraction, records, m: int, p: int) -> bool:
    for rec in records:
        if not Fraction(rec.nu, rec.q) <= x <= Fraction(rec.nu + m + 1, rec.q):
            return False
        scaled = x * rec.q
        if scaled.denominator != 1 and rec.nu != ceil(scaled) - 1:
            # The ceiling relation pins nu whenever x*q is fractional; at
            # integral x*q it provably fails in easy cases, so only the
            # bracket above is enforced there.
            return False
    return True


def fpt(a: Ideal, e_max: int, *,
        cap: int | None = None,
        gen_limit: int | None = None,
        step_limit: int | None = None,
        e_limit: int | None = None) -> ThresholdEstimate:
    """The F-pure threshold data: the F-threshold at the maximal ideal
    (x_1, ..., x_n); every generator must vanish at the origin."""
    ring = a.ring
    for g in a.gens:
        if g.coeff((0,) * ring.nvars):
            raise PreconditionError(
                f"fpt needs generators vanishing at the origin; {g} does not")
    if a.is_zero():
        raise PreconditionError("fpt needs a nonzero ideal")
    J = Ideal(ring, [ring.var(i) for i in range(ring.nvars)])
    return f_threshold(a, J, e_max, cap=cap, gen_limit=gen_limit,
                       step_limit=step_limit, e_limit=e_limit)


def denominator_bound(a: Ideal, cap: int | None = None) -> DenomBound:
    """Instantiate the denominator family for a: with m generators of degree
    at most d and e0 minimal with p^e0 > m*d, every jump's denominator
    divides p^a(p^b-1) for some a <= e0 + N, b <= N = C(m*d + n, n).  A
    monomial ideal is counted by its minimal generators, whatever the list."""
    ring = a.ring
    p = ring.p
    if all(g.is_term() for g in a.gens):
        vecs = minimal_vectors(monomial_exponents(a))
        m, degs = len(vecs), [sum(v) for v in vecs]
    else:
        m, degs = len(a.gens), [g.total_degree() for g in a.gens]
    d = max(degs) if degs else 0
    md = m * d
    e0 = 0
    while p**e0 <= md:
        e0 += 1
    N = comb(md + ring.nvars, ring.nvars)
    a_max = e0 + N
    b_max = N
    max_den = p**a_max * (p**b_max - 1)
    return DenomBound(p, m, d, e0, N, a_max, b_max, max_den, cap)


def _family_members(db: DenomBound) -> list[int]:
    # Every admissible denominator p^a * t with t | p^b - 1 divides
    # p^a_max * (p^b - 1), so these members carry the whole family.  Their
    # p-free parts have multiplicative order at most b_max, which keeps
    # test-ideal evaluations at family points certifiable.
    return [db.p ** db.a_max] + [db.p ** db.a_max * (db.p ** b - 1)
                                 for b in range(1, db.b_max + 1)]


def _family_floor(x: Fraction, db: DenomBound) -> Fraction:
    """The largest family-admissible rational <= x.  Since every jump is
    admissible, this never crosses a jump, so the test-ideal value at the
    result equals the value at x itself."""
    best = Fraction(0)
    for dm in _family_members(db):
        cand = Fraction((x.numerator * dm) // x.denominator, dm)
        if cand > best:
            best = cand
    return best


def _family_below(x: Fraction, db: DenomBound) -> Fraction:
    """The largest family-admissible rational strictly below x."""
    best = Fraction(0)
    for dm in _family_members(db):
        n = -((-x.numerator * dm) // x.denominator) - 1  # ceil(x*dm) - 1, so n/dm < x
        if n > 0 and Fraction(n, dm) > best:
            best = Fraction(n, dm)
    return best


def jumping_exponents(a: Ideal, bound, params: TauParams | None = None,
                      cap: int | None = None, *,
                      gen_limit: int | None = None,
                      step_limit: int | None = None,
                      e_limit: int | None = None) -> JumpList:
    """All jumping exponents of the test-ideal family of a in [0, bound].

    Between consecutive jumps the family is constant, so each next jump is
    bisected on ideal equality against the value at the last jump, down to
    an interval shorter than 1/D^2 (D from the denominator family or the
    user cap) -- short enough to contain at most one rational with
    denominator <= D.  That candidate is accepted once the test ideal at it
    differs from the one just below it."""
    params = params or TauParams()
    bound = Fraction(bound)
    if a.is_zero():
        raise PreconditionError("jumping exponents need a nonzero ideal")
    if bound <= 0:
        raise PreconditionError("the search bound must be positive")
    db = denominator_bound(a, cap)
    D = cap if cap is not None else db.max_denominator

    memo: dict[Fraction, TauResult] = {}

    def tau_at(c: Fraction) -> TauResult:
        # The family is constant between jumps and every jump is admissible,
        # so the value at c equals the value at the family floor of c; the
        # floor's denominator has tame cyclic structure no matter how deep
        # the bisection goes, keeping the evaluation certifiable.
        c = _family_floor(c, db)
        got = memo.get(c)
        if got is None:
            got = test_ideal(a, c, params, gen_limit=gen_limit,
                             step_limit=step_limit, e_limit=e_limit)
            memo[c] = got
        return got

    certified = True
    jumps = [Fraction(0)]
    base = tau_at(Fraction(0))
    certified &= base.certified
    ideals = [base.ideal]
    current = Fraction(0)
    width = Fraction(1, D * D)

    for _ in range(_MAX_JUMPS):
        top = tau_at(bound)
        certified &= top.certified
        if top.ideal == ideals[-1]:
            break
        lo, hi = current, bound
        while hi - lo >= width:
            mid = (lo + hi) / 2
            r = tau_at(mid)
            certified &= r.certified
            if r.ideal == ideals[-1]:
                lo = mid
            else:
                hi = mid
        cand = simplest_between(lo, hi, include_lo=False, include_hi=True)
        if cand.denominator > D:
            raise ResourceLimitError(
                f"next jump after {current} has denominator beyond {D}; "
                "raise the denominator cap")
        below = max(_family_below(cand, db), lo, current)
        at_cand = tau_at(cand)
        at_below = tau_at(below)
        certified &= at_cand.certified and at_below.certified
        if at_cand.ideal == at_below.ideal:
            raise ResourceLimitError(
                f"candidate {cand} rejected: the true jump in "
                f"({lo}, {hi}] needs a denominator beyond {D}; raise the cap")
        jumps.append(cand)
        ideals.append(at_cand.ideal)
        current = cand
    else:
        raise ResourceLimitError(f"more than {_MAX_JUMPS} jumps; giving up")

    certified = certified and all(db.admits(j) for j in jumps)
    return JumpList(tuple(jumps), tuple(ideals), certified)
