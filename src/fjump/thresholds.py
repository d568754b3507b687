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
from itertools import product
from math import comb

from .errors import PreconditionError, ResourceLimitError
from .frobroot import _check_e, frobenius_root, power_root
from .groebner import Ideal, ideal_power, is_subset, radical_member
from .newton import facets
from .oracle import minimal_vectors, monomial_exponents
from .ratutil import multiplicative_order, simplest_between
from .testideal import TauParams, TauResult, _split_p, test_ideal

_MAX_ELL = 10_000
_MAX_JUMPS = 10_000


@dataclass(frozen=True)
class NuRecord:
    e: int
    q: int
    nu: int


@dataclass(frozen=True)
class ThresholdEstimate:
    """A bracketed F-threshold and a guess inside the bracket.  The guess is
    the exact threshold, with ``certified`` True, for monomial a at an
    m-primary monomial J; otherwise it is the simplest rational in the
    cell the records allow, a conjecture with ``certified`` False."""

    lower: Fraction
    upper: Fraction
    guess: Fraction
    certified: bool
    records: tuple[NuRecord, ...]

    def __post_init__(self):
        if not self.lower <= self.upper:
            raise PreconditionError("threshold bracket is inverted")
        if not self.lower <= self.guess <= self.upper:
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

    def describe(self) -> str:
        return (f"denominators divide p^a*(p^b-1) with p={self.p}, "
                f"a <= {self.a_max}, 1 <= b <= {self.b_max}")

    def admits(self, x: Fraction) -> bool:
        a, rest = _split_p(self.p, Fraction(x).denominator)
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


def _nu_setup(a: Ideal, J: Ideal, *, gen_limit, step_limit) -> int:
    """Check the preconditions; return the least ell with a^ell inside J,
    so that nu(1) = ell - 1."""
    if a.is_zero():
        raise PreconditionError("nu needs a nonzero ideal a")
    if a.ring != J.ring:
        raise PreconditionError("a and J must live in one ring")
    for g in a.gens:
        if not radical_member(g, J, step_limit=step_limit):
            raise PreconditionError(
                f"a must lie in rad(J): generator {g} does not")
    for ell in range(1, _MAX_ELL + 1):
        if is_subset(ideal_power(a, ell, gen_limit=gen_limit), J,
                     step_limit=step_limit):
            return ell
    raise ResourceLimitError(f"no power of a inside J up to {_MAX_ELL}")


def _nu_levels(a: Ideal, J: Ideal, e_min: int, e_max: int, *,
               gen_limit, step_limit, e_limit) -> list[int]:
    """nu(p^e) for e = e_min..e_max from one walk up from nu(1) = ell - 1,
    with the preconditions and ell found once (J caches its basis).  Each
    level tests the window (p nu, p nu + m(p - 1)] from the top; its bottom
    holds by flatness of Frobenius, so it is the answer when nothing
    escapes."""
    ell = _nu_setup(a, J, gen_limit=gen_limit, step_limit=step_limit)
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
                  if not is_subset(root(r, e), J, step_limit=step_limit)),
                 base)
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
                gen_limit: int | None = None,
                step_limit: int | None = None,
                e_limit: int | None = None) -> ThresholdEstimate:
    """Bracket the F-threshold c of a at J from the levels e = 1..e_max (one
    nu walk, as in ``nu``) and guess c.  For monomial a at an m-primary
    monomial J the guess is c itself, certified (``_monomial_threshold``).
    For a = (f), nu(q) = ceil(c q) - 1 (Mustata-Takagi-Watanabe), so the
    guess is the simplest rational in (nu/q, (nu + 1)/q] at the last level;
    otherwise it is the simplest one in the bracket."""
    if e_max < 1:
        raise PreconditionError("f_threshold needs e_max >= 1")
    nus = _nu_levels(a, J, 1, e_max, gen_limit=gen_limit,
                     step_limit=step_limit, e_limit=e_limit)
    records = [NuRecord(e, a.ring.p ** e, v) for e, v in enumerate(nus, 1)]
    last = records[-1]
    lower = Fraction(last.nu, last.q)
    upper = Fraction(last.nu + len(a.gens) + 1, last.q)
    guess = _monomial_threshold(a, J)
    certified = guess is not None
    if guess is None and len(a.gens) == 1:
        guess = simplest_between(lower, Fraction(last.nu + 1, last.q))
    elif guess is None:
        guess = simplest_between(lower, upper, include_lo=True)
    return ThresholdEstimate(lower, upper, guess, certified, tuple(records))


def _monomial_threshold(a: Ideal, J: Ideal) -> Fraction | None:
    """c^J(a) for monomial a at an m-primary monomial J, else None.  By BMS
    tau(a^c) lies in J exactly when c >= c^J(a), and by the Newton closed
    form x^v lies in tau(a^c) exactly when c < g(v) = min over the facets
    <W, u> >= H of <W, v + 1>/H; so c^J(a) is max g(v) over x^v outside J."""
    if not all(g.is_term() for g in a.gens + J.gens):
        return None
    J_vecs = minimal_vectors(monomial_exponents(J))
    box = [min((v[i] for v in J_vecs if sum(v) == v[i]), default=None)
           for i in range(a.ring.nvars)]
    if None in box:
        return None
    fcts = facets(monomial_exponents(a))
    return max((min(Fraction(sum(w * (x + 1) for w, x in zip(W, v)), H)
                    for W, H in fcts)
                for v in product(*map(range, box))
                if not any(all(x >= y for x, y in zip(v, u)) for u in J_vecs)),
               default=Fraction(0))


def fpt(a: Ideal, e_max: int, *,
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
    return f_threshold(a, J, e_max, gen_limit=gen_limit,
                       step_limit=step_limit, e_limit=e_limit)


def denominator_bound(a: Ideal) -> DenomBound:
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
    return DenomBound(p, m, d, e0, N, a_max, b_max, max_den)


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
    if cap is not None and cap < 1:
        raise PreconditionError("the denominator cap must be at least 1")
    db = denominator_bound(a)
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
