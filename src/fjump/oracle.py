"""Independent reference implementations used to cross-check the fast paths.

These are deliberately literal: the brute-force nu counts memberships one
power at a time through the Groebner engine, the raw test-ideal chain is
computed with no Skoda rewriting and no digit descent, and the root of a
monomial ideal floors its exponent vectors componentwise.  The root of a
product of powers of monomial ideals comes from term surgery and the digit
descent, independent of the Newton-polyhedron closed form it checks.  They
ship in the library (not only the test tree) so the command line can replay
a computation in ``--oracle`` mode.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil

from .errors import FjumpError, PreconditionError, ResourceLimitError
from .frobroot import _Digits, bracket_power, frobenius_root
from .groebner import Ideal, _Budget, _reduce_to_zero, ideal_power
from .multipoly import RingCtx


def monomial_exponents(b: Ideal) -> list[tuple[int, ...]]:
    """Exponent vectors of an ideal with monomial generators."""
    vecs = []
    for g in b.gens:
        if not g.is_term():
            raise PreconditionError(f"generator {g} is not a monomial")
        vecs.append(g.lead_term()[0])
    return vecs


def minimal_vectors(vecs) -> tuple[tuple[int, ...], ...]:
    """Componentwise-minimal elements, sorted; the canonical generator
    exponents of the monomial ideal the vectors generate."""
    vecs = sorted(set(vecs), key=lambda v: (sum(v), v))
    out = []
    for v in vecs:
        if not any(all(x <= y for x, y in zip(w, v)) for w in out):
            out.append(v)
    return tuple(sorted(out))


def monomial_ideal(ring: RingCtx, vecs) -> Ideal:
    return Ideal(ring, [ring.monomial(v) for v in minimal_vectors(vecs)])


def root_monomial(b: Ideal, e: int) -> Ideal:
    """The level-e root of a monomial ideal: floor-divide each generator's
    exponent vector by q = p^e.  Minimality is immediate: x^w covers x^v
    at level e exactly when v >= q*w, i.e. w <= floor(v/q)."""
    vecs = monomial_exponents(b)
    if e == 0:
        return b
    if e < 0:
        raise FjumpError("Frobenius level e must be nonnegative")
    q = b.ring.p ** e
    return monomial_ideal(b.ring, [tuple(v // q for v in vec) for vec in vecs])


def power_root_vectors(groups, ring: RingCtx, e: int, *,
                       gen_limit: int | None = None) -> frozenset:
    """Minimal exponent vectors of (a_1^(r_1) ... a_k^(r_k))^[1/p^e], the
    a_i the monomial ideals of the groups (vectors, r_i), by e levels of
    digit descent (``frobroot._Digits``) without expanding the product;
    ``gen_limit`` bounds the powers left after the last level."""
    if e < 0 or any(r < 0 for _, r in groups):
        raise FjumpError("levels and group powers must be nonnegative")
    digits = _Digits([monomial_ideal(ring, vecs) for vecs, _ in groups])
    state = digits.descend({tuple(r for _, r in groups): (ring.one(),)}, e)
    return frozenset(minimal_vectors(
        monomial_exponents(digits.expand(state, gen_limit))))


# ---------------------------------------------------------------------------
# Literal brute-force references.


def nu_bruteforce(a: Ideal, J: Ideal, e: int, *,
                  gen_limit: int | None = None,
                  step_limit: int | None = None,
                  max_r: int = 100_000) -> int:
    """Largest r with a^r not contained in J^[p^e], found by counting up
    from r = 0 and testing every generator of a^r by Groebner reduction.
    The bracket's basis gets step_limit steps, and all the reductions
    share one budget of step_limit more.  Meant for small instances; the
    fast path in ``thresholds`` must agree."""
    if a.is_zero():
        raise PreconditionError("nu is undefined for the zero ideal")
    bracket = bracket_power(J, e)
    gb = bracket.groebner_basis(step_limit=step_limit)
    budget = _Budget(step_limit)
    last_outside = None
    r = 0
    while r <= max_r:
        power = ideal_power(a, r, gen_limit=gen_limit)
        if _reduce_to_zero(power.gens, gb, budget):
            return last_outside if last_outside is not None else 0
        last_outside = r
        r += 1
    raise ResourceLimitError(f"nu_bruteforce exceeded {max_r} powers")


def test_ideal_chain(a: Ideal, c, e_max: int, *,
                     gen_limit: int | None = None) -> list[tuple[int, Ideal]]:
    """The raw chain  (a^ceil(c p^e))^[1/p^e]  for e = 1..e_max, with no
    Skoda rewriting and no digit descent: each a^r is expanded."""
    c = Fraction(c)
    if c < 0:
        raise PreconditionError("the exponent c must be nonnegative")
    out = []
    for e in range(1, e_max + 1):
        r = ceil(c * a.ring.p ** e)
        out.append((e, frobenius_root(ideal_power(a, r, gen_limit=gen_limit), e)))
    return out
