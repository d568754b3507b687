"""Independent reference implementations used to cross-check the fast paths.

These are deliberately literal: the brute-force nu counts memberships one
power at a time through the Groebner engine, the raw test-ideal chain is
computed with no Skoda rewriting and no digit descent, and monomial
roots come from the componentwise floor formula.  They ship in the library
(not only the test tree) so the command line can replay a computation in
``--oracle`` mode.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil

from .errors import FjumpError, PreconditionError, ResourceLimitError
from .frobroot import bracket_power, frobenius_root
from .groebner import (DEFAULT_GEN_LIMIT, Ideal, _Budget, _reduce_to_zero,
                       ideal_power)
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


# ---------------------------------------------------------------------------
# Floor formula for roots of products of powers of monomial ideals, without
# expanding the power.  The exponent vectors of a_1^{r_1} * ... * a_k^{r_k}
# are the sums over multisets; only their floors by q matter, and those take
# few distinct values.


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def power_root_vectors(groups, q: int, nvars: int, *,
                       gen_limit: int | None = None) -> frozenset:
    """Minimal floor vectors  floor((sum_i v_i)/q)  where the v_i run over
    the r-fold sums of each group's generator exponents.

    ``groups`` is a list of (vectors, r).  Principal groups collapse into a
    fixed offset.  A trailing two-generator group is swept along its segment
    parameter, touching only the O(#coords * degree) points where a floor
    coordinate changes, so huge levels q stay cheap; groups with more
    generators peel two vectors at a time through (b + c)^r = sum b^i c^(r-i),
    each branch ending in such a sweep.  Work is counted against a budget
    derived from ``gen_limit``."""
    limit = 20 * (DEFAULT_GEN_LIMIT if gen_limit is None else gen_limit)
    fixed = [0] * nvars
    dynamic = []
    for vecs, r in groups:
        if r < 0:
            raise FjumpError("group powers must be nonnegative")
        if r == 0:
            continue
        vecs = minimal_vectors(vecs)
        if not vecs:
            raise FjumpError("zero ideal inside a power product")
        if len(vecs) == 1:
            fixed = [f + r * v for f, v in zip(fixed, vecs[0])]
        else:
            dynamic.append((vecs, r))

    if not dynamic:
        return frozenset({tuple(f // q for f in fixed)})

    # Sweep the widest two-generator group last, where it pays off the most.
    dynamic.sort(key=lambda g: (len(g[0]) == 2, g[1]))
    floors: set = set()
    budget = [limit]

    def spend(n: int):
        budget[0] -= n
        if budget[0] < 0:
            raise ResourceLimitError(
                f"monomial power expansion exceeds {limit} steps")

    def rec(pending, acc):
        (vecs, r), rest = pending[0], pending[1:]
        m = len(vecs)
        if m == 2 and not rest:
            spend(2 * (sum(abs(a - b) for a, b in zip(vecs[0], vecs[1])) * r
                       // q + nvars + 2))
            floors.update(_sweep_two(vecs[0], vecs[1], r, q, acc))
            return
        if m == 2:
            spend(r + 1)
            u, w = vecs
            for i in range(r + 1):
                rec(rest, [a + i * x + (r - i) * y
                           for a, x, y in zip(acc, u, w)])
            return
        # m >= 3: peel the first two vectors off against the remainder.
        spend(r + 1)
        head, tail = vecs[:2], vecs[2:]
        for i in range(r + 1):
            if len(tail) == 1:
                rec(((head, i),) + rest,
                    [a + (r - i) * v for a, v in zip(acc, tail[0])])
            else:
                rec(((head, i), (tail, r - i)) + rest, list(acc))

    rec(tuple(dynamic), fixed)
    return frozenset(minimal_vectors(floors))


def _sweep_two(u, w, r: int, q: int, fixed) -> set:
    """Floors of (fixed + i*u + (r-i)*w)/q over i = 0..r, via the O(degree)
    set of i where some coordinate crosses a multiple of q."""
    n = len(u)
    cands = {0, r}
    for j in range(n):
        du = u[j] - w[j]
        if du == 0:
            continue
        v0 = fixed[j] + r * w[j]
        v1 = fixed[j] + r * u[j]
        if du > 0:
            for k in range(v0 // q + 1, v1 // q + 1):
                i = _ceil_div(k * q - v0, du)
                cands.add(i)
                cands.add(i - 1)
        else:
            for k in range(v1 // q + 1, v0 // q + 1):
                i = _ceil_div(k * q - 1 - v0, du)
                cands.add(i)
                cands.add(i - 1)
    out = set()
    for i in cands:
        if 0 <= i <= r:
            out.add(tuple((fixed[j] + i * u[j] + (r - i) * w[j]) // q for j in range(n)))
    return out


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
