"""Generalized test ideals, each one proved.

The test ideal of a with exponent c is the union of the ascending chain
L_e = (a^ceil(c p^e))^[1/p^e]; over F_p the union is a single chain term
(BMS).  Every result names a level from which the chain provably equals it:

* For ideals with monomial generators the union has a closed form, the
  interior lattice points of the scaled Newton polyhedron (Howald;
  Hara-Yoshida), computed in ``newton``, and the level is bounded from the
  polyhedron without evaluating any chain term.
* Every other test ideal, plain or mixed, comes from a repeat of the
  state of the digit descent (``frobroot._Digits``): Katzman's
  ascending-ideal method (``ascendIdeal`` in Macaulay2's TestIdeals) for
  any number of generators.  Write c = c'/p^a
  with c' = K/(p^b - 1), where p^b = 1 modulo the p-free part of c's
  denominator.  Then ceil(c p^(a+nb)) = K R_n + ceil(c'), with R_n = 1 +
  p^b + ... + p^((n-1)b).  The descent (a^j B)^[1/p] = sum_t
  a^((j-t)/p) (A_t B)^[1/p] reads that exponent's low digits first, so
  after i blocks of b levels its state is {K R_(n-i) + d: B_d}.  While
  K R_(n-i) is large the bound t <= j is idle, and the block map on
  {d: B_d} does not depend on n.  Iterated from {ceil(c'): (1)} with every
  B_d reduced, it meets finitely many states (their bases have bounded
  degree), so some U_(k+1) equals an earlier U_j.  Let c0 be the least
  count with K R_c0 lifting every key the blocks saw to at least m(p - 1).
  For n >= j + c0 the chain term at level a + nb is then c0 blocks and a
  levels of the real descent from a state of the cycle.  These terms
  repeat periodically and ascend, so they are all equal, and equal to tau.
  The result is that term at a + (j + c0) b.  A mixed test ideal runs the
  same automaton on a vector of keys, one per factor.  For a hypersurface
  (f) at c = r/p^a the first block returns {r: (1)}, so j = c0 = 0 and the
  result is BMS's (f^r)^[1/p^a] at level a.
  One rule caps every descent: it raises when a level it must reach passes
  e_limit (a or one block of b levels before the blocks, a + (j + c0) b
  after them), unless a chain term at a level 1, 2, 4, ... within the cap
  is R, which proves tau = R since the chain ascends.

Exponents c >= the number of generators are first peeled down by Skoda's
theorem, tau(a^c) = a * tau(a^(c-1)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, lcm

from .errors import FjumpError, PreconditionError, ResourceLimitError
from .frobroot import E_LIMIT, _check_e, _Digits
from .groebner import Ideal, generated_in_degree, ideal_power, ideal_product
from .newton import tau_vectors
from .oracle import minimal_vectors, monomial_ideal
from .ratutil import multiplicative_order


@dataclass(frozen=True)
class TauParams:
    """``e_max`` caps the blocks of b levels the descent runs before its
    state must repeat; ``use_skoda`` says whether Skoda reduction rewrites
    large exponents first."""

    e_max: int = 20
    use_skoda: bool = True

    def __post_init__(self):
        if self.e_max < 1:
            raise FjumpError("need e_max >= 1")


@dataclass(frozen=True, slots=True)
class TauResult:
    """A computed test ideal.

    ``certified`` is True: a theorem proves every result, the
    Newton-polyhedron closed form for monomial inputs, a repeat of the
    descent state otherwise.  ``stabilized_at`` is a chain level (chains
    start at level 1) from which the chain provably equals the result: a
    level read off the polyhedron for the closed form, a + (j + c0) b for
    the descent, or the level of a unit chain term.  A descent raises when a
    level it must reach (a or b before its blocks, a + (j + c0) b after
    them) passes e_limit and no unit chain term within the cap is R.
    ``chain_trace`` is empty for the closed form; otherwise it is the single
    proved entry (stabilized_at, result), Skoda-scaled or not, and the
    result is that entry's ideal, generated by its reduced grevlex basis.
    """

    ideal: Ideal
    stabilized_at: int
    certified: bool
    chain_trace: tuple = ()


def _as_exponent(c) -> Fraction:
    if isinstance(c, float):
        raise PreconditionError("exponents must be exact rationals, not floats")
    c = Fraction(c)
    if c < 0:
        raise PreconditionError("the exponent c must be nonnegative")
    return c


def skoda_reduce(a: Ideal, c) -> tuple[int, Fraction]:
    """Peel off s unit steps of tau(a^c) = a * tau(a^(c-1)).

    Each step needs the current exponent to be at least m, the number of
    listed generators, so s is the largest integer with c - s >= m - 1;
    the residue c - s lands in [m-1, m)."""
    c = _as_exponent(c)
    m = len(a.gens)
    if c < m:
        raise PreconditionError(f"Skoda reduction needs c >= {m} (the generator count)")
    s = int(c - (m - 1))
    return s, c - s


def degree_bound_check(a: Ideal, c, T: Ideal) -> bool:
    """Whether T is generated in total degree <= floor(c*d), d the largest
    generator degree of a.  Decided exactly on the degree-bounded slice of
    T, not on whatever generator list T happens to carry."""
    c = _as_exponent(c)
    d = max((g.total_degree() for g in a.gens), default=0)
    return generated_in_degree(T, int(c * d))


# ---------------------------------------------------------------------------
# The chain's stable value.


def _proved(value: Ideal, e: int) -> TauResult:
    return TauResult(value, e, True, ((e, value),))


def test_ideal(a: Ideal, c, params: TauParams | None = None, *,
               gen_limit: int | None = None,
               step_limit: int | None = None,
               e_limit: int | None = None,
               _digits: _Digits | None = None) -> TauResult:
    """tau(a^c), the stable value of the chain (a^ceil(c p^e))^[1/p^e].

    c = 0 follows the convention tau(a^0) = R unless a = (0), which stays
    (0); c >= the generator count is peeled by Skoda's theorem unless
    ``params.use_skoda`` is off.  Raises ResourceLimitError when the descent
    state does not repeat within e_max blocks, or past the level cap (module
    docstring).  ``_digits``, private, is the descent's table of products
    of a's generators, which a jump search shares."""
    if _digits is not None and _digits.gens != [a.gens]:
        raise PreconditionError("the digit table belongs to another ideal")
    return _tau([(a, _as_exponent(c))], params, _digits, gen_limit=gen_limit,
                step_limit=step_limit, e_limit=e_limit)


def mixed_test_ideal(pairs, params: TauParams | None = None, *,
                     gen_limit: int | None = None,
                     step_limit: int | None = None,
                     e_limit: int | None = None) -> TauResult:
    """The mixed test ideal of (a_1^{c_1} ... a_k^{c_k}), the union of the
    chain (prod_i a_i^ceil(c_i p^e))^[1/p^e].  A zero factor gives (0), a
    factor with c_i = 0 is dropped, and one factor is test_ideal(a_1, c_1);
    Skoda's theorem peels only that single factor."""
    pairs = [(a, _as_exponent(c)) for a, c in pairs]
    if not pairs:
        raise PreconditionError("mixed test ideals need at least one factor")
    if any(a.ring != pairs[0][0].ring for a, _ in pairs):
        raise PreconditionError("all factors must live in one ring")
    return _tau(pairs, params, None, gen_limit=gen_limit, step_limit=step_limit,
                e_limit=e_limit)


def _tau(pairs, params: TauParams | None, digits: _Digits | None, *, gen_limit,
         step_limit, e_limit) -> TauResult:
    """The one body of both entries; ``digits`` is None or the table of the
    single factor."""
    params = params or TauParams()
    a, c = pairs[0]
    ring = a.ring
    if any(f.is_zero() for f, _ in pairs):
        # A zero factor kills every chain term; alone at c = 0 it is level 0.
        return _proved(Ideal(ring, []), 0 if len(pairs) == 1 and c == 0 else 1)
    s = 0
    if len(pairs) == 1 and params.use_skoda and c >= len(a.gens):
        s, c = skoda_reduce(a, c)
        pairs = [(a, c)]
    pairs = [(f, x) for f, x in pairs if x]  # a^0 = R
    if not pairs:
        inner = _proved(Ideal(ring, [ring.one()]), 0)
    elif (groups := _monomial_groups(pairs)) is not None:
        vecs, stab = tau_vectors(groups, ring.p)
        inner = TauResult(monomial_ideal(ring, vecs), stab, True)
    else:
        inner = _descent_tau(pairs, params, digits or _Digits([f for f, _ in pairs]),
                             gen_limit=gen_limit, step_limit=step_limit,
                             e_limit=e_limit)
    if s == 0:
        return inner
    value = ideal_product(ideal_power(a, s, gen_limit=gen_limit), inner.ideal)
    if not inner.chain_trace:  # the monomial closed form
        return TauResult(value, inner.stabilized_at, True)
    return _proved(value.reduced(step_limit=step_limit), inner.stabilized_at)


def _monomial_groups(pairs):
    """Exponent-vector groups when every generator of every factor is a
    single term, else None."""
    groups = []
    for a, c in pairs:
        vecs = []
        for g in a.gens:
            if not g.is_term():
                return None
            vecs.append(g.lead_term()[0])
        groups.append((minimal_vectors(vecs), c))
    return groups


def _descent_tau(pairs, params: TauParams, digits: _Digits, *, gen_limit,
                 step_limit, e_limit) -> TauResult:
    """tau from a repeat of the descent state (module docstring), with c_i =
    K_i/((p^b - 1) p^a), p^b = 1 mod rest; states map keys to reduced bases."""
    ring = pairs[0][0].ring
    p = ring.p
    a, rest = _split_p(p, lcm(*(c.denominator for _, c in pairs)))
    b = multiplicative_order(p, rest)
    one = ring.one()
    K = [int(c * p**a * (p**b - 1)) for _, c in pairs]
    # The level maps live for this call only.  Shared across a jump search,
    # they shorten a principal-cli pass by a fifth, and the benchmark reads
    # the extra passes as a peak RSS past its bound (ROADMAP item 1a).
    maps: dict = {}

    def root(G) -> tuple:
        # The sum of the cached, reduced level-1 roots of the pairs (B, t).
        for pair in G:
            if pair not in maps:
                maps[pair] = digits.root([pair]).reduced(step_limit=step_limit).gens
        if len(G) == 1:
            return maps[G[0]]
        return Ideal(ring, [g for q in G for g in maps[q]]).reduced(step_limit=step_limit).gens

    def term(state: dict, levels: int) -> Ideal:
        # The chain term that the real descent reaches after these levels.
        return digits.expand(digits.descend(state, levels, True, root),
                             gen_limit).reduced(step_limit=step_limit)

    def capped(e: int) -> TauResult:
        # Level e is past the cap, but the chain ascends, so a unit term at
        # a level 1, 2, 4, ... within the cap still proves tau = R.
        for e2 in (2**i for i in range(limit.bit_length())):
            value = term({tuple(ceil(c * p**e2) for _, c in pairs): (one,)}, e2)
            if one in value.gens:
                return _proved(value, e2)
        _check_e(e, e_limit)

    limit = E_LIMIT if e_limit is None else e_limit
    if max(a, b) > limit:
        return capped(max(a, b))
    start = tuple(ceil(c * p**a) for _, c in pairs)
    state = {start: (one,)}
    low = tuple(map(sum, zip(start, K)))  # the least key seen, factor by factor
    seen: dict = {}
    while (frozen := tuple(sorted(state.items()))) not in seen:
        if len(seen) == params.e_max:
            raise ResourceLimitError(
                f"tau did not stabilize: the descent state did not repeat within "
                f"e_max={params.e_max} blocks of {b} levels")
        seen[frozen] = len(seen)
        state = {tuple(x + k for x, k in zip(j, K)): B for j, B in state.items()}
        for _ in range(b):
            low = tuple(map(min, low, *state))
            state = digits.descend(state, 1, False, root)
    c0 = R = 0  # R = R_c0 = 1 + p^b + ... + p^((c0 - 1) b)
    while any(k * R + x < top for k, x, top in zip(K, low, digits.tops)):
        c0, R = c0 + 1, R * p**b + 1
    e = max(a + (seen[frozen] + c0) * b, 1)
    if e > limit:
        return capped(e)
    value = term({tuple(x + k * R for x, k in zip(j, K)): B for j, B in frozen},
                 c0 * b + a)
    return _proved(value, e)


def _split_p(p: int, den: int) -> tuple[int, int]:
    """den = p^a0 * rest with rest prime to p."""
    a0 = 0
    while den % p == 0:
        den //= p
        a0 += 1
    return a0, den
