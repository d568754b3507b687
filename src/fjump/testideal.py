"""Generalized test ideals via the stabilizing Frobenius-root chain.

The test ideal of a with exponent c is the union of the ascending chain
(a^ceil(c p^e))^[1/p^e]; the union is a single chain term once e is large
enough.  Results carry a ``certified`` flag:

* For ideals with monomial generators the union has a closed form, the
  interior lattice points of the scaled Newton polyhedron (Howald;
  Hara-Yoshida), computed in ``newton``.  The result is certified by that
  theorem, and the level from which the chain equals it is bounded from
  the polyhedron without evaluating any chain term.
* For general ideals each scanned level e, q = p^e, also gives an upper
  bound.  A product of floor(c q) q' generators of an m-generated ideal is
  a multiple of the q'-th power of a product of floor(c q) - m + 1 of them
  (the pigeonhole step in ``thresholds``), so

      (a^ceil(c q))^[1/q]  <=  tau(a^c)  <=  (a^(floor(c q) - m + 1))^[1/q],

  with the powers multiplied factor by factor for mixed test ideals.  A
  single ideal with several generators takes both roots by digit descent
  (``frobroot.power_root``), without expanding the power.  The scan stops
  at the first level where the upper bound lies inside the chain term,
  which proves the result (certified = True).  At a jump the
  two sides never meet; the fallback there is a plateau: the chain value
  repeating ``plateau`` times in a row and surviving a few probes at
  levels in phase with the denominator of c.  A plateau can be premature,
  and it is reported with certified = False.
* For a hypersurface (f), f not a monomial, at c = r/p^a with a >= 1 the
  chain is constant from level a on, so tau(f^c) = (f^r)^[1/p^a] (BMS).  It
  is computed by digit descent (``frobroot.power_root``), never expanding
  f^r, and certified without a scan.

Exponents c >= the number of generators are first peeled down by Skoda's
theorem, tau(a^c) = a * tau(a^(c-1)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb, floor, lcm

from .errors import (FjumpError, InconclusiveError, PreconditionError,
                     ResourceLimitError)
from .frobroot import _check_e, _power_root, frobenius_root, power_root
from .groebner import (Ideal, generated_in_degree, ideal_power, ideal_product,
                       is_subset)
from .multipoly import RingCtx
from .newton import tau_vectors
from .oracle import minimal_vectors, monomial_ideal
from .ratutil import multiplicative_order


@dataclass(frozen=True)
class TauParams:
    """Chain-scan controls: the scan runs over levels 1..e_max; the plateau
    length of the uncertified fallback; and whether Skoda reduction
    rewrites large exponents first."""

    e_max: int = 20
    plateau: int = 2
    use_skoda: bool = True

    def __post_init__(self):
        if self.e_max < 1:
            raise FjumpError("need e_max >= 1")
        if self.plateau < 1:
            raise FjumpError("plateau length must be >= 1")


@dataclass(frozen=True, slots=True)
class TauResult:
    """A computed test ideal.

    ``certified`` is True only when a theorem proves the result: the
    Newton-polyhedron closed form for monomial inputs, tau(f^(r/p^a)) =
    (f^r)^[1/p^a] for a hypersurface at a p-power denominator, the
    two-sided chain bound otherwise.  Then ``stabilized_at`` is a chain
    level (chains start at level 1) from which the chain provably equals
    the result: a level read off the polyhedron for the closed form; a for
    the p-power formula; for general ideals the level where the bound
    closed, or the first level of a plateau whose value a deeper probe
    proved.  For an uncertified result it is the first level of the
    accepted plateau.  ``chain_trace`` lists the inspected (e, ideal)
    pairs in ascending order (one pair for the p-power formula), and is
    empty when no chain term was evaluated.  Whenever it is not empty, the
    result is the same object as the last trace entry and is generated by
    its reduced grevlex basis, Skoda-scaled or not; without Skoda scaling
    every entry is.
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
    degs = [g.total_degree() for g in a.gens]
    d = max(degs) if degs else 0
    return generated_in_degree(T, int(c * d))


# ---------------------------------------------------------------------------
# Chain scanning.


def _unit_result(ring: RingCtx) -> TauResult:
    one = Ideal(ring, [ring.one()])
    return TauResult(one, 0, True, ((0, one),))


def _zero_result(ring: RingCtx, e: int = 1) -> TauResult:
    zero = Ideal(ring, [])
    return TauResult(zero, e, True, ((e, zero),))


def test_ideal(a: Ideal, c, params: TauParams | None = None, *,
               gen_limit: int | None = None,
               step_limit: int | None = None,
               e_limit: int | None = None) -> TauResult:
    """tau(a^c), the stable value of the chain (a^ceil(c p^e))^[1/p^e].

    c = 0 follows the convention tau(a^0) = R unless a = (0), which stays
    (0).  Raises InconclusiveError (with the partial chain attached) when
    the chain of a non-monomial ideal shows no plateau by e_max."""
    params = params or TauParams()
    c = _as_exponent(c)
    ring = a.ring
    if a.is_zero():
        return _zero_result(ring, 0 if c == 0 else 1)
    if c == 0:
        return _unit_result(ring)

    m = len(a.gens)
    s = 0
    c_res = c
    if params.use_skoda and c >= m:
        s, c_res = skoda_reduce(a, c)
    if c_res == 0:
        inner = _unit_result(ring)
    else:
        inner = _scan_chain([(a, c_res)], params, gen_limit=gen_limit,
                            step_limit=step_limit, e_limit=e_limit)
    if s == 0:
        return inner
    scale = ideal_power(a, s, gen_limit=gen_limit)
    if not inner.chain_trace:  # the monomial closed form
        return TauResult(ideal_product(scale, inner.ideal), inner.stabilized_at,
                         inner.certified)
    trace = [(e, ideal_product(scale, T)) for e, T in inner.chain_trace]
    e, last = trace[-1]
    trace[-1] = (e, last.reduced(step_limit=step_limit))
    return TauResult(trace[-1][1], inner.stabilized_at, inner.certified,
                     tuple(trace))


def mixed_test_ideal(pairs, params: TauParams | None = None, *,
                     gen_limit: int | None = None,
                     step_limit: int | None = None,
                     e_limit: int | None = None) -> TauResult:
    """The mixed test ideal of (a_1^{c_1} ... a_k^{c_k}), the union of the
    chain (prod_i a_i^ceil(c_i p^e))^[1/p^e]; computed as in test_ideal."""
    params = params or TauParams()
    pairs = [(a, _as_exponent(c)) for a, c in pairs]
    if not pairs:
        raise PreconditionError("mixed test ideals need at least one factor")
    ring = pairs[0][0].ring
    for a, _ in pairs:
        if a.ring != ring:
            raise PreconditionError("all factors must live in one ring")
    if len(pairs) == 1:
        return test_ideal(pairs[0][0], pairs[0][1], params, gen_limit=gen_limit,
                          step_limit=step_limit, e_limit=e_limit)
    if any(a.is_zero() for a, _ in pairs):
        # A zero factor kills every chain term (and the c = 0 convention for
        # the zero ideal is the zero ideal as well).
        return _zero_result(ring)
    active = [(a, c) for a, c in pairs if c > 0]
    if not active:
        return _unit_result(ring)
    return _scan_chain(active, params, gen_limit=gen_limit,
                       step_limit=step_limit, e_limit=e_limit)


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


def _scan_chain(pairs, params: TauParams, *, gen_limit, step_limit, e_limit):
    ring = pairs[0][0].ring
    groups = _monomial_groups(pairs)
    if groups is not None:
        vecs, stab = tau_vectors(groups, ring.p)
        return TauResult(monomial_ideal(ring, vecs), stab, True)
    if len(pairs) == 1 and len(pairs[0][0].gens) == 1:
        (a, c), = pairs
        level, rest = _split_p(ring.p, c.denominator)
        if level and rest == 1:
            # tau(f^(r/p^a)) = (f^r)^[1/p^a] (BMS), the chain term at every
            # level from a on.
            value = power_root(a, c.numerator, level,
                               e_limit=e_limit).reduced(step_limit=step_limit)
            return TauResult(value, level, True, ((level, value),))
    return _scan_chain_general(pairs, params, gen_limit=gen_limit,
                               step_limit=step_limit, e_limit=e_limit)


def _scan_chain_general(pairs, params: TauParams, *, gen_limit, step_limit, e_limit):
    ring = pairs[0][0].ring
    p = ring.p

    # Chain terms and upper bounds of this call, keyed by (exponent vector,
    # level); an upper bound whose vector equals the lower one is a hit.
    # One factor with several generators takes its roots by digit descent,
    # sharing one table of products; the rest expand the power product.
    cache: dict = {}
    table: dict = {}

    def root_of(rs: tuple, e: int) -> Ideal:
        got = cache.get((rs, e))
        if got is None:
            if len(pairs) == 1 and len(pairs[0][0].gens) > 1:
                _check_e(e, e_limit)
                got = _power_root(pairs[0][0], rs[0], e, table,
                                  gen_limit=gen_limit)
            else:
                prod = None
                for (a, _), r in zip(pairs, rs):
                    piece = ideal_power(a, r, gen_limit=gen_limit)
                    prod = piece if prod is None else ideal_product(prod, piece)
                got = frobenius_root(prod, e, e_limit=e_limit)
            cache[rs, e] = got
        return got

    def term(e: int) -> Ideal:
        return root_of(tuple(ceil(c * p**e) for _, c in pairs), e)

    def closes(e: int, value: Ideal) -> bool:
        # Pigeonhole bound: tau is inside the root of prod a_i^(floor(c_i q)
        # - m_i + 1), so that root inside the chain term proves equality.
        upper = root_of(tuple(max(floor(c * p**e) - len(a.gens) + 1, 0)
                              for a, c in pairs), e)
        return upper is value or is_subset(upper, value, step_limit=step_limit)

    def result(trace: list, stabilized_at: int, certified: bool) -> TauResult:
        # Every traced term's basis was computed by the scan; keeping the
        # basis in place of the root's generators halves what a result holds.
        trace = [(e, v.reduced(step_limit=step_limit)) for e, v in trace]
        return TauResult(trace[-1][1], stabilized_at, certified, tuple(trace))

    a0, b = _phase_of(p, lcm(*(c.denominator for _, c in pairs)))

    trace: list = []
    run = 0
    e = 1
    while e <= params.e_max:
        value = term(e)
        trace.append((e, value))
        if closes(e, value):
            return result(trace, e, True)
        run = run + 1 if len(trace) > 1 and value == trace[-2][1] else 1
        if run >= params.plateau:
            # Probe past the level where the ceilings of c*p^e settle into
            # their periodic pattern; a probe with the plateau's value where
            # the bound closes proves the plateau, and a plateau that fails a
            # reachable probe is premature, so resume from the first level
            # that moved (unless the bound closes there).  The
            # probes are best-effort: anything beyond a small work bound is
            # skipped rather than ground out.
            moved = None
            if b is not None:
                anchor = max(e - run + 1, a0 + b)
                for probe in (anchor, anchor + b, anchor + 2 * b):
                    if probe > max(params.e_max, e) + 8 or \
                            not _probe_affordable(pairs, p, probe):
                        break
                    try:
                        if term(probe) != value:
                            moved = probe
                            break
                        if probe > e and closes(probe, value):
                            return result(trace, e - run + 1, True)
                    except ResourceLimitError:
                        break
            if moved is None:
                return result(trace, e - run + 1, False)
            trace.append((moved, term(moved)))
            if closes(moved, term(moved)):
                return result(trace, moved, True)
            e = moved
            run = 1
        e += 1
    raise InconclusiveError(
        f"chain did not stabilize by e_max={params.e_max}; "
        "raise e_max or inspect the partial chain", tuple(trace))


_PROBE_R_CAP = 200
_PROBE_GEN_CAP = 800


def _probe_affordable(pairs, p: int, e: int) -> bool:
    # Probes are best-effort correctness passes; anything past a small,
    # predictable amount of expansion work is skipped.  Power growth for
    # non-monomial generators is hard to estimate tightly, so the bound is
    # on the exponent and the generator count of the power product.
    gens = 1
    for a, c in pairs:
        r = ceil(c * p**e)
        if r > _PROBE_R_CAP:
            return False
        m = len(a.gens)
        gens *= comb(r + m - 1, m - 1)
        if gens > _PROBE_GEN_CAP:
            return False
    return True


def _split_p(p: int, den: int) -> tuple[int, int]:
    """den = p^a0 * rest with rest prime to p."""
    a0 = 0
    while den % p == 0:
        den //= p
        a0 += 1
    return a0, den


def _phase_of(p: int, den: int):
    """Split den = p^a0 * t and return (a0, ord of p mod t); the order is
    None when it is out of reach (then phase-matched probing is impossible)."""
    a0, rest = _split_p(p, den)
    try:
        return a0, multiplicative_order(p, rest, limit=100_000)
    except ResourceLimitError:
        return a0, None
