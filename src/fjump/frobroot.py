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
a few level-1 roots per level, without expanding a^r.  The one descent
(``_Digits``) also takes the roots of the nu walk, every non-monomial
test ideal of ``testideal`` and the monomial chain terms of
``oracle.power_root_vectors``.
"""

from __future__ import annotations

from itertools import product
from math import comb

from .errors import FjumpError, ResourceLimitError
from .groebner import Ideal, _vectors, ideal_power
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
    standing for (f), by e levels of digit descent (``_Digits``) from the
    state {r: (1)}, each about m + 1 keys wide, without expanding a^r.  For
    m = 1 each level multiplies by f^d, d the next base-p digit of r.  With
    m >= 2, a power a^r of at most 24 generators (``_LITERAL_GENS``) is
    expanded instead.  ``gen_limit`` bounds the final a^j and those literal
    powers."""
    _check_e(e, e_limit)
    if r < 0:
        raise FjumpError("powers need a nonnegative exponent")
    if isinstance(a, Poly):
        a = Ideal(a.ring, [a])
    return _power_root(a, r, e, _Digits([a]), gen_limit=gen_limit)


# A power a^r of m >= 2 generators with at most this many generators is
# expanded instead.  Per call the descent wins from about 4 generators on
# (timed on random 2- and 3-generator ideals); the switch sits higher
# because the benchmark keeps every output, so a faster general-ideals run
# reads as a higher peak RSS (ROADMAP item 1a, which lowers it to 4).
_LITERAL_GENS = 24


def _power_root(a: Ideal, r: int, e: int, digits: _Digits, *,
                gen_limit: int | None = None) -> Ideal:
    """``power_root`` without its checks (the caller checks e), taking its
    products of generators from ``digits``, a table for the factor list [a]."""
    m = len(a.gens)
    if not m or m > 1 and comb(r + m - 1, m - 1) <= _LITERAL_GENS:
        return frobenius_root(ideal_power(a, r, gen_limit=gen_limit), e, e_limit=e)
    return digits.expand(digits.descend({(r,): (a.ring.one(),)}, e), gen_limit)


class _Digits:
    """The digit descent of a product of powers prod_i a_i^(j_i), and the
    products of generators it multiplies by, each expanded once.

    Let A_t hold the products f^g of t_i generators of each a_i, every
    exponent below p.  A product of j_i generators splits as f^g * (f^d)^p,
    and (b^[p] c)^[1/p] = b c^[1/p], so a level maps a state {j: B_j} by

        (prod_i a_i^(j_i) * B)^[1/p] = sum_t prod_i a_i^((j_i - t_i)/p) * (A_t * B)^[1/p]

    over t_i = j_i mod p, t_i <= m_i (p - 1), m_i the generator count of
    a_i, and t_i <= j_i unless the level is unbounded.  After the last level
    the root is the sum of the prod_i a_i^(j_i) * B_j.  The table keys A_t
    by t and each factor's f^g by (i, g); one table serves every descent
    on the same factors (a nu walk, a jump search)."""

    def __init__(self, factors):
        self.factors = factors
        self.gens = [a.gens for a in factors]
        self.ring = factors[0].ring
        self.p = p = self.ring.p
        self.tops = [len(g) * (p - 1) for g in self.gens]
        self.table: dict = {}
        self.powers: dict = {}  # (i, x) -> the generators of a_i^x

    def power(self, i: int, g: tuple) -> Poly:
        """f^g for the generators f of factor i."""
        got = self.table.get((i, g))
        if got is None:
            # f^g' * f_k^(g_k), g' = g with its last nonzero entry g_k cleared.
            k = max(k for k, x in enumerate(g) if x)
            got = self.gens[i][k] ** g[k]
            if any(g[:k]):
                got = self.power(i, g[:k] + (0,) * (len(g) - k)) * got
            self.table[i, g] = got
        return got

    def times(self, B, t: tuple):
        """The generators of A_t * B."""
        if not any(t):
            return B
        A = self.table.get(t)
        if A is None:
            A = [self.ring.one()]
            for i, s in enumerate(t):
                if s:
                    A = [h * self.power(i, g) for h in A
                         for g in _vectors(s, len(self.gens[i]), self.p)]
            self.table[t] = A
        return [g * h for g in B for h in A]

    def level(self, state: dict, bounded: bool = True) -> dict:
        """The next keys, each with the pairs (B_j, t) whose roots (A_t *
        B_j)^[1/p] sum to its ideal."""
        p = self.p
        nxt: dict = {}
        for j, B in state.items():
            for t in product(*[range(x % p, (min(x, top) if bounded else top) + 1, p)
                               for x, top in zip(j, self.tops)]):
                nxt.setdefault(tuple([(x - s) // p for x, s in zip(j, t)]),
                               []).append((B, t))
        return nxt

    def descend(self, state: dict, levels: int, bounded: bool = True,
                root=None) -> dict:
        """The state these levels lead to; ``root`` maps a key's pairs to gens."""
        root = root or (lambda G: self.root(G).gens)
        for _ in range(levels):
            state = {j: root(G) for j, G in self.level(state, bounded).items()}
        return state

    def root(self, pairs) -> Ideal:
        """The sum of the (A_t * B)^[1/p] over the pairs."""
        return frobenius_root(Ideal(self.ring, [g for B, t in pairs
                                                for g in self.times(B, t)]), 1)

    def expand(self, state: dict, gen_limit: int | None = None) -> Ideal:
        """The sum of the prod_i a_i^(j_i) * B_j, each power within gen_limit."""
        out = []
        for j, B in state.items():
            for i, x in enumerate(j):
                if x:
                    if (i, x) not in self.powers:
                        self.powers[i, x] = ideal_power(self.factors[i], x,
                                                        gen_limit=gen_limit).gens
                    B = [f * g for f in self.powers[i, x] for g in B]
            out += B
        return Ideal(self.ring, out)


def root_scaled(b: Ideal, e_num: int, e_den: int, *, e_limit: int | None = None) -> Ideal:
    """b^[p^e_num / p^e_den]: bracket to level e_num, then take the
    level-e_den root."""
    return frobenius_root(bracket_power(b, e_num, e_limit=e_limit), e_den,
                          e_limit=e_limit)
