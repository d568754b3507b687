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
"""

from __future__ import annotations

from .errors import FjumpError, ResourceLimitError
from .groebner import Ideal, ideal_product
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


def power_root(f: Poly, r: int, e: int, *, e_limit: int | None = None) -> Ideal:
    """(f^r)^[1/p^e] by digit descent, without expanding f^r.

    With r = d + p*s, f^r = f^d * (f^s)^p and (g^p * h)^[1/p] = g * h^[1/p],
    so the level-e root is e level-1 roots, the k-th taken after multiplying
    by f^(d_k) for the base-p digits d_k of r, least significant first; the
    part of r above p^e comes back as the factor f^floor(r/p^e)."""
    _check_e(e, e_limit)
    if r < 0:
        raise FjumpError("powers need a nonnegative exponent")
    return _power_root(f, r, e, {})


def _power_root(f: Poly, r: int, e: int, powers: dict) -> Ideal:
    """``power_root`` without its checks, taking each f^k from the table
    powers (k -> f^k) and adding the ones it expands."""
    ring = f.ring

    def times_power(I: Ideal, k: int) -> Ideal:
        if k not in powers:
            powers[k] = f ** k
        return ideal_product(I, Ideal(ring, [powers[k]]))

    out = Ideal(ring, [ring.one()])
    for _ in range(e):
        r, d = divmod(r, ring.p)
        if d:
            out = times_power(out, d)
        out = frobenius_root(out, 1)
    return times_power(out, r) if r else out


def root_scaled(b: Ideal, e_num: int, e_den: int, *, e_limit: int | None = None) -> Ideal:
    """b^[p^e_num / p^e_den]: bracket to level e_num, then take the
    level-e_den root."""
    return frobenius_root(bracket_power(b, e_num, e_limit=e_limit), e_den,
                          e_limit=e_limit)
