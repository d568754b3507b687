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
from .groebner import Ideal
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
    q = ring.p ** e
    gens: list[Poly] = []
    for h in b.gens:
        buckets: dict = {}
        for exps, c in h._terms.items():
            u = tuple(v % q for v in exps)
            w = tuple(v // q for v in exps)
            bucket = buckets.setdefault(u, {})
            nc = (bucket.get(w, 0) + c) % ring.p
            if nc:
                bucket[w] = nc
            else:
                bucket.pop(w, None)
        for bucket in buckets.values():
            if bucket:
                inv = ring.field.inv(bucket[max(bucket, key=GREVLEX.key)])
                gens.append(Poly._make(ring, {w: c * inv % ring.p
                                              for w, c in bucket.items()}))
    gens = sorted(set(gens), key=lambda f: (GREVLEX.key(f.lead_term()[0]),
                                            f.sorted_terms()))
    return Ideal(ring, gens)


def root_scaled(b: Ideal, e_num: int, e_den: int, *, e_limit: int | None = None) -> Ideal:
    """b^[p^e_num / p^e_den]: bracket to level e_num, then take the
    level-e_den root."""
    return frobenius_root(bracket_power(b, e_num, e_limit=e_limit), e_den,
                          e_limit=e_limit)
