"""Ideals and reduced Groebner bases.

Buchberger's algorithm with the Gebauer-Moeller pair-elimination criteria
and normal (smallest lcm degree first) selection.  All tie-breaking goes
through the monomial order, so the reduced basis of an ideal is not just
mathematically unique but reproduced bit-for-bit across runs.  Each
ideal memoizes its reduced grevlex basis; the fill is idempotent, so
concurrent readers can at worst duplicate work.

Membership, containment and radical membership in an ideal generated by
monomials go term by term, with no basis and no step cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from math import comb
from operator import mul

from .errors import FjumpError, ResourceLimitError, RingMismatchError
from .multipoly import (GREVLEX, MonomialOrder, Poly, RingCtx,
                        elimination_order, parse)

DEFAULT_STEP_LIMIT = 500_000
DEFAULT_GEN_LIMIT = 100_000
POWER_TERM_BUDGET = 2_000_000


class Ideal:
    """An ideal given by generators; the zero ideal has none.

    Equality is decided through the cached reduced Groebner basis, so
    ``==`` means mathematical equality.  Containment in and membership of
    an ideal use that basis too, unless the ideal is generated by monomials.
    """

    __slots__ = ("ring", "gens", "_gb")

    def __init__(self, ring: RingCtx, gens=()):
        seen = set()
        kept = []
        for g in gens:
            if not isinstance(g, Poly):
                raise TypeError(f"expected Poly generators, got {type(g).__name__}")
            if g.ring != ring:
                raise RingMismatchError("generator lives in a different ring")
            if g.is_zero() or g in seen:
                continue
            seen.add(g)
            kept.append(g)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "gens", tuple(kept))
        object.__setattr__(self, "_gb", None)

    def __setattr__(self, name, value):
        raise AttributeError("Ideal is immutable")

    @classmethod
    def of(cls, ring: RingCtx, *gens) -> "Ideal":
        polys = [parse(g, ring) if isinstance(g, str) else g for g in gens]
        return cls(ring, polys)

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        gb = self.groebner_basis()
        return len(gb.polys) == 1 and gb.polys[0].is_constant() and not gb.polys[0].is_zero()

    def groebner_basis(self, order: MonomialOrder = GREVLEX, *,
                       step_limit: int | None = None) -> "GroebnerBasis":
        # Only the grevlex basis, which equality and membership use, is kept.
        if order != GREVLEX:
            return buchberger(self, order, step_limit=step_limit)
        if self._gb is None:
            object.__setattr__(self, "_gb", buchberger(self, order,
                                                       step_limit=step_limit))
        return self._gb

    def reduced(self, *, step_limit: int | None = None) -> "Ideal":
        """The same ideal generated by its reduced grevlex basis, which the
        new Ideal keeps as its cached basis; self if it is generated so."""
        gb = self.groebner_basis(step_limit=step_limit)
        if gb.polys == self.gens:
            return self
        out = Ideal(self.ring, gb.polys)
        object.__setattr__(out, "_gb", gb)
        return out

    def contains(self, f: Poly) -> bool:
        return is_member(f, self)

    __contains__ = contains

    def __le__(self, other):
        return is_subset(self, other)

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        if self.ring != other.ring:
            return False
        return self.groebner_basis().polys == other.groebner_basis().polys

    __hash__ = None

    def __add__(self, other):
        return ideal_sum(self, other)

    def __mul__(self, other):
        return ideal_product(self, other)

    def __pow__(self, r: int):
        return ideal_power(self, r)

    def __repr__(self):
        inner = ", ".join(str(g) for g in self.gens) if self.gens else "0"
        return f"Ideal({inner})"


@dataclass(frozen=True, slots=True)
class GroebnerBasis:
    """A reduced basis: monic, pairwise lead-indivisible, tails in normal
    form, sorted ascending by lead monomial."""

    ring: RingCtx
    order: MonomialOrder
    polys: tuple[Poly, ...]


def _check_same_ring(*ideals: Ideal):
    ring = ideals[0].ring
    for I in ideals[1:]:
        if I.ring != ring:
            raise RingMismatchError("ideals live in different rings")
    return ring


# ---------------------------------------------------------------------------
# Raw-dict polynomial helpers (hot path of the reducer).


def _dict_submul(h: dict, c: int, shift: tuple[int, ...], g: dict, p: int):
    """h -= c * x^shift * g, in place."""
    if any(shift):
        for e, gc in g.items():
            key = tuple(a + b for a, b in zip(e, shift))
            nc = (h.get(key, 0) - c * gc) % p
            if nc:
                h[key] = nc
            else:
                h.pop(key, None)
    else:
        for e, gc in g.items():
            nc = (h.get(e, 0) - c * gc) % p
            if nc:
                h[e] = nc
            else:
                h.pop(e, None)


class _Budget:
    __slots__ = ("left",)

    def __init__(self, limit: int | None = None):
        self.left = DEFAULT_STEP_LIMIT if limit is None else limit

    def spend(self, n: int = 1):
        self.left -= n
        if self.left < 0:
            raise ResourceLimitError("Groebner step limit exceeded"
                                     " (raise the step cap to continue)")


def _normal_form_dict(h: dict, basis: list, keyf, p: int, budget: _Budget) -> dict:
    """Full normal form of h against basis entries (lead, inv_lead_coeff, terms)."""
    h = dict(h)
    out: dict = {}
    while h:
        lead = max(h, key=keyf)
        c = h[lead]
        reduced = False
        for blead, binv, bterms in basis:
            if all(a >= b for a, b in zip(lead, blead)):
                shift = tuple(a - b for a, b in zip(lead, blead))
                _dict_submul(h, (c * binv) % p, shift, bterms, p)
                budget.spend()
                reduced = True
                break
        if not reduced:
            out[lead] = c
            del h[lead]
    return out


def _poly_sort_key(f: Poly, order: MonomialOrder):
    return tuple(sorted(((order.key(e), c) for e, c in f.sorted_terms(order))))


def buchberger(I: Ideal, order: MonomialOrder = GREVLEX, *,
               step_limit: int | None = None) -> GroebnerBasis:
    """The unique reduced Groebner basis of the ideal I, deterministically.

    Raises ResourceLimitError when the configured step cap runs out; never
    returns a wrong basis.
    """
    ring, gens = I.ring, I.gens
    # The unit ideal and a principal ideal need no pairs: the basis is a
    # constant or the one generator, made monic.
    f = next((g for g in gens if g.is_constant()), gens[0] if len(gens) == 1 else None)
    if f is not None:
        c = f.lead_term(order)[1]
        return GroebnerBasis(ring, order,
                             (f if c == 1 else f * ring.constant(ring.field.inv(c)),))
    budget = _Budget(step_limit)
    p = ring.p
    keyf = order.key

    seed = sorted(gens, key=lambda f: (keyf(f.lead_term(order)[0]),
                                       _poly_sort_key(f, order)))

    # basis entries: (lead_exps, inverted lead coeff, terms dict)
    basis: list = []
    leads: list = []
    pairs: list = []  # (i, j, lcm) with i < j

    def lcm_of(a, b):
        return tuple(max(x, y) for x, y in zip(a, b))

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    def add_poly(terms: dict):
        lead = max(terms, key=keyf)
        inv = ring.field.inv(terms[lead])
        t = len(basis)
        # Gebauer-Moeller update: prune the new pairs among themselves,
        # then drop old pairs whose lcm strictly contains the new lead.
        cand = []
        for i in range(t):
            l = lcm_of(leads[i], lead)
            cand.append((keyf(l), i, l))
        cand.sort()
        kept: list = []
        for sk, i, l in cand:
            coprime = all(min(x, y) == 0 for x, y in zip(leads[i], lead))
            dominated = any(divides(l2, l) and l2 != l for _, _, l2 in kept)
            duplicate = any(l2 == l for _, _, l2 in kept)
            if coprime or not (dominated or duplicate):
                kept.append((sk, i, l))
        survivors = [(i, t, l) for sk, i, l in kept
                     if not all(min(x, y) == 0 for x, y in zip(leads[i], lead))]
        retained = []
        for (i, j, l) in pairs:
            if divides(lead, l) and lcm_of(leads[i], lead) != l and lcm_of(leads[j], lead) != l:
                continue
            retained.append((i, j, l))
        pairs[:] = retained + survivors
        basis.append((lead, inv, terms))
        leads.append(lead)

    for f in seed:
        nf = _normal_form_dict(dict(f._terms), basis, keyf, p, budget)
        if nf:
            add_poly(nf)

    while pairs:
        pairs.sort(key=lambda t: (sum(t[2]), keyf(t[2]), t[0], t[1]))
        i, j, l = pairs.pop(0)
        budget.spend()
        li, inv_i, ti = basis[i]
        lj, inv_j, tj = basis[j]
        s: dict = {}
        _dict_submul(s, (-inv_i) % p, tuple(a - b for a, b in zip(l, li)), ti, p)
        _dict_submul(s, inv_j, tuple(a - b for a, b in zip(l, lj)), tj, p)
        nf = _normal_form_dict(s, basis, keyf, p, budget)
        if nf:
            add_poly(nf)

    # Minimalize: drop entries whose lead another lead divides.
    order_idx = sorted(range(len(basis)), key=lambda i: keyf(leads[i]))
    minimal: list[int] = []
    for i in order_idx:
        if not any(divides(leads[j], leads[i]) for j in minimal):
            minimal.append(i)

    # Tail-reduce every survivor against the others, then make monic; a
    # result equal to an input generator is that generator's object, and
    # the results share one exponent tuple per monomial with the inputs,
    # which trims what a kept basis holds.
    given = {g: g for g in gens}
    monos = {e: e for g in gens for e in g._terms}
    final: list[Poly] = []
    for i in minimal:
        others = [basis[j] for j in minimal if j != i]
        nf = _normal_form_dict(basis[i][2], others, keyf, p, budget)
        inv = ring.field.inv(nf[max(nf, key=keyf)])
        g = Poly.from_terms(ring, [(monos.setdefault(e, e), c * inv)
                                   for e, c in nf.items()])
        final.append(given.get(g, g))
    final.sort(key=lambda f: keyf(f.lead_term(order)[0]))
    return GroebnerBasis(ring, order, tuple(final))


def _reducers(gb: GroebnerBasis) -> list:
    leads = [g.lead_term(gb.order) for g in gb.polys]
    return [(e, gb.ring.field.inv(c), g._terms)
            for (e, c), g in zip(leads, gb.polys)]


def normal_form(f: Poly, gb: GroebnerBasis) -> Poly:
    """The remainder of f on division by the basis; zero iff f lies in
    the ideal the basis generates."""
    if f.ring != gb.ring:
        raise RingMismatchError("polynomial and basis live in different rings")
    nf = _normal_form_dict(f._terms, _reducers(gb), gb.order.key, gb.ring.p,
                           _Budget())
    return Poly.from_terms(gb.ring, nf.items())


def _all_in(polys, J: Ideal, step_limit: int | None) -> bool:
    """Whether all polys lie in J: term by term for J generated by monomials
    (a term lies in J when a generator divides it), else by reductions
    against J's basis that share one budget of step_limit steps."""
    if all(g.is_term() for g in J.gens):
        gens = [next(iter(g._terms)) for g in J.gens]
        return all(any(all(a >= b for a, b in zip(e, u)) for u in gens)
                   for f in polys for e in f._terms)
    return _reduce_to_zero(polys, J.groebner_basis(step_limit=step_limit),
                           _Budget(step_limit))


def _reduce_to_zero(polys, gb: GroebnerBasis, budget: _Budget) -> bool:
    """Whether every poly reduces to zero by the basis, spending budget."""
    entries = _reducers(gb)
    return not any(_normal_form_dict(f._terms, entries, gb.order.key,
                                     gb.ring.p, budget) for f in polys)


def is_member(f: Poly, I: Ideal, *, step_limit: int | None = None) -> bool:
    """f in I, as in ``is_subset``."""
    if f.ring != I.ring:
        raise RingMismatchError("polynomial and ideal live in different rings")
    return f.is_zero() or _all_in((f,), I, step_limit)


def is_subset(I: Ideal, J: Ideal, *, step_limit: int | None = None) -> bool:
    """I inside J: term by term when J is generated by monomials, with J's
    basis neither computed nor cached; else by reduction against J's basis.
    Computing that basis and the reductions get step_limit steps each."""
    _check_same_ring(I, J)
    return I.is_zero() or _all_in(I.gens, J, step_limit)


def ideal_sum(I: Ideal, J: Ideal) -> Ideal:
    ring = _check_same_ring(I, J)
    return Ideal(ring, I.gens + J.gens)


def ideal_product(I: Ideal, J: Ideal) -> Ideal:
    ring = _check_same_ring(I, J)
    return Ideal(ring, [f * g for f in I.gens for g in J.gens])


def ideal_power(I: Ideal, r: int, *, gen_limit: int | None = None) -> Ideal:
    """Generated by the products f_1^(v_1) ... f_m^(v_m) of the generators
    over the exponent vectors v summing to r, v descending lexicographically
    (x^2, xy, xz, y^2, yz, z^2); I^0 is the unit ideal, and the zero ideal
    stays zero for positive r."""
    if r < 0:
        raise FjumpError("ideal powers need a nonnegative exponent")
    if r == 0:
        return Ideal(I.ring, [I.ring.one()])
    if I.is_zero():
        return Ideal(I.ring, [])
    m = len(I.gens)
    limit = DEFAULT_GEN_LIMIT if gen_limit is None else gen_limit
    count = comb(r + m - 1, m - 1)
    if count > limit:
        raise ResourceLimitError(
            f"I^{r} would need {count} generators (cap {limit})")
    power = cache(lambda i, k: I.gens[i] ** k)  # f_i^k, via the sparse digit path
    out = []
    terms_seen = 0
    for v in reversed(_vectors(r, m, r + 1)):
        prod = reduce(mul, [power(i, k) for i, k in enumerate(v) if k])
        out.append(prod)
        terms_seen += prod.num_terms()
        if terms_seen > POWER_TERM_BUDGET:
            raise ResourceLimitError(
                f"I^{r} exceeds {POWER_TERM_BUDGET} total terms")
    return Ideal(I.ring, out)


def _vectors(t: int, m: int, cap: int) -> list:
    """Exponent vectors of length m, entries below cap, sum t, in lex order."""
    if m == 1:
        return [(t,)] if t < cap else []
    return [(k,) + v for k in range(min(t, cap - 1) + 1)
            for v in _vectors(t - k, m - 1, cap)]


def ideal_intersect(I: Ideal, J: Ideal, *, step_limit: int | None = None) -> Ideal:
    """I ∩ J through the single auxiliary variable trick: eliminate t from
    t*I + (1-t)*J."""
    ring = _check_same_ring(I, J)
    if I.is_zero() or J.is_zero():
        return Ideal(ring, [])
    ext, lift = _extend_ring(ring, first=True)
    one = (0,) * ext.nvars
    t_exp = (1,) + (0,) * ring.nvars

    gens = []
    for f in I.gens:
        gens.append(Poly.from_terms(ext, [((1,) + e, c) for e, c in f._terms.items()]))
    for g in J.gens:
        items = [((0,) + e, c) for e, c in g._terms.items()]
        items += [((1,) + e, -c) for e, c in g._terms.items()]
        gens.append(Poly.from_terms(ext, items))
    gb = buchberger(Ideal(ext, gens), elimination_order(1), step_limit=step_limit)
    kept = []
    for f in gb.polys:
        if all(e[0] == 0 for e in f._terms):
            kept.append(Poly.from_terms(ring, [(e[1:], c) for e, c in f._terms.items()]))
    return Ideal(ring, kept)


def radical_member(f: Poly, I: Ideal, *, step_limit: int | None = None) -> bool:
    """f in rad(I).  For I generated by monomials, by supports: x^v lies in
    rad(I) when supp(u) lies in supp(v) for a generator x^u.  Otherwise by
    the Rabinowitsch trick: adjoin t and ask whether 1 lies in I + (1 - t*f)."""
    if f.ring != I.ring:
        raise RingMismatchError("polynomial and ideal live in different rings")
    ring = I.ring
    if f.is_zero():
        return True
    if all(g.is_term() for g in I.gens):
        gens = [next(iter(g._terms)) for g in I.gens]
        return all(any(all(a or not b for a, b in zip(v, u)) for u in gens)
                   for v in f._terms)
    ext, _ = _extend_ring(ring, first=False)
    gens = [Poly.from_terms(ext, [(e + (0,), c) for e, c in g._terms.items()])
            for g in I.gens]
    items = [((0,) * ext.nvars, 1)]
    items += [(e + (1,), -c) for e, c in f._terms.items()]
    gens.append(Poly.from_terms(ext, items))
    gb = buchberger(Ideal(ext, gens), GREVLEX, step_limit=step_limit)
    return len(gb.polys) == 1 and gb.polys[0].is_constant()


def _extend_ring(ring: RingCtx, *, first: bool):
    """Adjoin one fresh variable, in front (for elimination) or at the end."""
    base = "t"
    name = base
    k = 0
    while name in ring.var_names:
        name = f"{base}{k}"
        k += 1
    names = (name,) + ring.var_names if first else ring.var_names + (name,)
    return RingCtx(ring.field, names), name


def generated_in_degree(I: Ideal, d: int) -> bool:
    """Whether the elements of I of total degree <= d generate I.

    Under grevlex a polynomial's degree is its lead's, and division never
    raises the lead, so an element of I of degree <= d reduces to zero by
    the reduced-basis elements of degree <= d alone.  Those elements thus
    generate the degree-<= d slice, which is I exactly when they generate I
    (a basis can hold a higher-degree element that the slice still
    generates: (x^2, xy + y^2) has y^3 in its basis).
    """
    gb = I.groebner_basis()
    return Ideal(I.ring, [g for g in gb.polys if g.total_degree() <= d]) == I
