"""Reference polynomial algebra over F_p, written apart from ``fjump``.

The benchmark checks every library output against these routines, so none
of them imports the library.  A polynomial is a dict {exponent tuple:
coefficient in 1..p-1}; an ideal is a list of such dicts.  The routines are
plain textbook versions: speed matters only in that a whole check must fit
next to a benchmark run.
"""

from __future__ import annotations

import re
from itertools import combinations, combinations_with_replacement

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*^]))")


class ParseError(ValueError):
    pass


def parse(text: str, names, p: int) -> dict:
    """Parse 'coeff*var^k*... +/- ...' into a polynomial; '-' means p-1."""
    tokens = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            raise ParseError(f"bad character at {pos} in {text!r}")
        tokens.append(m.group(1) or m.group(2) or m.group(3))
        pos = m.end()
    index = {name: i for i, name in enumerate(names)}
    out: dict = {}
    i = 0
    sign = 1
    if tokens and tokens[0] in "+-":
        sign = -1 if tokens[0] == "-" else 1
        i = 1
    while True:
        coeff = 1
        exps = [0] * len(names)
        seen_factor = False
        while i < len(tokens):
            tok = tokens[i]
            if tok.isdigit():
                coeff *= int(tok)
                i += 1
            elif tok in index:
                k = 1
                if i + 1 < len(tokens) and tokens[i + 1] == "^":
                    if i + 2 >= len(tokens) or not tokens[i + 2].isdigit():
                        raise ParseError(f"bad exponent in {text!r}")
                    k = int(tokens[i + 2])
                    i += 2
                exps[index[tok]] += k
                i += 1
            else:
                raise ParseError(f"unexpected {tok!r} in {text!r}")
            seen_factor = True
            if i < len(tokens) and tokens[i] == "*":
                i += 1
                continue
            break
        if not seen_factor:
            raise ParseError(f"empty term in {text!r}")
        _add_term(out, tuple(exps), sign * coeff, p)
        if i == len(tokens):
            return out
        if tokens[i] not in "+-":
            raise ParseError(f"expected + or - in {text!r}")
        sign = -1 if tokens[i] == "-" else 1
        i += 1


def fmt(f: dict, names) -> str:
    """Render a polynomial in the job-file grammar."""
    if not f:
        return "0"
    parts = []
    for exps in sorted(f, key=grevlex, reverse=True):
        factors = [name if e == 1 else f"{name}^{e}"
                   for name, e in zip(names, exps) if e]
        c = f[exps]
        if c != 1 or not factors:
            factors.insert(0, str(c))
        parts.append("*".join(factors))
    return " + ".join(parts)


def grevlex(exps):
    return (sum(exps),) + tuple(-e for e in reversed(exps))


def _add_term(out: dict, exps, c: int, p: int):
    c = (out.get(exps, 0) + c) % p
    if c:
        out[exps] = c
    else:
        out.pop(exps, None)


def mul(f: dict, g: dict, p: int) -> dict:
    out: dict = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            _add_term(out, tuple(a + b for a, b in zip(e1, e2)), c1 * c2, p)
    return out


def frob(f: dict, q: int) -> dict:
    """f^q for q a power of p: exponents scale, coefficients stay."""
    return {tuple(q * x for x in e): c for e, c in f.items()}


def power(f: dict, r: int, p: int, nvars: int) -> dict:
    """f^r through the base-p digits of r: f^(d p^k) = (f^d)^(p^k)."""
    out = {(0,) * nvars: 1}
    q = 1
    while r:
        r, d = divmod(r, p)
        if d:
            piece = {(0,) * nvars: 1}
            for _ in range(d):
                piece = mul(piece, f, p)
            out = mul(out, frob(piece, q), p)
        q *= p
    return out


def ideal_power(gens, r: int, p: int, nvars: int) -> list:
    """Generators of (gens)^r: every r-fold product."""
    if r == 0:
        return [{(0,) * nvars: 1}]
    cache: dict = {}
    out = []
    for combo in combinations_with_replacement(range(len(gens)), r):
        prod = {(0,) * nvars: 1}
        for i in set(combo):
            key = (i, combo.count(i))
            if key not in cache:
                cache[key] = power(gens[i], key[1], p, nvars)
            prod = mul(prod, cache[key], p)
        if prod:
            out.append(prod)
    return out


def root(gens, q: int, p: int) -> list:
    """b^[1/q] over F_p: split each exponent v = q*w + u and collect the x^w
    parts by residue u; every coefficient is its own q-th root.  Buckets
    that agree up to a scalar are kept once."""
    out = {}
    for f in gens:
        buckets: dict = {}
        for e, c in f.items():
            u = tuple(x % q for x in e)
            buckets.setdefault(u, {})[tuple(x // q for x in e)] = c
        for b in buckets.values():
            b = _monic(b, p)
            out[_key(b)] = b
    return list(out.values())


# ---------------------------------------------------------------------------
# Groebner bases (grevlex), the plain Buchberger algorithm.


def _lead(f: dict):
    return max(f, key=grevlex)


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _monic(f: dict, p: int) -> dict:
    inv = pow(f[_lead(f)], -1, p)
    return {e: c * inv % p for e, c in f.items()}


def reduce(f: dict, basis, p: int) -> dict:
    """Full remainder of f on division by ``basis`` (a list of monic
    polynomials)."""
    f = dict(f)
    leads = [(_lead(g), g) for g in basis]
    rem: dict = {}
    while f:
        e = _lead(f)
        c = f[e]
        for le, g in leads:
            if _divides(le, e):
                shift = tuple(a - b for a, b in zip(e, le))
                for ge, gc in g.items():
                    _add_term(f, tuple(a + b for a, b in zip(ge, shift)), -c * gc, p)
                break
        else:
            rem[e] = c
            del f[e]
    return rem


def spoly(f: dict, g: dict, p: int) -> dict:
    lf, lg = _lead(f), _lead(g)
    l = tuple(max(a, b) for a, b in zip(lf, lg))
    out: dict = {}
    for h, lh, sign in ((f, lf, 1), (g, lg, -1)):
        inv = pow(h[lh], -1, p)
        shift = tuple(a - b for a, b in zip(l, lh))
        for e, c in h.items():
            _add_term(out, tuple(a + b for a, b in zip(e, shift)), sign * c * inv, p)
    return out


def echelon(gens, p: int) -> list:
    """Monic polynomials with distinct leads spanning the same F_p-space as
    ``gens`` (so generating the same ideal): Gaussian elimination on leads."""
    pivots: dict = {}
    for g in gens:
        g = dict(g)
        while g:
            e = _lead(g)
            if e not in pivots:
                pivots[e] = _monic(g, p)
                break
            c = g[e]
            for pe, pc in pivots[e].items():
                _add_term(g, pe, -c * pc, p)
    return list(pivots.values())


def groebner(gens, p: int) -> list:
    """The reduced grevlex Groebner basis, monic and sorted ascending by
    lead monomial (the zero ideal gives [])."""
    basis = echelon(gens, p)
    leads = [_lead(g) for g in basis]
    pairs = set(combinations(range(len(basis)), 2))

    def lcm(i, j):
        return tuple(max(a, b) for a, b in zip(leads[i], leads[j]))

    while pairs:
        i, j = min(pairs, key=lambda ij: (sum(lcm(*ij)), grevlex(lcm(*ij)), ij))
        pairs.discard((i, j))
        l = lcm(i, j)
        if all(min(a, b) == 0 for a, b in zip(leads[i], leads[j])):
            continue  # Buchberger's first criterion: coprime leads
        if any(k not in (i, j) and _divides(leads[k], l)
               and (min(i, k), max(i, k)) not in pairs
               and (min(j, k), max(j, k)) not in pairs
               for k in range(len(basis))):
            continue  # the chain criterion: the pair is covered through k
        h = reduce(spoly(basis[i], basis[j], p), basis, p)
        if h:
            basis.append(_monic(h, p))
            leads.append(_lead(basis[-1]))
            pairs.update((k, len(basis) - 1) for k in range(len(basis) - 1))
    minimal = []
    for g in sorted(basis, key=lambda g: grevlex(_lead(g))):
        if not any(_divides(_lead(h), _lead(g)) for h in minimal):
            minimal.append(g)
    out = []
    for k, g in enumerate(minimal):
        out.append(_monic(reduce(g, minimal[:k] + minimal[k + 1:], p), p))
    return sorted(out, key=lambda g: grevlex(_lead(g)))


def is_groebner(basis, p: int) -> bool:
    """Buchberger's S-pair criterion: every S-polynomial reduces to zero."""
    monic = [_monic(g, p) for g in basis]
    return all(not reduce(spoly(f, g, p), monic, p)
               for f, g in combinations(monic, 2))


def is_reduced(basis, p: int) -> bool:
    """Monic, and no term of any element lies in another element's lead."""
    for k, g in enumerate(basis):
        if not g or g[_lead(g)] != 1:
            return False
        others = [_lead(h) for i, h in enumerate(basis) if i != k]
        if any(_divides(le, e) for e in g for le in others):
            return False
    return True


def same_polys(a, b) -> bool:
    return sorted(map(_key, a)) == sorted(map(_key, b))


def _key(f: dict):
    return tuple(sorted(f.items()))


def contains(basis, gens, p: int) -> bool:
    """Whether every generator lies in the ideal of a Groebner ``basis``."""
    return all(not reduce(g, basis, p) for g in gens)


def power_remainders(gens, basis, p: int, nvars: int):
    """For r = 0, 1, 2, ... the remainders modulo a Groebner ``basis`` of
    every r-fold product of ``gens``, built one factor at a time:
    NF(P g) = NF(NF(P) g)."""
    level = {(0,) * len(gens): reduce({(0,) * nvars: 1}, basis, p)}
    while True:
        yield list(level.values())
        nxt: dict = {}
        for combo, rem in level.items():
            for i, g in enumerate(gens):
                key = tuple(c + (j == i) for j, c in enumerate(combo))
                if key not in nxt:
                    nxt[key] = reduce(mul(rem, g, p), basis, p)
        level = nxt


def ideals_equal(a, b, p: int) -> bool:
    return same_polys(groebner(a, p), groebner(b, p))


# ---------------------------------------------------------------------------
# Monomial ideals, as sets of minimal exponent vectors.


def minimal_vectors(vecs) -> frozenset:
    vecs = set(vecs)
    return frozenset(v for v in vecs
                     if not any(w != v and _divides(w, v) for w in vecs))


def monomial_support(gens):
    """Minimal exponent vectors when every generator is a single term,
    else None."""
    vecs = []
    for g in gens:
        if len(g) != 1:
            return None
        vecs.extend(g)
    return minimal_vectors(vecs)
