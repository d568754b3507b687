"""Sparse multivariate polynomials over F_p.

Terms live in a dict mapping exponent tuples to nonzero residues; every
externally visible term list is sorted descending under a deterministic
monomial order (grevlex unless stated otherwise), so equal polynomials
print identically across runs.  The text grammar is

    poly   := ['-'] term (('+'|'-') term)*
    term   := coeff ('*' varpow)* | varpow ('*' varpow)*
    varpow := var ('^' nat)?

with whitespace insignificant; '-' negates the following term, i.e. scales
it by p-1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, NoReturn, Sequence

from .errors import FjumpError, PolyParseError, ResourceLimitError, RingMismatchError
from .gfp import PrimeField

# Exponents are kept within machine-word range so that bracket powers fail
# loudly instead of silently ballooning.
EXP_LIMIT = 2**63 - 1

# A single power computation aborts once an intermediate product carries this
# many terms; callers see a resource error, never a truncated polynomial.
POW_TERM_LIMIT = 500_000

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class MonomialOrder:
    """A deterministic total order on exponent vectors.

    kind is one of 'grevlex', 'lex', 'block'; a block order compares the
    first ``block`` variables grevlex-first, which makes it an elimination
    order for those variables.
    """

    kind: str
    block: int | None = None

    def __post_init__(self):
        if self.kind not in ("grevlex", "lex", "block"):
            raise FjumpError(f"unknown monomial order {self.kind!r}")
        if (self.kind == "block") != (self.block is not None):
            raise FjumpError("block orders need a block size, others must not have one")
        if self.kind == "block" and self.block < 1:
            raise FjumpError("block size must be >= 1")

    def key(self, exps: tuple[int, ...]):
        """Sort key: larger key = larger monomial."""
        if self.kind == "grevlex":
            return _grevlex_key(exps)
        if self.kind == "lex":
            return exps
        k = self.block
        if k >= len(exps):
            raise FjumpError("elimination block must leave at least one variable")
        return _grevlex_key(exps[:k]) + _grevlex_key(exps[k:])

    def __str__(self):
        if self.kind == "block":
            return f"block({self.block})"
        return self.kind


def _grevlex_key(exps: tuple[int, ...]):
    return (sum(exps),) + tuple(-e for e in reversed(exps))


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


def elimination_order(block: int) -> MonomialOrder:
    """Order that eliminates the first ``block`` variables."""
    return MonomialOrder("block", block)


@dataclass(frozen=True, slots=True)
class RingCtx:
    """The ambient polynomial ring F_p[x_1, ..., x_n]."""

    field: PrimeField
    var_names: tuple[str, ...]

    def __post_init__(self):
        names = tuple(self.var_names)
        object.__setattr__(self, "var_names", names)
        if len(names) < 1:
            raise FjumpError("a ring needs at least one variable")
        if len(set(names)) != len(names):
            raise FjumpError("variable names must be distinct")
        for nm in names:
            if not _IDENT_RE.fullmatch(nm):
                raise FjumpError(f"bad variable name {nm!r}")

    @property
    def nvars(self) -> int:
        return len(self.var_names)

    @property
    def p(self) -> int:
        return self.field.p

    def zero(self) -> "Poly":
        return Poly._make(self, {})

    def one(self) -> "Poly":
        return self.constant(1)

    def constant(self, c: int) -> "Poly":
        c %= self.p
        if c == 0:
            return self.zero()
        return Poly._make(self, {(0,) * self.nvars: c})

    def var(self, i: int) -> "Poly":
        exps = [0] * self.nvars
        exps[i] = 1
        return Poly._make(self, {tuple(exps): 1})

    def monomial(self, exps: Sequence[int], coeff: int = 1) -> "Poly":
        return Poly.from_terms(self, [(tuple(exps), coeff)])

    def poly(self, text: str) -> "Poly":
        return parse(text, self)

    def ideal(self, *gens):
        from .groebner import Ideal

        return Ideal.of(self, *gens)

    def __repr__(self):
        return f"RingCtx(F_{self.p}[{', '.join(self.var_names)}])"


class Poly:
    """A polynomial in canonical sparse form: no zero coefficients, no
    duplicate monomials, deterministic term iteration."""

    __slots__ = ("ring", "_terms")

    def __init__(self, *args, **kwargs):
        raise TypeError("use the RingCtx factories or Poly.from_terms")

    @classmethod
    def _make(cls, ring: RingCtx, terms: dict) -> "Poly":
        self = object.__new__(cls)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_terms", terms)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def from_terms(cls, ring: RingCtx, items: Iterable[tuple[Sequence[int], int]]) -> "Poly":
        p = ring.p
        terms: dict = {}
        for exps, coeff in items:
            exps = tuple(exps)
            if len(exps) != ring.nvars:
                raise RingMismatchError("exponent vector length does not match the ring")
            if any(e < 0 for e in exps):
                raise FjumpError("monomial exponents must be nonnegative")
            if any(e > EXP_LIMIT for e in exps):
                raise ResourceLimitError("monomial exponent overflow")
            c = (terms.get(exps, 0) + coeff) % p
            if c:
                terms[exps] = c
            else:
                terms.pop(exps, None)
        return cls._make(ring, terms)

    # Basic queries.

    def is_zero(self) -> bool:
        return not self._terms

    def is_term(self) -> bool:
        return len(self._terms) == 1

    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1
                                   and not any(next(iter(self._terms))))

    def num_terms(self) -> int:
        return len(self._terms)

    def total_degree(self) -> int | None:
        """Maximum exponent sum, or None for the zero polynomial."""
        if not self._terms:
            return None
        return max(sum(e) for e in self._terms)

    def coeff(self, exps: Sequence[int]) -> int:
        return self._terms.get(tuple(exps), 0)

    def sorted_terms(self, order: MonomialOrder = GREVLEX) -> list[tuple[tuple[int, ...], int]]:
        """Terms as (exponents, coefficient), descending under ``order``."""
        return [(e, self._terms[e]) for e in sorted(self._terms, key=order.key, reverse=True)]

    def lead_term(self, order: MonomialOrder = GREVLEX) -> tuple[tuple[int, ...], int]:
        if not self._terms:
            raise FjumpError("the zero polynomial has no leading term")
        e = max(self._terms, key=order.key)
        return e, self._terms[e]

    # Arithmetic.

    def _check_ring(self, other: "Poly"):
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {type(other).__name__}")
        if other.ring != self.ring:
            raise RingMismatchError("polynomials live in different rings")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_ring(other)
        p = self.ring.p
        out = dict(self._terms)
        for e, c in other._terms.items():
            nc = (out.get(e, 0) + c) % p
            if nc:
                out[e] = nc
            else:
                out.pop(e, None)
        return Poly._make(self.ring, out)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check_ring(other)
        p = self.ring.p
        out = dict(self._terms)
        for e, c in other._terms.items():
            nc = (out.get(e, 0) - c) % p
            if nc:
                out[e] = nc
            else:
                out.pop(e, None)
        return Poly._make(self.ring, out)

    def __neg__(self) -> "Poly":
        p = self.ring.p
        return Poly._make(self.ring, {e: p - c for e, c in self._terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_ring(other)
        if not self._terms or not other._terms:
            return self.ring.zero()
        _check_mul_overflow(self, other)
        p = self.ring.p
        out: dict = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                nc = (out.get(e, 0) + c1 * c2) % p
                if nc:
                    out[e] = nc
                else:
                    out.pop(e, None)
        return Poly._make(self.ring, out)

    def frobenius(self, e: int) -> "Poly":
        """The p^e-th power.  Over F_p this is pure exponent scaling:
        coefficients are Frobenius-fixed and cross terms vanish."""
        if e == 0:
            return self
        q = self.ring.p ** e
        top = self.total_degree()
        if top is not None and top * q > EXP_LIMIT:
            raise ResourceLimitError("monomial exponent overflow in Frobenius power")
        return Poly._make(self.ring,
                          {tuple(x * q for x in exps): c
                           for exps, c in self._terms.items()})

    def __pow__(self, r: int) -> "Poly":
        if r < 0:
            raise FjumpError("negative polynomial powers are undefined here")
        if r == 0:
            return self.ring.one()
        if not self._terms:
            return self.ring.zero()
        if len(self._terms) == 1:
            ((exps, c),) = self._terms.items()
            if any(x and x * r > EXP_LIMIT for x in exps):
                raise ResourceLimitError("monomial exponent overflow")
            return Poly._make(self.ring,
                              {tuple(x * r for x in exps): pow(c, r, self.ring.p)})
        # Base-p digits keep intermediate products sparse: f^r is the product
        # over digits d_k of (f^{d_k})^{p^k}, and p^k-th powers are free.
        p = self.ring.p
        result = self.ring.one()
        level = 0
        n = r
        while n:
            n, digit = divmod(n, p)
            if digit:
                result = result * _small_pow(self, digit).frobenius(level)
                if result.num_terms() > POW_TERM_LIMIT:
                    raise ResourceLimitError(
                        f"f^{r} exceeds {POW_TERM_LIMIT} terms")
            level += 1
        return result

    def substitute(self, target: RingCtx, images: Sequence["Poly"]) -> "Poly":
        """Apply the ring map sending variable i to images[i]."""
        if len(images) != self.ring.nvars:
            raise FjumpError("need one image per variable")
        for g in images:
            if g.ring != target:
                raise RingMismatchError("images must live in the target ring")
        out = target.zero()
        for exps, c in self.sorted_terms():
            term = target.constant(c)
            for i, e in enumerate(exps):
                if e:
                    term = term * images[i] ** e
            out = out + term
        return out

    # Value semantics.

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    def __hash__(self):
        return hash((self.ring, frozenset(self._terms.items())))

    def __str__(self):
        if not self._terms:
            return "0"
        return " + ".join(_format_term(self.ring, e, c) for e, c in self.sorted_terms())

    def __repr__(self):
        return f"Poly({self})"


def _small_pow(f: Poly, d: int) -> Poly:
    out = f
    for _ in range(d - 1):
        out = out * f
    return out


def _check_mul_overflow(f: Poly, g: Poly):
    fmax = [0] * f.ring.nvars
    gmax = [0] * f.ring.nvars
    for e in f._terms:
        for i, x in enumerate(e):
            if x > fmax[i]:
                fmax[i] = x
    for e in g._terms:
        for i, x in enumerate(e):
            if x > gmax[i]:
                gmax[i] = x
    if any(a + b > EXP_LIMIT for a, b in zip(fmax, gmax)):
        raise ResourceLimitError("monomial exponent overflow in product")


def _format_term(ring: RingCtx, exps: tuple[int, ...], coeff: int) -> str:
    factors = []
    for name, e in zip(ring.var_names, exps):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    if not factors:
        return str(coeff)
    if coeff != 1:
        factors.insert(0, str(coeff))
    return "*".join(factors)


# ---------------------------------------------------------------------------
# Parser.

# One signed term with the whitespace around it.  A term ends where the next
# term's sign starts or where the text ends, since signs occur nowhere else.
_VARPOW = _IDENT_RE.pattern + r"(?:\s*\^\s*\d+)?"
_TERM_RE = re.compile(
    rf"\s*([+-]?)\s*((?:\d+|{_VARPOW})(?:\s*\*\s*{_VARPOW})*)\s*(?=[+-]|\Z)")
_TOKEN_RE = re.compile(rf"\d+|{_IDENT_RE.pattern}|[+\-*^]")
_BAD_CHAR_RE = re.compile(r"[^\s\dA-Za-z_+\-*^]")


def parse(text: str, ring: RingCtx) -> Poly:
    """Parse the grammar above; coefficients reduce mod p.

    One regex match takes a whole signed term, its factors are split at
    '*' and '^', and the term goes straight into the polynomial's dict."""
    index = {name: i for i, name in enumerate(ring.var_names)}
    p = ring.p
    terms: dict = {}
    pos = 0
    while True:
        m = _TERM_RE.match(text, pos)
        if m is None:
            _fail(text, pos, index)
        sign, body = m.groups()
        exps = [0] * len(index)
        factors = body.split("*")
        try:
            coeff = int(factors.pop(0)) if body[0].isdecimal() else 1
            for factor in factors:
                name, _, e = factor.partition("^")
                i = index.get(name.strip())
                if i is None:
                    _fail(text, pos, index)
                exps[i] += int(e) if e else 1
        except ValueError:  # a number past the interpreter's int digit limit
            _fail(text, pos, index)
        if max(exps) > EXP_LIMIT:
            _fail(text, pos, index)
        key = tuple(exps)
        c = (terms.get(key, 0) + (-coeff if sign == "-" else coeff)) % p
        if c:
            terms[key] = c
        else:
            terms.pop(key, None)
        pos = m.end()
        if pos == len(text):
            return Poly._make(ring, terms)


def _fail(text: str, pos: int, index: dict) -> NoReturn:
    """Raise the PolyParseError for the rejected term that starts at ``pos``.

    A character outside the grammar's alphabet is reported first, wherever
    it is; otherwise the term is read again token by token and the first
    token the grammar does not allow there is reported."""
    bad = _BAD_CHAR_RE.search(text)
    if bad:
        raise PolyParseError(f"unexpected character {bad.group()!r}", bad.start())
    tokens = ((m.group(), m.start()) for m in _TOKEN_RE.finditer(text, pos))
    end = ("", len(text))
    tok, at = next(tokens, end)
    if tok in ("+", "-"):
        tok, at = next(tokens, end)
    more = True
    if tok[:1].isdecimal():
        _number(tok, at)  # rejects a coefficient too long for int()
        tok, at = next(tokens, end)
        more = tok == "*"
        if more:
            tok, at = next(tokens, end)
    exps = [0] * len(index)
    while more:
        if not _IDENT_RE.match(tok):
            raise PolyParseError("expected a variable name", at)
        i = index.get(tok)
        if i is None:
            raise PolyParseError(f"unknown variable {tok!r}", at)
        tok, at = next(tokens, end)
        e = 1
        if tok == "^":
            tok, at = next(tokens, end)
            if not tok[:1].isdecimal():
                raise PolyParseError("expected an exponent", at)
            e = _number(tok, at)
            if e > EXP_LIMIT:
                raise PolyParseError("exponent overflow", at)
            tok, at = next(tokens, end)
        exps[i] += e
        if exps[i] > EXP_LIMIT:
            raise PolyParseError("exponent overflow", at)
        more = tok == "*"
        if more:
            tok, at = next(tokens, end)
    # The term is complete and was still rejected, so what follows it is not
    # a sign or the end of the text.
    raise PolyParseError("expected '+' or '-' between terms", at)


def _number(tok: str, at: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise PolyParseError("number too long", at) from None
