"""Test ideals and integral closures of monomial ideals from the Newton
polyhedron, in exact integer arithmetic.

For monomial ideals a_i with Newton polyhedra P_i = conv(exponents) +
R^n_{>=0}, the mixed test ideal is the staircase

    tau(a_1^c_1 ... a_k^c_k) = < x^v : v + 1 in Int(c_1 P_1 + ... + c_k P_k) >

(Howald 2001; in characteristic p, Hara-Yoshida 2003, Thm 4.8), and the
integral closure of a is < x^v : v in P(a) >.  Scaling the Minkowski sum by
L, the lcm of the denominators of the c_i, makes it the polyhedron of the
integer points sum_i L c_i g_i, so every facet <W, u> >= H has integer W, H.

The chain (prod_i a_i^ceil(c_i q))^[1/q] reaches tau at a level read off
the staircase alone.  Let eps > 0 be the largest step with v + 1 - eps*1
still in the sum polyhedron for every generator v of tau, and S = sum_i
m_i d_i over the factors (m_i minimal generators of largest exponent d_i).
Writing v + 1 - eps*1 >= sum_i c_i sum_g lambda_ig g with convex weights,
rounding q c_i lambda_ig to integers that sum to ceil(c_i q) moves each
coordinate of the sum by less than m_i d_i, so once q*eps >= S + 1 some
product generator u has u < q(v + 1), i.e. x^v lies in the chain term.
Every chain term lies inside tau and the chain ascends, so it equals tau
from that level on.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm

from .groebner import Ideal
from .oracle import minimal_vectors, monomial_exponents, monomial_ideal


def _det(mat) -> int:
    """Determinant of a square integer matrix, fraction-free (Bareiss)."""
    a = [list(row) for row in mat]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def facets(points) -> tuple:
    """Facets (W, H) with H > 0 of conv(points) + R^n_{>=0}, as half-spaces
    <W, u> >= H with integer W >= 0 and gcd(W, H) = 1; empty when the origin
    is among the points.

    They are the vertices W/H of the polar {w >= 0 : <w, g> >= 1 for all g},
    each the solution of n linearly independent tight constraints."""
    pts = minimal_vectors(points)
    n = len(pts[0])
    if any(not any(g) for g in pts):
        return ()
    rows = [(g, 1) for g in pts] + [(tuple(int(i == j) for i in range(n)), 0)
                                    for j in range(n)]
    out = set()
    for chosen in combinations(rows, n):
        mat = [g for g, _ in chosen]
        den = _det(mat)
        if den == 0:
            continue
        # Cramer: w_j = det(mat with column j replaced by the right side) / den
        num = [_det([g[:j] + (b,) + g[j + 1:] for g, b in chosen])
               for j in range(n)]
        if den < 0:
            den, num = -den, [-x for x in num]
        if any(x < 0 for x in num) or \
                any(sum(x * y for x, y in zip(num, g)) < den for g in pts):
            continue
        k = gcd(den, *num)
        out.add((tuple(x // k for x in num), den // k))
    return tuple(sorted(out))


def staircase(rows, n: int) -> tuple:
    """Minimal v in N^n with <A, v> >= b for every (A, b) in rows, A >= 0.

    The set is closed upward, so each minimal v has v_j <= ceil(b / A_j)
    for some row with A_j > 0 (v - e_j fails that row); the first n - 1
    coordinates run over that box and the last one is solved for."""
    box = [max([-(-b // A[j]) for A, b in rows if A[j] > 0] + [0])
           for j in range(n - 1)]

    def meets(v) -> bool:
        return all(sum(x * y for x, y in zip(A, v)) >= b for A, b in rows)

    out = []
    for head in product(*(range(k + 1) for k in box)):
        last = 0
        for A, b in rows:
            gap = b - sum(x * y for x, y in zip(A, head))
            if gap > 0:
                if A[-1] == 0:
                    break
                last = max(last, -(-gap // A[-1]))
        else:
            v = head + (last,)
            if all(not v[j] or not meets(v[:j] + (v[j] - 1,) + v[j + 1:])
                   for j in range(n - 1)):
                out.append(v)
    return tuple(sorted(out))


def tau_vectors(groups, p: int) -> tuple[tuple, int]:
    """tau(prod_i a_i^c_i) for monomial a_i given as (minimal exponent
    vectors, c_i > 0) pairs: its minimal exponent vectors, and the least
    level e >= 1 from which the chain provably equals it (see the module
    docstring)."""
    L = lcm(*(c.denominator for _, c in groups))
    n = len(groups[0][0][0])
    points = [(0,) * n]
    for vecs, c in groups:
        k = c.numerator * (L // c.denominator)
        points = minimal_vectors(tuple(x + k * y for x, y in zip(u, g))
                                 for u in points for g in vecs)
    fcts = facets(points)
    gens = staircase([(tuple(L * w for w in W), H - L * sum(W) + 1)
                      for W, H in fcts], n)

    eps = min(min([Fraction(v[j] + 1) for j in range(n)] +
                  [Fraction(L * sum(w * (x + 1) for w, x in zip(W, v)) - H,
                            L * sum(W)) for W, H in fcts])
              for v in gens)
    need = 1 + sum(len(vecs) * max(max(g) for g in vecs) for vecs, _ in groups)
    e, q = 1, p
    while q * eps.numerator < need * eps.denominator:
        e, q = e + 1, q * p
    return gens, e


def integral_closure_monomial(a: Ideal) -> Ideal:
    """All monomials whose exponent vectors lie in the Newton polyhedron of
    the generators."""
    vecs = monomial_exponents(a)
    if not vecs:
        return Ideal(a.ring, [])
    return monomial_ideal(a.ring, staircase(facets(vecs), a.ring.nvars))
