"""Test ideals and jumping numbers of two-variable monomial ideals from the
Newton polygon, written apart from ``fjump``.

For a monomial ideal a with Newton polygon P = conv(exponents) + R^2_{>=0},

    x^v in tau(a^c)  <=>  v + 1 in Int(c P)  <=>  c < g(v),
    g(v) = min over facets <w, u> >= h (h > 0) of <w, v + 1> / h

(Howald 2001; in characteristic p, Hara-Yoshida 2003, Thm 4.8).  For the
mixed ideal tau(a^c b^d) the polygon is the Minkowski sum c P(a) + d P(b).
So tau is a finite staircase, and the jumps in (0, B] are exactly the gauge
values g(v) <= B.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor


def facets(points):
    """Facets (w, h) of conv(points) + R^2_{>=0}, as half-planes <w, u> >= h
    with w >= 0; ``points`` are pairs of nonnegative rationals."""
    pts = sorted(set(points))
    corner = []  # the componentwise-minimal points, x ascending, y descending
    for pt in pts:
        if not corner or pt[1] < corner[-1][1]:
            corner.append(pt)
    hull: list = []
    for pt in corner:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], pt) <= 0:
            hull.pop()
        hull.append(pt)
    out = [((1, 0), Fraction(hull[0][0])), ((0, 1), Fraction(hull[-1][1]))]
    for a, b in zip(hull, hull[1:]):
        w = (a[1] - b[1], b[0] - a[0])
        out.append((w, Fraction(w[0] * a[0] + w[1] * a[1])))
    return [(w, h) for w, h in out if h > 0]


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def gauge(v, fcts):
    """min over facets of <w, v + 1> / h; None when there is no facet (the
    polygon is the whole quadrant, a = R)."""
    vals = [Fraction(w[0] * (v[0] + 1) + w[1] * (v[1] + 1)) / h for w, h in fcts]
    return min(vals) if vals else None


def tau_of_polygon(points, c=1) -> frozenset:
    """Minimal exponents of {x^v : v + 1 in Int(c * polygon)}."""
    c = Fraction(c)
    fcts = facets(points)
    if c == 0 or not fcts:
        return frozenset({(0, 0)})

    def v2_min(v1):
        # the least v2 with <w, (v1+1, v2+1)> > c h on every facet, or None
        need = 0
        for (w1, w2), h in fcts:
            slack = c * h - w1 * (v1 + 1)
            if w2 == 0:
                if slack >= 0:
                    return None
            else:
                need = max(need, floor(Fraction(slack) / w2))
        return need

    # Past v1_max every facet with w1 > 0 holds whatever v2 is, so the
    # staircase has no further corner.
    v1_max = max([ceil(c * h / w[0]) for w, h in fcts if w[0] > 0], default=0)
    gens = []
    best = None
    for v1 in range(v1_max + 1):
        need = v2_min(v1)
        if need is not None and (best is None or need < best):
            gens.append((v1, need))
            best = need
    return frozenset(gens)


def tau(exponents, c) -> frozenset:
    """tau(a^c) for the monomial ideal with these generator exponents."""
    return tau_of_polygon([tuple(map(Fraction, v)) for v in exponents], c)


def mixed_tau(pairs) -> frozenset:
    """tau(a_1^c_1 ... a_k^c_k): the Minkowski sum of the scaled polygons is
    the polygon of all sums of scaled generator exponents."""
    points = [(Fraction(0), Fraction(0))]
    for exponents, c in pairs:
        c = Fraction(c)
        points = [(x + c * a, y + c * b) for x, y in points for a, b in exponents]
    return tau_of_polygon(points)


def jumps(exponents, bound) -> list:
    """0 and every jumping number of tau(a^c) in (0, bound], ascending."""
    bound = Fraction(bound)
    fcts = facets([tuple(map(Fraction, v)) for v in exponents])
    # Past box[j] in coordinate j every facet with w_j > 0 exceeds the bound,
    # so values <= bound are all attained inside the box.
    box = [max([ceil(bound * h / w[j]) for w, h in fcts if w[j] > 0], default=0)
           for j in (0, 1)]
    values = {Fraction(0)}
    for v1 in range(box[0] + 1):
        for v2 in range(box[1] + 1):
            g = gauge((v1, v2), fcts)
            if g is not None and g <= bound:
                values.add(g)
    return sorted(values)
