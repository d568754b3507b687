"""Independent small-instance oracles used only by the tests."""

from itertools import product


def monomials_up_to(n, d):
    if n == 0:
        return [()]
    out = []
    for head in range(d + 1):
        for tail in monomials_up_to(n - 1, d - head):
            out.append((head,) + tail)
    return out


def member_by_linear_algebra(f, gens, cofactor_degree):
    """Whether f = sum c_i * g_i for cofactors of total degree at most
    ``cofactor_degree``, by solving the linear system on coefficients.

    Complete for membership in graded situations where reduction never
    raises degree; the tests choose the degree bound generously and only
    trust the positive direction against larger bounds.
    """
    R = f.ring
    p = R.p
    monos = monomials_up_to(R.nvars, cofactor_degree)
    columns = []
    for g in gens:
        for mu in monos:
            columns.append(g * R.monomial(mu))
    # Solve sum_j x_j * columns[j] = f over F_p.
    support = set(f._terms)
    for col in columns:
        support.update(col._terms)
    support = sorted(support)
    index = {e: i for i, e in enumerate(support)}
    rows = len(support)
    mat = [[0] * (len(columns) + 1) for _ in range(rows)]
    for j, col in enumerate(columns):
        for e, c in col._terms.items():
            mat[index[e]][j] = c
    for e, c in f._terms.items():
        mat[index[e]][len(columns)] = c
    return _solvable_mod_p(mat, len(columns), p)


def _solvable_mod_p(mat, ncols, p):
    rows = len(mat)
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, rows) if mat[i][col] % p), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][col], p - 2, p)
        mat[r] = [(x * inv) % p for x in mat[r]]
        for i in range(rows):
            if i != r and mat[i][col] % p:
                c = mat[i][col]
                mat[i] = [(x - c * y) % p for x, y in zip(mat[i], mat[r])]
        r += 1
        if r == rows:
            break
    # Inconsistent iff some row is (0 ... 0 | nonzero).
    for row in mat:
        if row[-1] % p and all(x % p == 0 for x in row[:-1]):
            return False
    return True


def brute_force_monomial_power_root(vecs, r, q, nvars):
    """Floors of all r-fold sums of the given exponent vectors."""
    out = set()

    def rec(idx, left, acc):
        if idx == len(vecs) - 1:
            total = [a + left * v for a, v in zip(acc, vecs[idx])]
            out.add(tuple(t // q for t in total))
            return
        for k in range(left + 1):
            rec(idx + 1, left - k, [a + k * v for a, v in zip(acc, vecs[idx])])

    if not vecs:
        return out
    rec(0, r, [0] * nvars)
    return out
