"""Tests of the benchmark's own references against textbook values.

    python3 -m pytest perfbench
"""

from fractions import Fraction as Fr

import pytest

import newton
import refalg
import workloads

XY = ("x", "y")


def P(text, p, names=XY):
    return refalg.parse(text, names, p)


@pytest.mark.parametrize("exps, bound, want", [
    ([(3, 0)], 1, [0, Fr(1, 3), Fr(2, 3), 1]),
    ([(1, 0), (0, 1)], 3, [0, 2, 3]),
    ([(2, 0), (0, 3)], 2, [0, Fr(5, 6), Fr(7, 6), Fr(4, 3), Fr(3, 2), Fr(5, 3),
                           Fr(11, 6), 2]),
])
def test_newton_jumps_textbook(exps, bound, want):
    assert newton.jumps(exps, bound) == want


def test_newton_first_jump_of_x3_xy_y4_is_one():
    assert newton.jumps([(3, 0), (1, 1), (0, 4)], 1) == [0, 1]
    assert newton.tau([(3, 0), (1, 1), (0, 4)], Fr(97, 100)) == {(0, 0)}


def test_newton_tau_values():
    m = [(1, 0), (0, 1)]
    assert newton.tau(m, 2) == {(1, 0), (0, 1)}          # tau(m^2) = m
    assert newton.tau(m, Fr(3, 2)) == {(0, 0)}
    assert newton.tau([(0, 1)], Fr(5, 2)) == {(0, 2)}     # tau(y^(5/2)) = y^2
    assert newton.tau([(2, 0), (0, 3)], 1) == {(1, 0), (0, 1)}
    assert newton.tau([(2, 0), (0, 3)], 0) == {(0, 0)}


def test_newton_mixed_is_minkowski_sum():
    # tau(m * (x^2)^(1/2)) = (x): the polygon of x * m.
    assert newton.mixed_tau([([(1, 0), (0, 1)], 1), ([(2, 0)], Fr(1, 2))]) == {(1, 0)}
    # One factor alone agrees with the plain formula.
    assert newton.mixed_tau([([(2, 0), (0, 3)], Fr(7, 6))]) == \
        newton.tau([(2, 0), (0, 3)], Fr(7, 6))


def test_parse_and_format_round_trip():
    f = P("2*x^3*y + y^2 - x", 5)
    assert f == {(3, 1): 2, (0, 2): 1, (1, 0): 4}
    assert P(refalg.fmt(f, XY), 5) == f
    with pytest.raises(refalg.ParseError):
        P("x^", 5)
    with pytest.raises(refalg.ParseError):
        P("x + + y", 5)


def test_power_by_digits_matches_repeated_products():
    f = P("x^2 + x*y + 2*y^3", 3)
    slow = {(0, 0): 1}
    for _ in range(11):
        slow = refalg.mul(slow, f, 3)
    assert refalg.power(f, 11, 3, 2) == slow


def test_root_examples():
    assert refalg.root([P("x^3*y^2", 2)], 2, 2) == [P("x*y", 2)]
    # (x^2 + x y)^[1/2] over F_2: buckets x (from x^2) and the x y remainder.
    got = refalg.root([P("x^2 + x*y", 2)], 2, 2)
    assert refalg.ideals_equal(got, [P("x", 2), P("1", 2)], 2)


def test_groebner_hand_example():
    # (x^2, x y + y^2): the S-pair gives y^3.
    gb = refalg.groebner([P("x^2", 3), P("x*y + y^2", 3)], 3)
    assert refalg.same_polys(gb, [P("x*y + y^2", 3), P("x^2", 3), P("y^3", 3)])


@pytest.mark.parametrize("system", sorted(workloads.FIXED_SYSTEMS)[:2])
def test_groebner_fixed_systems_pass_their_criteria(system):
    (names, polys), p = workloads.FIXED_SYSTEMS[system]
    gens = [refalg.parse(s, names, p) for s in polys]
    gb = refalg.groebner(gens, p)
    assert refalg.is_groebner(gb, p) and refalg.is_reduced(gb, p)
    assert refalg.contains(gb, gens, p)
    assert refalg.same_polys(refalg.groebner(gb, p), gb)


def test_nu_by_definition_on_the_cusp():
    cusp = P("x^2 + y^3", 7)
    m = [(1, 0), (0, 1)]
    workloads._nu_by_definition([cusp], m, 5, 7, 7, 2)
    for wrong in (4, 6):
        with pytest.raises(workloads.Mismatch):
            workloads._nu_by_definition([cusp], m, wrong, 7, 7, 2)


def _nu(f, q, p):
    """Largest r with f^r outside (x^q, y^q), by counting up."""
    r = 0
    while not workloads.in_monomial_ideal(refalg.power(f, r + 1, p, 2),
                                          [(q, 0), (0, q)]):
        r += 1
    return r


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_literature_fpt_lies_in_every_nu_bracket(p):
    for text, truth in (("x^2 + y^3", workloads.CUSP_FPT[p]),
                        ("x^2 + x*y", workloads.NODE_FPT), ("x^3", Fr(1, 3))):
        f = P(text, p)
        for e in (1, 2):
            q = p ** e
            nu = _nu(f, q, p)
            assert Fr(nu, q) <= truth <= Fr(nu + 1, q), (text, p, e)


def test_chain_of_the_cusp_reaches_the_unit_ideal():
    cusp = P("x^2 + y^3", 7)
    levels = dict(workloads.chain_terms([cusp], Fr(33, 40), 7, 2, 3))
    assert refalg.ideals_equal(levels[3], [P("1", 7)], 7)
    assert not refalg.ideals_equal(levels[1], [P("1", 7)], 7)


def test_admitted_denominators():
    assert workloads._admitted(Fr(5, 6), 7, 1, 1)       # 6 | 7 - 1
    assert workloads._admitted(Fr(3, 4), 2, 2, 1)       # 4 = 2^2
    assert not workloads._admitted(Fr(1, 5), 2, 3, 3)   # 5 divides no 2^a (2^b - 1), b <= 3
