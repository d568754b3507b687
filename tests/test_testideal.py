import random
from fractions import Fraction
from math import ceil

import pytest

from fjump import (Ideal, InconclusiveError, PreconditionError, TauParams,
                   degree_bound_check, ideal_intersect, ideal_power,
                   ideal_product, ideal_sum, integral_closure_monomial,
                   is_subset, skoda_reduce)
from fjump import mixed_test_ideal as tau_mixed
from fjump import test_ideal as tau
from fjump import test_ideal_chain as raw_chain
from fjump.oracle import monomial_exponents, monomial_ideal, power_root_vectors

from conftest import random_ideal, random_monomial_ideal, random_poly, ring

R2 = ring(2, "x", "y")
R3 = ring(3, "x", "y")
R2x = ring(2, "x")


def ideal_of(result):
    return result.ideal


def test_derived_point_values():
    assert tau(R2x.ideal("x"), Fraction(1, 2)).ideal == R2x.ideal("1")
    assert tau(R2x.ideal("x"), Fraction(3, 2)).ideal == R2x.ideal("x")
    assert tau(R2.ideal("x", "y"), 2).ideal == R2.ideal("x", "y")
    assert tau(R2.ideal("x", "y"), 0).ideal == R2.ideal("1")


def test_zero_conventions():
    z = Ideal(R2, [])
    assert tau(z, 0).ideal.is_zero()
    assert tau(z, Fraction(7, 3)).ideal.is_zero()
    assert tau(R2.ideal("x"), 0).ideal == R2.ideal("1")


def test_rejects_bad_exponents():
    with pytest.raises(PreconditionError):
        tau(R2.ideal("x"), Fraction(-1, 2))
    with pytest.raises(PreconditionError):
        tau(R2.ideal("x"), 0.5)


def test_values_cross_checked_by_raw_chain():
    for R in (R2, R3):
        a = R.ideal("x")
        for c, want in ((Fraction(1, 2), R.ideal("1")), (Fraction(3, 2), R.ideal("x"))):
            got = tau(a, c)
            assert got.ideal == want
            chain = raw_chain(a, c, got.stabilized_at + 2)
            assert chain[-1][1] == want
        axy = R.ideal("x", "y")
        got = tau(axy, 2)
        assert got.ideal == axy
        assert raw_chain(axy, 2, got.stabilized_at + 2)[-1][1] == axy


def test_skoda_reduce_examples():
    assert skoda_reduce(R2x.ideal("x"), Fraction(5, 2)) == (2, Fraction(1, 2))
    two_gen = R2.ideal("x", "y")
    assert skoda_reduce(two_gen, 3) == (2, 1)
    assert skoda_reduce(two_gen, 2) == (1, 1)
    with pytest.raises(PreconditionError):
        skoda_reduce(two_gen, Fraction(3, 2))


def test_skoda_on_off_agree():
    rnd = random.Random(31)
    on = TauParams()
    off = TauParams(use_skoda=False)
    for _ in range(40):
        R = R2 if rnd.random() < 0.5 else R3
        if rnd.random() < 0.7:
            a = random_monomial_ideal(rnd, R, max_gens=2, max_exp=3)
        else:
            a = random_ideal(rnd, R, max_gens=2, max_degree=2)
        if a.is_zero():
            continue
        m = len(a.gens)
        c = m + Fraction(rnd.randint(0, 12), 12)
        assert tau(a, c, on).ideal == tau(a, c, off).ideal


def test_mixed_degenerates_to_plain():
    rnd = random.Random(17)
    for _ in range(20):
        R, a = _random_tau_instance(rnd)
        c = Fraction(rnd.randint(1, 18), 12)
        assert tau_mixed([(a, c)]).ideal == tau(a, c).ideal


def test_mixed_examples():
    x, y = R2.ideal("x"), R2.ideal("y")
    assert tau_mixed([(x, Fraction(1, 2)), (y, Fraction(1, 2))]).ideal == R2.ideal("1")
    assert tau_mixed([(x, 1), (y, 1)]).ideal == R2.ideal("x*y")
    assert tau_mixed([(x, 1), (Ideal(R2, []), 1)]).ideal.is_zero()


def test_mixed_subadditivity():
    rnd = random.Random(43)
    for _ in range(25):
        R = R2 if rnd.random() < 0.5 else R3
        a = random_monomial_ideal(rnd, R, max_gens=2, max_exp=3)
        b = random_monomial_ideal(rnd, R, max_gens=2, max_exp=3)
        if a.is_zero() or b.is_zero():
            continue
        c1 = Fraction(rnd.randint(1, 18), 12)
        c2 = Fraction(rnd.randint(1, 18), 12)
        mixed = tau_mixed([(a, c1), (b, c2)]).ideal
        assert is_subset(mixed, ideal_product(tau(a, c1).ideal, tau(b, c2).ideal))


def _random_tau_instance(rnd, allow_general=True):
    # The plateau heuristic is verified on a bounded schedule, so general
    # (non-monomial) draws stay small enough for the probes to bite.
    R = R2 if rnd.random() < 0.5 else R3
    if allow_general and rnd.random() < 0.3:
        a = random_ideal(rnd, R, max_gens=2, max_degree=3)
    else:
        a = random_monomial_ideal(rnd, R, max_gens=2, max_exp=4)
    if a.is_zero():
        return _random_tau_instance(rnd, allow_general)
    return R, a


def test_monotone_in_exponent():
    rnd = random.Random(61)
    for _ in range(40):
        R, a = _random_tau_instance(rnd)
        c1 = Fraction(rnd.randint(0, 18), 12)
        c2 = c1 + Fraction(rnd.randint(1, 12), 12)
        assert is_subset(tau(a, c2).ideal, tau(a, c1).ideal)


def test_monotone_in_ideal():
    rnd = random.Random(67)
    for _ in range(40):
        R, a = _random_tau_instance(rnd)
        b = ideal_sum(a, Ideal(R, [random_poly(rnd, R, max_degree=3, nonzero=True)]))
        c = Fraction(rnd.randint(1, 24), 12)
        assert is_subset(tau(a, c).ideal, tau(b, c).ideal)


def test_intersection_and_sum_bounds():
    rnd = random.Random(71)
    for _ in range(25):
        R = R2 if rnd.random() < 0.5 else R3
        a = random_monomial_ideal(rnd, R, max_gens=2, max_exp=4)
        b = random_monomial_ideal(rnd, R, max_gens=2, max_exp=4)
        if a.is_zero() or b.is_zero():
            continue
        c = Fraction(rnd.randint(1, 18), 12)
        ta, tb = tau(a, c).ideal, tau(b, c).ideal
        assert is_subset(tau(ideal_intersect(a, b), c).ideal,
                         ideal_intersect(ta, tb))
        assert is_subset(ideal_sum(ta, tb), tau(ideal_sum(a, b), c).ideal)


def test_subadditivity_for_products():
    rnd = random.Random(73)
    for _ in range(25):
        R, a = _random_tau_instance(rnd, allow_general=False)
        _, b = _random_tau_instance(rnd, allow_general=False)
        if b.ring != R:
            continue
        c = Fraction(rnd.randint(1, 18), 12)
        assert is_subset(tau(ideal_product(a, b), c).ideal,
                         ideal_product(tau(a, c).ideal, tau(b, c).ideal))


def test_power_rescaling_identity():
    rnd = random.Random(79)
    for _ in range(30):
        R, a = _random_tau_instance(rnd, allow_general=False)
        if rnd.random() < 0.2:
            a = Ideal(R, [random_poly(rnd, R, max_degree=3, nonzero=True)])
        m = rnd.choice([2, 3])
        c = Fraction(rnd.randint(1, 18), 12) / m
        assert tau(ideal_power(a, m), c).ideal == tau(a, c * m).ideal


def test_degree_bound_examples():
    Rx = R2x
    assert degree_bound_check(Rx.ideal("x^2"), 1, Rx.ideal("x^2"))
    assert degree_bound_check(Rx.ideal("x"), Fraction(1, 2), Rx.ideal("1"))
    assert not degree_bound_check(Rx.ideal("x"), Fraction(1, 2), Rx.ideal("x"))


def test_degree_bound_on_computed_values():
    rnd = random.Random(83)
    for _ in range(30):
        R, a = _random_tau_instance(rnd)
        c = Fraction(rnd.randint(1, 24), 12)
        assert degree_bound_check(a, c, tau(a, c).ideal)


def test_chain_trace_is_ascending():
    rnd = random.Random(89)
    for _ in range(20):
        R, a = _random_tau_instance(rnd)
        c = Fraction(rnd.randint(1, 24), 12)
        trace = tau(a, c).chain_trace
        for (_, prev), (_, nxt) in zip(trace, trace[1:]):
            assert is_subset(prev, nxt)


def test_integral_closure_invariance():
    rnd = random.Random(97)
    for _ in range(30):
        R = R2 if rnd.random() < 0.5 else R3
        a = random_monomial_ideal(rnd, R, max_gens=3, max_exp=4)
        if a.is_zero():
            continue
        closed = integral_closure_monomial(a)
        c = Fraction(rnd.randint(1, 24), 12)
        assert tau(a, c).ideal == tau(closed, c).ideal


def test_adjunction_to_a_coordinate_hyperplane():
    # For a containing the last variable, the image of tau(a^(c+1)) in the
    # quotient by that variable is the test ideal of the image of a.
    rnd = random.Random(103)
    small2, small3 = ring(2, "x"), ring(3, "x")
    for _ in range(20):
        p = rnd.choice([2, 3])
        R = R2 if p == 2 else R3
        S = small2 if p == 2 else small3
        f = random_poly(rnd, S, max_degree=3, nonzero=True)
        lift = f.substitute(R, [R.poly("x")])
        a = Ideal(R, [R.poly("y"), lift])
        c = Fraction(rnd.randint(1, 12), 6)
        upstairs = tau(a, c + 1).ideal
        image = Ideal(S, [g.substitute(S, [S.poly("x"), S.zero()])
                          for g in upstairs.gens])
        downstairs = tau(Ideal(S, [f]), c).ideal
        assert image == downstairs, (str(f), c)


def test_monomial_results_are_certified():
    rnd = random.Random(107)
    for _ in range(20):
        R = R2 if rnd.random() < 0.5 else R3
        a = random_monomial_ideal(rnd, R, max_gens=2, max_exp=4)
        if a.is_zero():
            continue
        c = Fraction(rnd.randint(1, 24), 12)
        result = tau(a, c)
        assert result.certified
        # certification survives awkward exponents near a jump
        near = c - Fraction(1, 2**11)
        if near > 0:
            assert tau(a, near).certified


def test_closed_form_equals_the_chain_at_stabilized_at():
    # stabilized_at is bounded from the Newton polyhedron alone; the chain
    # term there, from the floor formula, must be the closed-form value.
    rnd = random.Random(109)
    checked = 0
    while checked < 400:
        n, p = rnd.randint(1, 3), rnd.choice([2, 3, 5])
        R = ring(p, *"xyz"[:n])
        k = 1 + checked % 2
        factors = [random_monomial_ideal(rnd, R, max_gens=3 if k == 1 else 2,
                                         max_exp=3) for _ in range(k)]
        if any(a.is_zero() for a in factors):
            continue
        cs = [Fraction(rnd.randint(1, 12), rnd.choice([1, 2, 3, 4, 6]))
              for _ in range(k)]
        got = tau(factors[0], cs[0]) if k == 1 else \
            tau_mixed(list(zip(factors, cs)))
        assert got.certified
        q = p**got.stabilized_at
        term = power_root_vectors([(monomial_exponents(a), ceil(c * q))
                                   for a, c in zip(factors, cs)], q, n)
        assert monomial_ideal(R, term) == got.ideal, (factors, cs)
        checked += 1


def test_monomial_regression_over_f3():
    # The chain reaches R at e = 4; a plateau scan used to stop at (x, y).
    got = tau(R3.ideal("x^3", "x*y", "y^4"), Fraction(97, 100))
    assert got.ideal == R3.ideal("1")
    assert got.certified


def test_near_jump_exponents_resolve_correctly():
    a = R2x.ideal("x")
    just_below = 1 - Fraction(1, 2**11)
    assert tau(a, just_below).ideal == R2x.ideal("1")
    assert tau(a, 1).ideal == R2x.ideal("x")
    cube = R2x.ideal("x^3")
    assert tau(cube, Fraction(1, 3)).ideal == R2x.ideal("x")
    assert tau(cube, Fraction(1, 3) - Fraction(1, 2**9)).ideal == R2x.ideal("1")


def test_general_results_are_flagged_heuristic():
    result = tau(R2.ideal("x^2+x*y"), Fraction(1, 2))
    assert not result.certified
    assert result.chain_trace


def test_inconclusive_chain_carries_partial_data():
    with pytest.raises(InconclusiveError) as exc:
        tau(R3.ideal("x^2+y^2", "x*y"), Fraction(5, 7),
            TauParams(e_max=1, plateau=2))
    assert exc.value.chain
