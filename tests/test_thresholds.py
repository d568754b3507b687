import random
from fractions import Fraction

import pytest

from fjump import (Ideal, PreconditionError, TauParams, denominator_bound,
                   f_threshold, fpt, is_subset, jumping_exponents, nu,
                   nu_bruteforce)
from fjump import test_ideal as tau

from conftest import random_monomial_ideal, ring

R2 = ring(2, "x", "y")
R3 = ring(3, "x", "y")
R2x = ring(2, "x")


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("e", [1, 2, 3, 4])
def test_nu_principal_formula(p, e):
    R = ring(p, "x")
    assert nu(R.ideal("x"), R.ideal("x"), e) == p**e - 1


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("e", [1, 2, 3])
def test_nu_two_variable_formula(p, e):
    R = ring(p, "x", "y")
    a = R.ideal("x", "y")
    assert nu(a, a, e) == 2 * p**e - 2


def test_nu_cusp_value():
    R7 = ring(7, "x", "y")
    assert nu(R7.ideal("x^2+y^3"), R7.ideal("x", "y"), 1) == 5


def test_nu_preconditions():
    with pytest.raises(PreconditionError):
        nu(R2.ideal("y"), R2.ideal("x"), 1)  # y not in rad(x)
    with pytest.raises(PreconditionError):
        nu(Ideal(R2, []), R2.ideal("x"), 1)
    with pytest.raises(PreconditionError):
        nu(R2.ideal("x"), R2.ideal("x"), 0)


def test_nu_matches_bruteforce_on_small_instances():
    rnd = random.Random(19)
    hits = 0
    while hits < 40:
        p = rnd.choice([2, 3])
        R = ring(p, "x", "y")
        a = random_monomial_ideal(rnd, R, max_gens=2, max_exp=3)
        if a.is_zero() or a.is_unit():
            continue
        J = random_monomial_ideal(rnd, R, max_gens=2, max_exp=2)
        if J.is_zero():
            continue
        try:
            got = nu(a, J, rnd.choice([1, 2]))
        except PreconditionError:
            continue
        e = rnd.choice([1, 2])
        assert nu(a, J, e) == nu_bruteforce(a, J, e)
        hits += 1


def test_nu_scaling_is_monotone():
    rnd = random.Random(23)
    for _ in range(10):
        p = rnd.choice([2, 3])
        R = ring(p, "x", "y")
        a = random_monomial_ideal(rnd, R, max_gens=2, max_exp=3)
        if a.is_zero() or a.is_unit():
            continue
        J = a
        values = [Fraction(nu(a, J, e), p**e) for e in (1, 2, 3)]
        assert values == sorted(values)


def test_threshold_bracket_and_guess_examples():
    est = f_threshold(R2x.ideal("x"), R2x.ideal("x"), 4)
    assert (est.lower, est.upper) == (Fraction(15, 16), Fraction(17, 16))
    assert est.guess == 1
    est = f_threshold(R2.ideal("x", "y"), R2.ideal("x", "y"), 4)
    assert est.guess == 2
    assert est.lower <= 2 <= est.upper
    assert not est.certified


def test_fpt_examples():
    assert fpt(R2x.ideal("x"), 4).guess == 1
    assert fpt(R2.ideal("x", "y"), 4).guess == 2
    assert fpt(R2x.ideal("x^3"), 4).guess == Fraction(1, 3)
    R7 = ring(7, "x", "y")
    est = fpt(R7.ideal("x^2+y^3"), 2)
    assert est.guess == Fraction(5, 6)
    assert [r.nu for r in est.records] == [5, 40]


def test_fpt_requires_vanishing_at_origin():
    with pytest.raises(PreconditionError):
        fpt(R2.ideal("x+1"), 2)


def test_threshold_upper_bound_from_containment_power():
    # nu/q never exceeds s*ell, where a^ell lies in J and s counts generators.
    rnd = random.Random(29)
    for _ in range(10):
        p = rnd.choice([2, 3])
        R = ring(p, "x", "y")
        a = random_monomial_ideal(rnd, R, max_gens=2, max_exp=2)
        if a.is_zero() or a.is_unit():
            continue
        est = f_threshold(a, a, 3)
        s = len(a.gens)
        ell = 1
        from fjump import ideal_power, is_subset as sub

        while not sub(ideal_power(a, ell), a):
            ell += 1
        assert est.upper <= s * ell + 1  # bracket pad of (m+1)/q stays small
        for rec in est.records:
            assert Fraction(rec.nu, rec.q) <= s * ell


def test_denominator_bound_examples():
    db = denominator_bound(ring(2, "x").ideal("x^2"))
    assert (db.m, db.d, db.e0, db.N, db.a_max, db.b_max) == (1, 2, 2, 3, 5, 3)
    db = denominator_bound(ring(3, "x").ideal("x"))
    assert (db.m, db.d, db.e0, db.N, db.a_max, db.b_max) == (1, 1, 1, 2, 3, 2)
    db = denominator_bound(R2.ideal("x", "y"))
    assert (db.m, db.d, db.e0, db.N, db.a_max, db.b_max) == (2, 1, 2, 6, 8, 6)
    assert db.max_denominator == 2**8 * (2**6 - 1)
    # the warning flag fires exactly when the family outgrows the user cap
    assert denominator_bound(R2.ideal("x"), cap=10).capped is True
    assert denominator_bound(R2.ideal("x"), cap=10**6).capped is False


def test_denominator_admissibility():
    db = denominator_bound(R2x.ideal("x^3"))
    assert db.admits(Fraction(1, 3))
    assert db.admits(Fraction(5, 12))
    assert db.admits(2)
    assert not db.admits(Fraction(1, 11))  # ord_11(2) = 10 > b_max


def test_jumping_exponent_examples():
    jl = jumping_exponents(R2x.ideal("x"), 2)
    assert list(jl.jumps) == [0, 1, 2]
    assert [list(map(str, I.gens)) for I in jl.ideals] == [["1"], ["x"], ["x^2"]]
    assert jl.certified

    jl = jumping_exponents(R2x.ideal("x^3"), 1)
    assert list(jl.jumps) == [0, Fraction(1, 3), Fraction(2, 3), 1]
    assert jl.certified

    jl = jumping_exponents(R2.ideal("x", "y"), 3)
    assert list(jl.jumps) == [0, 2, 3]
    assert jl.certified


def test_monomial_jumps_regression_over_f3():
    jl = jumping_exponents(R3.ideal("x^3", "x*y", "y^4"), 1)
    assert list(jl.jumps) == [0, 1]
    assert jl.certified


def test_denominator_bound_counts_minimal_generators():
    R5 = ring(5, "x", "y")
    listed = R5.ideal("x*y^3", "x^2*y^3", "x^4*y^4")
    minimal = R5.ideal("x*y^3")
    assert denominator_bound(listed) == denominator_bound(minimal)
    jl = jumping_exponents(listed, 1)
    assert jl.jumps == jumping_exponents(minimal, 1).jumps
    assert list(jl.jumps) == [0, Fraction(1, 3), Fraction(2, 3), 1]


def test_jump_preconditions():
    with pytest.raises(PreconditionError):
        jumping_exponents(Ideal(R2, []), 1)
    with pytest.raises(PreconditionError):
        jumping_exponents(R2.ideal("x"), 0)


def _random_jump_family(rnd):
    p = rnd.choice([2, 3])
    if rnd.random() < 0.5:
        R = ring(p, "x")
        a = Ideal(R, [R.monomial((rnd.randint(1, 4),))])
    else:
        R = ring(p, "x", "y")
        a = Ideal(R, [R.monomial((rnd.randint(0, 3), rnd.randint(0, 3)))
                      for _ in range(rnd.randint(1, 2))])
    if a.is_zero() or a.is_unit():
        return _random_jump_family(rnd)
    return R, a


def test_jump_lists_are_strictly_nested():
    rnd = random.Random(41)
    for _ in range(12):
        R, a = _random_jump_family(rnd)
        m = len(a.gens)
        jl = jumping_exponents(a, m + 1)
        assert list(jl.jumps) == sorted(set(jl.jumps))
        assert jl.jumps[0] == 0
        for prev, nxt in zip(jl.ideals, jl.ideals[1:]):
            assert is_subset(nxt, prev) and nxt != prev


def test_jumps_scale_by_p_and_shift_by_one():
    rnd = random.Random(43)
    for _ in range(10):
        R, a = _random_jump_family(rnd)
        p = R.p
        m = len(a.gens)
        bound = m + 1
        jl = jumping_exponents(a, bound)
        jumps = set(jl.jumps)
        for alpha in jumps:
            if alpha > 0 and p * alpha <= bound:
                assert p * alpha in jumps, (a, alpha)
            if alpha > m:
                assert alpha - 1 in jumps, (a, alpha)


def test_jump_constancy_between_jumps():
    rnd = random.Random(47)
    for _ in range(8):
        R, a = _random_jump_family(rnd)
        jl = jumping_exponents(a, len(a.gens) + 1)
        for i in range(len(jl.jumps) - 1):
            lo, hi = jl.jumps[i], jl.jumps[i + 1]
            mid = lo + (hi - lo) * Fraction(rnd.randint(1, 7), 8)
            if mid == lo:
                continue
            assert tau(a, mid).ideal == jl.ideals[i], (a, lo, hi, mid)


def test_jumps_round_trip_through_thresholds():
    # Each enumerated jump is bracketed by the threshold estimate taken at
    # the test ideal it cuts out.
    rnd = random.Random(53)
    for _ in range(8):
        R, a = _random_jump_family(rnd)
        jl = jumping_exponents(a, len(a.gens) + 1)
        for alpha, ideal in zip(jl.jumps, jl.ideals):
            if alpha == 0:
                continue
            est = f_threshold(a, ideal, 4)
            assert est.lower <= alpha <= est.upper, (a, alpha)


def test_threshold_value_cuts_into_its_ideal():
    # tau at the guessed threshold of J lands inside J.
    rnd = random.Random(59)
    for _ in range(10):
        R, a = _random_jump_family(rnd)
        est = fpt(a, 4)
        if est.guess is None:
            continue
        J = Ideal(R, [R.var(i) for i in range(R.nvars)])
        assert is_subset(tau(a, est.guess).ideal, J)


def test_nu_at_test_ideal_stays_below_ceiling():
    rnd = random.Random(61)
    for _ in range(10):
        R, a = _random_jump_family(rnd)
        c = Fraction(rnd.randint(1, 16), 8)
        T = tau(a, c).ideal
        if T.is_unit():
            continue
        p = R.p
        for e in (1, 2, 3):
            assert nu(a, T, e) <= -((-c * p**e) // 1) - 1  # ceil(c p^e) - 1