import random
from fractions import Fraction

import pytest

from fjump import (Ideal, Poly, PreconditionError, ResourceLimitError, TauParams,
                   bracket_power, denominator_bound, f_threshold, fpt,
                   is_member, is_subset, jumping_exponents, nu, nu_bruteforce,
                   simplest_between)
from fjump import test_ideal as tau

from conftest import random_monomial_ideal, random_poly, ring

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
    with pytest.raises(ResourceLimitError):
        nu(R2.ideal("x^2+y^3"), R2.ideal("x", "y"), 9, e_limit=8)


def test_nu_preconditions_honour_the_step_cap():
    # A non-monomial J goes through Buchberger, which the cap bounds.
    with pytest.raises(ResourceLimitError):
        nu(R3.ideal("x^2+y^3"), R3.ideal("x+y^2", "y^3"), 1, step_limit=1)
    # A monomial J takes no Groebner step, so the cap never binds.
    assert nu(R3.ideal("x^2+y^3"), R3.ideal("x", "y"), 1, step_limit=1) == 1


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


def test_nu_of_hypersurfaces_at_the_maximal_ideal_matches_bruteforce():
    # Non-monomial f, so every root of the walk is a digit descent tested
    # term by term against m, while the brute force reduces a^r by a basis.
    rnd = random.Random(71)
    hits = 0
    while hits < 20:
        p = rnd.choice([2, 3, 5, 7])
        R = ring(p, *"xyz"[:rnd.randint(1, 3)])
        f = random_poly(rnd, R, max_degree=3, max_terms=3, nonzero=True)
        if f.is_term() or f.coeff((0,) * R.nvars):
            continue
        a, m = Ideal(R, [f]), Ideal(R, [R.var(i) for i in range(R.nvars)])
        for e in (1, 2):
            assert nu(a, m, e) == nu_bruteforce(a, m, e)
        hits += 1


def _hypersurfaces(seed, count):
    # (f, J) with f a non-monomial vanishing at the origin, J the maximal
    # ideal or the non-monomial m-primary (x + y^s, y^t).
    rnd = random.Random(seed)
    while count:
        p = rnd.choice([2, 3, 5, 7])
        R = ring(p, "x", "y")
        f = random_poly(rnd, R, max_degree=4, max_terms=3, nonzero=True)
        if f.is_term() or f.coeff((0, 0)):
            continue
        s, t = rnd.randint(2, 3), rnd.randint(2, 3)
        for J in (R.ideal("x", "y"), R.ideal(f"x + y^{s}", f"y^{t}")):
            yield Ideal(R, [f]), J, (3 if p <= 3 else 2)
        count -= 1


def test_principal_nu_meets_its_definition():
    for a, J, e_max in _hypersurfaces(53, 12):
        f = a.gens[0]
        for e in range(1, e_max + 1):
            v = nu(a, J, e)
            bracket = bracket_power(J, e)
            assert not is_member(f**v, bracket)
            assert is_member(f ** (v + 1), bracket)
            if e == 1:
                assert v == nu_bruteforce(a, J, e)


def test_threshold_records_equal_per_level_nu():
    cases = list(_hypersurfaces(59, 6))
    cases.append((R3.ideal("x^2+y", "x*y"), R3.ideal("x", "y"), 2))
    for a, J, e_max in cases:
        est = f_threshold(a, J, e_max)
        assert [(r.e, r.q, r.nu) for r in est.records] == [
            (e, a.ring.p**e, nu(a, J, e)) for e in range(1, e_max + 1)]


def test_nu_walk_stays_inside_the_generator_cap():
    # The window's largest power at q = 25 is a^32 (561 generators).  Digit
    # descent expands only the powers below its literal-power switch (a^5,
    # 21 generators, at q = 5) and a^j with j <= 2 at the end of each
    # descent, so 24 generators suffice.
    R5 = ring(5, "x", "y")
    a, m = R5.ideal("x^2", "x*y", "y^3"), R5.ideal("x", "y")
    assert nu(a, m, 2, gen_limit=24) == nu_bruteforce(a, m, 2) == 24


def test_fpt_of_several_generators_takes_roots_by_descent():
    # The last window tests a^354 .. a^342, about 63 000 generators each,
    # far past the cap; the descent never expands them.
    est = fpt(ring(7, "x", "y").ideal("x^2", "x*y", "y^3"), 3, gen_limit=2000)
    assert [r.nu for r in est.records] == [6, 48, 342]
    assert (est.guess, est.certified) == (1, True)


def test_nu_window_holds_for_several_generators():
    # nu(pq) lies in [p nu(q), p nu(q) + m(p - 1)] for m generators, checked
    # on literal brute-force counts at q = 1, p, p^2.  Generators are
    # binomials that keep their terms of degree >= low, so they vanish at
    # the origin; low = 2 at p = 5 keeps the brute-force powers small.
    rnd = random.Random(67)
    for p, count, low in ((2, 8, 1), (3, 8, 1), (5, 8, 2)):
        R = ring(p, "x", "y")
        J = R.ideal("x", "y")
        done = 0
        while done < count:
            gens = []
            for _ in range(rnd.choice([2, 3])):
                f = random_poly(rnd, R, max_degree=3, max_terms=2, nonzero=True)
                gens.append(Poly.from_terms(
                    R, [t for t in f.sorted_terms() if sum(t[0]) >= low]))
            a = Ideal(R, gens)
            if len(a.gens) < 2:
                continue
            m = len(a.gens)
            levels = [nu_bruteforce(a, J, e) for e in (0, 1, 2)]
            for prev, nxt in zip(levels, levels[1:]):
                assert p * prev <= nxt <= p * prev + m * (p - 1), (a, levels)
            done += 1


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
    assert est.certified


def test_fpt_examples():
    assert fpt(R2x.ideal("x"), 4).guess == 1
    assert fpt(R2.ideal("x", "y"), 4).guess == 2
    assert fpt(R2x.ideal("x^3"), 4).guess == Fraction(1, 3)
    R7 = ring(7, "x", "y")
    est = fpt(R7.ideal("x^2+y^3"), 2)
    assert est.guess == Fraction(5, 6)
    assert [r.nu for r in est.records] == [5, 40]


def test_monomial_thresholds_are_certified_gauge_maxima():
    # tau(a^c) lies in J exactly from the threshold on, through the closed
    # form for monomial tau, on random monomial a and m-primary monomial J.
    rnd = random.Random(71)
    done = 0
    while done < 100:
        R = ring(rnd.choice([2, 3]), "x", "y")
        a = Ideal(R, [R.monomial((rnd.randint(0, 4), rnd.randint(0, 4)))
                      for _ in range(rnd.randint(1, 3))])
        if a.is_unit():
            continue
        J = R.ideal(f"x^{rnd.randint(1, 3)}", f"y^{rnd.randint(1, 3)}",
                    f"x^{rnd.randint(1, 2)}*y^{rnd.randint(1, 2)}")
        est = f_threshold(a, J, rnd.choice([1, 2]))
        assert est.certified
        assert est.lower <= est.guess <= est.upper
        assert is_subset(tau(a, est.guess).ideal, J), (a, J, est.guess)
        below = est.guess - Fraction(1, 10**4)
        assert not is_subset(tau(a, below).ideal, J), (a, J, est.guess)
        done += 1


def test_principal_guess_is_the_simplest_rational_of_the_last_cell():
    # nu(q) = ceil(c q) - 1 for a hypersurface (Mustata-Takagi-Watanabe).
    for a, J, e_max in _hypersurfaces(73, 15):
        est = f_threshold(a, J, e_max)
        last = est.records[-1]
        assert est.guess == simplest_between(Fraction(last.nu, last.q),
                                             Fraction(last.nu + 1, last.q))
        assert not est.certified


def test_threshold_regressions():
    R2xy = ring(2, "x", "y")
    est = f_threshold(R2xy.ideal("x^3*y^2"), R2xy.ideal("x", "y"), 3)
    assert (est.guess, est.certified) == (Fraction(1, 3), True)
    assert fpt(R2x.ideal("x^4"), 2).guess == Fraction(1, 4)
    est = fpt(ring(7, "x", "y").ideal("x^2", "x*y", "y^3"), 2)
    assert (est.guess, est.certified) == (1, True)
    est = f_threshold(R2.ideal("x", "y"), R2.ideal("1"), 2)
    assert (est.guess, est.certified) == (0, True)


def test_removed_cap_parameters_are_type_errors():
    with pytest.raises(TypeError):
        fpt(R2x.ideal("x"), 2, cap=10)
    with pytest.raises(TypeError):
        f_threshold(R2x.ideal("x"), R2x.ideal("x"), 2, cap=10)
    with pytest.raises(TypeError):
        denominator_bound(R2x.ideal("x"), cap=10)


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
    with pytest.raises(PreconditionError):
        jumping_exponents(R2.ideal("x"), 1, cap=0)


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