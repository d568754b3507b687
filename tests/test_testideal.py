import random
from fractions import Fraction
from math import ceil, comb, floor

import pytest

from fjump import (Ideal, PreconditionError, ResourceLimitError, TauParams,
                   degree_bound_check, frobenius_root, ideal_intersect,
                   ideal_power, ideal_product, ideal_sum,
                   integral_closure_monomial, is_subset, skoda_reduce)
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
    # General (non-monomial) draws stay small, so that the relations below
    # stay cheap to check.
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
    R = ring(2, "x", "y")
    assert degree_bound_check(R.ideal("x", "y"), 3, R.ideal("y^3+x^2+x"))


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
    # The two-sided bound closes here, so the result is proven and is the
    # raw chain term at the level where the bound closed.
    a = R2.ideal("x^2+x*y")
    result = tau(a, Fraction(1, 2))
    assert result.certified
    assert result.ideal == R2.ideal("1")
    assert result.chain_trace[-1][1] is result.ideal
    assert raw_chain(a, Fraction(1, 2), result.stabilized_at)[-1][1] == result.ideal


def test_exact_values_where_a_plateau_came_early():
    # Each chain repeats for a while below its limit.  The descent's repeat
    # proves the value, and the raw chain term at the last level listed
    # already equals it.
    R7 = ring(7, "x", "y")
    for a, c, want, deep in (
            (R7.ideal("x^4+y^4"), Fraction(7, 10), R7.ideal("x", "y"), 3),
            (R7.ideal("x^2+y^3"), Fraction(33, 40), R7.ideal("1"), 3),
            (R2.ideal("x^2+x*y"), Fraction(99, 100), R2.ideal("1"), 9),
            (R2.ideal("x^2*y+x^3*y^3+x^2", "x*y", "x^2*y^3+x^2*y^2"),
             Fraction(16, 11), R2.ideal("x"), 5),
            (R2.ideal("x*y^3", "x^2*y+x^3", "x+y"), Fraction(5, 3),
             R2.ideal("x+y", "y^2"), 5)):
        got = tau(a, c)
        assert got.certified
        assert got.ideal == want, (a, c)
        assert got.chain_trace == ((got.stabilized_at, got.ideal),)
        assert raw_chain(a, c, deep)[-1][1] == want, (a, c)


def test_mixed_pair_of_non_monomial_factors():
    # The raw mixed chain (f^ceil(q/2) b^ceil(2q/3))^[1/q], expanded
    # literally, equals the result at the level it reports and deeper.
    R3x = ring(3, "x", "y")
    f, b = R3x.ideal("x^2+y^3"), R3x.ideal("x+y^2", "x*y")
    pairs = [(f, Fraction(1, 2)), (b, Fraction(2, 3))]
    got = tau_mixed(pairs)
    assert got.certified
    assert got.chain_trace == ((got.stabilized_at, got.ideal),)
    for e in (got.stabilized_at, got.stabilized_at + 1):
        q = 3**e
        term = frobenius_root(ideal_product(ideal_power(f, ceil(Fraction(q, 2))),
                                            ideal_power(b, ceil(Fraction(2 * q, 3)))),
                              e)
        assert term == got.ideal, e


def test_chain_scanned_results_are_reduced_bases():
    # The last two are scaled by Skoda's theorem: a^2 * tau(a^(1/2)) and
    # f * tau(f^(2/7)).
    for a, c in ((ring(7, "x", "y").ideal("x^2+y^3"), Fraction(4, 5)),
                 (R2.ideal("x^2+x*y"), Fraction(1, 2)),
                 (R3.ideal("x^2+y^2", "x*y"), Fraction(5, 7)),
                 (R3.ideal("x^2+y^2", "x*y"), Fraction(5, 2)),
                 (ring(7, "x", "y").ideal("x^2+y^3"), Fraction(9, 7))):
        result = tau(a, c)
        gb = result.ideal.groebner_basis()
        assert result.ideal.gens == gb.polys
        assert result.chain_trace[-1][1] is result.ideal
        if c < len(a.gens):  # unscaled: every traced term is reduced
            for _, T in result.chain_trace:
                assert T.gens == T.groebner_basis().polys
    assert [str(g) for g in tau(ring(7, "x", "y").ideal("x^2+y^3"),
                                Fraction(4, 5)).ideal.gens] == ["1"]
    assert len(tau(R3.ideal("x^2+y^2", "x*y"), Fraction(5, 2)).ideal.gens) == 5


def test_principal_p_power_tau_is_the_chain_term():
    # tau(f^(r/p^a)) = (f^r)^[1/p^a]: one trace entry, certified, equal to
    # the raw chain term at stabilized_at and one level past it.
    rnd = random.Random(61)
    seen = 0
    while seen < 30:
        p = rnd.choice([2, 3, 5, 7])
        R = ring(p, "x", "y")
        f = random_poly(rnd, R, max_degree=3, max_terms=3, nonzero=True)
        if f.is_term():
            continue
        level = rnd.randint(1, 3 if p <= 3 else 2)
        c = Fraction(rnd.randint(1, 2 * p**level - 1), p**level)
        if c.denominator != p**level:
            continue
        a = Ideal(R, [f])
        result = tau(a, c)
        assert result.certified
        assert result.stabilized_at == level
        assert result.chain_trace == ((result.stabilized_at, result.ideal),)
        assert result.chain_trace[0][1] is result.ideal
        assert result.ideal.gens == result.ideal.groebner_basis().polys
        chain = raw_chain(a, c, result.stabilized_at + 1)
        assert chain[-2][1] == result.ideal
        assert chain[-1][1] == result.ideal
        seen += 1


_BOUND_TERMS = 3_000


def _affordable(a, c, e):
    # Expanding a^r costs about (r+1) products of powers of two generators
    # with t terms each; skip levels past a few thousand terms.
    r = ceil(c * a.ring.p**e)
    t = max(g.num_terms() for g in a.gens)
    return (r + 1) * comb(r + t - 1, t - 1) <= _BOUND_TERMS


def _random_two_generator_ideal(rnd, R):
    while True:
        gens = []
        for _ in range(2):
            f = R.zero()
            for _ in range(rnd.randint(1, 3)):
                exps = [0] * R.nvars
                for _ in range(rnd.randint(1, 3)):
                    exps[rnd.randrange(R.nvars)] += 1
                f = f + R.monomial(tuple(exps), rnd.randint(1, R.p - 1))
            gens.append(f)
        a = Ideal(R, gens)
        if len(a.gens) == 2 and not all(g.is_term() for g in a.gens):
            return a


def test_upper_bound_contains_the_chain():
    # tau(a^c) lies inside U_e = (a^max(floor(c q) - m + 1, 0))^[1/q], so
    # every raw chain term does; a certified result is the chain term at
    # stabilized_at and at every deeper level.
    rnd = random.Random(113)
    certified = 0
    for _ in range(40):
        R = R2 if rnd.random() < 0.5 else R3
        a = _random_two_generator_ideal(rnd, R)
        den = rnd.choice([2, 3, 4, 5, 6, 12])
        c = Fraction(rnd.randint(1, 2 * den - 1), den)  # below m, so no Skoda
        levels = [e for e in range(1, 7) if _affordable(a, c, e)]
        if not levels:
            continue
        chain = dict(raw_chain(a, c, levels[-1]))
        for e in levels:
            q = R.p**e
            upper = frobenius_root(ideal_power(a, max(floor(c * q) - 1, 0)), e)
            for e2 in levels[levels.index(e):]:
                assert is_subset(chain[e2], upper), (a, c, e, e2)
        got = tau(a, c)
        if got.certified:
            certified += 1
            assert raw_chain(a, c, got.stabilized_at)[-1][1] == got.ideal
            if levels[-1] >= got.stabilized_at:
                assert chain[levels[-1]] == got.ideal
    assert certified >= 10


def test_block_cap_raises_resource_limit():
    # The descent state of this chain first repeats after two blocks of
    # six levels, so a cap of one block raises.
    a = R3.ideal("x^2+y^2", "x*y")
    with pytest.raises(ResourceLimitError, match="stabilize"):
        tau(a, Fraction(5, 7), TauParams(e_max=1))
    got = tau(a, Fraction(5, 7), TauParams(e_max=2))
    assert got.ideal == R3.ideal("1") and got.certified


def test_level_cap_bounds_the_descent():
    # Over F_2 the denominator 1000003 needs blocks of ord(2) = 1000002
    # levels, and 1/61 needs level 120, both past the level cap.  Below the
    # cusp's threshold 1/2 a unit chain term at level 2 still proves
    # tau = R; above it the descent stops before its first block.
    f = R2.ideal("x^2+y^3")
    for c in (Fraction(1, 1000003), Fraction(1, 61)):
        got = tau(f, c)
        assert got.ideal == R2.ideal("1") and got.certified
        assert got.chain_trace == ((2, got.ideal),)
        assert raw_chain(f, c, 2)[-1][1] == got.ideal
    with pytest.raises(ResourceLimitError, match="exceeds the cap 64"):
        tau(f, Fraction(1000002, 1000003))
    # The descent proves tau(g^(5/6)) = (x, y) over F_7 at level 2.
    g = ring(7, "x", "y").ideal("x^2+y^3")
    with pytest.raises(ResourceLimitError, match="level 2 exceeds the cap 1"):
        tau(g, Fraction(5, 6), e_limit=1)
    assert tau(g, Fraction(5, 6), e_limit=2).stabilized_at == 2


def test_digit_table_of_another_ideal_is_refused():
    # A jump search hands test_ideal the table of its own ideal's products;
    # a table built for other generators would give a wrong tau.
    from fjump.frobroot import _Digits
    f, g = R2.ideal("x^2+y^3"), R2.ideal("x^2+x*y")
    got = tau(f, Fraction(1, 3), _digits=_Digits([f]))
    assert got == tau(f, Fraction(1, 3))
    with pytest.raises(PreconditionError, match="another ideal"):
        tau(f, Fraction(1, 3), _digits=_Digits([g]))
