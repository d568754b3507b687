import random

import pytest

from fjump import (Ideal, ResourceLimitError, bracket_power, frobenius_root,
                   ideal_intersect, ideal_power, ideal_product, ideal_sum,
                   is_member, is_subset, power_root, root_monomial,
                   root_scaled)

from conftest import random_ideal, random_monomial_ideal, random_poly, ring

R2 = ring(2, "x", "y")
R3 = ring(3, "x", "y")


def test_bracket_examples():
    assert bracket_power(R2.ideal("x", "y"), 2) == R2.ideal("x^4", "y^4")
    assert bracket_power(R2.ideal("x+y"), 1) == R2.ideal("x^2+y^2")
    J = R2.ideal("x^2+x*y")
    assert bracket_power(J, 0) == J


def test_root_examples():
    assert frobenius_root(R2.ideal("x^3*y^2"), 1) == R2.ideal("x*y")
    assert frobenius_root(R3.ideal("x^2+y^2"), 1) == R3.ideal("1")
    b = R2.ideal("x^5+x^2*y")
    assert frobenius_root(b, 0) == b


def test_root_generators_are_monic_and_distinct():
    # x^7 and 2*x^8 land in different buckets whose polynomials, x and 2*x,
    # differ by a unit; only one generator is kept.
    R7 = ring(7, "x")
    assert frobenius_root(R7.ideal("x^7 + 2*x^8"), 1).gens == (R7.poly("x"),)


def test_power_root_matches_the_literal_root():
    rnd = random.Random(47)
    for _ in range(120):
        p = rnd.choice([2, 3, 5, 7])
        R = ring(p, "x", "y")
        f = random_poly(rnd, R, max_degree=4, max_terms=4)
        e = rnd.randint(0, 3)
        r = rnd.randint(0, 2 * p**e)
        assert power_root(f, r, e) == frobenius_root(ideal_power(Ideal(R, [f]), r), e)
    with pytest.raises(ResourceLimitError):
        power_root(R2.poly("x+y"), 1, 9, e_limit=8)


def test_root_minimality_on_the_derived_example():
    # (x*y)^[2] contains x^3y^2 while the next candidate down does not.
    assert is_member(R2.poly("x^3*y^2"), bracket_power(R2.ideal("x*y"), 1))
    assert not is_member(R2.poly("x^3*y^2"), bracket_power(R2.ideal("x^2*y"), 1))
    # and x^2+y^2 really escapes (x^3, y^3)
    assert not is_member(R3.poly("x^2+y^2"), R3.ideal("x^3", "y^3"))


def test_root_scaled_examples():
    assert root_scaled(R2.ideal("x"), 1, 1) == R2.ideal("x")
    assert root_scaled(R2.ideal("x^3*y^2"), 0, 1) == R2.ideal("x*y")
    assert root_scaled(Ideal(R2, []), 2, 1).is_zero()


def test_level_cap():
    with pytest.raises(ResourceLimitError):
        frobenius_root(R2.ideal("x"), 65)
    with pytest.raises(ResourceLimitError):
        bracket_power(R2.ideal("x"), 9, e_limit=8)


def _cases(seed, count=60):
    rnd = random.Random(seed)
    for _ in range(count):
        R = R2 if rnd.random() < 0.5 else R3
        yield (rnd, R, random_ideal(rnd, R, max_gens=3, max_degree=8),
               random_ideal(rnd, R, max_gens=3, max_degree=8),
               rnd.randint(1, 2), rnd.randint(1, 2))


def test_definition_root_is_smallest_cover():
    for rnd, R, a, b, e, _ in _cases(101):
        root = frobenius_root(a, e)
        assert is_subset(a, bracket_power(root, e))


def test_monomial_roots_match_floor_oracle():
    rnd = random.Random(55)
    for _ in range(80):
        R = [R2, R3, ring(5, "x", "y", "z")][rnd.randrange(3)]
        b = random_monomial_ideal(rnd, R, max_gens=3, max_exp=24)
        e = rnd.randint(0, 3)
        assert frobenius_root(b, e) == root_monomial(b, e)


def test_root_preserves_inclusions():
    for rnd, R, a, b, e, _ in _cases(7):
        big = ideal_sum(a, b)
        assert is_subset(frobenius_root(a, e), frobenius_root(big, e))


def test_root_of_sum_is_sum_of_roots():
    for rnd, R, a, b, e, _ in _cases(13):
        lhs = frobenius_root(ideal_sum(a, b), e)
        rhs = ideal_sum(frobenius_root(a, e), frobenius_root(b, e))
        assert lhs == rhs


def test_root_of_intersection_and_product_shrink():
    for rnd, R, a, b, e, _ in _cases(17, count=40):
        meet = frobenius_root(ideal_intersect(a, b), e)
        assert is_subset(meet, ideal_intersect(frobenius_root(a, e),
                                               frobenius_root(b, e)))
        prod = frobenius_root(ideal_product(a, b), e)
        assert is_subset(prod, ideal_product(frobenius_root(a, e),
                                             frobenius_root(b, e)))


def test_scaled_roots_and_brackets():
    for rnd, R, a, b, e, e2 in _cases(19, count=40):
        # bracket-then-root stays inside root-then-bracket,
        assert is_subset(root_scaled(b, e2, e),
                         bracket_power(frobenius_root(b, e), e2))
        # and when the bracket level dominates, it is exactly a bracket.
        assert root_scaled(b, e + e2, e) == bracket_power(b, e2)


def test_iterated_roots():
    for rnd, R, a, b, e, e2 in _cases(23, count=40):
        assert is_subset(frobenius_root(b, e + e2),
                         frobenius_root(frobenius_root(b, e), e2))
        assert is_subset(frobenius_root(b, e),
                         frobenius_root(ideal_power(b, R.p**e2), e + e2))


def test_root_independent_of_generators():
    for rnd, R, a, b, e, _ in _cases(29, count=40):
        f = random_poly(rnd, R)
        g = random_poly(rnd, R)
        padded = Ideal(R, list(b.gens) + [
            gen * f + other * g
            for gen, other in zip(b.gens, list(b.gens)[1:] + list(b.gens)[:1])])
        assert frobenius_root(b, e) == frobenius_root(padded, e)


def test_pth_power_membership_reflects_membership():
    for rnd, R, a, b, e, _ in _cases(31, count=40):
        u = random_poly(rnd, R)
        lhs = is_member(u**R.p, bracket_power(b, 1))
        assert lhs == is_member(u, b)


def test_roots_respect_substitution_maps():
    # For a ring endomorphism phi, the root of phi(b) sits inside the ideal
    # generated by phi applied to the root of b.
    rnd = random.Random(37)
    for _ in range(30):
        R = R2 if rnd.random() < 0.5 else R3
        b = random_ideal(rnd, R, max_gens=2, max_degree=5)
        e = rnd.randint(1, 2)
        images = [random_poly(rnd, R, max_degree=2) for _ in range(R.nvars)]
        phi_b = Ideal(R, [g.substitute(R, images) for g in b.gens])
        phi_root = Ideal(R, [g.substitute(R, images)
                             for g in frobenius_root(b, e).gens])
        assert is_subset(frobenius_root(phi_b, e), phi_root)
