import random
from fractions import Fraction

import pytest

from fjump import (Ideal, PreconditionError, ResourceLimitError,
                   frobenius_root, ideal_power, integral_closure_monomial,
                   is_subset, nu_bruteforce, root_monomial)
from fjump import test_ideal_chain as raw_chain
from fjump.oracle import (minimal_vectors, monomial_exponents, monomial_ideal,
                          power_root_vectors)

from conftest import random_monomial_ideal, ring
from helpers import brute_force_monomial_power_root

R2 = ring(2, "x", "y")
R3 = ring(3, "x", "y")


def test_root_monomial_examples():
    assert root_monomial(R2.ideal("x^3*y^2"), 1) == R2.ideal("x*y")
    assert root_monomial(R2.ideal("x^4"), 2) == R2.ideal("x")
    b = R2.ideal("x^5*y")
    assert root_monomial(b, 0) == b
    with pytest.raises(PreconditionError):
        root_monomial(R2.ideal("x+y"), 1)


def test_minimal_vectors():
    assert minimal_vectors([(2, 0), (3, 1), (0, 2), (2, 2)]) == ((0, 2), (2, 0))


def test_power_root_vectors_against_enumeration():
    rnd = random.Random(99)
    for _ in range(200):
        n = rnd.randint(1, 3)
        m = rnd.randint(1, 3)
        vecs = [tuple(rnd.randint(0, 6) for _ in range(n)) for _ in range(m)]
        r = rnd.randint(0, 12)
        q = rnd.choice([2, 3, 4, 8, 9, 27])
        got = power_root_vectors([(vecs, r)], q, n)
        want = minimal_vectors(brute_force_monomial_power_root(
            minimal_vectors(vecs), r, q, n))
        assert got == frozenset(want), (vecs, r, q)


def test_power_root_vectors_mixed_groups():
    rnd = random.Random(101)
    for _ in range(60):
        n = 2
        g1 = [tuple(rnd.randint(0, 4) for _ in range(n)) for _ in range(2)]
        g2 = [tuple(rnd.randint(0, 4) for _ in range(n))]
        r1, r2 = rnd.randint(0, 6), rnd.randint(0, 6)
        q = rnd.choice([2, 4, 3])
        got = power_root_vectors([(g1, r1), (g2, r2)], q, n)
        base = brute_force_monomial_power_root(minimal_vectors(g1), r1, 1, n)
        want = set()
        for v in base:
            total = [a + r2 * b for a, b in zip(v, g2[0])]
            want.add(tuple(t // q for t in total))
        assert got == frozenset(minimal_vectors(want))


def test_monomial_power_root_large_level():
    # The sweep touches only floor breakpoints, so huge levels stay cheap.
    xy = ((1, 0), (0, 1))
    assert power_root_vectors([(xy, 2**41)], 2**40, 2) == {(1, 0), (0, 1)}
    assert power_root_vectors([(xy, 2**40)], 2**40, 2) == {(0, 0)}


def test_monomial_power_root_matches_direct_route():
    rnd = random.Random(5)
    for _ in range(40):
        R = R2 if rnd.random() < 0.5 else R3
        a = random_monomial_ideal(rnd, R, max_gens=3, max_exp=5)
        r = rnd.randint(0, 5)
        e = rnd.randint(0, 2)
        floors = power_root_vectors([(monomial_exponents(a), r)], R.p**e, R.nvars)
        assert monomial_ideal(R, floors) == frobenius_root(ideal_power(a, r), e)


def test_nu_bruteforce_examples():
    assert nu_bruteforce(R2.ideal("x"), R2.ideal("x"), 1) == 1
    assert nu_bruteforce(R2.ideal("x", "y"), R2.ideal("x", "y"), 1) == 2
    R7 = ring(7, "x", "y")
    assert nu_bruteforce(R7.ideal("x^2+y^3"), R7.ideal("x", "y"), 1) == 5


def test_nu_bruteforce_spends_one_step_budget():
    # Every reduction of a^0 .. a^9 against the bracket's basis draws on one
    # budget, so three steps cannot answer.
    a, J = R3.ideal("x^2+y^3"), R3.ideal("x+y^2", "y^3")
    assert nu_bruteforce(a, J, 2) == 8
    with pytest.raises(ResourceLimitError):
        nu_bruteforce(a, J, 2, step_limit=3)


def test_nu_bruteforce_zero_convention():
    # J the unit ideal: nothing ever escapes, so the count is 0.
    assert nu_bruteforce(R2.ideal("x"), R2.ideal("1"), 1) == 0
    with pytest.raises(PreconditionError):
        nu_bruteforce(Ideal(R2, []), R2.ideal("x"), 1)


def test_chain_examples():
    chain = raw_chain(R2.ideal("x"), 1, 4)
    assert all(I == R2.ideal("x") for _, I in chain)
    chain = raw_chain(R2.ideal("x", "y"), 2, 3)
    assert chain[-1][1] == R2.ideal("x", "y")
    chain = raw_chain(Ideal(R2, []), Fraction(3, 2), 3)
    assert all(I.is_zero() for _, I in chain)


def test_chain_is_ascending():
    rnd = random.Random(15)
    for _ in range(25):
        R = R2 if rnd.random() < 0.5 else R3
        a = random_monomial_ideal(rnd, R, max_gens=2, max_exp=4)
        if a.is_zero():
            continue
        c = Fraction(rnd.randint(1, 30), 12)
        chain = raw_chain(a, c, 3)
        for (_, prev), (_, nxt) in zip(chain, chain[1:]):
            assert is_subset(prev, nxt)


def test_integral_closure_examples():
    assert integral_closure_monomial(R2.ideal("x^2", "y^2")) == \
        R2.ideal("x^2", "x*y", "y^2")
    assert integral_closure_monomial(R2.ideal("x")) == R2.ideal("x")
    assert integral_closure_monomial(R2.ideal("x^3", "y")) == R2.ideal("x^3", "y")


def test_integral_closure_grows_and_is_idempotent():
    rnd = random.Random(21)
    for _ in range(25):
        if rnd.random() < 0.7:
            R, exp = R2, 6
        else:
            R, exp = ring(3, "x", "y", "z"), 4
        a = random_monomial_ideal(rnd, R, max_gens=3, max_exp=exp)
        if a.is_zero():
            continue
        closed = integral_closure_monomial(a)
        assert is_subset(a, closed)
        assert integral_closure_monomial(closed) == closed
