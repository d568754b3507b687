import random

import pytest

from fjump import (GREVLEX, LEX, Ideal, ResourceLimitError, buchberger,
                   ideal_intersect, ideal_power, ideal_product, ideal_sum,
                   is_member, is_subset, normal_form, radical_member)

from conftest import random_ideal, random_poly, ring
from helpers import member_by_linear_algebra

R2 = ring(2, "x", "y")
R3 = ring(3, "x", "y")


def gb_strings(I, order=GREVLEX):
    return [str(g) for g in I.groebner_basis(order).polys]


def test_buchberger_reference_example():
    I = R2.ideal("x^2+y^2", "x*y")
    assert set(gb_strings(I)) == {"x^2 + y^2", "x*y", "y^3"}


def test_buchberger_trivial_cases():
    assert gb_strings(Ideal(R2, [])) == []
    assert gb_strings(R2.ideal("1", "x")) == ["1"]


def test_reduce_examples():
    gbx = R2.ideal("x").groebner_basis()
    assert normal_form(R2.poly("x^2"), gbx).is_zero()
    assert normal_form(R2.poly("y+1"), gbx) == R2.poly("y+1")
    gb = R2.ideal("x+y").groebner_basis()
    assert normal_form(R2.poly("x^2+y^2"), gb).is_zero()


def test_member_examples():
    assert not is_member(R2.one(), R2.ideal("x"))
    assert is_member(R2.poly("x^3*y^2"), R2.ideal("x^2*y^2"))
    assert is_member(R2.zero(), Ideal(R2, []))


def test_ideal_relations():
    assert is_subset(R2.ideal("x"), R2.ideal("x", "y"))
    assert R2.ideal("x") != R2.ideal("x^2")
    assert R2.ideal("x+y") == R2.ideal("x+y", "x^2+y^2")


def test_ideal_operations():
    assert ideal_intersect(R2.ideal("x"), R2.ideal("y")) == R2.ideal("x*y")
    assert ideal_product(R2.ideal("x"), R2.ideal("y")) == R2.ideal("x*y")
    assert ideal_sum(R2.ideal("x"), R2.ideal("y")) == R2.ideal("x", "y")


def test_ideal_power():
    assert ideal_power(R2.ideal("x", "y"), 2) == R2.ideal("x^2", "x*y", "y^2")
    assert ideal_power(R2.ideal("x"), 0) == R2.ideal("1")
    assert ideal_power(R2.ideal("x^3"), 2) == R2.ideal("x^6")
    assert ideal_power(Ideal(R2, []), 3).is_zero()
    with pytest.raises(ResourceLimitError):
        ideal_power(R2.ideal("x", "y", "x+y"), 400, gen_limit=100)


def test_radical_membership():
    assert radical_member(R2.poly("x"), R2.ideal("x^2"))
    assert not radical_member(R2.poly("y"), R2.ideal("x"))
    assert not radical_member(R2.one(), Ideal(R2, []))
    assert radical_member(R2.poly("x+y"), R2.ideal("x^2+y^2"))


def test_reduced_basis_shape():
    rnd = random.Random(11)
    for _ in range(30):
        R = R2 if rnd.random() < 0.5 else R3
        I = random_ideal(rnd, R)
        gb = I.groebner_basis()
        leads = [g.lead_term()[0] for g in gb.polys]
        for i, g in enumerate(gb.polys):
            assert g.lead_term()[1] == 1  # monic
            for j, lead in enumerate(leads):
                if i == j:
                    continue
                # no lead divides another lead, and tails are reduced
                assert not all(a <= b for a, b in zip(lead, g.lead_term()[0]))
                for exps, _ in g.sorted_terms():
                    if exps != g.lead_term()[0]:
                        assert not all(a <= b for a, b in zip(lead, exps))
        # a basis element equal to a given generator is that generator
        for g in gb.polys:
            assert all(g is h for h in I.gens if h == g)


def test_s_polynomials_reduce_to_zero():
    rnd = random.Random(5)
    for _ in range(15):
        I = random_ideal(rnd, R3)
        gb = I.groebner_basis()
        polys = gb.polys
        for i in range(len(polys)):
            for j in range(i + 1, len(polys)):
                fi, fj = polys[i], polys[j]
                li, _ = fi.lead_term()
                lj, _ = fj.lead_term()
                lcm = tuple(max(a, b) for a, b in zip(li, lj))
                s = fi.shift(tuple(a - b for a, b in zip(lcm, li))) \
                    - fj.shift(tuple(a - b for a, b in zip(lcm, lj)))
                assert normal_form(s, gb).is_zero()


def test_determinism_bit_identical():
    rnd = random.Random(23)
    for _ in range(20):
        gens = [str(random_poly(rnd, R3, nonzero=True)) for _ in range(3)]
        a = repr(gb_strings(R3.ideal(*gens)))
        b = repr(gb_strings(R3.ideal(*gens)))
        shuffled = list(gens)
        rnd.shuffle(shuffled)
        c = repr(gb_strings(R3.ideal(*shuffled)))
        assert a == b == c


def test_membership_against_linear_algebra_oracle():
    rnd = random.Random(42)
    checked_in = checked_out = 0
    for _ in range(120):
        R = R2 if rnd.random() < 0.5 else R3
        I = random_ideal(rnd, R, max_gens=2, max_degree=4)
        f = random_poly(rnd, R, max_degree=4)
        got = is_member(f, I)
        fdeg = f.total_degree() or 0
        gbdeg = max((g.total_degree() for g in I.groebner_basis().polys),
                    default=0)
        oracle = member_by_linear_algebra(f, list(I.gens), fdeg + gbdeg + 4)
        assert got == oracle, f"membership mismatch for {f} in {I}"
        checked_in += got
        checked_out += not got
    assert checked_in > 10 and checked_out > 10


def test_intersection_agrees_with_membership():
    rnd = random.Random(9)
    for _ in range(25):
        R = R2 if rnd.random() < 0.5 else R3
        I = random_ideal(rnd, R, max_gens=2, max_degree=3)
        J = random_ideal(rnd, R, max_gens=2, max_degree=3)
        meet = ideal_intersect(I, J)
        assert is_subset(meet, I) and is_subset(meet, J)
        for _ in range(4):
            f = random_poly(rnd, R, max_degree=4)
            assert is_member(f, meet) == (is_member(f, I) and is_member(f, J))


def test_step_cap_raises():
    with pytest.raises(ResourceLimitError):
        buchberger(R3.ideal("x^3+y^2+1", "x*y^2+x+1", "y^3+x^2*y"), step_limit=3)


def test_lex_vs_grevlex_bases_differ_but_agree_on_membership():
    I = R3.ideal("x^2+y", "x*y+1")
    rnd = random.Random(3)
    for _ in range(10):
        f = random_poly(rnd, R3)
        in_grev = normal_form(f, I.groebner_basis(GREVLEX)).is_zero()
        in_lex = normal_form(f, I.groebner_basis(LEX)).is_zero()
        assert in_grev == in_lex
