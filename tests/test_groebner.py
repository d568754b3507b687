import random

import pytest

from fjump import (GREVLEX, LEX, Ideal, Poly, ResourceLimitError, buchberger,
                   generated_in_degree, ideal_intersect, ideal_power,
                   ideal_product, ideal_sum, is_member, is_subset, normal_form,
                   radical_member)

from conftest import random_ideal, random_poly, ring
from helpers import member_by_linear_algebra, monomials_up_to

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
                s = fi * R3.monomial(tuple(a - b for a, b in zip(lcm, li))) \
                    - fj * R3.monomial(tuple(a - b for a, b in zip(lcm, lj)))
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


def test_containment_spends_the_callers_step_cap():
    # J's basis is cached first, so only the reductions can spend the cap;
    # y^4 - x^2 = (y^2 - x)(y^2 + x) needs two of them.
    J = R3.ideal("y^2+x")
    J.groebner_basis()
    I = R3.ideal("y^4-x^2")
    assert is_subset(I, J, step_limit=2)
    with pytest.raises(ResourceLimitError):
        is_subset(I, J, step_limit=1)
    with pytest.raises(ResourceLimitError):
        is_member(I.gens[0], J, step_limit=1)


def _random_term_ideal(rnd, R):
    """An ideal generated by terms: non-minimal (a multiple of another
    generator), repeated (the same monomial, rescaled) and non-monic
    generators, sometimes the unit or the zero ideal."""
    roll = rnd.random()
    if roll < 0.1:
        return Ideal(R, [])
    gens = []
    if roll < 0.2:
        gens.append(R.monomial((0,) * R.nvars, rnd.randint(1, R.p - 1)))
    for _ in range(rnd.randint(1, 3)):
        u = tuple(rnd.randint(0, 3) for _ in range(R.nvars))
        gens.append(R.monomial(u, rnd.randint(1, R.p - 1)))
        if rnd.random() < 0.5:
            gens.append(R.monomial(tuple(x + rnd.randint(0, 2) for x in u),
                                   rnd.randint(1, R.p - 1)))
        if rnd.random() < 0.5:
            gens.append(R.monomial(u, rnd.randint(1, R.p - 1)))
    return Ideal(R, gens)


def _random_cases(seed, count):
    rnd = random.Random(seed)
    for _ in range(count):
        R = ring(rnd.choice([2, 3, 5, 7]), *"xyz"[:rnd.randint(1, 3)])
        J = _random_term_ideal(rnd, R)
        # Half the polynomials are combinations of J's generators, so
        # containment holds often enough to test both answers.
        polys = []
        for _ in range(rnd.randint(1, 3)):
            f = random_poly(rnd, R, max_degree=5, max_terms=4)
            if J.gens and rnd.random() < 0.5:
                f = sum((g * random_poly(rnd, R, max_degree=3, max_terms=2)
                         for g in J.gens), R.zero())
            polys.append(f)
        yield R, J, polys


def test_termwise_containment_matches_the_reducer():
    answers = set()
    for R, J, polys in _random_cases(29, 300):
        gb = buchberger(J)
        for f in polys:
            want = normal_form(f, gb).is_zero()
            assert is_member(f, J) == want
            answers.add(want)
        I = Ideal(R, polys)
        assert is_subset(I, J) == all(normal_form(g, gb).is_zero() for g in I.gens)
        assert J._gb is None  # the termwise path neither needs nor caches it
    assert answers == {True, False}


def _rabinowitsch(f, I):
    # f in rad(I) iff 1 lies in I + (1 - t f), t a fresh variable.
    R = I.ring
    S = ring(R.p, *R.var_names, "t")

    def lift(g, t):
        return [(e + (t,), c) for e, c in g._terms.items()]
    gens = [Poly.from_terms(S, lift(g, 0)) for g in I.gens]
    gens.append(Poly.from_terms(S, [((0,) * S.nvars, 1)]) - Poly.from_terms(S, lift(f, 1)))
    return [str(g) for g in buchberger(Ideal(S, gens)).polys] == ["1"]


def test_radical_membership_by_supports_matches_rabinowitsch():
    answers = set()
    for R, J, polys in _random_cases(31, 300):
        for f in polys:
            want = _rabinowitsch(f, J)
            assert radical_member(f, J) == want
            answers.add(want)
    assert answers == {True, False}


def test_lex_vs_grevlex_bases_differ_but_agree_on_membership():
    I = R3.ideal("x^2+y", "x*y+1")
    rnd = random.Random(3)
    for _ in range(10):
        f = random_poly(rnd, R3)
        in_grev = normal_form(f, I.groebner_basis(GREVLEX)).is_zero()
        in_lex = normal_form(f, I.groebner_basis(LEX)).is_zero()
        assert in_grev == in_lex


@pytest.mark.parametrize("p,gens,true_at,false_at", [
    (3, ("x^3+y^2", "2*x^2*y+x*y+2*x"), 3, 2),
    (2, ("y^3+x^2+x",), 3, 2),
    # generated in degree 2, although the reduced basis holds y^3
    (3, ("x^2", "x*y+y^2"), 2, 1),
])
def test_generated_in_degree_examples(p, gens, true_at, false_at):
    I = ring(p, "x", "y").ideal(*gens)
    assert generated_in_degree(I, true_at)
    assert not generated_in_degree(I, false_at)


def _slice_generates(I, d):
    # mu - NF(mu) over the monomials of degree <= d spans the degree-<= d
    # part of I, since NF is linear and vanishes on I.
    R, gb = I.ring, I.groebner_basis()
    slice_ = [R.monomial(mu) - normal_form(R.monomial(mu), gb)
              for mu in monomials_up_to(R.nvars, d)]
    return Ideal(R, slice_) == I


def test_generated_in_degree_against_the_degree_slice():
    rnd = random.Random(1729)
    names = ("x", "y", "z")
    below_top = 0
    for _ in range(300):
        R = ring(rnd.choice([2, 3, 5, 7]), *names[:rnd.randint(1, 3)])
        I = random_ideal(rnd, R, max_gens=3, max_degree=3)
        top = max(g.total_degree() for g in I.gens)
        answers = [generated_in_degree(I, d) for d in range(-1, 7)]
        assert answers == sorted(answers)  # monotone in d
        assert all(answers[d + 1] for d in range(top, 7))
        for d in range(-1, 7):
            assert answers[d + 1] == _slice_generates(I, d), (I, d)
        below_top += answers[top]  # generated below the top listed degree
    assert below_top > 30
