"""The acceptance gate: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -s`` to see them live).
Every expected value here is either forced by arithmetic, reproduced by an
independent brute-force oracle in this repository, or was cross-checked
against an established computer-algebra system when frozen."""

import io
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import ceil

import jsonschema

from fjump import (GREVLEX, Ideal, PrimeField, RingCtx, TauParams,
                   bracket_power, buchberger, degree_bound_check,
                   denominator_bound, f_threshold, fpt, frobenius_root,
                   ideal_intersect, ideal_power, ideal_product, ideal_sum,
                   integral_closure_monomial, is_member, is_subset,
                   jumping_exponents, load_job, normal_form, nu,
                   nu_bruteforce, parse, root_monomial, root_scaled)
from fjump import mixed_test_ideal as tau_mixed
from fjump import test_ideal as tau
from fjump import test_ideal_chain as raw_chain
from fjump.cli import COMMANDS, REPORT_SCHEMA, run

from conftest import random_ideal, random_monomial_ideal, random_poly, ring
from helpers import member_by_linear_algebra


@contextmanager
def criterion(n, label, budget_s):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n} FAIL - {label}")
        raise
    dt = time.monotonic() - t0
    assert dt < budget_s, f"criterion {n} blew its {budget_s}s budget: {dt:.1f}s"
    print(f"ACCEPTANCE {n} PASS - {label} [{dt:.1f}s]")


def test_criterion_1_root_oracle_equivalence():
    with criterion(1, "frobenius_root matches the floor oracle on 300 "
                      "monomial ideals", 60):
        rnd = random.Random(0xACCE551)
        done = 0
        while done < 300:
            p = rnd.choice([2, 3, 5])
            n = rnd.randint(1, 3)
            R = ring(p, *["x", "y", "z"][:n])
            b = random_monomial_ideal(rnd, R, max_gens=4, max_exp=24)
            if b.is_zero():
                continue
            e = rnd.randint(0, 3)
            assert frobenius_root(b, e) == root_monomial(b, e)
            done += 1


def test_criterion_2_root_calculus_relations():
    with criterion(2, "all six root relations on 200 random ideal pairs", 300):
        rnd = random.Random(0xACCE552)
        done = 0
        while done < 200:
            p = rnd.choice([2, 3])
            R = ring(p, "x", "y")
            a = random_ideal(rnd, R, max_gens=2, max_degree=4)
            b = random_ideal(rnd, R, max_gens=2, max_degree=4)
            if a.is_zero() or b.is_zero():
                continue
            e = rnd.randint(1, 2)
            e2 = rnd.randint(1, 2)
            ra, rb = frobenius_root(a, e), frobenius_root(b, e)
            # inclusion is preserved
            assert is_subset(frobenius_root(ideal_product(a, b), e),
                             frobenius_root(ideal_sum(a, b), e))
            # intersections shrink, sums are exact
            assert is_subset(frobenius_root(ideal_intersect(a, b), e),
                             ideal_intersect(ra, rb))
            assert frobenius_root(ideal_sum(a, b), e) == ideal_sum(ra, rb)
            # products shrink
            assert is_subset(frobenius_root(ideal_product(a, b), e),
                             ideal_product(ra, rb))
            # bracket-then-root versus root-then-bracket
            assert is_subset(root_scaled(b, e2, e), bracket_power(rb, e2))
            assert root_scaled(b, e + e2, e) == bracket_power(b, e2)
            # iterated roots absorb
            assert is_subset(frobenius_root(b, e + e2),
                             frobenius_root(rb, e2))
            # roots of plain powers swallow single roots
            assert is_subset(rb, frobenius_root(ideal_power(b, p**e2), e + e2))
            done += 1


def test_criterion_3_nu_exactness():
    with criterion(3, "nu formulas and brute-force agreement", 120):
        for p in (2, 3, 5, 7):
            R = ring(p, "x")
            a = R.ideal("x")
            for e in range(1, 5):
                assert nu(a, a, e) == p**e - 1
        for p in (2, 3):
            R = ring(p, "x", "y")
            a = R.ideal("x", "y")
            for e in range(1, 4):
                assert nu(a, a, e) == 2 * p**e - 2
        # brute-force agreement across a catalog of small instances
        checked = 0
        for p in (2, 3):
            R = ring(p, "x", "y")
            catalog_a = [R.ideal("x"), R.ideal("x", "y"), R.ideal("x^2", "y"),
                         R.ideal("x^2+y"), R.ideal("x*y"), R.ideal("x+y", "y^2")]
            catalog_j = [R.ideal("x", "y"), R.ideal("x^2", "y^2"), R.ideal("x")]
            for a in catalog_a:
                for J in catalog_j:
                    for e in (1, 2):
                        try:
                            fast = nu(a, J, e)
                        except Exception:
                            continue  # precondition fails: not a nu instance
                        assert fast == nu_bruteforce(a, J, e), (a, J, e)
                        checked += 1
        assert checked >= 40


def test_criterion_4_f_pure_thresholds():
    with criterion(4, "fpt brackets and guesses at the three reference "
                      "inputs", 300):
        est = fpt(ring(2, "x", "y").ideal("x", "y"), 4)
        assert est.guess == 2
        assert est.lower <= 2 <= est.upper

        est = fpt(ring(2, "x").ideal("x^3"), 4)
        assert est.guess == Fraction(1, 3)

        R7 = ring(7, "x", "y")
        cusp = R7.ideal("x^2+y^3")
        est = fpt(cusp, 2)
        assert est.guess == Fraction(5, 6)
        assert [r.nu for r in est.records] == [5, 40]
        m7 = R7.ideal("x", "y")
        assert nu_bruteforce(cusp, m7, 1) == 5
        assert nu_bruteforce(cusp, m7, 2) == 40


def test_criterion_5_test_ideal_values():
    with criterion(5, "reference test-ideal values in F_2 and F_3, "
                      "chain-checked", 60):
        for p in (2, 3):
            Rx = ring(p, "x")
            R = ring(p, "x", "y")
            for a, c, want in [
                (Rx.ideal("x"), Fraction(1, 2), Rx.ideal("1")),
                (Rx.ideal("x"), Fraction(3, 2), Rx.ideal("x")),
                (R.ideal("x", "y"), Fraction(2), R.ideal("x", "y")),
            ]:
                got = tau(a, c)
                assert got.ideal == want, (p, c)
                chain = raw_chain(a, c, got.stabilized_at + 2)
                assert chain[-1][1] == want
                for (_, lo), (_, hi) in zip(chain, chain[1:]):
                    assert is_subset(lo, hi)


def test_criterion_6_jump_enumeration():
    with criterion(6, "reference jumping-exponent lists", 600):
        jl = jumping_exponents(ring(2, "x").ideal("x^3"), 1)
        assert list(jl.jumps) == [0, Fraction(1, 3), Fraction(2, 3), 1]

        jl = jumping_exponents(ring(2, "x").ideal("x"), 2)
        assert list(jl.jumps) == [0, 1, 2]
        assert [[str(g) for g in I.gens] for I in jl.ideals] == \
            [["1"], ["x"], ["x^2"]]

        jl = jumping_exponents(ring(2, "x", "y").ideal("x", "y"), 3)
        assert list(jl.jumps) == [0, 2, 3]


def _tau_instances(rnd, count, general_share=0.25):
    made = 0
    while made < count:
        R = ring(rnd.choice([2, 3]), "x", "y")
        if rnd.random() < general_share:
            a = random_ideal(rnd, R, max_gens=2, max_degree=3)
        else:
            a = random_monomial_ideal(rnd, R, max_gens=2, max_exp=4)
        if a.is_zero():
            continue
        made += 1
        yield R, a


def _jump_families(rnd, count):
    made = 0
    while made < count:
        p = rnd.choice([2, 3])
        if rnd.random() < 0.5:
            R = ring(p, "x")
            a = Ideal(R, [R.monomial((rnd.randint(1, 4),))])
        else:
            R = ring(p, "x", "y")
            a = Ideal(R, [R.monomial((rnd.randint(0, 3), rnd.randint(0, 3)))
                          for _ in range(rnd.randint(1, 2))])
        if a.is_zero() or a.is_unit():
            continue
        made += 1
        yield R, a


def test_criterion_7_theorem_property_suites():
    with criterion(7, "theorem-backed property suites, 100+ instances each",
                   900):
        degree_checks = 0

        # exponent monotonicity
        rnd = random.Random(0xACCE571)
        for R, a in _tau_instances(rnd, 100):
            c1 = Fraction(rnd.randint(0, 18), 12)
            c2 = c1 + Fraction(rnd.randint(1, 12), 12)
            big, small = tau(a, c1).ideal, tau(a, c2).ideal
            assert is_subset(small, big)
            assert degree_bound_check(a, c1, big)
            degree_checks += 1

        # ideal monotonicity
        rnd = random.Random(0xACCE572)
        for R, a in _tau_instances(rnd, 100):
            b = ideal_sum(a, Ideal(R, [random_poly(rnd, R, max_degree=3,
                                                   nonzero=True)]))
            c = Fraction(rnd.randint(1, 18), 12)
            assert is_subset(tau(a, c).ideal, tau(b, c).ideal)

        # intersections shrink, sums grow
        rnd = random.Random(0xACCE573)
        for R, a in _tau_instances(rnd, 100, general_share=0.0):
            b = random_monomial_ideal(rnd, R, max_gens=2, max_exp=4)
            if b.is_zero():
                b = Ideal(R, [R.var(0)])
            c = Fraction(rnd.randint(1, 18), 12)
            ta, tb = tau(a, c).ideal, tau(b, c).ideal
            assert is_subset(tau(ideal_intersect(a, b), c).ideal,
                             ideal_intersect(ta, tb))
            assert is_subset(ideal_sum(ta, tb), tau(ideal_sum(a, b), c).ideal)

        # subadditivity, plain and mixed
        rnd = random.Random(0xACCE574)
        for R, a in _tau_instances(rnd, 100, general_share=0.0):
            b = random_monomial_ideal(rnd, R, max_gens=2, max_exp=3)
            if b.is_zero():
                b = Ideal(R, [R.var(R.nvars - 1)])
            c = Fraction(rnd.randint(1, 18), 12)
            ta, tb = tau(a, c).ideal, tau(b, c).ideal
            assert is_subset(tau(ideal_product(a, b), c).ideal,
                             ideal_product(ta, tb))
            c2 = Fraction(rnd.randint(1, 12), 12)
            assert is_subset(tau_mixed([(a, c), (b, c2)]).ideal,
                             ideal_product(ta, tau(b, c2).ideal))

        # rescaling tau((a^m)^c) = tau(a^(cm))
        rnd = random.Random(0xACCE575)
        for R, a in _tau_instances(rnd, 100, general_share=0.0):
            m = rnd.choice([2, 3])
            c = Fraction(rnd.randint(1, 18), 12) / m
            left = tau(ideal_power(a, m), c).ideal
            right = tau(a, c * m).ideal
            assert left == right
            assert degree_bound_check(ideal_power(a, m), c, left)
            degree_checks += 1

        # Skoda: rewrite path and raw path agree
        rnd = random.Random(0xACCE576)
        on, off = TauParams(), TauParams(use_skoda=False)
        done = 0
        while done < 100:
            R = ring(rnd.choice([2, 3]), "x", "y")
            a = random_monomial_ideal(rnd, R, max_gens=2, max_exp=3)
            if rnd.random() < 0.25:
                a = Ideal(R, [random_poly(rnd, R, max_degree=2, nonzero=True)])
            if a.is_zero():
                continue
            c = len(a.gens) + Fraction(rnd.randint(0, 12), 12)
            assert tau(a, c, on).ideal == tau(a, c, off).ideal
            done += 1

        # enumerated jump sets: closed under multiplication by p and, above
        # the generator count, under subtracting 1; all jumps rational with
        # denominators in the admissible family
        rnd = random.Random(0xACCE577)
        families = 0
        for R, a in _jump_families(rnd, 100):
            p = R.p
            m = len(a.gens)
            bound = m + 1
            jl = jumping_exponents(a, bound)
            jumps = set(jl.jumps)
            db = denominator_bound(a)
            for alpha in jumps:
                if alpha > 0 and p * alpha <= bound:
                    assert p * alpha in jumps
                if alpha > m:
                    assert alpha - 1 in jumps
                assert db.admits(alpha)
            families += 1
        assert families >= 100

        # threshold estimates versus the ideals they cut out: the certified
        # first jump is the F-pure threshold, so it lies in the nu bracket
        # and tau there lands inside the maximal ideal.
        rnd = random.Random(0xACCE578)
        done = 0
        while done < 100:
            R, a = next(iter(_jump_families(rnd, 1)))
            est = fpt(a, 4)
            J = Ideal(R, [R.var(i) for i in range(R.nvars)])
            jl = jumping_exponents(a, len(a.gens) + 1)
            if jl.certified and len(jl.jumps) > 1:
                first = jl.jumps[1]
                assert is_subset(tau(a, first).ideal, J)
                assert est.lower <= first <= est.upper
            c = Fraction(rnd.randint(1, 16), 8)
            T = tau(a, c).ideal
            assert degree_bound_check(a, c, T)
            degree_checks += 1
            if not T.is_unit():
                for e in (1, 2):
                    assert nu(a, T, e) <= ceil(c * R.p**e) - 1
            done += 1

        # test ideals only see the integral closure
        rnd = random.Random(0xACCE579)
        done = 0
        while done < 100:
            R = ring(rnd.choice([2, 3]), "x", "y")
            a = random_monomial_ideal(rnd, R, max_gens=3, max_exp=4)
            if a.is_zero():
                continue
            c = Fraction(rnd.randint(1, 18), 12)
            assert tau(a, c).ideal == tau(integral_closure_monomial(a), c).ideal
            done += 1

        # adjunction: quotient by a coordinate matches dropping it upstairs
        rnd = random.Random(0xACCE57A)
        done = 0
        while done < 100:
            p = rnd.choice([2, 3])
            R = ring(p, "x", "y")
            S = ring(p, "x")
            f = random_poly(rnd, S, max_degree=3, nonzero=True)
            a = Ideal(R, [R.poly("y"), f.substitute(R, [R.poly("x")])])
            c = Fraction(rnd.randint(1, 12), 6)
            upstairs = tau(a, c + 1).ideal
            image = Ideal(S, [g.substitute(S, [S.poly("x"), S.zero()])
                              for g in upstairs.gens])
            assert image == tau(Ideal(S, [f]), c).ideal, (str(f), c)
            done += 1

        assert degree_checks >= 100


FROZEN_BASES = [
    (2, ("x", "y"), ["x^2+y^2", "x*y"], ["x*y", "x^2 + y^2", "y^3"]),
    (3, ("x", "y"), ["x^2+2*y^3", "x*y+y+1", "y^4"], ["1"]),
    (5, ("x", "y", "z"), ["x^2+y*z", "y^2+x*z", "z^2+x*y"],
     ["y^2 + x*z", "x*y + z^2", "x^2 + y*z", "y*z^2", "x*z^2", "z^4"]),
    (7, ("x", "y"), ["x^3+y^2+1", "x*y^2+3*x+2"],
     ["x*y^2 + 3*x + 2", "x^3 + y^2 + 1", "y^4 + 5*x^2 + 4*y^2 + 3"]),
]


def test_criterion_8_groebner_determinism_and_membership():
    with criterion(8, "bit-identical reduced bases and membership vs the "
                      "exhaustive oracle", 120):
        # frozen snapshots guard bit-identity across runs and machines
        for p, names, gens, frozen in FROZEN_BASES:
            R = RingCtx(PrimeField(p), names)
            gb = R.ideal(*gens).groebner_basis()
            assert [str(g) for g in gb.polys] == frozen
        # and recomputation inside one run is identical too
        rnd = random.Random(0xACCE58)
        for _ in range(25):
            R = ring(rnd.choice([2, 3]), "x", "y")
            gens = [str(random_poly(rnd, R, max_degree=4, nonzero=True))
                    for _ in range(rnd.randint(1, 3))]
            one = [str(g) for g in R.ideal(*gens).groebner_basis().polys]
            two = [str(g) for g in R.ideal(*gens).groebner_basis().polys]
            shuffled = list(gens)
            rnd.shuffle(shuffled)
            three = [str(g) for g in R.ideal(*shuffled).groebner_basis().polys]
            assert one == two == three

        # membership against cofactor search
        inn = out = 0
        for _ in range(120):
            R = ring(rnd.choice([2, 3]), "x", "y")
            I = random_ideal(rnd, R, max_gens=2, max_degree=4)
            f = random_poly(rnd, R, max_degree=4)
            got = is_member(f, I)
            bound = (f.total_degree() or 0) + max(
                (g.total_degree() for g in I.groebner_basis().polys), default=0) + 4
            assert got == member_by_linear_algebra(f, list(I.gens), bound)
            inn += got
            out += not got
        assert inn > 10 and out > 10


JOB_TEXT = """\
ring p=2 vars=x,y
ideal a = x^3*y^2
ideal m = x, y
ideal f = x^2 + y^3
"""


def test_criterion_9_cli_round_trip_and_schema():
    with criterion(9, "every command emits schema-valid JSON whose ideals "
                      "re-parse", 60):
        import tempfile

        with tempfile.NamedTemporaryFile("w", suffix=".fj", delete=False) as fh:
            fh.write(JOB_TEXT)
            path = fh.name
        job = load_job(JOB_TEXT)
        argv_by_command = {
            "root": ["root", "-i", path, "--ideal", "a", "--e", "1"],
            "bracket": ["bracket", "-i", path, "--ideal", "m", "--e", "2"],
            "tau": ["tau", "-i", path, "--ideal", "m", "--c", "2"],
            "taumixed": ["taumixed", "-i", path, "--pair", "a=1/2",
                         "--pair", "m=1"],
            "nu": ["nu", "-i", path, "--ideal", "m", "--J", "m", "--e", "2"],
            "fthreshold": ["fthreshold", "-i", path, "--ideal", "a",
                           "--J", "m", "--e-max", "3"],
            "fpt": ["fpt", "-i", path, "--ideal", "m", "--e-max", "3"],
            "jumps": ["jumps", "-i", path, "--ideal", "m", "--B", "3"],
            "gb": ["gb", "-i", path, "--ideal", "f"],
            "denombound": ["denombound", "-i", path, "--ideal", "m"],
        }
        assert set(argv_by_command) == set(COMMANDS)
        for command, argv in argv_by_command.items():
            out = io.StringIO()
            code = run(argv + ["--format", "json"], stdout=out,
                       stderr=io.StringIO())
            assert code == 0, command
            report = json.loads(out.getvalue())
            jsonschema.validate(report, REPORT_SCHEMA)
            # text and json reports agree on the mathematical payload
            text_out = io.StringIO()
            assert run(argv, stdout=text_out, stderr=io.StringIO()) == 0
            text = text_out.getvalue()
            for key in ("generators", "jumps"):
                if key in report["result"]:
                    joined = ", ".join(report["result"][key])
                    assert joined in text
            # ideal strings re-parse to equal ideals
            gens = report["result"].get("generators")
            if gens and gens != ["0"]:
                reparsed = Ideal(job.ring, [parse(g, job.ring) for g in gens])
                assert [str(g) for g in reparsed.gens] == gens