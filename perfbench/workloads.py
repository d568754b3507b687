"""The benchmark's three workloads: seeded job lists and their checks.

A job is one call into ``fjump`` (timed) plus a check of its output (not
timed).  Checks use only ``refalg``, ``newton`` and the literature values
below, never the library.  Pass k of a run with seed s draws its generated
inputs from seed s + k; the fixed cases name their variables after k, so
no two passes of a run share an input, while pass k holds the same inputs
whatever the seed.
"""

from __future__ import annotations

import io
import json
import random
from dataclasses import dataclass
from itertools import islice
from fractions import Fraction
from math import ceil, comb
from typing import Callable

import newton
import refalg

# The cusp's F-pure threshold (Hara; Mustata-Takagi-Watanabe), x(x+y) has
# fpt 1 in every characteristic, and x^a has fpt 1/a.
CUSP_FPT = {2: Fraction(1, 2), 3: Fraction(2, 3), 5: Fraction(4, 5),
            7: Fraction(5, 6)}
NODE_FPT = Fraction(1)

# Ops that fail on every run today, one label each; any other failure makes
# the run incorrect.
KNOWN_FAULTS = {
    "monomial-jumps": {"tau (x^3,xy,y^4) c=97/100 p=3",
                       "jumps (x^3,xy,y^4) B=1 p=3"},
    "principal-cli": {"cli tau x^2+y^3 c=33/40 p=7",
                      "cli tau x^2+xy c=99/100 p=2",
                      "cli jumps x^2+y^3 B=1 p=7",
                      "cli jumps x^2+xy B=1 p=2"},
    "general-ideals": set(),
}

# Chain levels a check expands itself: at most this many terms in a^r.
_CHAIN_TERMS = 3_000


class Mismatch(Exception):
    """An output disagrees with its reference."""


@dataclass
class Job:
    label: str
    call: Callable[[], object]
    check: Callable[[object], None]  # raises Mismatch on a wrong output


def expect(cond, message: str):
    if not cond:
        raise Mismatch(message)


def var_names(base, k: int) -> tuple:
    return tuple(f"{b}_{k}" for b in base)


def own_polys(gens, names, p):
    """Library generators (Poly objects or strings) in the reference form;
    every string must re-parse."""
    return [refalg.parse(str(g), names, p) for g in gens if str(g) != "0"]


def monomials_of(polys, what):
    vecs = refalg.monomial_support(polys)
    expect(vecs is not None, f"{what}: expected a monomial ideal, got {polys}")
    return vecs


def in_monomial_ideal(f: dict, vecs) -> bool:
    return all(any(all(a >= b for a, b in zip(e, v)) for v in vecs) for e in f)


def mono_product(a, b):
    return refalg.minimal_vectors(tuple(x + y for x, y in zip(u, v))
                                  for u in a for v in b)


def mono_subset(a, b) -> bool:
    """(a) inside (b) for monomial ideals given by exponent sets."""
    return all(any(all(x >= y for x, y in zip(u, v)) for v in b) for u in a)


def chain_terms(gens, c: Fraction, p: int, nvars: int, e_max: int):
    """The affordable raw chain terms (a^ceil(c p^e))^[1/p^e], e = 1..e_max,
    each as a list of reference polynomials, lowest level first."""
    t = max(len(g) for g in gens)
    for e in range(1, e_max + 1):
        q = p ** e
        r = ceil(c * q)
        if comb(r + len(gens) - 1, len(gens) - 1) * comb(r + t - 1, t - 1) > _CHAIN_TERMS:
            return
        yield e, refalg.root(refalg.ideal_power(gens, r, p, nvars), q, p)


def check_contains_chain(tau_polys, gens, c, p, nvars, e_max):
    """tau(a^c) contains every affordable raw chain term."""
    gb = refalg.groebner(tau_polys, p)
    for e, term in chain_terms(gens, c, p, nvars, e_max):
        expect(refalg.contains(gb, term, p),
               f"tau misses the chain term at e={e}")


# ---------------------------------------------------------------------------
# monomial-jumps


def _random_monomial(rng, m: int, max_deg: int):
    while True:
        vecs = set()
        while len(vecs) < m:
            a = rng.randint(0, max_deg)
            b = rng.randint(0, max_deg - a)
            if a + b:
                vecs.add((a, b))
        vecs = refalg.minimal_vectors(vecs)
        if len(vecs) == m:
            return sorted(vecs)


def _random_c(rng, top: int) -> Fraction:
    den = rng.choice((1, 2, 3, 4, 5, 6, 8, 9))
    return Fraction(rng.randint(1, top * den), den)


def _mono_ideal(fj, p, names, vecs):
    R = fj.RingCtx(fj.PrimeField(p), names)
    return fj.Ideal(R, [R.monomial(v) for v in vecs])


def _jumps_job(fj, label, p, names, vecs, bound):
    a = _mono_ideal(fj, p, names, vecs)
    want = newton.jumps(vecs, bound)

    def check(out):
        expect(list(out.jumps) == want, f"jumps {list(map(str, out.jumps))}, "
               f"expected {list(map(str, want))}")
        for j, ideal in zip(out.jumps, out.ideals):
            got = monomials_of(own_polys(ideal.gens, names, p), label)
            expect(got == newton.tau(vecs, j), f"tau at the jump {j}")

    return Job(label, lambda: fj.jumping_exponents(a, bound), check)


def _tau_grid(fj, p, names, vecs, cs, label):
    """tau on a grid of c, checked against the polygon, for monotonicity and
    for Skoda's tau(a^c) = a tau(a^(c-1)) when c >= #generators."""
    a = _mono_ideal(fj, p, names, vecs)
    seen: dict = {}
    jobs = []
    for c in cs:
        def check(out, c=c):
            got = monomials_of(own_polys(out.ideal.gens, names, p), "tau")
            expect(got == newton.tau(vecs, c), f"tau of {vecs} at {c}")
            for c0, t0 in seen.items():
                if c0 < c:
                    expect(mono_subset(got, t0), f"tau not monotone at {c0} < {c}")
            if c >= len(vecs) and c - 1 in seen:
                expect(got == mono_product(vecs, seen[c - 1]), f"Skoda fails at {c}")
            seen[c] = got
        jobs.append(Job(label, lambda c=c: fj.test_ideal(a, c), check))
    return jobs


def monomial_jumps(fj, seed: int, k: int, refs: dict) -> list:
    rng = random.Random(f"monomial-jumps:{seed + k}")
    names = var_names("xy", k)
    jobs = [
        _jumps_job(fj, "jumps (x,y) B=3 p=2", 2, names, [(1, 0), (0, 1)], 3),
        _jumps_job(fj, "jumps x^3 B=1 p=2", 2, names, [(3, 0)], 1),
        _jumps_job(fj, "jumps (x^2,y^3) B=3 p=2", 2, names, [(2, 0), (0, 3)], 3),
        _jumps_job(fj, "jumps (x^3,xy,y^4) B=1 p=3", 3, names,
                   [(3, 0), (1, 1), (0, 4)], 1),
    ]
    jobs += _tau_grid(fj, 3, names, [(3, 0), (1, 1), (0, 4)], [Fraction(97, 100)],
                      "tau (x^3,xy,y^4) c=97/100 p=3")

    # Seeded inputs come in fixed strata of (p, #generators, degree), so every
    # pass has the same mix of job sizes.
    for i in range(56):
        p, m = (2, 3)[i % 2], (1, 2)[i // 2 % 2]
        vecs = _random_monomial(rng, m, 4)
        cs: list = []
        while len(cs) < 4:
            c = _random_c(rng, 3)
            if c not in cs:
                cs.append(c)
        c = m + Fraction(rng.randint(0, 4), rng.choice((1, 2, 3)))
        cs += [c - 1, c]  # a Skoda pair, c >= #generators
        jobs += _tau_grid(fj, p, names, vecs, cs, "tau seeded")

    for i in range(16):
        p = (2, 3)[i % 2]
        va = _random_monomial(rng, 1, 3)
        vb = _random_monomial(rng, (1, 2)[i // 2 % 2], 3)
        ca, cb = _random_c(rng, 2), _random_c(rng, 2)
        a, b = _mono_ideal(fj, p, names, va), _mono_ideal(fj, p, names, vb)
        want = newton.mixed_tau([(va, ca), (vb, cb)])

        def check(out, want=want, p=p):
            got = monomials_of(own_polys(out.ideal.gens, names, p), "mixed tau")
            expect(got == want, "mixed tau differs from the Minkowski polygon")
        jobs.append(Job("mixed tau", lambda a=a, b=b, ca=ca, cb=cb:
                        fj.mixed_test_ideal([(a, ca), (b, cb)]), check))

    for p in (2, 3):
        for m, degree in ((1, 3), (2, 2), (2, 3)):
            vecs = _random_monomial(rng, m, degree)
            while max(map(sum, vecs)) != degree:
                vecs = _random_monomial(rng, m, degree)
            jobs.append(_jumps_job(fj, "jumps seeded", p, names, vecs, 1))

    # One CLI nu job, so that every traced layer has work on every workload.
    vecs = _random_monomial(rng, 2, 3)
    gens, unit = [{v: 1} for v in vecs], _unit_vectors(2)
    jobs.append(_cli_job("cli nu seeded", ["nu", "--ideal", "a", "--J", "m", "--e", "2"],
                         _job_text(3, names, {"a": gens, "m": [{v: 1} for v in unit]}),
                         names, 3, lambda res, meta: _nu_by_definition(
                             gens, unit, res["nu"], 9, 3, 2)))
    return jobs


# ---------------------------------------------------------------------------
# principal-cli


def _cli_job(label, argv, text, names, p, check_result):
    """Run one CLI job on stdin text; the check sees the JSON result with
    every generator string re-parsed."""
    from fjump import cli

    def call():
        out, err = io.StringIO(), io.StringIO()
        code = cli.run(argv + ["-i", "-", "--format", "json"],
                       stdin=io.StringIO(text), stdout=out, stderr=err)
        return code, out.getvalue(), err.getvalue()

    def check(out):
        code, stdout, stderr = out
        expect(code == 0, f"exit {code}: {stderr.strip()}")
        report = json.loads(stdout)
        expect(report["command"] == argv[0], "wrong command in the report")
        res = report["result"]
        if "generators" in res:
            res["generators"] = own_polys(res["generators"], names, p)
        if "ideals" in res:
            res["ideals"] = [own_polys(g, names, p) for g in res["ideals"]]
        check_result(res, report["meta"])

    return Job(label, call, check)


def _job_text(p, names, ideals: dict) -> str:
    lines = [f"ring p={p} vars={','.join(names)}"]
    lines += [f"ideal {name} = {', '.join(refalg.fmt(g, names) for g in gens)}"
              for name, gens in ideals.items()]
    return "\n".join(lines) + "\n"


def _nu_by_definition(gens, J_vecs, nu, q, p, nvars):
    """a^nu not inside J^[q] and a^(nu+1) inside it, J monomial."""
    bracket = [tuple(q * x for x in v) for v in J_vecs]
    inside = [all(in_monomial_ideal(g, bracket) for g in
                  refalg.ideal_power(gens, r, p, nvars)) for r in (nu, nu + 1)]
    expect(inside == [False, True], f"nu={nu} at q={q} fails its definition")


def _threshold_check(gens, J_vecs, p, nvars, truth=None):
    def check(res, meta):
        m = len(gens)
        for rec in meta["records"]:
            _nu_by_definition(gens, J_vecs, rec["nu"], p ** rec["e"], p, nvars)
        last = meta["records"][-1]
        q = p ** last["e"]
        lower, upper = Fraction(res["lower"]), Fraction(res["upper"])
        expect((lower, upper) == (Fraction(last["nu"], q),
                                  Fraction(last["nu"] + m + 1, q)),
               "bracket does not match the nu records")
        if truth is not None:
            expect(lower <= truth <= upper, f"bracket misses the true value {truth}")
    return check


def _random_sparse(rng, p, nvars, terms, max_deg):
    while True:
        f: dict = {}
        for _ in range(terms):
            exps = [0] * nvars
            for _ in range(rng.randint(1, max_deg)):
                exps[rng.randrange(nvars)] += 1
            f[tuple(exps)] = rng.randint(1, p - 1)
        if len(f) == terms:
            return f


def _principal_jobs(label, p, names, f, rng):
    """root, nu at the maximal ideal, fpt and tau for one hypersurface."""
    n = len(names)
    jobs = []
    e = {2: 3, 3: 2, 5: 2, 7: 2}[p]
    q = p ** e
    r = rng.randint(q // 2, q - 1)
    b = refalg.power(f, r, p, n)

    def root_check(res, meta):
        got = res["generators"]
        want = refalg.root([b], q, p)
        expect(refalg.ideals_equal(got, want, p), "root differs from term surgery")
        gb = refalg.groebner(got, p)
        expect(not refalg.reduce(b, [refalg.frob(g, q) for g in gb], p),
               "b is not inside (b^[1/q])^[q]")
    jobs.append(_cli_job(f"cli root {label}", ["root", "--ideal", "b", "--e", str(e)],
                         _job_text(p, names, {"b": [b]}), names, p, root_check))

    text = _job_text(p, names, {"f": [f], "m": [{v: 1} for v in _unit_vectors(n)]})
    nus = {}
    for e in range(1, (3 if p <= 3 else 2) + 1):
        def nu_check(res, meta, e=e):
            nu = res["nu"]
            _nu_by_definition([f], _unit_vectors(n), nu, p ** e, p, n)
            if e - 1 in nus:  # nu(pq) in [p nu(q), p nu(q) + p - 1]
                expect(p * nus[e - 1] <= nu <= p * nus[e - 1] + p - 1,
                       "nu(pq) escapes [p nu(q), p nu(q) + p - 1]")
            nus[e] = nu
        jobs.append(_cli_job(f"cli nu {label}",
                             ["nu", "--ideal", "f", "--J", "m", "--e", str(e)],
                             text, names, p, nu_check))
    jobs.append(_cli_job(f"cli fpt {label}", ["fpt", "--ideal", "f", "--e-max", "2"],
                         text, names, p, _threshold_check([f], _unit_vectors(n), p, n)))

    # p-power denominators only: there tau(f^(r/q)) = (f^r)^[1/q] (BMS).
    taus = {}
    for e in (1, 2):
        c = Fraction(rng.randint(1, p ** e - 1), p ** e)

        def tau_check(res, meta, c=c):
            got = res["generators"]
            want = refalg.root([refalg.power(f, c.numerator, p, n)], c.denominator, p)
            expect(refalg.ideals_equal(got, want, p), f"tau at {c} is not (f^r)^[1/q]")
            for c0, t0 in taus.items():  # the smaller c has the larger tau
                larger, smaller = (t0, got) if c0 < c else (got, t0)
                expect(refalg.contains(refalg.groebner(larger, p), smaller, p),
                       "tau is not monotone in c")
            taus[c] = got
        jobs.append(_cli_job(f"cli tau {label}",
                             ["tau", "--ideal", "f", "--c", _rat(c)],
                             text, names, p, tau_check))
    return jobs


def _unit_vectors(n):
    return [tuple(int(i == j) for j in range(n)) for i in range(n)]


def _rat(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def principal_cli(fj, seed: int, k: int, refs: dict) -> list:
    rng = random.Random(f"principal-cli:{seed + k}")
    xy = var_names("xy", k)
    xyz = var_names("xyz", k)
    P = refalg.parse
    jobs = []

    # (x^3 + y^3 + z^3 + xyz)^124 at p = 5, e = 3.
    if "big" not in refs:
        refs["big"] = refalg.power(P("x^3 + y^3 + z^3 + x*y*z", "xyz", 5), 124, 5, 3)
    big = refs["big"]

    def big_check(res, meta):
        if "big root" not in refs:
            refs["big root"] = refalg.groebner(refalg.root([big], 125, 5), 5)
        expect(refalg.same_polys(refalg.groebner(res["generators"], 5), refs["big root"]),
               "root differs from term surgery")
    jobs.append(_cli_job("cli root (x^3+y^3+z^3+xyz)^124 p=5 e=3",
                         ["root", "--ideal", "b", "--e", "3"],
                         _job_text(5, xyz, {"b": [big]}), xyz, 5, big_check))

    # The README jobs, on x, y over F_2 and the cusp over F_7.
    a, m, cusp = [(3, 2)], [(1, 0), (0, 1)], P("x^2 + y^3", "xy", 2)
    readme = _job_text(2, xy, {"a": [{v: 1} for v in a], "m": [{v: 1} for v in m],
                               "f": [cusp]})

    def mono(res):
        return monomials_of(res["generators"], "readme")
    checks = [
        (["root", "--ideal", "a", "--e", "1"],
         lambda res, meta: expect(mono(res) == {(1, 1)}, "root of x^3 y^2")),
        (["tau", "--ideal", "m", "--c", "2"],
         lambda res, meta: expect(mono(res) == newton.tau(m, 2), "tau(m^2)")),
        (["taumixed", "--pair", "a=1/2", "--pair", "m=1"],
         lambda res, meta: expect(mono(res) == newton.mixed_tau(
             [(a, Fraction(1, 2)), (m, 1)]), "mixed tau")),
        (["nu", "--ideal", "m", "--J", "m", "--e", "2"],
         lambda res, meta: _nu_by_definition(
             [{v: 1} for v in m], m, res["nu"], 4, 2, 2)),
        (["jumps", "--ideal", "m", "--B", "3"],
         lambda res, meta: expect([Fraction(j) for j in res["jumps"]]
                                  == newton.jumps(m, 3), "jumps of m")),
        (["gb", "--ideal", "f"],
         lambda res, meta: expect(refalg.same_polys(
             res["generators"], refalg.groebner([cusp], 2)), "gb")),
        (["denombound", "--ideal", "m"],
         lambda res, meta: expect(all(_admitted(j, 2, res["a_max"], res["b_max"])
                                      for j in newton.jumps(m, 3)),
                                  "a true jump lies outside the family")),
        (["bracket", "--ideal", "m", "--e", "2"],
         lambda res, meta: expect(mono(res) == {(4, 0), (0, 4)}, "bracket power")),
        (["fthreshold", "--ideal", "a", "--J", "m", "--e-max", "3"],
         _threshold_check([{v: 1} for v in a], m, 2, 2, Fraction(1, 3))),
    ]
    for argv, check in checks:
        jobs.append(_cli_job(f"cli readme {argv[0]}", argv, readme, xy, 2, check))
    cusp7 = _job_text(7, xy, {"f": [P("x^2 + y^3", "xy", 7)]})
    jobs.append(_cli_job("cli readme fpt", ["fpt", "--ideal", "f", "--e-max", "2"],
                         cusp7, xy, 7,
                         _threshold_check([P("x^2 + y^3", "xy", 7)], m, 7, 2, CUSP_FPT[7])))

    # Known faults: premature plateaus and the jumps built on them.
    for p, src, c, truth in ((7, "x^2 + y^3", Fraction(33, 40), CUSP_FPT[7]),
                             (2, "x^2 + x*y", Fraction(99, 100), NODE_FPT)):
        g = P(src, "xy", p)
        text = _job_text(p, xy, {"f": [g]})
        short = src.replace(" ", "").replace("*", "")
        jobs.append(_cli_job(
            f"cli tau {short} c={_rat(c)} p={p}", ["tau", "--ideal", "f", "--c", _rat(c)],
            text, xy, p, lambda res, meta, g=g, c=c, p=p:
            check_contains_chain(res["generators"], [g], c, p, 2, 12)))
        jobs.append(_cli_job(
            f"cli jumps {short} B=1 p={p}", ["jumps", "--ideal", "f", "--B", "1"],
            text, xy, p, lambda res, meta, truth=truth: expect(
                Fraction(res["jumps"][1]) == truth,
                f"first jump {res['jumps'][1]}, expected the fpt {truth}")))

    # Literature fpt values, each at its own prime.
    for p in (2, 3, 5):
        g = P("x^2 + y^3", "xy", p)
        jobs.append(_cli_job("cli fpt cusp", ["fpt", "--ideal", "f", "--e-max", "3"],
                             _job_text(p, xy, {"f": [g]}), xy, p,
                             _threshold_check([g], m, p, 2, CUSP_FPT[p])))
    for p in (3, 5):
        g = P("x^2 + x*y", "xy", p)
        jobs.append(_cli_job("cli fpt node", ["fpt", "--ideal", "f", "--e-max", "2"],
                             _job_text(p, xy, {"f": [g]}), xy, p,
                             _threshold_check([g], m, p, 2, NODE_FPT)))
    power = rng.randint(2, 6)
    g = {(power, 0): 1}
    jobs.append(_cli_job("cli fpt x^a", ["fpt", "--ideal", "f", "--e-max", "2"],
                         _job_text(3, xy, {"f": [g]}), xy, 3,
                         _threshold_check([g], m, 3, 2, Fraction(1, power))))

    # Seeded hypersurfaces: x^a + y^b and sparse f with f(0) = 0, one per prime.
    for p in (2, 3, 5, 7):
        da, db = rng.randint(2, 5), rng.randint(2, 5)
        g = {(da, 0): 1, (0, db): 1}
        jobs += _principal_jobs("x^a+y^b", p, xy, g, rng)
        g = _random_sparse(rng, p, 2, 3, 4)
        jobs += _principal_jobs("sparse", p, xy, g, rng)
    return jobs


def _admitted(x, p, a_max, b_max) -> bool:
    den = Fraction(x).denominator
    return any((p ** a * (p ** b - 1)) % den == 0 or p ** a % den == 0
               for a in range(a_max + 1) for b in range(1, b_max + 1))


# ---------------------------------------------------------------------------
# general-ideals


def _cyclic(n):
    names = [f"x{i}" for i in range(n)]
    polys = [" + ".join("*".join(names[(i + j) % n] for j in range(d)) for i in range(n))
             for d in range(1, n)]
    return names, polys + ["*".join(names) + " - 1"]


_KATSURA3 = (["u0", "u1", "u2", "u3"],
             ["u0 + 2*u1 + 2*u2 + 2*u3 - 1",
              "u0^2 + 2*u1^2 + 2*u2^2 + 2*u3^2 - u0",
              "2*u0*u1 + 2*u1*u2 + 2*u2*u3 - u1",
              "u1^2 + 2*u0*u2 + 2*u1*u3 - u2"])

FIXED_SYSTEMS = {"cyclic-4 mod 32003": (_cyclic(4), 32003),
                 "katsura-3 mod 7": (_KATSURA3, 7),
                 "cyclic-5 mod 5": (_cyclic(5), 5)}


def _lib_ideal(fj, p, names, gens):
    R = fj.RingCtx(fj.PrimeField(p), names)
    return fj.Ideal(R, [fj.parse(refalg.fmt(g, names), R) for g in gens])


def general_ideals(fj, seed: int, k: int, refs: dict) -> list:
    rng = random.Random(f"general-ideals:{seed + k}")
    jobs = []

    def gb_job(label, p, base, gens, ref_key=None):
        names = var_names(base, k)
        ideal = _lib_ideal(fj, p, names, gens)

        def check(out):
            got = own_polys(out.polys, names, p)
            if ref_key is None:
                want = refalg.groebner(gens, p)
            else:
                if ref_key not in refs:
                    refs[ref_key] = refalg.groebner(gens, p)
                want = refs[ref_key]
            expect(refalg.same_polys(got, want), "basis differs from the reference")
            # A fixed system's basis meets the criteria once; in later
            # passes the equality above already covers it.
            if (ref_key, "criteria") not in refs:
                expect(refalg.is_reduced(got, p), "basis is not reduced")
                expect(refalg.is_groebner(got, p), "an S-pair does not reduce to zero")
                if ref_key is not None:
                    refs[ref_key, "criteria"] = True
        return Job(label, lambda: ideal.groebner_basis(), check)

    for label, ((base, polys), p) in FIXED_SYSTEMS.items():
        jobs.append(gb_job(f"gb {label}", p, base,
                           [refalg.parse(s, base, p) for s in polys], label))

    # Seeded inputs come in fixed strata (variables, primes, generator
    # counts), so every pass has the same mix of job sizes.
    for i in range(10):
        n, p = (2, 3)[i % 2], (3, 5, 7, 32003)[i % 4]
        gens = [_random_sparse(rng, p, n, rng.randint(2, 4), 3)
                for _ in range((2, 3)[i // 2 % 2])]
        jobs.append(gb_job("gb seeded", p, "xyz"[:n], gens))

    for i in range(4):
        n, p = (2, 3)[i % 2], (2, 3)[i // 2]
        names = var_names("xyz"[:n], k)
        gens = [_random_sparse(rng, p, n, 2, 3), _random_sparse(rng, p, n, 1, 2)]
        ideal = _lib_ideal(fj, p, names, gens)
        taus = {}
        c0 = Fraction(rng.randint(1, 5), rng.choice((2, 3, 4)))
        for c in (c0, c0 + Fraction(1, rng.choice((2, 3, 4)))):
            def tau_check(out, c=c, gens=gens, p=p, n=n, names=names, taus=taus):
                got = own_polys(out.ideal.gens, names, p)
                check_contains_chain(got, gens, c, p, n, 6)
                for c0, t0 in taus.items():
                    expect(refalg.contains(refalg.groebner(t0, p), got, p),
                           "tau is not monotone in c")
                taus[c] = got
            jobs.append(Job("tau general", lambda ideal=ideal, c=c: fj.test_ideal(ideal, c),
                            tau_check))

    for i in range(4):
        n = 2
        p = (2, 3)[i % 2]
        names = var_names("xy", k)
        # J = (x + y^s, y^t) is m-primary and not monomial.
        s, t = rng.randint(2, 3), rng.randint(2, 4)
        J = [{(1, 0): 1, (0, s): 1}, {(0, t): 1}]
        a = [_random_sparse(rng, p, n, 2, 2) for _ in range((1, 2)[i // 2])]
        e = 1 + i // 2
        q = p ** e
        lib_a, lib_J = _lib_ideal(fj, p, names, a), _lib_ideal(fj, p, names, J)

        def nu_check(out, a=a, J=J, q=q, p=p):
            bracket = refalg.groebner([refalg.frob(g, q) for g in J], p)
            levels = islice(refalg.power_remainders(a, bracket, p, 2), out, out + 2)
            inside = [not any(rems) for rems in levels]
            expect(inside == [False, True], f"nu={out} at q={q} fails its definition")
        jobs.append(Job("nu general", lambda lib_a=lib_a, lib_J=lib_J, e=e:
                        fj.nu(lib_a, lib_J, e), nu_check))

    # One CLI jumps job on a monomial ideal, so that every traced layer has
    # work on every workload.
    names = var_names("xy", k)
    vecs = [(rng.randint(1, 2), 0), (0, rng.randint(1, 2))]
    jobs.append(_cli_job("cli jumps seeded", ["jumps", "--ideal", "a", "--B", "1"],
                         _job_text(2, names, {"a": [{v: 1} for v in vecs]}), names, 2,
                         lambda res, meta: expect([Fraction(j) for j in res["jumps"]]
                                                  == newton.jumps(vecs, 1), "jumps")))
    return jobs


WORKLOADS = {"monomial-jumps": monomial_jumps,
             "principal-cli": principal_cli,
             "general-ideals": general_ideals}
