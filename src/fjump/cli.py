"""The ``fjump`` command line.

One job per invocation: read a ``.fj`` file (ring plus named ideals),
run one computation, emit a text or JSON report.  Exit codes:

    0  success
    1  usage error (bad flags, oracle not applicable)
    2  input parse error (job file or rational syntax)
    3  precondition violation (e.g. a not inside rad(J))
    4  resource limit hit, the tau block cap (--e-max) included
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from math import ceil

from .errors import (FjumpError, JobFileError, PolyParseError,
                     PreconditionError, ResourceLimitError)
from .groebner import (DEFAULT_GEN_LIMIT, DEFAULT_STEP_LIMIT, Ideal, buchberger,
                       ideal_power)
from .frobroot import E_LIMIT, bracket_power, frobenius_root
from .jobfile import JobInput, load_job
from .multipoly import GREVLEX, LEX
from .oracle import (monomial_exponents, monomial_ideal, nu_bruteforce,
                     power_root_vectors, root_monomial)
from .ratutil import format_rational, parse_rational
from .testideal import TauParams, mixed_test_ideal, test_ideal
from .thresholds import (denominator_bound, f_threshold, fpt,
                         jumping_exponents, nu)

COMMANDS = ("root", "bracket", "tau", "taumixed", "nu", "fthreshold",
            "fpt", "jumps", "gb", "denombound")

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["command", "ring", "result", "meta"],
    "additionalProperties": False,
    "properties": {
        "command": {"type": "string", "enum": list(COMMANDS)},
        "ring": {
            "type": "object",
            "required": ["p", "vars"],
            "additionalProperties": False,
            "properties": {
                "p": {"type": "integer"},
                "vars": {"type": "array", "items": {"type": "string"}},
            },
        },
        "result": {"type": "object"},
        "meta": {
            "type": "object",
            "required": ["stabilized_at", "certified", "records", "wall_time_ms"],
            "additionalProperties": False,
            "properties": {
                "stabilized_at": {"type": ["integer", "null"]},
                "certified": {"type": "boolean"},
                "records": {
                    "type": ["array", "null"],
                    "items": {
                        "type": "object",
                        "required": ["e", "nu"],
                        "additionalProperties": False,
                        "properties": {"e": {"type": "integer"},
                                       "nu": {"type": "integer"}},
                    },
                },
                "wall_time_ms": {"type": "integer"},
            },
        },
    },
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on the first call and shared by later
    ones; parsing leaves no state in it."""
    top = _Parser(prog="fjump", description=__doc__,
                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", metavar="command")

    def common(p, ideal=True):
        p.add_argument("-i", "--input", required=True,
                       help="job file ('-' reads stdin)")
        if ideal:
            p.add_argument("--ideal", required=True, help="ideal name from the job file")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--gb-step-cap", type=int, default=DEFAULT_STEP_LIMIT,
                       metavar="N", help="Groebner work cap (default %(default)s)")
        p.add_argument("--gen-cap", type=int, default=DEFAULT_GEN_LIMIT, metavar="N",
                       help="generator-count cap for ideal powers (default %(default)s)")
        p.add_argument("--e-cap", type=int, default=E_LIMIT, metavar="N",
                       help="largest Frobenius level (default %(default)s)")

    def tau_flags(p):
        p.add_argument("--e-max", type=int, default=TauParams.e_max,
                       help="blocks of levels the descent may run before its "
                            "state must repeat (default %(default)s)")

    p = sub.add_parser("root", help="Frobenius root b^[1/p^e]")
    common(p)
    p.add_argument("--e", type=int, required=True)

    p = sub.add_parser("bracket", help="bracket power J^[p^e]")
    common(p)
    p.add_argument("--e", type=int, required=True)

    p = sub.add_parser("tau", help="generalized test ideal")
    common(p)
    p.add_argument("--c", required=True, help="exponent, num or num/den")
    tau_flags(p)

    p = sub.add_parser("taumixed", help="mixed test ideal")
    common(p, ideal=False)
    p.add_argument("--pair", action="append", required=True, metavar="NAME=c",
                   help="factor ideal and exponent; repeatable")
    tau_flags(p)

    p = sub.add_parser("nu", help="largest r with a^r outside J^[p^e]")
    common(p)
    p.add_argument("--J", required=True, help="reference ideal name")
    p.add_argument("--e", type=int, required=True)

    p = sub.add_parser("fthreshold", help="F-threshold bracket of a at J")
    common(p)
    p.add_argument("--J", required=True)
    p.add_argument("--e-max", type=int, default=4)

    p = sub.add_parser("fpt", help="F-pure threshold bracket")
    common(p)
    p.add_argument("--e-max", type=int, default=4)

    p = sub.add_parser("jumps", help="F-jumping exponents up to a bound")
    common(p)
    p.add_argument("--B", required=True, help="search bound, num or num/den")
    p.add_argument("--cap", type=int, default=None)
    tau_flags(p)

    p = sub.add_parser("gb", help="reduced Groebner basis")
    common(p)
    p.add_argument("--order", choices=("grevlex", "lex"), default="grevlex")

    p = sub.add_parser("denombound", help="denominator family for the jumps")
    common(p)
    p.add_argument("--cap", type=int, default=None)

    for name in ("root", "tau", "nu", "fthreshold", "fpt"):
        sub.choices[name].add_argument(
            "--oracle", action="store_true",
            help="replay through the brute-force reference and compare")
    return top


def _read_job(args, stdin) -> JobInput:
    if args.input == "-":
        text = (stdin or sys.stdin).read()
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise JobFileError(f"cannot read {args.input}: {exc}", 0)
    return load_job(text)


def _gens(I: Ideal) -> list[str]:
    return [str(g) for g in I.gens] or ["0"]


def _limits(args) -> dict:
    return {"gen_limit": args.gen_cap, "step_limit": args.gb_step_cap,
            "e_limit": args.e_cap}


def _params(args) -> TauParams:
    return TauParams(e_max=_nat(args.e_max, "--e-max", 1))


def _run_command(args, job: JobInput):
    """Returns (result dict, meta overrides)."""
    lim = _limits(args)
    if args.command == "root":
        I = job.ideal(args.ideal)
        if args.oracle and not all(g.is_term() for g in I.gens):
            raise _UsageError("--oracle for 'root' needs monomial generators")
        out = frobenius_root(I, _nat(args.e, "--e"), e_limit=args.e_cap)
        result = {"generators": _gens(out)}
        if args.oracle:
            result["oracle_agreement"] = _agree(out, root_monomial(I, args.e))
        return result, {}
    if args.command == "bracket":
        out = bracket_power(job.ideal(args.ideal), _nat(args.e, "--e"),
                            e_limit=args.e_cap)
        return {"generators": _gens(out)}, {}
    if args.command == "tau":
        c = parse_rational(args.c)
        r = test_ideal(job.ideal(args.ideal), c, _params(args), **lim)
        result = {"generators": _gens(r.ideal), "c": format_rational(c)}
        if args.oracle:
            reference = _chain_term(job.ideal(args.ideal), c, r.stabilized_at,
                                    args.gen_cap)
            result["oracle_agreement"] = _agree(r.ideal, reference)
        return result, {"stabilized_at": r.stabilized_at, "certified": r.certified}
    if args.command == "taumixed":
        pairs = []
        shown = []
        for spec in args.pair:
            name, sep, ctext = spec.partition("=")
            if not sep:
                raise _UsageError(f"--pair needs NAME=c, got {spec!r}")
            c = parse_rational(ctext)
            pairs.append((job.ideal(name.strip()), c))
            shown.append({"ideal": name.strip(), "c": format_rational(c)})
        r = mixed_test_ideal(pairs, _params(args), **lim)
        return ({"generators": _gens(r.ideal), "pairs": shown},
                {"stabilized_at": r.stabilized_at, "certified": r.certified})
    if args.command == "nu":
        a, J = job.ideal(args.ideal), job.ideal(args.J)
        e = _nat(args.e, "--e", 1)
        value = nu(a, J, e, **lim)
        if args.oracle and value != nu_bruteforce(
                a, J, e, gen_limit=args.gen_cap, step_limit=args.gb_step_cap):
            raise ResourceLimitError(
                f"oracle disagreement: nu={value}, brute force differs")
        result = {"e": e, "q": a.ring.p**e, "nu": value}
        if args.oracle:
            result["oracle_agreement"] = True
        return result, {"records": [{"e": e, "nu": value}], "certified": True}
    if args.command in ("fthreshold", "fpt"):
        a = job.ideal(args.ideal)
        e_max = _nat(args.e_max, "--e-max", 1)
        if args.command == "fthreshold":
            J = job.ideal(args.J)
            est = f_threshold(a, J, e_max, **lim)
        else:
            J = Ideal(a.ring, [a.ring.var(i) for i in range(a.ring.nvars)])
            est = fpt(a, e_max, **lim)
        result = {
            "lower": format_rational(est.lower),
            "upper": format_rational(est.upper),
            "guess": format_rational(est.guess),
        }
        if args.oracle:
            # The brute force expands a^r: replay e <= 2, named in oracle_levels.
            replayed = [rec for rec in est.records if rec.e <= 2]
            for rec in replayed:
                brute = nu_bruteforce(a, J, rec.e, gen_limit=args.gen_cap,
                                      step_limit=args.gb_step_cap)
                if brute != rec.nu:
                    raise ResourceLimitError(
                        f"oracle disagreement at e={rec.e}: nu={rec.nu}, brute={brute}")
            result["oracle_agreement"] = True
            result["oracle_levels"] = [rec.e for rec in replayed]
        return result, {"records": [{"e": r.e, "nu": r.nu} for r in est.records],
                        "certified": est.certified}
    if args.command == "jumps":
        jl = jumping_exponents(job.ideal(args.ideal), parse_rational(args.B),
                               _params(args), cap=_nat(args.cap, "--cap", 1),
                               **lim)
        return ({"jumps": [format_rational(j) for j in jl.jumps],
                 "ideals": [_gens(I) for I in jl.ideals]},
                {"certified": jl.certified})
    if args.command == "gb":
        order = GREVLEX if args.order == "grevlex" else LEX
        gb = buchberger(job.ideal(args.ideal), order, step_limit=args.gb_step_cap)
        return {"order": args.order, "generators": [str(g) for g in gb.polys] or ["0"]}, {}
    if args.command == "denombound":
        cap = _nat(args.cap, "--cap", 1)
        db = denominator_bound(job.ideal(args.ideal))
        result = {"m": db.m, "d": db.d, "e0": db.e0, "N": db.N,
                  "a_max": db.a_max, "b_max": db.b_max,
                  "max_denominator": str(db.max_denominator),
                  "description": db.describe()}
        if cap is not None and db.max_denominator > cap:
            result["warning"] = (f"family maximum {db.max_denominator} exceeds "
                                 f"the cap {cap}")
        return result, {}
    raise _UsageError(f"unknown command {args.command!r}")


def _nat(value: int | None, flag: str, least: int = 0) -> int | None:
    if value is not None and value < least:
        raise _UsageError(f"{flag} must be at least {least}")
    return value


def _chain_term(I: Ideal, c, e: int, gen_cap: int) -> Ideal:
    """The raw chain term (I^ceil(c p^e))^[1/p^e].  For monomial generators
    it comes from the digit descent (``oracle.power_root_vectors``), which
    never expands the power; any other ideal is expanded (its tau is proved
    within the level cap)."""
    r = ceil(c * I.ring.p ** e)
    if I.is_zero() or not all(g.is_term() for g in I.gens):
        return frobenius_root(ideal_power(I, r, gen_limit=gen_cap), e)
    return monomial_ideal(I.ring, power_root_vectors(
        [(monomial_exponents(I), r)], I.ring, e, gen_limit=gen_cap))


def _agree(fast: Ideal, reference: Ideal) -> bool:
    if fast != reference:
        raise ResourceLimitError(
            "oracle disagreement: fast path gives "
            f"({', '.join(_gens(fast))}), reference gives "
            f"({', '.join(_gens(reference))})")
    return True


def _render_text(report: dict, out):
    res = report["result"]
    meta = report["meta"]
    print(f"command: {report['command']}", file=out)
    ring = report["ring"]
    print(f"ring: F_{ring['p']}[{', '.join(ring['vars'])}]", file=out)
    for key in sorted(res):
        val = res[key]
        if key in ("generators", "jumps"):
            val = ", ".join(val)
        elif key == "ideals":
            val = "; ".join("(" + ", ".join(g) + ")" for g in val)
        elif key == "pairs":
            val = ", ".join(f"{p['ideal']}^{p['c']}" for p in val)
        print(f"{key}: {val}", file=out)
    if meta["stabilized_at"] is not None:
        print(f"stabilized_at: {meta['stabilized_at']}", file=out)
    if meta["records"]:
        print("records: " + ", ".join(f"e={r['e']} nu={r['nu']}"
                                      for r in meta["records"]), file=out)
    print(f"certified: {str(meta['certified']).lower()}", file=out)


def run(argv, stdin=None, stdout=None, stderr=None) -> int:
    """Execute one job; returns the exit code and writes the report."""
    out = stdout or sys.stdout
    err = stderr or sys.stderr
    started = time.monotonic()
    try:
        args = _build_parser().parse_args(argv)
        if args.command is None:
            raise _UsageError("a command is required (try --help)")
    except _UsageError as exc:
        print(f"fjump: usage error: {exc}", file=err)
        return 1
    try:
        job = _read_job(args, stdin)
        result, meta_over = _run_command(args, job)
    except _UsageError as exc:
        print(f"fjump: usage error: {exc}", file=err)
        return 1
    except (JobFileError, PolyParseError) as exc:
        print(f"fjump: input error: {exc}", file=err)
        return 2
    except PreconditionError as exc:
        print(f"fjump: precondition violated: {exc}", file=err)
        return 3
    except ResourceLimitError as exc:
        print(f"fjump: resource limit: {exc}", file=err)
        return 4
    except FjumpError as exc:
        print(f"fjump: input error: {exc}", file=err)
        return 2

    meta = {"stabilized_at": None, "certified": True, "records": None,
            "wall_time_ms": int((time.monotonic() - started) * 1000)}
    meta.update(meta_over)
    report = {
        "command": args.command,
        "ring": {"p": job.ring.p, "vars": list(job.ring.var_names)},
        "result": result,
        "meta": meta,
    }
    if args.format == "json":
        json.dump(report, out, indent=2, sort_keys=True)
        print(file=out)
    else:
        _render_text(report, out)
    return 0


def main():  # console entry point
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
