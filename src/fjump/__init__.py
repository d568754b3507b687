"""Exact computation of Frobenius roots, generalized test ideals,
F-thresholds and F-jumping exponents for ideals in F_p[x_1, ..., x_n].

Everything is exact: coefficients live in F_p, exponents and thresholds in
arbitrary-precision rationals.  The interesting objects are

* ``bracket_power(J, e)``      - J^[p^e]
* ``frobenius_root(b, e)``     - the smallest J with b inside J^[p^e]
* ``power_root(a, r, e)``      - (a^r)^[1/p^e] by digit descent
* ``test_ideal(a, c)``         - the stable value of (a^ceil(c p^e))^[1/p^e]
* ``nu`` / ``f_threshold``     - membership counts and their limit brackets
* ``jumping_exponents``        - where the test-ideal family drops

plus a deterministic Buchberger engine underneath and literal brute-force
oracles alongside the fast paths.
"""

from .errors import (FjumpError, JobFileError, PolyParseError,
                     PreconditionError, ResourceLimitError, RingMismatchError)
from .gfp import PrimeField, is_prime
from .multipoly import (EXP_LIMIT, GREVLEX, LEX, MonomialOrder, Poly,
                        RingCtx, elimination_order, parse)
from .groebner import (GroebnerBasis, Ideal, buchberger, generated_in_degree,
                       ideal_intersect, ideal_power, ideal_product, ideal_sum,
                       is_member, is_subset, normal_form, radical_member)
from .frobroot import bracket_power, frobenius_root, power_root, root_scaled
from .testideal import (TauParams, TauResult, degree_bound_check,
                        mixed_test_ideal, skoda_reduce, test_ideal)
from .thresholds import (DenomBound, JumpList, NuRecord, ThresholdEstimate,
                         denominator_bound, f_threshold, fpt,
                         jumping_exponents, nu)
from .newton import integral_closure_monomial
from .oracle import nu_bruteforce, root_monomial, test_ideal_chain
from .ratutil import parse_rational, simplest_between
from .jobfile import JobInput, load_job

__version__ = "0.1.0"

__all__ = [
    "FjumpError", "JobFileError", "PolyParseError",
    "PreconditionError", "ResourceLimitError", "RingMismatchError",
    "PrimeField", "is_prime",
    "EXP_LIMIT", "GREVLEX", "LEX", "MonomialOrder", "Poly",
    "RingCtx", "elimination_order", "parse",
    "GroebnerBasis", "Ideal", "buchberger", "generated_in_degree",
    "ideal_intersect", "ideal_power", "ideal_product", "ideal_sum",
    "is_member", "is_subset", "normal_form", "radical_member",
    "bracket_power", "frobenius_root", "power_root", "root_scaled",
    "TauParams", "TauResult", "degree_bound_check", "mixed_test_ideal",
    "skoda_reduce", "test_ideal",
    "DenomBound", "JumpList", "NuRecord", "ThresholdEstimate",
    "denominator_bound", "f_threshold", "fpt", "jumping_exponents", "nu",
    "integral_closure_monomial", "nu_bruteforce",
    "root_monomial", "test_ideal_chain",
    "parse_rational", "simplest_between",
    "JobInput", "load_job",
    "__version__",
]
