"""Arithmetic in the prime field F_p.

Residues are plain ints in [0, p), reduced mod p by the polynomial layer
itself; :class:`PrimeField` checks that p is prime and inverts residues.
Because F_p is perfect, the Frobenius map c -> c^p is the identity
(Fermat), so p^e-th roots of coefficients are free.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FjumpError


def is_prime(n: int) -> bool:
    """Deterministic trial division; inputs here are desk-scale primes."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True, slots=True)
class PrimeField:
    """The coefficient field F_p.  Extension fields F_{p^k} are out of
    scope: over F_p the basis of the field over its p^e-th powers is {1},
    which keeps root extraction trivial."""

    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise FjumpError(f"characteristic must be prime, got {self.p}")

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def __repr__(self):
        return f"PrimeField({self.p})"
