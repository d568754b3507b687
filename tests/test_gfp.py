import pytest

from fjump import FjumpError, PrimeField, RingCtx, frobenius_root, is_prime


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_accepts_primes(p):
    assert PrimeField(p).p == p


@pytest.mark.parametrize("n", [0, 1, 4, 6, 9, 15, 21])
def test_rejects_composites(n):
    assert not is_prime(n)
    with pytest.raises(FjumpError):
        PrimeField(n)


def test_examples_from_small_fields():
    assert PrimeField(5).inv(2) == 3
    assert PrimeField(2).inv(1) == 1
    assert PrimeField(7).inv(3) == 5
    assert PrimeField(7).inv(-4) == 5  # residues are reduced first


def test_division_by_zero():
    F = PrimeField(5)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)
    with pytest.raises(ZeroDivisionError):
        F.inv(10)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_field_axioms_exhaustive(p):
    # Inversion is the only arithmetic PrimeField provides; the polynomial
    # layer reduces its own residues.
    F = PrimeField(p)
    for a in range(1, p):
        assert 0 <= F.inv(a) < p
        assert a * F.inv(a) % p == 1
        assert F.inv(a + p) == F.inv(a)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
@pytest.mark.parametrize("e", [0, 1, 2, 7])
def test_pe_root_inverts_frobenius(p, e):
    # Coefficients are their own p^e-th roots over F_p, so the root of the
    # bracket power of (x + c y) is (x + c y) itself, for every c.
    R = RingCtx(PrimeField(p), ("x", "y"))
    for c in range(p):
        f = R.poly("x") + R.monomial((0, 1), c)
        assert pow(c, p**e, p) == c
        assert frobenius_root(R.ideal(f.frobenius(e)), e).gens == (f,)
