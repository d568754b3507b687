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
    assert PrimeField(5).add(3, 4) == 2
    assert PrimeField(2).mul(1, 1) == 1
    assert PrimeField(7).div(3, 5) == 2


def test_division_by_zero():
    F = PrimeField(5)
    with pytest.raises(ZeroDivisionError):
        F.div(3, 0)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_field_axioms_exhaustive(p):
    F = PrimeField(p)
    for a in range(p):
        for b in range(p):
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            assert F.add(F.sub(a, b), b) == a
            assert F.add(a, F.neg(a)) == 0
            if b:
                assert F.mul(F.div(a, b), b) == a
            for c in range(p):
                assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


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
