import itertools

import pytest

from orbitlat.gf import (
    SUPPORTED_ORDERS,
    gf,
    nonzero_vectors,
    projective_points,
    vectors,
)


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
class TestFieldAxioms:
    def test_additive_group(self, q):
        field = gf(q)
        for a, b in itertools.product(range(q), repeat=2):
            assert field.add(a, b) == field.add(b, a)
            assert field.add(a, field.neg(a)) == 0
        for a, b, c in itertools.product(range(q), repeat=3):
            assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))

    def test_multiplicative_group(self, q):
        field = gf(q)
        for a in range(q):
            assert field.mul(a, 1) == a
            assert field.mul(a, 0) == 0
            if a:
                assert 1 in field.mul_table[a]  # a has an inverse
        for a, b, c in itertools.product(range(q), repeat=3):
            assert field.mul(a, b) == field.mul(b, a)
            assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
            assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))

    def test_characteristic(self, q):
        field = gf(q)
        for a in range(q):
            total = 0
            for _ in range(field.p):
                total = field.add(total, a)
            assert total == 0

    def test_frobenius_is_automorphism(self, q):
        field = gf(q)
        for a, b in itertools.product(range(q), repeat=2):
            assert field.frobenius(field.add(a, b)) == field.add(
                field.frobenius(a), field.frobenius(b)
            )
            assert field.frobenius(field.mul(a, b)) == field.mul(
                field.frobenius(a), field.frobenius(b)
            )
        # iterating e times returns every element to itself
        for a in range(q):
            x = a
            for _ in range(field.e):
                x = field.frobenius(x)
            assert x == a

    def test_primitive_element(self, q):
        field = gf(q)
        g = field.primitive_element()
        order = 1
        x = g
        while x != 1:
            x = field.mul(x, g)
            order += 1
        assert order == q - 1 or (q == 2 and order == 1)

    def test_pow(self, q):
        field = gf(q)
        for a in range(1, q):
            assert field.pow(a, 0) == 1
            assert field.pow(a, q - 1) == 1
            assert field.pow(a, 3) == field.mul(a, field.mul(a, a))


class TestUnsupported:
    def test_non_prime_power(self):
        with pytest.raises(ValueError):
            gf(6)

    def test_out_of_table(self):
        with pytest.raises(ValueError):
            gf(16)


class TestVectorSpaces:
    def test_vector_counts_and_order(self):
        vs = vectors(2, 3)
        assert len(vs) == 9
        assert vs == sorted(vs)
        assert vs[0] == (0, 0)
        assert len(nonzero_vectors(2, 3)) == 8

    @pytest.mark.parametrize("d,q", [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (3, 4)])
    def test_projective_point_count(self, d, q):
        points = projective_points(d, q)
        assert len(points) == (q**d - 1) // (q - 1)
        assert len(set(points)) == len(points)
        # representatives have leading coordinate 1
        for v in points:
            first = next(x for x in v if x)
            assert first == 1
