"""Table-based arithmetic in the fields of order up to 9.

Elements are integer codes 0..q-1.  For a prime field the code is the residue
itself.  For an extension of degree e over the prime p, the code encodes the
coefficient vector of a polynomial in t little-endian: code = sum c_i p^i,
so 0 is zero and 1 is one in every field.  The reducing polynomials are fixed
once and for all so that point orderings, and hence the permutations built on
them, are reproducible:

    GF(4): t^2 + t + 1      GF(8): t^3 + t + 1      GF(9): t^2 + 1
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

from .errors import PostconditionError

# top coefficients of the monic reducing polynomial, little-endian
_IRREDUCIBLE = {
    4: (1, 1),  # t^2 = t + 1 over GF(2)
    8: (1, 1, 0),  # t^3 = t + 1 over GF(2)
    9: (2, 0),  # t^2 = -1 = 2 over GF(3)
}

SUPPORTED_ORDERS = (2, 3, 4, 5, 7, 8, 9)


@dataclass(frozen=True)
class Field:
    q: int
    p: int
    e: int
    add_table: tuple[tuple[int, ...], ...] = field(repr=False)
    mul_table: tuple[tuple[int, ...], ...] = field(repr=False)

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def neg(self, a: int) -> int:
        row = self.add_table[a]
        return row.index(0)

    def pow(self, a: int, k: int) -> int:
        """a**k for k >= 0."""
        out = 1
        base = a
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def frobenius(self, a: int) -> int:
        return self.pow(a, self.p)

    def primitive_element(self) -> int:
        """Smallest code generating the whole multiplicative group."""
        if self.q == 2:
            return 1
        for a in range(2, self.q):
            seen = {a}
            x = self.mul(a, a)
            while x != a:
                seen.add(x)
                x = self.mul(x, a)
            if len(seen) == self.q - 1:
                return a
        raise AssertionError("no primitive element found")


def _vec_of_code(code: int, p: int, e: int) -> tuple[int, ...]:
    out = []
    for _ in range(e):
        out.append(code % p)
        code //= p
    return tuple(out)


def _code_of_vec(vec, p: int) -> int:
    code = 0
    for c in reversed(vec):
        code = code * p + c
    return code


def _poly_mul(a, b, p, e, top):
    # schoolbook product followed by reduction using t^e = top
    prod = [0] * (2 * e - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for k in range(2 * e - 2, e - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for i, ti in enumerate(top):
                prod[k - e + i] = (prod[k - e + i] + c * ti) % p
    return tuple(prod[:e])


@lru_cache(maxsize=None)
def gf(q: int) -> Field:
    """The field of order q for q in {2, 3, 4, 5, 7, 8, 9}."""
    if q not in SUPPORTED_ORDERS:
        raise ValueError("unsupported field order %r" % (q,))
    if q in _IRREDUCIBLE:
        top = _IRREDUCIBLE[q]
        p = 2 if q in (4, 8) else 3
        e = len(top)
        add = tuple(
            tuple(
                _code_of_vec(
                    [
                        (x + y) % p
                        for x, y in zip(_vec_of_code(a, p, e), _vec_of_code(b, p, e))
                    ],
                    p,
                )
                for b in range(q)
            )
            for a in range(q)
        )
        mul = tuple(
            tuple(
                _code_of_vec(
                    _poly_mul(_vec_of_code(a, p, e), _vec_of_code(b, p, e), p, e, top),
                    p,
                )
                for b in range(q)
            )
            for a in range(q)
        )
    else:
        p, e = q, 1
        add = tuple(tuple((a + b) % q for b in range(q)) for a in range(q))
        mul = tuple(tuple(a * b % q for b in range(q)) for a in range(q))
    return Field(q, p, e, add, mul)


def vectors(d: int, q: int) -> list[tuple[int, ...]]:
    """All of GF(q)^d in lexicographic order of coordinate codes."""
    return [tuple(v) for v in product(range(q), repeat=d)]


def nonzero_vectors(d: int, q: int) -> list[tuple[int, ...]]:
    return [v for v in vectors(d, q) if any(v)]


def projective_points(d: int, q: int) -> list[tuple[int, ...]]:
    """One representative per line through 0: first nonzero coordinate is 1,
    listed in lexicographic order."""
    pts = [v for v in vectors(d, q) if next((c for c in v if c), None) == 1]
    if len(pts) != (q**d - 1) // (q - 1):
        raise PostconditionError("%d projective points in GF(%d)^%d" % (len(pts), q, d))
    return pts
