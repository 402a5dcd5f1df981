"""Tiny integer helpers: reading, and factorization by trial division, at
desk scale."""

from __future__ import annotations


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError("n must be positive")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    return n > 1 and list(factorize(n)) == [n]


def is_prime_power(n: int) -> bool:
    return n > 1 and len(factorize(n)) == 1


def multiplicative_order(d: int, modulus: int) -> int:
    """Order of d in the unit group mod modulus; d must be a unit."""
    from math import gcd

    if gcd(d, modulus) != 1:
        raise ValueError("%d is not a unit mod %d" % (d, modulus))
    k, x = 1, d % modulus
    while x != 1 % modulus:
        x = x * d % modulus
        k += 1
    return k


def read_int(text: str, limit: int, error: type[ValueError], what: str) -> int | None:
    """`text` as an integer in ASCII digits with an optional leading '-'
    (blanks around it ignored), or None if it is not one.

    A number with more digits than `limit` exceeds it, so the digit count is
    checked before int() reads the number; `error` then names `what`, and
    the number only when it is short.
    """
    text = text.strip()
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        return None
    size = len(digits.lstrip("0"))
    if size > len(str(limit)):
        shown = text if size <= 20 else "of %d digits" % size
        raise error("%s %s exceeds cap %d" % (what, shown, limit))
    return int(text)
