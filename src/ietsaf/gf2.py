"""Polynomials over GF(2), encoded as nonnegative integers.

The polynomial c_0 + c_1 x + ... + c_n x^n is the integer
c_0 + c_1*2 + ... + c_n*2^n, so 0b1011 = 11 is x^3 + x + 1 and 0 is the
zero polynomial.  Multiplication is carry-less; the encoding makes
comparisons, hashing, and enumeration of all polynomials of a given
degree trivial.

The library needs gcds only (the mod-2 completion in `certificates`).
`factor`, by smallest-divisor trial division, is exponential in the
degree of the largest factor; no library code calls it, and the tests
use it as the oracle for the gcd-based completion.
"""

from __future__ import annotations

from .errors import PolynomialError
from .polys import Poly


def degree(a: int) -> int:
    """Degree of the encoded polynomial; -1 for the zero polynomial."""
    return a.bit_length() - 1


def mul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def divmod_(a: int, b: int):
    if b == 0:
        raise PolynomialError("division by zero polynomial over GF(2)")
    db = degree(b)
    quo = 0
    while degree(a) >= db:
        shift = degree(a) - db
        quo ^= 1 << shift
        a ^= b << shift
    return quo, a


def mod(a: int, b: int) -> int:
    return divmod_(a, b)[1]


def gcd(a: int, b: int) -> int:
    while b:
        a, b = b, mod(a, b)
    return a


def reverse(a: int) -> int:
    """Bit reversal x^n p(1/x); trailing zero coefficients drop the degree."""
    if a == 0:
        raise PolynomialError("cannot reverse the zero polynomial")
    return int(bin(a)[2:][::-1], 2)


def is_self_reciprocal(a: int) -> bool:
    return a != 0 and a == reverse(a)


def from_poly(p: Poly) -> int:
    """Reduce an integer polynomial mod 2."""
    if not p.is_integral:
        raise PolynomialError("mod-2 reduction needs integer coefficients")
    out = 0
    for i, c in enumerate(p.coeffs):
        if int(c) & 1:
            out |= 1 << i
    return out


def to_string(a: int) -> str:
    """Terms from the highest degree down, reading the bits of a in one pass."""
    if a == 0:
        return "0"
    top = degree(a)
    exponents = (top - i for i, bit in enumerate(bin(a)[2:]) if bit == "1")
    return " + ".join(f"x^{e}" if e > 1 else ("1", "x")[e] for e in exponents)


def factor(a: int) -> dict:
    """Complete factorization into irreducibles, as {factor: multiplicity}.

    Candidate divisors are tried in increasing integer order; the first
    hit is always irreducible because any proper factor of it would be a
    smaller divisor that was already removed.  No `src/` path calls it;
    it stays while `perfbench/layers.py` traces it.
    """
    if a == 0:
        raise PolynomialError("cannot factor the zero polynomial")
    out = {}
    rem = a
    b = 2
    while rem > 1:
        if degree(b) > degree(rem) // 2:
            out[rem] = out.get(rem, 0) + 1
            break
        quo, r = divmod_(rem, b)
        if r == 0:
            out[b] = out.get(b, 0) + 1
            rem = quo
        else:
            b += 1
    return out
