"""A rational polynomial type for parsing, printing and comparison, and
exact polynomial algorithms on integer coefficient lists.

`Poly` is immutable with coefficients stored constant-first:
``Poly([-1, 0, 1])`` is ``x^2 - 1``.  A coefficient is a plain int when
it is integral and a reduced `fractions.Fraction` only when it is not
(`_coeff`), so integer readers take `coeffs` as they are; coefficients
are divided as `Fraction(c, lead)`, never by `/`.  The zero polynomial
has an empty coefficient tuple and degree -1.  Text I/O uses the same
constant-first convention, e.g. ``"-1,0,1"``.  Every rational in text,
here and in IET files and command options, is read by `parse_ratio` as
the ints (n, d) of one ``[+-]digits[/digits]`` and nothing else, and
`parse_rational` puts them in the same normal form, so an integral entry
builds no `Fraction`; IET coordinates stay on ints.

`Poly` has no ring operations: every algorithm here reads `coeffs` as
a plain list, over Z, modulo a prime or packed in one int.  The module
provides the coefficient reversal ``x^n p(1/x)``, the reciprocity test
(root multiset closed under inversion), Sturm chains with real root
counting and isolation, the minimal polynomial of y + 1/y modulo m from
one resultant over Z, packed at a power of two (`trace_minpoly`), and
best-effort irreducibility certification by reduction modulo small
primes.  The one polynomial division over `Fraction` left is
`poly_xgcd`, extended Euclid over Q on lists, which no library path
calls.

Sturm chains, root counts and isolation run on Python ints.  `sign_at`
decides the sign of an integer polynomial at n/q by homogeneous Horner:
the sign of q^deg p(n/q), with q > 0.  `sturm_chain` returns primitive
integer coefficient lists: entry 0 is p cleared of denominators, and the
rest come from pseudo-remainders over Z: the multiplier
|lc(b)|^(delta+1) is positive, the remainder is negated and divided by
its content.  Each entry is therefore a positive multiple of the
classical entry (Euclid's remainders over the rationals, signs
flipped), and every count of sign variations is the classical one.  The
last entry is gcd(p, p') up to a unit, so the same Euclid run decides
squarefreeness.  `check_monic_integral` writes the input errors of a
polynomial that is not monic, not integral or constant;
`monic_squarefree_chain` adds the squarefree check and returns the chain.

Irreducibility is certified by Rabin's test modulo the trial primes
2..13 (`certify_irreducible`: the first prime modulo which p is
irreducible, or None).  Each prime takes its cheapest exact route, and
every route decides exactly what Rabin's test decides.

At q = 2 the test runs on the `gf2` int encoding (`_irreducible_mod2`).
The k = 1 step, a root mod 2, is f(0) = 0 or f(1) = 0, read off the
bits.  The rows x^(2i) mod f come from 2d shift/XOR steps, a square is
the XOR of the rows at the set bits, and the coprimality checks are
`gf2.gcd`.  No list and no packed ring is built.

At odd q the test runs on packed residues: f is reduced mod q and made
monic, and a residue mod (f, q) is one Python int whose fixed-width
slots hold its coefficients (Kronecker substitution).  The slot width
is the least of 16, 32 or 64 bits above d*(q-1)^2 + q - 1, the largest
sum the kernel forms, so no slot ever carries; at q = 13, 16-bit slots
last up to degree 455.  A product is one bigint multiply, an unpack
(`to_bytes` into an `array`), and a fold of the high slots through
packed rows of x^d .. x^(2d-2) mod f.  The rows x^(iq) mod f of the
Frobenius map are built once per (f, q), so h -> h^q is d small-int
times bigint multiply-adds and one unpack.

Rabin's test is one pass over h_k = x^(q^k) mod f for k = 1..d.  At odd
q it starts with k = 1 on plain lists: x^q mod f is one `_mmod` of the
monomial, a list of q + 1 entries, and gcd(x^q - x, f) != 1 means f has
a root mod q, so f (d >= 2) is reducible and the test answers before
any packed ring exists.  Most of the trial primes find such a root on
the stretch polynomials they do not certify.
Next comes the discriminant-parity filter (`_parity_proves_reducible`):
disc(f) = (-1)^(d(d-1)/2) Res(f, f') mod q by one Euclid on the same
lists.  By Stickelberger's theorem as Swan states it (Pacific J. Math.
12, 1962), a squarefree f with r irreducible factors mod an odd prime
has Legendre symbol (disc/q) = (-1)^(d-r).  So f' = 0, disc = 0, or a
symbol other than (-1)^(d-1) proves r > 1.  The filter only ever proves
reducibility, so it turns no hit into a miss and no miss into a hit; it
only ends some misses before the Frobenius table is built.  The rest of
the pass builds the packed ring and its Frobenius rows from x^q mod f
and runs the Frobenius map from k = 2: gcd(h_k - x, f) = 1 at each
k = d/r, r a prime factor of d, and h_d = x.  The k = 1 gcd is the
first distinct-degree step; it changes no answer, since an irreducible
f of degree >= 2 has no root.  An odd prime too wide for 64-bit slots
is refused before any answer.
"""

from __future__ import annotations

import re
import sys
from array import array
from fractions import Fraction
from math import gcd, isqrt, lcm

from . import gf2
from .errors import InputError, NonSquarefreeError, ParseError, PolynomialError

TRIAL_PRIMES = (2, 3, 5, 7, 11, 13)
# odd primes for the squarefree filter of `trace_minpoly`: chi mod 2 was
# not squarefree for any Arnoux-Yoccoz stretch polynomial tried
SQUAREFREE_PRIMES = (3, 5)
QUOTE_CHARS = 40

_RATIO = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")

# slot size in bytes -> array type code of that size (2, 4 and 8 bytes)
_SLOT_CODES = {array(code).itemsize: code for code in "QLIH"}
_BIG_ENDIAN = sys.byteorder == "big"


def quote(text: str) -> str:
    """`repr(text)`, or for a text longer than QUOTE_CHARS the repr of its
    first QUOTE_CHARS characters and its length: an error echoes no more."""
    if len(text) <= QUOTE_CHARS:
        return repr(text)
    return f"{text[:QUOTE_CHARS]!r}... ({len(text)} characters)"


def parse_ratio(text: str):
    """The ints (n, d) of `[+-]digits[/digits]`, surrounding whitespace stripped.

    d > 0 and n/d is not reduced: "+6/4" gives (6, 4).  No decimal point
    and no exponent: a short text such as "1e999999999" cannot ask for a
    huge number.
    """
    match = _RATIO.fullmatch(text.strip())
    if match is None:
        raise ParseError(f"bad rational {quote(text)}")
    num, den = match.groups()
    # the error texts `Fraction(text)` gave, minus numbers past QUOTE_CHARS
    try:
        n, d = int(num), int(den or 1)
    except ValueError:   # the int digit limit, far past QUOTE_CHARS digits
        raise ParseError(f"bad rational {quote(text)}: too many digits") from None
    if d == 0:
        zero = f"Fraction({n}, 0)" if len(text) <= QUOTE_CHARS else "zero denominator"
        raise ParseError(f"bad rational {quote(text)}: {zero}")
    return n, d


def parse_rational(text: str):
    """`parse_ratio` in normal form: the int n // d when d divides n."""
    n, d = parse_ratio(text)
    return n // d if n % d == 0 else Fraction(n, d)


def _coeff(c):
    """The normal form of an int or `Fraction` coefficient: an int when integral."""
    if not isinstance(c, (int, Fraction)):
        raise PolynomialError(f"bad polynomial coefficient {c!r}")
    return c.numerator if c.denominator == 1 else c


class Poly:
    """Univariate polynomial with exact rational coefficients in normal form:
    parsing, printing, queries, equality and hashing, and `monic`.  It has
    no arithmetic operators; the algorithms read `coeffs` as a list."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_coeff(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def from_string(cls, text: str) -> "Poly":
        """Parse a constant-first comma list of `parse_rational` entries."""
        if not text.strip():
            raise ParseError("empty polynomial string")
        return cls([parse_rational(p) for p in text.split(",")])

    def to_string(self) -> str:
        if self.is_zero:
            return "0"
        return ",".join(str(c) for c in self.coeffs)

    # -- basic queries ------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self):
        if self.is_zero:
            raise PolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def constant(self):
        return self.coeffs[0] if self.coeffs else 0

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly([other])
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def eval_interval(self, lo: Fraction, hi: Fraction):
        """Interval Horner: an enclosure of p([lo, hi]).  No `src/` path
        calls it; it stays while `perfbench/layers.py` traces it (ROADMAP item 3)."""
        if self.is_zero:
            return Fraction(0), Fraction(0)
        vlo = vhi = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            products = (vlo * lo, vlo * hi, vhi * lo, vhi * hi)
            vlo, vhi = min(products) + c, max(products) + c
        return vlo, vhi

    def monic(self) -> "Poly":
        if self.is_zero:
            raise PolynomialError("cannot normalize zero polynomial")
        lead = self.leading
        if lead == 1:
            return self
        return Poly([Fraction(c, lead) for c in self.coeffs])

    # -- display -------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                body = str(abs(c))
            else:
                var = "x" if i == 1 else f"x^{i}"
                body = var if abs(c) == 1 else f"{abs(c)}*{var}"
            terms.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(terms)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self) -> str:
        return f"Poly.from_string({self.to_string()!r})"


def poly_xgcd(p: Poly, q: Poly):
    """Extended gcd: (g, u, v) with u*p + v*q = g, g monic or zero.

    Extended Euclid over Q on coefficient lists: a row is (remainder, u, v)
    with u*p + v*q = remainder, and each division step subtracts c*x^k
    times the lower row from the upper one, which cancels the upper
    remainder's leading term; the rows swap when the upper one falls below
    the lower in degree.  No library path calls it: it is the tests'
    rational oracle for `AlgNum.inverse`, and stays while
    `perfbench/layers.py` traces it."""
    upper, lower = (list(p.coeffs), [1], []), (list(q.coeffs), [], [1])
    while lower[0]:
        k = len(upper[0]) - len(lower[0])
        if k < 0:
            upper, lower = lower, upper
            continue
        c = Fraction(upper[0][-1], lower[0][-1])
        for row, sub in zip(upper, lower):
            row.extend([0] * (len(sub) + k - len(row)))
            for j, y in enumerate(sub, k):
                row[j] -= c * y
            _mtrim(row)
    g = upper[0]
    inverse = Fraction(1, g[-1]) if g else 1
    return tuple(Poly([c * inverse for c in row]) for row in upper)


def reverse(p: Poly) -> Poly:
    """The coefficient reversal x^n p(1/x); degree drops when p(0) = 0."""
    if p.is_zero:
        raise PolynomialError("cannot reverse the zero polynomial")
    return Poly(tuple(reversed(p.coeffs)))


def is_reciprocal(p: Poly) -> bool:
    """Whether the root multiset of p is closed under r -> 1/r.

    For monic p with p(0) = a this holds exactly when a is +1 or -1 and
    the coefficient reversal equals a*p.  Requires p monic with nonzero
    constant term.
    """
    if p.is_zero or not p.is_monic:
        raise PolynomialError("reciprocity test requires a monic polynomial")
    a = p.constant()
    if a == 0:
        raise PolynomialError("reciprocity test requires nonzero constant term")
    if a != 1 and a != -1:
        return False
    cs = p.coeffs     # reverse(p) == a*p, one coefficient pair at a time
    return all(cs[-1 - i] == a * c for i, c in enumerate(cs[:(len(cs) + 1) // 2]))


def is_squarefree(p: Poly) -> bool:
    """Whether p is nonzero with gcd(p, p') constant: the last Sturm entry.
    No `src/` path calls it; it stays while `perfbench/layers.py` traces it."""
    if p.is_zero:
        return False
    try:
        sturm_chain(p)
    except NonSquarefreeError:
        return False
    return True


def cauchy_root_bound(p: Poly) -> Fraction:
    """1 + max |c_i| / |lead|: every real root lies in (-B, B)."""
    if p.is_zero or p.degree < 1:
        raise PolynomialError("root bound needs degree >= 1")
    return 1 + Fraction(max(abs(c) for c in p.coeffs[:-1]), abs(p.leading))


# -- Sturm chains and real root isolation ------------------------------


def scaled_value(coeffs, num: int, den: int) -> int:
    """den^deg * p(num/den) for the integer polynomial `coeffs` (constant
    first), deg = len(coeffs) - 1: homogeneous Horner, on ints only."""
    acc, scale = 0, 1
    for c in reversed(coeffs):
        acc = acc * num + c * scale
        scale *= den
    return acc


def sign_at(coeffs, num: int, den: int) -> int:
    """Sign of the integer polynomial `coeffs` (constant first) at num/den:
    that of `scaled_value`, since den > 0."""
    acc = scaled_value(coeffs, num, den)
    return (acc > 0) - (acc < 0)


def _integer_multiple(p: Poly):
    """Integer coefficients of d*p, d > 0 the lcm of p's denominators."""
    d = lcm(*(c.denominator for c in p.coeffs))
    return [c.numerator * (d // c.denominator) for c in p.coeffs]


def _primitive(a):
    g = gcd(*a)
    return [x // g for x in a] if g > 1 else a


def _negated_pseudo_remainder(a, b):
    """-(|lc(b)|^(deg a - deg b + 1) * a mod b) over Z, divided by its content.

    Negating b first makes its leading coefficient positive without
    changing the remainder, so the multiplier is positive.
    """
    if b[-1] < 0:
        b = [-x for x in b]
    lead, db = b[-1], len(b) - 1
    r = list(a)
    while len(r) > db:
        c = r.pop()
        r = [lead * x for x in r]
        for j, y in enumerate(b[:-1], len(r) - db):
            r[j] -= c * y
    return _primitive([-x for x in _mtrim(r)])


def primitive_gcd(a, b):
    """gcd over Q of two integer coefficient lists (constant first), as a
    primitive integer list: the last nonzero entry of their primitive
    remainder sequence.  Trailing zeros are dropped first, since the
    sequence reads the last entry as the leading coefficient; the gcd of
    two zero lists is []."""
    a, b = _mtrim(list(a)), _mtrim(list(b))
    while b:
        a, b = b, _negated_pseudo_remainder(a, b)
    return _primitive(a)


def sturm_chain(p: Poly):
    """Sturm chain of a squarefree p as primitive integer coefficient lists.

    Entry 0 is a positive multiple of p.  The rest come from
    pseudo-remainders over Z, each a positive multiple of the classical
    entry (Euclid's remainders of p and p' with signs flipped), so every
    count of sign variations is the classical one.  The last entry is
    gcd(p, p') up to a unit: p is squarefree exactly when it is a
    constant, and NonSquarefreeError is raised otherwise.
    """
    if p.is_zero:
        raise PolynomialError("Sturm chain of the zero polynomial")
    chain = [_primitive(_integer_multiple(p))]
    if len(chain[0]) > 1:
        chain.append(_primitive([i * c for i, c in enumerate(chain[0])][1:]))
        while len(chain[-1]) > 1:
            r = _negated_pseudo_remainder(chain[-2], chain[-1])
            if not r:
                raise NonSquarefreeError(
                    f"polynomial is not squarefree: gcd with derivative is "
                    f"{Poly(chain[-1]).monic()}"
                )
            chain.append(r)
    return chain


def check_monic_integral(p: Poly, noun: str) -> None:
    """InputError unless p is monic with integer coefficients and of
    degree >= 1; `noun` names p in the message."""
    if not (p.is_monic and p.is_integral):
        raise InputError(f"{noun} must be monic with integer coefficients")
    if p.degree < 1:
        raise InputError(f"{noun} must have degree >= 1")


def monic_squarefree_chain(p: Poly, noun: str):
    """The Sturm chain of p, after `check_monic_integral` and a check that
    p is squarefree; `noun` names p in the InputError."""
    check_monic_integral(p, noun)
    try:
        return sturm_chain(p)
    except NonSquarefreeError:
        raise InputError(f"{noun} is not squarefree: {p}") from None


def _variations(chain, num: int, den: int) -> int:
    """Sign changes along integer coefficient lists at num/den, zeros skipped."""
    count = last = 0
    for q in chain:
        s = sign_at(q, num, den)
        if s:
            if s != last and last:
                count += 1
            last = s
    return count


def count_real_roots(p: Poly, lo: Fraction, hi: Fraction, chain=None) -> int:
    """Number of real roots of squarefree p in the half-open (lo, hi].

    `chain`, when given, is `sturm_chain(p)`.
    """
    if lo >= hi:
        raise PolynomialError("empty interval for root counting")
    chain = sturm_chain(p) if chain is None else chain
    return (_variations(chain, lo.numerator, lo.denominator)
            - _variations(chain, hi.numerator, hi.denominator))


def isolate_real_roots(p: Poly, lo: Fraction, hi: Fraction, chain=None):
    """Disjoint intervals (a, b], each holding exactly one root in (lo, hi].

    Requires p squarefree; intervals are returned in increasing order and
    jointly cover all roots of p in (lo, hi].  No command calls it: it
    stays for ROADMAP item 8, and `perfbench/layers.py` traces it.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if lo >= hi:
        raise PolynomialError("isolation interval is empty")
    chain = sturm_chain(p) if chain is None else chain
    var_cache = {}

    def var(x):
        if x not in var_cache:
            var_cache[x] = _variations(chain, x.numerator, x.denominator)
        return var_cache[x]

    out = []

    def split(a, b, count):
        if count == 0:
            return
        if count == 1:
            out.append((a, b))
            return
        mid = (a + b) / 2
        left = var(a) - var(mid)
        split(a, mid, left)
        split(mid, b, count - left)

    split(lo, hi, var(lo) - var(hi))
    return out


# -- the trace-field polynomial ------------------------------------------


def _slot_width(bound: int) -> int:
    """Bits per slot, a multiple of 8, for signed digits of size <= bound."""
    return (bound.bit_length() + 8) & ~7


def _unpack_signed(v: int, k: int, count: int):
    """The `count` signed base-2^k digits of v, each in [-2^(k-1), 2^(k-1)),
    k a multiple of 8; OverflowError when v has no such digits."""
    size, half = k >> 3, 1 << (k - 1)
    offset = int.from_bytes(half.to_bytes(size, "little") * count, "little")
    data = (v + offset).to_bytes(size * count, "little")
    return [int.from_bytes(data[i:i + size], "little") - half
            for i in range(0, len(data), size)]


def _trace_resultant(coeffs):
    """The d + 1 coefficients of m(0)*chi, constant first, for the
    integer coefficients of m (`trace_minpoly` has how)."""
    a = b = 0
    for c in reversed(coeffs):
        a, b = a + b, abs(c) + a
    k = _slot_width(a * a + a * b + b * b)
    A = B = 0
    for c in reversed(coeffs):
        A, B = (A << k) + B, c - A
    return _unpack_signed(A * A + (A * B << k) + B * B, k, len(coeffs))


def _square_root(chi):
    """s with s^2 = chi and lc(s) > 0, or None, for chi of degree 2e.
    lc(chi), chi(1) and chi(-1) must be integer squares.  If chi = s^2,
    Mignotte's bound (Math. Comp. 28, 1974) and M(s)^2 = M(chi) <= |chi|_2
    give |s|_1^2 <= 4^e |chi|_2, so at the width k below s is the signed
    digits of isqrt(chi(2^k)).  A root is accepted only when its square is
    chi(2^k), its digits are exact and |s|_1^2 fits a slot: s^2 = chi."""
    for square in (chi[-1], sum(chi), sum(chi[::2]) - sum(chi[1::2])):
        if square < 0 or isqrt(square) ** 2 != square:
            return None
    e = (len(chi) - 1) // 2
    k = _slot_width((isqrt(sum(c * c for c in chi)) + 1) << 2 * e)
    value = 0
    for c in reversed(chi):
        value = (value << k) + c
    root = isqrt(value)
    if root * root != value:
        return None
    try:
        s = _unpack_signed(root, k, e + 1)
    except OverflowError:
        return None
    return None if sum(map(abs, s)) ** 2 >> (k - 1) else s


def trace_minpoly(m: Poly) -> Poly:
    """Monic minimal polynomial of beta = y + 1/y in Q[y]/(m), for m monic,
    integral and squarefree with m(0) != 0 (the caller checks this).

    Mod y^2 - x*y + 1 over Z[x], m = A*y + B and m(0)*chi = A^2 + x*A*B +
    B^2 (`certificates` has why), of degree d, is formed at x = 2^k
    (Kronecker substitution, Schoenhage, EUROCAM 1982).  Horner on m is
    two integer updates per coefficient, A, B <- (A << k) + B, c - A; the
    1-norms obey a, b <- a + b, |c| + a, and a^2 + a*b + b^2 bounds every
    coefficient, so the value's d + 1 signed base-2^k digits are m(0)*chi.
    The result is chi / gcd(chi, chi').  A value r + 1/r comes from at
    most two roots r, so a square root of chi (reciprocal m) is squarefree
    and is the result up to a unit (`_square_root`).  Otherwise a modular
    filter skips the gcd over Z when it can: for q in SQUAREFREE_PRIMES
    (3, then 5) not dividing lc(chi), gcd(chi mod q, chi' mod q) = 1 proves
    chi squarefree over Q, since a square factor over Z would survive mod
    q with its degree.  Failing both, the gcd is `primitive_gcd`'s and the
    quotient is exact over Z.
    """
    n = len(m.coeffs)
    chi = _primitive(_trace_resultant(m.coeffs))
    if chi[-1] < 0:
        chi = [-c for c in chi]
    if n % 2 and (s := _square_root(chi)):
        return Poly(s).monic()
    deriv = [i * c for i, c in enumerate(chi)][1:]
    if not any(chi[-1] % q and len(_mgcd([c % q for c in chi], [c % q for c in deriv], q)) == 1
               for q in SQUAREFREE_PRIMES):
        g = primitive_gcd(chi, deriv)
        if len(g) > 1:
            quo = [0] * (n - len(g) + 1)
            for i in range(len(quo) - 1, -1, -1):
                c = quo[i] = chi[i + len(g) - 1] // g[-1]
                for j, y in enumerate(g, i):
                    chi[j] -= c * y
            chi = quo
    return Poly(chi).monic()


# -- reduction mod p and irreducibility certification -------------------


def _mtrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _mmod(a, f, m):
    a = list(a)
    df = len(f) - 1
    inv_lead = pow(f[-1], m - 2, m)
    for i in range(len(a) - df - 1, -1, -1):
        c = (a[i + df] * inv_lead) % m
        if c:
            for j, y in enumerate(f):
                a[i + j] = (a[i + j] - c * y) % m
    return _mtrim(a[:df])

def _mgcd(a, b, m):
    a, b = _mtrim(list(a)), _mtrim(list(b))
    while b:
        a, b = b, _mmod(a, b, m)
    return a


def _prime_factors(n: int):
    out, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return sorted(out)


def _slot_size(d: int, q: int) -> int:
    """Bytes per packed slot for degree d mod q: the least of 2, 4 and 8
    above d*(q-1)^2 + q - 1, the largest sum formed, so no slot carries.
    A prime too large for 64-bit slots is refused."""
    bound = d * (q - 1) ** 2 + q - 1
    size = min((s for s in _SLOT_CODES if bound < 1 << (8 * s)), default=None)
    if size is None:
        raise PolynomialError(f"prime {q} too large for degree {d}")
    return size


class _PackedResidues:
    """Arithmetic in GF(q)[x]/(f) on packed residues, f monic of degree d >= 2.

    Coefficient i of a residue sits in slot i of one Python int (the
    module docstring has the slot width and the product).  The rows
    x^d .. x^(2d-2) mod f are built with the ring; the Frobenius rows
    x^(iq) mod f are built once, from the packed x^q mod f that Rabin's
    k = 1 step computed on plain lists, by `frobenius_table`: a row with
    iq <= 2d-2 is a monomial or a row of the reduction table, and each
    later one is the row before it times x^q.
    """

    def __init__(self, f, q):
        d = len(f) - 1
        size = _slot_size(d, q)
        self.q, self.d, self.size, self.code = q, d, size, _SLOT_CODES[size]
        reduction = [-c % q for c in f[:-1]]     # x^d mod f
        cur, high = reduction, []
        for _ in range(d - 1):
            high.append(self.pack(cur))
            top = cur[-1]
            cur = [0] + cur[:-1]
            if top:
                cur = [(a + top * b) % q for a, b in zip(cur, reduction)]
        self.high = high

    def x_to(self, j: int) -> int:
        """x^j mod f for j <= 2d-2, with no product."""
        return 1 << (8 * self.size * j) if j < self.d else self.high[j - self.d]

    def frobenius_table(self, x_q: int) -> None:
        """The rows x^(iq) mod f, i < d, from x_q = x^q mod f: h^q = sum
        h_i x^(iq) over GF(q)."""
        d, q = self.d, self.q
        rows = [1, x_q]
        for i in range(2, d):
            rows.append(self.x_to(i * q) if i * q <= 2 * d - 2 else self.mul(rows[-1], x_q))
        self.frobenius_rows = rows

    def pack(self, coeffs) -> int:
        slots = array(self.code, coeffs)
        if _BIG_ENDIAN:
            slots.byteswap()
        return int.from_bytes(slots, "little")

    def unpack(self, n: int, count: int):
        """The low `count` slots of n, each reduced mod q."""
        slots = array(self.code, n.to_bytes(count * self.size, "little"))
        if _BIG_ENDIAN:
            slots.byteswap()
        q = self.q
        return [c % q for c in slots]

    def mul(self, a: int, b: int) -> int:
        d = self.d
        c = self.unpack(a * b, 2 * d - 1)
        acc = self.pack(c[:d])
        for ck, row in zip(c[d:], self.high):
            if ck:
                acc += ck * row
        return self.pack(self.unpack(acc, d))

    def frobenius(self, h):
        """h^q for a reduced coefficient list h: d multiply-adds, one unpack."""
        acc = 0
        for c, row in zip(h, self.frobenius_rows):
            if c:
                acc += c * row
        return self.unpack(acc, self.d)


def _coprime_minus_x(h, f, q) -> bool:
    """Whether gcd(h - x, f) = 1 over GF(q), for a residue list h of length >= 2."""
    diff = list(h)
    diff[1] = (diff[1] - 1) % q
    return len(_mgcd(diff, f, q)) == 1


def _mresultant(a, b, q):
    """Res(a, b) mod the prime q by Euclid, for trimmed nonzero lists a, b.

    Res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r) Res(b, r) for
    r = a mod b, and Res(a, c) = c^(deg a) for a constant c.
    """
    res = 1
    while len(b) > 1:
        r = _mmod(a, b, q)
        if not r:
            return 0
        da, db = len(a) - 1, len(b) - 1
        if da & db & 1:
            res = -res
        res = res * pow(b[-1], da - len(r) + 1, q) % q
        a, b = b, r
    return res * pow(b[0], len(a) - 1, q) % q


def _parity_proves_reducible(f, q) -> bool:
    """Whether the discriminant of the monic list f (degree d >= 2) proves
    f reducible modulo the odd prime q.

    disc(f) = (-1)^(d(d-1)/2) Res(f, f').  A squarefree f with r
    irreducible factors mod q has (disc/q) = (-1)^(d-r) (Stickelberger, as
    Swan states it), so r = 1 needs the symbol (-1)^(d-1).  f' = 0 (f is a
    q-th power) and disc = 0 (f has a square factor) prove it too.
    """
    d = len(f) - 1
    df = _mtrim([i * c % q for i, c in enumerate(f)][1:])
    if not df:
        return True
    disc = _mresultant(f, df, q)
    if d * (d - 1) // 2 % 2:
        disc = -disc % q
    return disc == 0 or pow(disc, (q - 1) // 2, q) != (1 if d % 2 else q - 1)


def _irreducible_mod2(f: int) -> bool:
    """Rabin's test for f of degree d >= 2 in the `gf2` encoding.

    Row i is x^(2i) mod f, two shift/XOR steps after row i-1, so the
    square of a residue h is the XOR of the rows at the set bits of h.
    """
    if not f & 1 or not bin(f).count("1") & 1:
        return False    # f(0) = 0 or f(1) = 0: gcd(x^2 - x, f) != 1 at k = 1
    d = f.bit_length() - 1
    row, rows = 1, [1]
    for _ in range(d - 1):
        for _ in range(2):
            row <<= 1
            if row >> d:
                row ^= f
        rows.append(row)
    checks = {d // r for r in _prime_factors(d)}
    h = 0b10    # x
    for k in range(1, d + 1):
        square = 0
        for bit, row in zip(bin(h)[:1:-1], rows):
            if bit == "1":
                square ^= row
        h = square
        if k in checks and gf2.gcd(f, h ^ 0b10) != 1:
            return False
    return h == 0b10


def _irreducible_mod(a, q: int) -> bool:
    """Rabin irreducibility test for the integer coefficient list a
    (constant first) reduced modulo the prime q.

    One pass over h_k = x^(q^k) mod f for k = 1..d (the module docstring
    has the kernel of each prime and the order of the steps):
    gcd(h_k - x, f) = 1 at k = 1 and at each k = d/r (r a prime factor
    of d), and h_d = x.  At odd q the discriminant's parity may prove f
    reducible between k = 1 and the Frobenius table.
    """
    f = _mtrim([c % q for c in a])
    d = len(f) - 1
    if d < len(a) - 1:
        return False  # leading coefficient vanished mod q
    if d == 0:
        return False
    if d == 1:
        return True
    if q == 2:
        return _irreducible_mod2(int("".join(map(str, reversed(f))), 2))
    _slot_size(d, q)    # refuse a prime too wide for the slots before any answer
    inv_lead = pow(f[-1], -1, q)
    f = [c * inv_lead % q for c in f]
    # k = 1 on plain lists: a root mod q answers before any packed ring
    x_q = _mmod([0] * q + [1], f, q)
    x_q += [0] * (d - len(x_q))
    if not _coprime_minus_x(x_q, f, q) or _parity_proves_reducible(f, q):
        return False
    ring = _PackedResidues(f, q)
    ring.frobenius_table(ring.pack(x_q))
    checks = {d // r for r in _prime_factors(d)}
    h = x_q
    for k in range(2, d + 1):
        h = ring.frobenius(h)
        if k in checks and not _coprime_minus_x(h, f, q):
            return False
    return h == [0, 1] + [0] * (d - 2)


def certify_irreducible(p: Poly):
    """First prime in TRIAL_PRIMES modulo which p is irreducible, else None.

    Irreducibility modulo any prime implies irreducibility over Q for a
    monic integer polynomial, so a hit is a sound certificate; a miss
    proves nothing.  A hit also proves p squarefree: an irreducible
    polynomial over Q is coprime to its nonzero derivative.  The primes
    are tried in order with `_irreducible_mod`, whose kernel depends on
    the prime (module docstring), so the prime returned is the first
    one at which Rabin's test holds.
    """
    if not (p.is_monic and p.is_integral and p.degree >= 1):
        raise PolynomialError("irreducibility certification needs a monic integer polynomial")
    for q in TRIAL_PRIMES:
        if _irreducible_mod(p.coeffs, q):
            return q
    return None
