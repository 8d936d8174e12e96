"""Exact and floating-point helpers that stand apart from the library.

The benchmark generates its inputs and checks the program's outputs with
this code only, so a change to `ietsaf` can change neither the inputs
nor the verdict of a check.  Polynomials are lists of Fractions (or
ints), constant term first, as in the library's text format.
"""

from __future__ import annotations

import json
from fractions import Fraction

TRIAL_PRIMES = (2, 3, 5, 7, 11, 13)


# -- polynomials over Q -------------------------------------------------------


def trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def peval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def prem(a, b):
    """Remainder of a by b over Q."""
    a = [Fraction(c) for c in a]
    db = len(b) - 1
    for i in range(len(a) - db - 1, -1, -1):
        c = a[i + db] / b[-1]
        if c:
            for j, y in enumerate(b):
                a[i + j] -= c * y
    return trim(a[:db])


def derivative(p):
    return trim([i * c for i, c in enumerate(p)][1:])


def sturm_chain(p):
    chain = [trim(p), derivative(p)]
    while len(chain[-1]) > 1:
        chain.append([-c for c in prem(chain[-2], chain[-1])])
    return [q for q in chain if q]


def _variations(chain, x):
    signs = [v > 0 for v in (peval(q, x) for q in chain) if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def isolate_roots(p, lo, hi):
    """Intervals (a, b), one per root of squarefree p in (lo, hi), with
    neither endpoint a root."""
    chain = sturm_chain(p)
    out = []

    def split(a, b):
        count = _variations(chain, a) - _variations(chain, b)
        if count == 0:
            return
        if count == 1 and peval(p, b) != 0:
            out.append((a, b))
            return
        mid = (a + b) / 2
        while peval(p, mid) == 0:
            mid = (a + mid) / 2
        split(a, mid)
        split(mid, b)

    split(Fraction(lo), Fraction(hi))
    return out


def root_bound(p):
    return 1 + max(abs(Fraction(c)) for c in p[:-1]) / abs(Fraction(p[-1]))


def narrow(p, lo, hi, width):
    """Bisect an isolating interval (root not at an endpoint) below width."""
    s_lo = peval(p, lo) > 0
    while hi - lo > width:
        mid = (lo + hi) / 2
        v = peval(p, mid)
        if v == 0:
            return mid, mid
        if (v > 0) == s_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def interval_value(coords, lo, hi):
    """Enclosure of sum c_i x^i over x in [lo, hi] (interval Horner)."""
    vlo = vhi = Fraction(coords[-1])
    for c in reversed(coords[:-1]):
        products = (vlo * lo, vlo * hi, vhi * lo, vhi * hi)
        vlo, vhi = min(products) + c, max(products) + c
    return vlo, vhi


def is_reciprocal(p):
    """Root multiset closed under r -> 1/r, for monic p with p(0) != 0."""
    a = p[0]
    return a in (1, -1) and list(reversed(p)) == [a * c for c in p]


def trace_poly(p):
    """For palindromic p of degree 2k, the h with x^k h(x + 1/x) = p(x)."""
    k = (len(p) - 1) // 2
    t_prev, t_cur = [Fraction(2)], [Fraction(0), Fraction(1)]  # T_0, T_1
    h = [Fraction(p[k])]
    for j in range(1, k + 1):
        coeff = p[k + j]
        h = [a + coeff * b for a, b in _pad(h, t_cur)]
        t_prev, t_cur = t_cur, [a - b for a, b in _pad([0] + t_cur, t_prev)]
    return trim(h)


def _pad(a, b):
    n = max(len(a), len(b))
    return zip(list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b)))


def to_text(p):
    return ",".join(str(Fraction(c)) for c in p)


# -- polynomials over GF(p) ----------------------------------------------------


def _mod_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _mod_rem(a, f, q):
    a = list(a)
    inv = pow(f[-1], q - 2, q)
    df = len(f) - 1
    for i in range(len(a) - df - 1, -1, -1):
        c = a[i + df] * inv % q
        if c:
            for j, y in enumerate(f):
                a[i + j] = (a[i + j] - c * y) % q
    return _mod_trim(a[:df])


def _mod_mulrem(a, b, f, q):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _mod_rem([c % q for c in out], f, q)


def _mod_gcd(a, b, q):
    a, b = _mod_trim(list(a)), _mod_trim(list(b))
    while b:
        a, b = b, _mod_rem(a, b, q)
    return a


def irreducible_mod(p, q):
    """Whether the monic integer polynomial p stays irreducible mod q.

    Distinct-degree test: a reducible f of degree n has an irreducible
    factor of some degree i <= n/2, which divides x^(q^i) - x.
    """
    f = _mod_trim([int(c) % q for c in p])
    n = len(f) - 1
    if n < len(p) - 1 or n < 1:
        return False
    h = [0, 1]
    for _ in range(n // 2):
        acc, base, e = [1], h, q
        while e:
            if e & 1:
                acc = _mod_mulrem(acc, base, f, q)
            base = _mod_mulrem(base, base, f, q)
            e >>= 1
        h = acc
        diff = h + [0, 0]
        diff[1] = (diff[1] - 1) % q
        if len(_mod_gcd(diff, f, q)) != 1:
            return False
    return True


def certified_irreducible(p):
    """Whether p is irreducible mod one of the library's trial primes."""
    return any(irreducible_mod(p, q) for q in TRIAL_PRIMES)


# -- GF(2) polynomials as bit masks ----------------------------------------------


def gf2_mul(a, b):
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def gf2_reverse(a):
    return int(bin(a)[:1:-1], 2)


def gf2_from_ints(p):
    return sum(1 << i for i, c in enumerate(p) if int(c) % 2)


def gf2_parse(text):
    """Parse 'x^3 + x + 1' as printed by the program into a bit mask."""
    out = 0
    for term in text.split(" + "):
        term = term.strip()
        if term == "1":
            out ^= 1
        elif term == "x":
            out ^= 2
        elif term.startswith("x^"):
            out ^= 1 << int(term[2:])
        else:
            raise ValueError(f"bad GF(2) term {term!r}")
    return out


def gf2_completion_exists(mbar, k):
    """Brute force: is there q of degree k with q(0) = 1 and mbar*q
    self-reciprocal?"""
    if k == 0:
        return mbar == gf2_reverse(mbar)
    for middle in range(2 ** (k - 1)):
        q = 1 | (middle << 1) | (1 << k)
        prod = gf2_mul(mbar, q)
        if prod == gf2_reverse(prod):
            return True
    return False


# -- IET files -------------------------------------------------------------------


def _coords(text):
    return [Fraction(c) for c in text.split(",")]


class FileIET:
    """An IET file read with plain JSON and Fractions: exact coordinates,
    a float model for sampling, and the exact SAF wedge matrix."""

    def __init__(self, text):
        data = json.loads(text)
        self.modulus = _coords(data["modulus"])
        lo, hi = (Fraction(c) for c in data["root_interval"].split(","))
        self.total = _coords(data["total"])
        self.lengths = [_coords(t) for t in data["lengths"]]
        self.perm = [k - 1 for k in data["perm"]]
        a, b = narrow(self.modulus, lo, hi, Fraction(1, 2 ** 60))
        self.root = float((a + b) / 2)
        self.translations = self._translations()
        self.fbreaks = [0.0]
        for length in self.lengths:
            self.fbreaks.append(self.fbreaks[-1] + self.value(length))
        self.ftrans = [self.value(t) for t in self.translations]
        self.ftotal = self.value(self.total)

    def value(self, coords):
        return sum(float(c) * self.root ** i for i, c in enumerate(coords))

    def _translations(self):
        """t_i = (start of slot perm[i] in the image) - (start of piece i)."""
        d, n = len(self.total), len(self.lengths)
        zero = [Fraction(0)] * d
        by_slot = sorted(range(n), key=lambda i: self.perm[i])
        image_start, acc = [None] * n, zero
        for i in by_slot:
            image_start[i] = acc
            acc = [a + b for a, b in zip(acc, self.lengths[i])]
        out, start = [], zero
        for i in range(n):
            out.append([a - b for a, b in zip(image_start[i], start)])
            start = [a + b for a, b in zip(start, self.lengths[i])]
        return out

    def __call__(self, x):
        for i in range(len(self.lengths)):
            if self.fbreaks[i] <= x < self.fbreaks[i + 1]:
                return x + self.ftrans[i]
        raise ValueError(f"{x} outside [0, {self.ftotal})")

    def saf(self):
        """Sum of length wedge translation, as an antisymmetric matrix."""
        d = len(self.total)
        rows = [[Fraction(0)] * d for _ in range(d)]
        for v, w in zip(self.lengths, self.translations):
            for i in range(d):
                for j in range(d):
                    rows[i][j] += v[i] * w[j] - w[i] * v[j]
        return rows


def saf_sum(a, b):
    return [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]


def iet_text(modulus, interval, total, lengths, perm):
    """The canonical text the program itself would emit for a circle IET."""
    data = {
        "modulus": to_text(modulus),
        "root_interval": f"{interval[0]},{interval[1]}",
        "total": to_text(total),
        "lengths": [to_text(l) for l in lengths],
        "perm": [k + 1 for k in perm],
        "circle": True,
    }
    return json.dumps(data, indent=2) + "\n"
