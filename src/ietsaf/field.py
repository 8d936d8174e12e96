"""Real algebraic number fields Q(alpha) with exact sign determination.

A NumberField is a monic integer modulus together with a rational
interval isolating exactly one of its real roots; the field element
alpha is *that* root.  An AlgNum is a rational coordinate vector in the
power basis 1, alpha, ..., alpha^(d-1).  All arithmetic is exact.

Signs and comparisons are decided in two stages.

1. A filter.  The field keeps an outward-rounded fixed-point copy of its
   isolating interval, [floor(lo*2^P), ceil(hi*2^P)] with
   P = max(64, 32 + log2(1/width)), and each element caches an enclosure
   of its value: interval Horner on integers, rounding lower bounds down
   and upper bounds up, with every coordinate rounded outward.  An
   enclosure strictly on one side of 0 decides a sign; two disjoint
   enclosures decide a comparison without forming the difference.
2. The exact path.  Interval Horner over `Fraction` on the isolating
   interval, bisecting on demand, with a gcd check against the modulus
   after a fixed number of bisections.  It terminates because a nonzero
   element of a field cannot vanish at the root.

The filter is sound and never moves the isolating interval.  Interval
arithmetic is inclusion-monotone, so the fixed-point enclosure contains
the exact rational interval-Horner result on the same interval; by
subdistributivity enc(a) - enc(b) contains the Horner enclosure of
a - b.  Whenever the filter decides, the first step of the exact path
would have decided the same way without bisecting.  The interval
therefore evolves exactly as it would on the exact path alone, and
every printed isolating interval is the same.  Bisection bumps the
field's generation counter, which marks the fixed-point interval and
the cached element enclosures as stale; they are recomputed on first use.

Irreducibility of the modulus is certified best-effort by reduction
modulo small primes.  When certification fails, arithmetic still
proceeds; an actually reducible modulus is detected loudly the moment
inversion (or sign refinement) runs into a zero divisor.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    FieldMismatchError,
    InputError,
    IterationCapError,
    PolynomialError,
    ReducibleModulusError,
)
from .polys import (
    Poly,
    certify_irreducible,
    count_real_roots,
    is_squarefree,
    poly_gcd,
    poly_xgcd,
)

SIGN_GCD_CHECK_AFTER = 48
SIGN_BISECTION_CAP = 10 ** 6


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


class NumberField:
    """Q(alpha) for a distinguished real root alpha of a monic integer polynomial."""

    def __init__(self, modulus: Poly, lo, hi):
        lo, hi = Fraction(lo), Fraction(hi)
        if not (modulus.is_monic and modulus.is_integral):
            raise InputError("field modulus must be a monic integer polynomial")
        if modulus.degree < 1:
            raise InputError("field modulus must have degree >= 1")
        if not is_squarefree(modulus):
            raise InputError(f"field modulus is not squarefree: {modulus}")
        if lo >= hi:
            raise InputError("root interval is empty")
        if modulus(lo) == 0 or modulus(hi) == 0:
            raise InputError("root count in interval != 1 (root at an endpoint)")
        if count_real_roots(modulus, lo, hi) != 1:
            raise InputError(
                f"root count in interval != 1 for {modulus} on ({lo}, {hi})"
            )
        self.modulus = modulus
        self.degree = modulus.degree
        self.certified_prime = certify_irreducible(modulus)
        self._lo, self._hi = lo, hi
        self._sign_lo = _sign(modulus(lo))
        self._exact_root = None
        self._generation = 0
        self._fixed = None
        self._high_powers = self._power_table()
        self.refine_interval(Fraction(1, 2 ** 20))

    def _power_table(self):
        # coords of alpha^d .. alpha^(2d-2) in the power basis
        d = self.degree
        reduction = [-c for c in self.modulus.coeffs[:-1]]
        table = []
        cur = list(reduction)
        table.append(tuple(cur))
        for _ in range(d - 2):
            top = cur[-1]
            cur = [Fraction(0)] + cur[:-1]
            if top:
                cur = [a + top * b for a, b in zip(cur, reduction)]
            table.append(tuple(cur))
        return table

    # -- root interval management --------------------------------------

    @property
    def interval(self):
        return self._lo, self._hi

    @property
    def exact_root(self):
        return self._exact_root

    def _fixed_point(self):
        """(P, floor(lo*2^P), ceil(hi*2^P)) for the current isolating interval."""
        fixed = self._fixed
        if fixed is None or fixed[0] != self._generation:
            lo, hi = self._lo, self._hi
            width = hi - lo
            prec = max(64, 32 + width.denominator.bit_length()
                       - width.numerator.bit_length() + 1)
            fixed = self._fixed = (
                self._generation,
                prec,
                (lo.numerator << prec) // lo.denominator,
                -((-hi.numerator << prec) // hi.denominator),
            )
        return fixed[1:]

    def _bisect_once(self) -> None:
        if self._exact_root is not None:
            return
        mid = (self._lo + self._hi) / 2
        s = _sign(self.modulus(mid))
        if s == 0:
            self._exact_root = mid
        elif s == self._sign_lo:
            self._lo = mid
        else:
            self._hi = mid
        self._generation += 1

    def refine_interval(self, width: Fraction) -> None:
        """Shrink the isolating interval below the given width."""
        while self._exact_root is None and self._hi - self._lo > width:
            self._bisect_once()

    # -- element constructors -------------------------------------------

    def element(self, coords) -> "AlgNum":
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != self.degree:
            raise InputError(
                f"expected {self.degree} coordinates, got {len(coords)}"
            )
        return AlgNum(self, coords)

    def from_rational(self, q) -> "AlgNum":
        coords = [Fraction(q)] + [Fraction(0)] * (self.degree - 1)
        return AlgNum(self, tuple(coords))

    def zero(self) -> "AlgNum":
        return self.from_rational(0)

    def one(self) -> "AlgNum":
        return self.from_rational(1)

    def gen(self) -> "AlgNum":
        """The distinguished root alpha (equals the field itself for degree 1)."""
        if self.degree == 1:
            return self.from_rational(-self.modulus.coeffs[0])
        coords = [Fraction(0)] * self.degree
        coords[1] = Fraction(1)
        return AlgNum(self, tuple(coords))

    # -- identity ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, NumberField):
            return NotImplemented
        if self.modulus != other.modulus:
            return False
        lo = max(self._lo, other._lo)
        hi = min(self._hi, other._hi)
        if self._exact_root is not None or other._exact_root is not None:
            r = self._exact_root if self._exact_root is not None else other._exact_root
            return other._lo < r < other._hi and self._lo < r < self._hi
        if lo >= hi:
            return False
        return count_real_roots(self.modulus, lo, hi) == 1

    def __hash__(self):
        return hash(self.modulus)

    def __repr__(self):
        return f"NumberField({self.modulus}, interval=({self._lo}, {self._hi}))"


class AlgNum:
    """An element of a NumberField: rational coordinates on the power basis."""

    __slots__ = ("field", "coords", "_enclosure_cache")

    def __init__(self, field: NumberField, coords):
        self.field = field
        self.coords = coords
        self._enclosure_cache = None

    # -- coercion and ring operations --------------------------------------

    def _coerce(self, other):
        if isinstance(other, AlgNum):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatchError("operands belong to different number fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return AlgNum(self.field, tuple(a + b for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __neg__(self):
        return AlgNum(self.field, tuple(-a for a in self.coords))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return AlgNum(self.field, tuple(a - b for a, b in zip(self.coords, o.coords)))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self.field.degree
        conv = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.coords):
            if a:
                for j, b in enumerate(o.coords):
                    if b:
                        conv[i + j] += a * b
        out = conv[:d]
        for k, c in enumerate(conv[d:]):
            if c:
                high = self.field._high_powers[k]
                out = [x + c * y for x, y in zip(out, high)]
        return AlgNum(self.field, tuple(out))

    __rmul__ = __mul__

    def inverse(self) -> "AlgNum":
        """Multiplicative inverse via extended gcd with the modulus.

        Raises ReducibleModulusError when the gcd uncovers a nontrivial
        factor (the element is a zero divisor of a reducible modulus).
        """
        if self.is_zero():
            raise ZeroDivisionError("inversion of zero field element")
        rep = Poly(self.coords)
        g, u, _ = poly_xgcd(rep, self.field.modulus)
        if g.degree > 0:
            raise ReducibleModulusError(g)
        u = u % self.field.modulus
        coords = [u[i] for i in range(self.field.degree)]
        return AlgNum(self.field, tuple(coords))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def to_rational(self) -> Fraction:
        if not self.is_rational():
            raise InputError(f"{self!r} is not rational")
        return self.coords[0]

    def _enclosure(self):
        """(lo, hi) with lo <= value * 2^P <= hi, P the field's fixed-point precision.

        Interval Horner on integers over the field's fixed-point interval,
        with lower bounds rounded down and upper bounds rounded up.  Cached
        until the field bisects.
        """
        field = self.field
        cached = self._enclosure_cache
        if cached is not None and cached[0] == field._generation:
            return cached[1], cached[2]
        prec, xlo, xhi = field._fixed_point()
        lo = hi = 0
        for c in reversed(self.coords):
            if lo or hi:
                products = (lo * xlo, lo * xhi, hi * xlo, hi * xhi)
                lo = min(products) >> prec
                hi = -(-max(products) >> prec)
            if c:
                n, d = c.numerator, c.denominator
                if d == 1:
                    lo += n << prec
                    hi += n << prec
                else:
                    lo += (n << prec) // d
                    hi -= (-n << prec) // d
        self._enclosure_cache = (field._generation, lo, hi)
        return lo, hi

    def sign(self) -> int:
        """Sign of the real value at the field's distinguished root.

        Unless the root is exactly rational, the cached fixed-point
        enclosure decides first, when it lies strictly on one side of 0.  It
        contains the exact interval-Horner result on the same interval, so
        it decides only where the exact path would decide without
        bisecting, and the isolating interval moves exactly as it would on
        the exact path alone.  Zero coordinates, a rational root and an
        enclosure that straddles 0 go to the exact path.
        """
        if self.field._exact_root is None:
            lo, hi = self._enclosure()
            if lo > 0:
                return 1
            if hi < 0:
                return -1
        return self._exact_sign()

    def _exact_sign(self) -> int:
        """Sign by interval Horner over Fraction with bisection: the exact path."""
        if self.is_zero():
            return 0
        field = self.field
        if field._exact_root is not None:
            return _sign(Poly(self.coords)(field._exact_root))
        rep = Poly(self.coords)
        for i in range(SIGN_BISECTION_CAP):
            vlo, vhi = rep.eval_interval(field._lo, field._hi)
            if vlo > 0:
                return 1
            if vhi < 0:
                return -1
            if i == SIGN_GCD_CHECK_AFTER:
                g = poly_gcd(rep, field.modulus)
                if g.degree > 0:
                    raise ReducibleModulusError(g)
            field._bisect_once()
            if field._exact_root is not None:
                return _sign(rep(field._exact_root))
        raise IterationCapError("sign determination exceeded the bisection cap")

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except FieldMismatchError:
            return False
        if o is None:
            return NotImplemented
        return self.coords == o.coords

    def __hash__(self):
        return hash((self.field.modulus, self.coords))

    def _compare(self, other) -> int:
        """Sign of self - other; disjoint enclosures decide without subtracting."""
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if isinstance(other, AlgNum) and other.field is self.field:
            alo, ahi = self._enclosure()
            blo, bhi = other._enclosure()
            if ahi < blo:
                return -1
            if alo > bhi:
                return 1
        return (self - other).sign()

    def __lt__(self, other):
        return self._compare(other) < 0

    def __le__(self, other):
        return self._compare(other) <= 0

    def __gt__(self, other):
        return self._compare(other) > 0

    def __ge__(self, other):
        return self._compare(other) >= 0

    def approx(self, eps) -> Fraction:
        """A rational within eps of the element's real value."""
        eps = Fraction(eps)
        field = self.field
        rep = Poly(self.coords)
        if field._exact_root is not None:
            return rep(field._exact_root)
        while True:
            vlo, vhi = rep.eval_interval(field._lo, field._hi)
            if vhi - vlo < eps:
                return (vlo + vhi) / 2
            field._bisect_once()
            if field._exact_root is not None:
                return rep(field._exact_root)

    def __float__(self) -> float:
        return float(self.approx(Fraction(1, 10 ** 20)))

    def min_poly(self) -> Poly:
        """Monic rational minimal polynomial, by incremental Krylov elimination."""
        d = self.field.degree
        rows = []  # (pivot index, reduced vector, expression in powers)
        power = self.field.one()
        for j in range(d + 1):
            vec = list(power.coords)
            combo = [Fraction(0)] * j + [Fraction(1)]
            for pivot, pvec, pcombo in rows:
                c = vec[pivot]
                if c:
                    f = c / pvec[pivot]
                    vec = [x - f * y for x, y in zip(vec, pvec)]
                    combo = [
                        x - f * (pcombo[i] if i < len(pcombo) else 0)
                        for i, x in enumerate(combo)
                    ]
            pivot = next((i for i, x in enumerate(vec) if x), None)
            if pivot is None:
                return Poly(combo)
            rows.append((pivot, vec, combo))
            power = power * self
        raise PolynomialError("unreachable: no dependency among d+1 powers")

    def __repr__(self):
        return f"AlgNum([{', '.join(str(c) for c in self.coords)}])"


def eval_at(p: Poly, a: AlgNum) -> AlgNum:
    """Evaluate a rational polynomial at a field element (Horner)."""
    acc = a.field.zero()
    for c in reversed(p.coeffs):
        acc = acc * a + c
    return acc
