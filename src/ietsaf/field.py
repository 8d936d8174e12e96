"""Real algebraic number fields Q(alpha) with exact sign determination.

A NumberField is a monic integer modulus together with a rational
interval isolating exactly one of its real roots; the field element
alpha is *that* root.  An AlgNum is a coordinate vector in the power
basis 1, alpha, ..., alpha^(d-1), stored as a tuple of ints `num` over
one positive int `den`, normalised so that gcd(den, *num) = 1.  That
form is unique, so equality and hashing compare ints.  Sums, products
and negation stay on ints (no `Fraction` is built); the read-only
`coords` property gives the `Fraction` tuple num/den for files, reports
and tests.  All arithmetic is exact.

Signs and comparisons use one exact integer enclosure.  The field keeps
its isolating interval as ints (a, b, D), meaning [a/D, b/D]; the
`interval` property forms reduced `Fraction`s when it is read.  An
element's value at the root is num(alpha)/den with den > 0, so num(x)
decides its sign.  The enclosure is interval Horner of num over [a, b],
coefficient k scaled by D^(d-1-k): exactly D^(d-1) times interval Horner
over [a/D, b/D].  Scaling by a positive constant moves no bound across
0, so no rounding is needed, and the enclosure decides exactly when the
rational one would.  Each element caches it until the field bisects.

`sign` is one loop: a rational root hit by bisection decides by
`sign_at`; else an enclosure on one side of 0 decides; after
SIGN_GCD_CHECK_AFTER bisections a gcd of num with the modulus rules out
a zero divisor, on the integer remainder sequence that Sturm chains use
(`polys.primitive_gcd`); else the field bisects once, at the midpoint
(a+b)/2D, whose sign under the modulus comes from `sign_at`.  A nonzero
element cannot vanish at the root, so the loop ends.  Disjoint
enclosures decide a comparison by cross-multiplying with the two dens;
the difference's own enclosure would then exclude 0 too
(subdistributivity), so the interval moves as if the difference's sign
were taken.  `approx` bisects until the same enclosure is narrow enough.

The constructor checks its modulus with `polys.monic_squarefree_chain`,
the check the stretch-factor criteria make of a minimal polynomial:
monic with integer coefficients, degree >= 1, and squarefree by the
last entry of its integer Sturm chain.  It keeps that chain, and reads
the modulus as ints off entry 0, since a monic integer polynomial is its
own primitive integer multiple.  It checks that neither endpoint is a
root with `sign_at`, keeping the sign at the lower one for bisection,
counts the roots between them with the chain, and refines the interval
to width 2^-20 with the same integer bisection loop that signs use.
Two field objects are equal when they have the same modulus and the
same distinguished root, and deciding that costs one Sturm count with
the kept chain on the intersection of the two isolating intervals.  No
endpoint is ever a root (bisection stops at a root without moving the
interval) and each interval holds exactly one, so the intersection holds
a root exactly when both hold the same one, a rational one included.
Elements of two equal field objects have the same coordinates in the
same basis, but arithmetic and comparisons are fastest within one field
object.

Products go through one integer kernel, `_mul_mod`: convolution, then
reduction by a table of alpha^d .. alpha^(2d-2) whose entries are Python
ints, since the modulus is monic and integral.  `AlgNum.__mul__` runs it
on the two `num` vectors and multiplies the denominators.
`AlgNum.min_poly` runs it on gamma = den*a = num, which has integer
coordinates over a monic integer modulus, so gamma is an algebraic
integer and every power of it has integer coordinates.  Krylov
elimination on those powers is fraction-free (cross-multiplication, then
division by the content), so it is exact with no `Fraction` at all; the
minimal polynomial of a is that of gamma at den*x, made monic.

A field does not certify that its modulus is irreducible: arithmetic
does not depend on it, and the stretch-factor criteria certify their own
polynomial (`certificates`).  A reducible modulus is detected loudly when
inversion, or sign refinement while it bisects, meets a zero divisor.
Once bisection has hit a rational root, `sign` decides by `sign_at`, so
a zero divisor vanishing there gets sign 0; `inverse` still raises.

`min_poly` is the method for a general element.  The field-degree
vanishing criterion does not build a field: it reads the minimal
polynomial of lambda + 1/lambda off the integer coefficients of m
(`polys.trace_minpoly`), and the tests check it against `min_poly`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import (
    FieldMismatchError,
    InputError,
    IterationCapError,
    PolynomialError,
    ReducibleModulusError,
)
from .polys import (
    Poly,
    count_real_roots,
    monic_squarefree_chain,
    poly_xgcd,
    primitive_gcd,
    sign_at,
)

SIGN_GCD_CHECK_AFTER = 48
SIGN_BISECTION_CAP = 10 ** 6


def _mul_mod(a, b, high_powers):
    """Integer coordinates of the product of two integer vectors in Z[x]/(m).

    Convolution, then each coefficient of alpha^(d+k) is folded back
    through row k of the field's integer power table.
    """
    d = len(a)
    conv = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    conv[i + j] += x * y
    out = conv[:d]
    for k, c in enumerate(conv[d:]):
        if c:
            out = [x + c * y for x, y in zip(out, high_powers[k])]
    return out


def _reduced(field, num, den) -> "AlgNum":
    """The element num/den, divided through by gcd(den, *num)."""
    g = gcd(den, *num)
    if g != 1:
        num = tuple(x // g for x in num)
        den //= g
    return AlgNum(field, tuple(num), den)


def _integer_dependency(gamma, high_powers):
    """Primitive integer c_0..c_k with sum c_i gamma^i = 0 and k minimal.

    gamma is an integer coordinate vector.  Fraction-free Krylov
    elimination: each new power gamma^j is reduced against the kept rows
    by cross-multiplication, s*vec - c*pvec with s the row's pivot entry,
    the same update is applied to its expression in powers, and both are
    divided by their common content.  The first power that reduces to
    zero gives the dependency, already primitive.
    """
    d = len(gamma)
    rows = []  # (pivot index, reduced vector, expression in powers)
    power = [1] + [0] * (d - 1)
    for j in range(d + 1):
        vec = power
        combo = [0] * j + [1]
        for pivot, pvec, pcombo in rows:
            c = vec[pivot]
            if c:
                s = pvec[pivot]
                vec = [s * x - c * y for x, y in zip(vec, pvec)]
                n = len(pcombo)
                combo = ([s * x - c * y for x, y in zip(combo, pcombo)]
                         + [s * x for x in combo[n:]])
                g = gcd(*vec, *combo)
                if g > 1:
                    vec = [x // g for x in vec]
                    combo = [x // g for x in combo]
        pivot = next((i for i, x in enumerate(vec) if x), None)
        if pivot is None:
            return combo
        rows.append((pivot, vec, combo))
        power = _mul_mod(power, gamma, high_powers)
    raise PolynomialError("unreachable: no dependency among d+1 powers")


class NumberField:
    """Q(alpha) for a distinguished real root alpha of a monic integer polynomial."""

    def __init__(self, modulus: Poly, lo, hi):
        lo, hi = Fraction(lo), Fraction(hi)
        chain = monic_squarefree_chain(modulus, "field modulus")
        if lo >= hi:
            raise InputError("root interval is empty")
        ints = chain[0]     # the modulus is its own primitive integer multiple
        sign_lo = sign_at(ints, lo.numerator, lo.denominator)
        if sign_lo == 0 or sign_at(ints, hi.numerator, hi.denominator) == 0:
            raise InputError("root count in interval != 1 (root at an endpoint)")
        if count_real_roots(modulus, lo, hi, chain) != 1:
            raise InputError(
                f"root count in interval != 1 for {modulus} on ({lo}, {hi})"
            )
        self.modulus = modulus
        self.degree = modulus.degree
        self._chain = chain
        self._ints = ints
        den = lcm(lo.denominator, hi.denominator)
        # the isolating interval [a/D, b/D]
        self._a = lo.numerator * (den // lo.denominator)
        self._b = hi.numerator * (den // hi.denominator)
        self._D = den
        self._sign_lo = sign_lo
        self._exact_root = None
        self._generation = 0
        self._high_powers = self._power_table()
        self.refine_interval(Fraction(1, 2 ** 20))

    def _power_table(self):
        # integer coords of alpha^d .. alpha^(2d-2) in the power basis
        d = self.degree
        reduction = [-c for c in self._ints[:-1]]
        table = []
        cur = list(reduction)
        table.append(tuple(cur))
        for _ in range(d - 2):
            top = cur[-1]
            cur = [0] + cur[:-1]
            if top:
                cur = [a + top * b for a, b in zip(cur, reduction)]
            table.append(tuple(cur))
        return table

    # -- root interval management --------------------------------------

    @property
    def interval(self):
        """The isolating interval as a pair of reduced `Fraction`s."""
        return Fraction(self._a, self._D), Fraction(self._b, self._D)

    @property
    def exact_root(self):
        return self._exact_root

    def _bisect(self, width, steps) -> None:
        """Bisect until the interval is at most `width` wide, at most `steps` times.

        The midpoint of [a/D, b/D] is (a+b)/2D; its sign comes from the
        integer kernel, and each step bumps the generation that element
        enclosures are cached against.
        """
        if self._exact_root is not None:
            return
        a, b, den = self._a, self._b, self._D
        wn, wd = width.numerator, width.denominator
        ints, sign_lo = self._ints, self._sign_lo
        while steps and (b - a) * wd > wn * den:
            mid = a + b
            a, b, den = 2 * a, 2 * b, 2 * den
            s = sign_at(ints, mid, den)
            self._generation += 1
            steps -= 1
            if s == 0:
                self._exact_root = Fraction(mid, den)
                break
            if s == sign_lo:
                a = mid
            else:
                b = mid
        self._a, self._b, self._D = a, b, den

    def _bisect_once(self) -> None:
        self._bisect(0, 1)

    def refine_interval(self, width: Fraction) -> None:
        """Shrink the isolating interval below the given width."""
        self._bisect(Fraction(width), -1)

    # -- element constructors -------------------------------------------

    def element(self, coords) -> "AlgNum":
        coords = [c if isinstance(c, (Fraction, int)) else Fraction(c) for c in coords]
        if len(coords) != self.degree:
            raise InputError(
                f"expected {self.degree} coordinates, got {len(coords)}"
            )
        # lcm of reduced denominators: gcd(den, *num) is already 1
        den = lcm(*(c.denominator for c in coords))
        return AlgNum(self, tuple(c.numerator * (den // c.denominator)
                                  for c in coords), den)

    def from_rational(self, q) -> "AlgNum":
        if type(q) is int:
            return AlgNum(self, (q,) + (0,) * (self.degree - 1), 1)
        q = Fraction(q)
        return AlgNum(self, (q.numerator,) + (0,) * (self.degree - 1), q.denominator)

    def zero(self) -> "AlgNum":
        return self.from_rational(0)

    def one(self) -> "AlgNum":
        return self.from_rational(1)

    def gen(self) -> "AlgNum":
        """The distinguished root alpha (equals the field itself for degree 1)."""
        if self.degree == 1:
            return self.from_rational(-self.modulus.coeffs[0])
        return AlgNum(self, (0, 1) + (0,) * (self.degree - 2), 1)

    # -- identity ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, NumberField):
            return NotImplemented
        if self.modulus != other.modulus:
            return False
        (lo1, hi1), (lo2, hi2) = self.interval, other.interval
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        if lo >= hi:
            return False
        return count_real_roots(self.modulus, lo, hi, self._chain) == 1

    def __hash__(self):
        return hash(self.modulus)

    def __repr__(self):
        lo, hi = self.interval
        return f"NumberField({self.modulus}, interval=({lo}, {hi}))"


class AlgNum:
    """An element of a NumberField: coordinates num/den on the power basis.

    The constructor trusts its arguments: `num` a tuple of `degree` ints,
    `den` a positive int, gcd(den, *num) = 1.  Build elements from
    rationals with `NumberField.element` and `NumberField.from_rational`.
    """

    __slots__ = ("field", "num", "den", "_enclosure_cache")

    def __init__(self, field: NumberField, num, den):
        self.field = field
        self.num = num
        self.den = den
        self._enclosure_cache = None

    @property
    def coords(self):
        """The coordinates as a tuple of `Fraction`."""
        den = self.den
        return tuple(Fraction(x, den) for x in self.num)

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
        ad, bd = self.den, o.den
        if ad == bd:
            num = tuple(x + y for x, y in zip(self.num, o.num))
            return AlgNum(self.field, num, 1) if ad == 1 else _reduced(self.field, num, ad)
        g = gcd(ad, bd)
        sa, sb = bd // g, ad // g
        return _reduced(self.field, [x * sa + y * sb for x, y in zip(self.num, o.num)],
                        ad * sa)

    __radd__ = __add__

    def __neg__(self):
        return AlgNum(self.field, tuple(-x for x in self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ad, bd = self.den, o.den
        if ad == bd:
            num = tuple(x - y for x, y in zip(self.num, o.num))
            return AlgNum(self.field, num, 1) if ad == 1 else _reduced(self.field, num, ad)
        g = gcd(ad, bd)
        sa, sb = bd // g, ad // g
        return _reduced(self.field, [x * sa - y * sb for x, y in zip(self.num, o.num)],
                        ad * sa)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        field = self.field
        num = _mul_mod(self.num, o.num, field._high_powers)
        den = self.den * o.den
        return AlgNum(field, tuple(num), 1) if den == 1 else _reduced(field, num, den)

    __rmul__ = __mul__

    def inverse(self) -> "AlgNum":
        """Multiplicative inverse via extended gcd with the modulus.

        Raises ReducibleModulusError when the gcd uncovers a nontrivial
        factor (the element is a zero divisor of a reducible modulus).
        """
        if self.is_zero():
            raise ZeroDivisionError("inversion of zero field element")
        field = self.field
        g, u, _ = poly_xgcd(Poly(self.num), field.modulus)
        if g.degree > 0:
            raise ReducibleModulusError(g)
        u = u % field.modulus       # u * num = 1, so 1/self = den * u
        return field.element([u[i] * self.den for i in range(field.degree)])

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
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def to_rational(self) -> Fraction:
        if not self.is_rational():
            raise InputError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    def _enclosure(self):
        """(lo, hi), exactly D^(d-1) times interval Horner of num over [a/D, b/D].

        Horner on the ints num over [a, b], coefficient k scaled by
        D^(d-1-k); nothing is rounded.  Cached until the field bisects.
        """
        field = self.field
        cached = self._enclosure_cache
        if cached is not None and cached[0] == field._generation:
            return cached[1], cached[2]
        a, b, den = field._a, field._b, field._D
        lo = hi = 0
        scale = 1
        for c in reversed(self.num):
            if lo or hi:
                products = (lo * a, lo * b, hi * a, hi * b)
                lo, hi = min(products), max(products)
            if c:
                lo += c * scale
                hi += c * scale
            scale *= den
        self._enclosure_cache = (field._generation, lo, hi)
        return lo, hi

    def sign(self) -> int:
        """Sign of the real value at the field's distinguished root.

        A rational root decides by `sign_at`; else the cached enclosure
        decides when it lies strictly on one side of 0; after
        SIGN_GCD_CHECK_AFTER bisections a gcd with the modulus rules out a
        zero divisor; else the field bisects once and the loop repeats.
        The enclosure is an exact positive multiple of rational interval
        Horner, so no rounding can hide or invent a sign.
        """
        if self.is_zero():
            return 0
        field = self.field
        for i in range(SIGN_BISECTION_CAP):
            root = field._exact_root
            if root is not None:
                return sign_at(self.num, root.numerator, root.denominator)
            lo, hi = self._enclosure()
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            if i == SIGN_GCD_CHECK_AFTER:
                g = primitive_gcd(field._ints, self.num)
                if len(g) > 1:
                    raise ReducibleModulusError(Poly(g).monic())
            field._bisect_once()
        raise IterationCapError("sign determination exceeded the bisection cap")

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except FieldMismatchError:
            return False
        if o is None:
            return NotImplemented
        return self.den == o.den and self.num == o.num

    def __hash__(self):
        return hash((self.field.modulus, self.num, self.den))

    def _compare(self, other) -> int:
        """Sign of self - other; disjoint enclosures decide without subtracting.

        The two enclosures share the scale D^(d-1), so dividing each by
        its den compares them: cross-multiplied, ahi/ad < blo/bd.
        """
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if isinstance(other, AlgNum) and other.field is self.field:
            alo, ahi = self._enclosure()
            blo, bhi = other._enclosure()
            ad, bd = self.den, other.den
            if ahi * bd < blo * ad:
                return -1
            if alo * bd > bhi * ad:
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
        """A rational within eps of the element's real value.

        The enclosure is den*D^(d-1) times an enclosure of the value, so
        it bisects until the enclosure is narrower than eps*den*D^(d-1).
        """
        eps = Fraction(eps)
        field = self.field
        while True:
            root = field._exact_root
            if root is not None:
                return Poly(self.num)(root) / self.den
            lo, hi = self._enclosure()
            scale = self.den * field._D ** (field.degree - 1)
            if (hi - lo) * eps.denominator < eps.numerator * scale:
                return Fraction(lo + hi, 2 * scale)
            field._bisect_once()

    def __float__(self) -> float:
        return float(self.approx(Fraction(1, 10 ** 20)))

    def min_poly(self) -> Poly:
        """Monic rational minimal polynomial, by Krylov elimination over Z.

        gamma = den*self = num has integer coordinates over a monic
        integer modulus, so it is an algebraic integer and all its powers
        have integer coordinates.  Its minimal polynomial sum c_i x^i comes
        from fraction-free elimination; that of self is the one of gamma
        at den*x, made monic, with coefficients c_i*den^i / (c_k*den^k).
        """
        den = self.den
        combo = _integer_dependency(self.num, self.field._high_powers)
        k = len(combo) - 1
        lead = combo[k] * den ** k
        return Poly([Fraction(c * den ** i, lead) for i, c in enumerate(combo)])

    def __repr__(self):
        return f"AlgNum([{', '.join(str(c) for c in self.coords)}])"


def eval_at(p: Poly, a: AlgNum) -> AlgNum:
    """Evaluate a rational polynomial at a field element (Horner)."""
    acc = a.field.zero()
    for c in reversed(p.coeffs):
        acc = acc * a + c
    return acc
