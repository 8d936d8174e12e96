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
decides its sign.  The field keeps a power table: for each k < d, integer
bounds of D^(d-1) alpha^k, the exact range of x^k over [a, b] scaled by
D^(d-1-k).  An odd power is monotone; an even power has lower bound 0
over an interval that holds 0, and swaps its bounds over one below 0.
The table is built when an enclosure first needs it after a bisection.
An element's enclosure is then one sum over its nonzero coordinates,
each coordinate's sign picking which bound it multiplies: exactly
D^(d-1) times the rational power-form enclosure of num over
[a/D, b/D].  Scaling by a positive constant moves no bound across 0, so
no rounding is needed, and the enclosure decides exactly when the
rational one would.  Off 0 the power form contains interval Horner's
enclosure (subdistributivity), so it can only be wider; a wider
enclosure costs a bisection, never a wrong sign.  Each element caches
its enclosure until the field bisects.

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

The constructor checks its modulus with `polys.monic_squarefree_chain`:
`check_monic_integral` (monic with integer coefficients, degree >= 1,
with the errors a minimal polynomial gets too), then squarefree by the
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

Products go through one integer kernel, `_mul_mod`: convolution over the
nonzero terms of the sparser operand (most products in the AY
construction have a monomial operand), then long division by the
modulus, top term first, on its ints: the modulus is monic, so each step
subtracts an integer multiple of it and nothing is divided.
`AlgNum.__mul__` runs it on the two `num` vectors and multiplies the
denominators.

One elimination serves `min_poly` and `inverse`: `_integer_dependency`
finds the first primitive integer dependency of a sequence of integer
vectors, fraction-free (cross-multiplication, then division by the
content), with no `Fraction` at all.  `min_poly` feeds it the powers of
the algebraic integer num, `inverse` feeds it 1 and num*alpha^j, j < d.

A field does not certify that its modulus is irreducible: arithmetic
does not depend on it, and the stretch-factor criteria certify their own
polynomial (`certificates`).  A reducible modulus is detected loudly when
inversion, or sign refinement while it bisects, meets a zero divisor;
both report the monic gcd of num and the modulus (`polys.primitive_gcd`).
Once bisection has hit a rational root, `sign` decides by `sign_at`, so
a zero divisor vanishing there gets sign 0; `inverse` still raises.

`min_poly` is the method for a general element.  The field-degree
vanishing criterion does not build a field: it reads the minimal
polynomial of lambda + 1/lambda off the integer coefficients of m
(`polys.trace_minpoly`), and the tests check it against `min_poly`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, chain, repeat
from math import gcd, lcm
from operator import add, neg, sub

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
    primitive_gcd,
    scaled_value,
    sign_at,
)

SIGN_GCD_CHECK_AFTER = 48
SIGN_BISECTION_CAP = 10 ** 6


def _mul_mod(a, b, modulus):
    """Integer coordinates of the product of two integer vectors in Z[x]/(m).

    `modulus` is the integer coefficients of the monic m, low first.
    Convolution over the nonzero terms of the sparser operand, each adding
    a shifted multiple of the other (a monomial gives one scaled copy);
    then long division by m: from the top down, a term c x^k with k >= d
    is folded into the d terms below it by x^k = x^(k-d) (x^d - m(x)).
    """
    d = len(a)
    if b.count(0) > a.count(0):
        a, b = b, a
    terms = [(i, x) for i, x in enumerate(a) if x]
    if len(terms) == 1:
        (i, x), = terms
        conv = [0] * i + ([x * y for y in b] if x != 1 else [*b])
    else:
        conv = [0] * (2 * d - 1)
        for i, x in terms:
            conv[i:i + d] = [c + x * y for c, y in zip(conv[i:i + d], b)]
    while len(conv) > d:
        c = conv.pop()
        if c:
            conv[-d:] = [x - c * y for x, y in zip(conv[-d:], modulus)]
    return conv


def _reduced(field, num, den) -> "AlgNum":
    """The element num/den, divided through by gcd(den, *num)."""
    g = gcd(den, *num)
    if g != 1:
        num = tuple(x // g for x in num)
        den //= g
    return AlgNum(field, tuple(num), den)


def _integer_dependency(vectors):
    """Primitive integer c_0..c_k with sum c_i v_i = 0 and k minimal.

    `vectors` is any iterable of integer vectors, read only up to the first
    dependency.  Fraction-free elimination: each vector is reduced against
    the kept rows by cross-multiplication, s*vec - c*pvec with s the row's
    pivot entry, the same update is applied to its expression in the
    vectors, and both are divided by their common content.  The first
    vector that reduces to zero gives the dependency, already primitive.
    """
    rows = []  # (pivot index, reduced vector, expression in the vectors)
    for j, vec in enumerate(vectors):
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
    raise PolynomialError("unreachable: the vectors are independent")


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
        self._bounds_cache = None
        self.refine_interval(Fraction(1, 2 ** 20))

    def _power_bounds(self):
        """Integer bounds (lo_k, hi_k) of D^(d-1) alpha^k for each k < d.

        The exact range of x^k over [a, b], scaled by D^(d-1-k): an odd
        power is monotone, an even power has lower bound 0 over an
        interval that holds 0 and swaps its bounds over one below 0.
        Cached until the field bisects.
        """
        generation = self._generation
        cached = self._bounds_cache
        if cached is not None and cached[0] == generation:
            return cached[1]
        a, b, den = self._a, self._b, self._D
        ranges = [(1, 1)]
        pa = pb = 1
        for k in range(1, self.degree):
            pa *= a
            pb *= b
            if k % 2 or a >= 0:
                ranges.append((pa, pb))
            elif b <= 0:
                ranges.append((pb, pa))
            else:
                ranges.append((0, max(pa, pb)))
        # D^j = odd^j * 2^(shift*j); bisection doubles D, so odd is mostly 1
        shift = (den & -den).bit_length() - 1
        odd, scale = den >> shift, 1
        bounds = []
        for j, (lo, hi) in enumerate(reversed(ranges)):
            bounds.append(((lo * scale) << (shift * j), (hi * scale) << (shift * j)))
            scale *= odd
        bounds.reverse()
        self._bounds_cache = (generation, bounds)
        return bounds

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
        """Shrink the isolating interval below the given positive width."""
        width = Fraction(width)
        if width <= 0:
            raise InputError(f"refinement width must be positive, got {width}")
        self._bisect(width, -1)

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
            num = tuple(map(add, self.num, o.num))
            return AlgNum(self.field, num, 1) if ad == 1 else _reduced(self.field, num, ad)
        g = gcd(ad, bd)
        sa, sb = bd // g, ad // g
        return _reduced(self.field, [x * sa + y * sb for x, y in zip(self.num, o.num)],
                        ad * sa)

    __radd__ = __add__

    def __neg__(self):
        return AlgNum(self.field, tuple(map(neg, self.num)), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ad, bd = self.den, o.den
        if ad == bd:
            num = tuple(map(sub, self.num, o.num))
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
        num = _mul_mod(self.num, o.num, field._ints)
        den = self.den * o.den
        return AlgNum(field, tuple(num), 1) if den == 1 else _reduced(field, num, den)

    __rmul__ = __mul__

    def inverse(self) -> "AlgNum":
        """Multiplicative inverse from the first integer dependency c_0 +
        num * sum c_(j+1) alpha^j = 0 of 1, num, num*alpha, ..., so 1/self =
        -den * sum c_(j+1) alpha^j / c_0.  c_0 = 0 exactly when num is a zero
        divisor; ReducibleModulusError then names the monic gcd of num and
        the modulus, as `sign` does.  No command calls it: it stays for
        ROADMAP items 8 and 12, and `perfbench/layers.py` traces it."""
        if self.is_zero():
            raise ZeroDivisionError("inversion of zero field element")
        field = self.field
        d, num, modulus = field.degree, self.num, field._ints
        units = [[0] * j + [1] + [0] * (d - 1 - j) for j in range(d)]
        c0, *rest = _integer_dependency(
            chain(units[:1], (_mul_mod(num, u, modulus) for u in units)))
        if c0 == 0:
            raise ReducibleModulusError(Poly(primitive_gcd(modulus, num)).monic())
        scale = -self.den if c0 > 0 else self.den
        return _reduced(field, [scale * c for c in rest] + [0] * (d - len(rest)),
                        abs(c0))

    def __truediv__(self, other):
        """Kept with `inverse` for ROADMAP item 8; no command divides."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        """Kept with `inverse` for ROADMAP item 8; no command takes powers."""
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

    def _enclosure(self):
        """(lo, hi), exactly D^(d-1) times the power form of num over [a/D, b/D].

        One term per nonzero coordinate c_k, from the field's power table:
        c_k times the lower bound of D^(d-1) alpha^k and c_k times the
        upper one, swapped when c_k < 0.  Nothing is rounded.  Cached until
        the field bisects.
        """
        field = self.field
        generation = field._generation
        cached = self._enclosure_cache
        if cached is not None and cached[0] == generation:
            return cached[1], cached[2]
        lo = hi = 0
        for c, (blo, bhi) in zip(self.num, field._power_bounds()):
            if c > 0:
                lo += c * blo
                hi += c * bhi
            elif c:
                lo += c * bhi
                hi += c * blo
        self._enclosure_cache = (generation, lo, hi)
        return lo, hi

    def sign(self) -> int:
        """Sign of the real value at the field's distinguished root.

        A rational root decides by `sign_at`; else the cached enclosure
        decides when it lies strictly on one side of 0; after
        SIGN_GCD_CHECK_AFTER bisections a gcd with the modulus rules out a
        zero divisor; else the field bisects once and the loop repeats.
        The enclosure is an exact positive multiple of the rational
        power-form enclosure, so no rounding can hide or invent a sign.
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
        if not isinstance(other, AlgNum) and isinstance(other, (int, Fraction)):
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
        """A rational within eps > 0 of the element's real value.

        The power-form enclosure is den*D^(d-1) times an enclosure of the
        value, so it bisects until that is narrower than eps*den*D^(d-1),
        and returns the midpoint.  A rational root hit by bisection gives
        the exact value, by integer Horner (`polys.scaled_value`).
        """
        eps = Fraction(eps)
        if eps <= 0:
            raise InputError(f"approximation tolerance must be positive, got {eps}")
        field = self.field
        while True:
            root = field._exact_root
            if root is not None:
                q = root.denominator
                return Fraction(scaled_value(self.num, root.numerator, q),
                                self.den * q ** (field.degree - 1))
            lo, hi = self._enclosure()
            scale = self.den * field._D ** (field.degree - 1)
            if (hi - lo) * eps.denominator < eps.numerator * scale:
                return Fraction(lo + hi, 2 * scale)
            field._bisect_once()

    def __float__(self) -> float:
        """No command calls it (`--float` prints decimals from `approx`): it
        stays as library API, which the tests compare with float oracles."""
        return float(self.approx(Fraction(1, 10 ** 20)))

    def min_poly(self) -> Poly:
        """Monic rational minimal polynomial.  gamma = den*self = num has
        integer coordinates over a monic integer modulus, so it is an
        algebraic integer and so are its powers; their first integer
        dependency sum c_i gamma^i = 0 gives gamma's minimal polynomial, and
        that of self is it at den*x, made monic: c_i*den^i / (c_k*den^k).
        No command calls it: it stays for ROADMAP items 8(b) and 12, and
        `perfbench/layers.py` traces it."""
        den, d, modulus = self.den, self.field.degree, self.field._ints
        powers = accumulate(repeat(self.num, d), lambda p, g: _mul_mod(p, g, modulus),
                            initial=[1] + [0] * (d - 1))
        combo = _integer_dependency(powers)
        k = len(combo) - 1
        lead = combo[k] * den ** k
        return Poly([Fraction(c * den ** i, lead) for i, c in enumerate(combo)])

    def __repr__(self):
        return f"AlgNum([{', '.join(str(c) for c in self.coords)}])"
