"""Interval exchange transformations over a number field.

An IET is a piecewise translation of [0, L) given by subinterval lengths
(field elements) and the permutation telling where each subinterval
lands in the image; translations are always derived from those two, so
inconsistent inputs cannot be represented.  A `circle` flag marks maps
whose endpoints are identified, which is what rotation-by-a-constant
needs.

The Sah-Arnoux-Fathi invariant of the map, sum of length wedge
translation over Q, is an exact antisymmetric rational matrix in the
field's power basis (WedgeClass), kept as its upper triangle in ints
over one den, as `AlgNum` keeps coordinates; `saf` sums each piece's
integer wedge into it and builds no `Fraction`.  Vanishing of the
invariant does not depend on the basis choice.

On the circle a map is the cyclic word of its arcs: (gap from one
genuine discontinuity to the next, translation mod L on that arc).
Conjugating by a rotation R_c moves the discontinuities by c and keeps
the word, so rotation conjugacy is an exact cyclic-shift test on words.

Binary operations (compose, equality, rotation conjugacy) check once that
the two maps' fields are equal, then move the second map onto the first
map's field object.  Every later comparison is then between elements of
one field object and is decided by their exact integer enclosures
(`AlgNum._compare`).

An IET stores one form, read as attributes: `field`, `perm`, `circle`,
the breakpoints `breaks` (0 = a_0 < ... < a_n = L) and the n
`translations`; the derived data `total` (L), `lengths` and `n` are
properties read off them.  Inputs are validated once, at the boundary,
by the one validating constructor: it keeps the partial sums it checks
the total with as the breakpoints and derives the translations from them
and perm.  `from_pieces` checks that its pieces start at 0 and meet end
to end, then builds through the constructor with perm the order of the
image starts: the images tile [0, L) exactly when the derived
translations are the given ones.  Internal results (compose, inverse,
scale, first_return, canonical, the move onto another field object, and
`identity` and `rotation` once they have checked their arguments) are
built on a trusted path, `IET._from_tiling`, from the breakpoints and
translations of pieces that tile [0, L) with images that tile it too,
plus one sort key per piece that orders the images; it derives perm from
the keys and re-checks nothing.  Where the image order is known
combinatorially the keys are ints: `compose` is one merge sweep of the
inner map's images (in image order) against the outer map's pieces (in
domain order), O(n + m), and a composite piece's image rank is (outer
perm, inner perm).  `rotate(c)` is R_c o f, whose one cut is at L - c.
Only `first_return` sorts its images by value.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from fractions import Fraction
from math import gcd, lcm

from .errors import DomainError, FieldMismatchError, InputError, IterationCapError
from .field import AlgNum, NumberField

FIRST_RETURN_CAP = 100_000


def _coerce(field: NumberField, x) -> AlgNum:
    if isinstance(x, AlgNum):
        if x.field is not field and x.field != field:
            raise FieldMismatchError("value belongs to a different number field")
        return x
    if isinstance(x, (int, Fraction)):
        return field.from_rational(x)
    raise InputError(f"cannot interpret {x!r} as a field element")


def _on_field(f: "IET", field: NumberField):
    """f over the field object `field`, or None when f's field is not equal to it.

    Equal fields share the power basis of the same root, so the total and
    the pieces carry over coordinate for coordinate: num and den move as
    they are, already normalised.
    """
    if f.field is field:
        return f
    if f.field != field:
        return None

    def move(xs):
        return tuple(AlgNum(field, x.num, x.den) for x in xs)

    return IET._from_tiling(field, move(f.breaks), move(f.translations),
                            f.perm, f.circle)


class WedgeClass:
    """An element of K wedge_Q K: an antisymmetric rational matrix in the
    power basis, kept as its upper triangle.

    The constructor trusts its arguments: `num`, the d(d-1)/2 entries
    (i, j), i < j, row by row, as ints over one positive int `den`, with
    gcd(den, *num) = 1.  That form is unique, so equality compares ints.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: NumberField, num, den):
        self.field = field
        self.num = num
        self.den = den

    @classmethod
    def _reduced(cls, field: NumberField, num, den) -> "WedgeClass":
        """The class of num/den, divided through by gcd(den, *num)."""
        g = gcd(den, *num)
        return cls(field, tuple(x // g for x in num), den // g)

    @property
    def rows(self):
        """The d x d matrix as tuples of `Fraction`, for output and tests."""
        d, den = self.field.degree, self.den
        rows = [[Fraction(0)] * d for _ in range(d)]
        upper = ((i, j) for i in range(d) for j in range(i + 1, d))
        for (i, j), x in zip(upper, self.num):
            rows[i][j], rows[j][i] = Fraction(x, den), Fraction(-x, den)
        return tuple(map(tuple, rows))

    def is_zero(self) -> bool:
        return not any(self.num)

    def __add__(self, other: "WedgeClass") -> "WedgeClass":
        """No command adds classes; `+` and `-` stay for the homomorphism
        SAF(f o g) = SAF(f) + SAF(g), SAF(f^-1) = -SAF(f) that tier-1 checks."""
        if not isinstance(other, WedgeClass):
            return NotImplemented
        if other.field is not self.field and other.field != self.field:
            raise FieldMismatchError("wedge classes over different fields")
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        return WedgeClass._reduced(
            self.field, [x * sa + y * sb for x, y in zip(self.num, other.num)], den)

    def __neg__(self) -> "WedgeClass":
        return WedgeClass(self.field, tuple(-x for x in self.num), self.den)

    def __sub__(self, other: "WedgeClass") -> "WedgeClass":
        return self + (-other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WedgeClass):
            return NotImplemented
        return self.field == other.field and (self.num, self.den) == (other.num, other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"WedgeClass({self.rows})"


class IET:
    """Exchange of n subintervals of [0, L), with optional circle semantics.
    Stored data are the attributes `field`, `perm`, `circle`, `breaks` and
    `translations`; `n`, `total` and `lengths` are derived properties."""

    __slots__ = ("field", "perm", "circle", "breaks", "translations")

    def __init__(self, field: NumberField, total, lengths, perm, circle=False):
        total = _coerce(field, total)
        lengths = tuple(_coerce(field, l) for l in lengths)
        perm = tuple(int(k) for k in perm)
        n = len(lengths)
        if n == 0:
            raise InputError("an IET needs at least one interval")
        if sorted(perm) != list(range(n)):
            raise InputError("perm not a bijection")
        for l in lengths:
            if l.sign() <= 0:
                raise InputError("nonpositive interval length")
        breaks = [field.zero()]
        for l in lengths:
            breaks.append(breaks[-1] + l)
        if breaks[-1] != total:
            raise InputError("lengths do not sum to the total length")
        # in image order, each piece lands where the previous image ends
        translations = [None] * n
        offset = breaks[0]
        for i in sorted(range(n), key=perm.__getitem__):
            translations[i] = offset - breaks[i]
            offset = offset + lengths[i]
        self.field = field
        self.perm = perm
        self.circle = bool(circle)
        self.breaks = tuple(breaks)
        self.translations = tuple(translations)

    # -- derived data ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.translations)

    @property
    def total(self) -> AlgNum:
        return self.breaks[-1]

    @property
    def lengths(self):
        """Subinterval lengths: the gaps between consecutive breakpoints."""
        return tuple(v - u for u, v in zip(self.breaks, self.breaks[1:]))

    def pieces(self):
        """List of (start, end, translation) triples in domain order."""
        return list(zip(self.breaks, self.breaks[1:], self.translations))

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, field: NumberField, total, circle=False) -> "IET":
        total = _coerce(field, total)
        if total.sign() <= 0:
            raise InputError("nonpositive interval length")
        zero = field.zero()
        return cls._from_tiling(field, (zero, total), (zero,), (0,), bool(circle))

    @classmethod
    def rotation(cls, field: NumberField, total, c) -> "IET":
        """x -> x + c (mod total), a circle map."""
        total = _coerce(field, total)
        c = _coerce(field, c)
        if c.sign() == 0:
            return cls.identity(field, total, True)
        if c.sign() < 0 or not c < total:
            raise DomainError("rotation constant outside [0, total)")
        cut = total - c     # 0 < c < total: both pieces have positive length
        return cls._from_tiling(field, (field.zero(), cut, total), (c, -cut), (1, 0), True)

    @classmethod
    def _from_tiling(cls, field, breaks, translations, ranks, circle) -> "IET":
        """The trusted builder for internal results; it checks nothing.

        `breaks` (0 = a_0 < ... < a_n = L) and the n `translations` are
        over `field` (this object); the pieces [a_i, a_(i+1)) tile [0, L)
        and so do their images.  Sorting `ranks` (one key per piece) puts
        the pieces in image order.
        """
        n = len(translations)
        perm = [0] * n
        for slot, i in enumerate(sorted(range(n), key=ranks.__getitem__)):
            perm[i] = slot
        out = object.__new__(cls)
        out.field, out.perm, out.circle = field, tuple(perm), circle
        out.breaks, out.translations = tuple(breaks), tuple(translations)
        return out

    @classmethod
    def from_pieces(cls, field: NumberField, total, pieces, circle=False) -> "IET":
        """Build from (start, end, translation) triples that tile [0, L)
        and whose images tile it too; validated through the constructor,
        with perm the order of the image starts.  No command calls it: the
        tests rebuild trusted results with it, and `perfbench/layers.py` traces it."""
        pieces = sorted(((_coerce(field, u), _coerce(field, v), _coerce(field, t))
                         for u, v, t in pieces), key=lambda p: p[0])
        if not pieces:
            raise InputError("no pieces")
        if pieces[0][0] != field.zero():
            raise InputError("pieces do not start at 0")
        for (_, v, _), (u2, _, _) in zip(pieces, pieces[1:]):
            if v != u2:
                raise InputError("pieces do not tile the domain")
        order = sorted(range(len(pieces)), key=lambda i: pieces[i][0] + pieces[i][2])
        perm = sorted(range(len(pieces)), key=order.__getitem__)   # order inverted
        out = cls(field, total, [v - u for u, v, _ in pieces], perm, circle)
        # the derived translations lay the images end to end in image order
        if out.translations != tuple(t for _, _, t in pieces):
            raise InputError("image intervals do not tile [0, L)")
        return out

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x) -> AlgNum:
        """f(x) for x in [0, L).  No command calls it: it is the pointwise
        definition the tests check compose, inverse and first_return by."""
        x = _coerce(self.field, x)
        if x.sign() < 0 or not x < self.total:
            raise DomainError("point outside [0, L)")
        return x + self.translations[bisect_right(self.breaks, x, 1, self.n) - 1]

    # -- algebra of maps ------------------------------------------------------

    def compose(self, other: "IET") -> "IET":
        """The IET x -> self(other(x)).

        One merge sweep: the inner map's images in image order against the
        outer map's pieces in domain order.  Each overlap is a piece of the
        composite; its image is inside outer piece j, where the overlaps
        follow the inner image order, so its image rank is
        (self.perm[j], inner slot).
        """
        other = _on_field(other, self.field)
        if other is None:
            raise FieldMismatchError("composition of IETs over different fields")
        if other.total != self.total:
            raise DomainError("composition of IETs with different totals")
        inner_breaks, inner_ts = other.breaks, other.translations
        outer_ends, outer_ts = self.breaks[1:], self.translations
        slot_piece = [0] * other.n
        for i, k in enumerate(other.perm):
            slot_piece[k] = i
        groups = [[] for _ in range(other.n)]   # (start, translation, rank) per inner piece
        j, pos = 0, self.field.zero()
        for k, i in enumerate(slot_piece):
            s = inner_ts[i]
            end = inner_breaks[i + 1] + s
            while True:
                outer_end = outer_ends[j]
                c = 0 if end == outer_end else (-1 if end < outer_end else 1)
                b = end if c <= 0 else outer_end
                groups[i].append((pos - s, s + outer_ts[j], (self.perm[j], k)))
                pos = b
                if c >= 0:
                    j += 1
                if c <= 0:
                    break
        starts, ts, ranks = zip(*(x for group in groups for x in group))
        return IET._from_tiling(self.field, starts + (self.total,), ts, ranks,
                                self.circle and other.circle)

    def inverse(self) -> "IET":
        """The inverse map: the images in image order, translated back."""
        n = self.n
        starts, ts, inv = [None] * n, [None] * n, [0] * n
        for i, (u, t, k) in enumerate(zip(self.breaks, self.translations, self.perm)):
            starts[k], ts[k], inv[k] = u + t, -t, i
        return IET._from_tiling(self.field, starts + [self.total], ts, inv, self.circle)

    def rotate(self, c) -> "IET":
        """x -> self(x) + c (mod L), that is R_c o self; circle maps only."""
        if not self.circle:
            raise DomainError("rotation requires circle semantics")
        return IET.rotation(self.field, self.total, c).compose(self)

    def scale(self, s) -> "IET":
        """Conjugate by x -> s*x: an IET on [0, s*L)."""
        s = _coerce(self.field, s)
        if s.sign() <= 0:
            raise DomainError("scale factor must be positive")
        return IET._from_tiling(self.field, [x * s for x in self.breaks],
                                [t * s for t in self.translations], self.perm, self.circle)

    def first_return(self, b) -> "IET":
        """The induced first-return map on [0, b).

        Subintervals of [0, b) are pushed forward through the map; a piece
        splits whenever its orbit straddles a discontinuity or the point b.
        Each application of the map to a piece costs one unit of
        FIRST_RETURN_CAP.
        """
        b = _coerce(self.field, b)
        if b.sign() <= 0 or self.total < b:
            raise DomainError("return interval must satisfy 0 < b <= L")
        zero = self.field.zero()
        breaks, ts, n = self.breaks, self.translations, self.n
        work = deque([(zero, b, zero)])  # (x_lo, x_hi, translation so far)
        done = []
        cap = budget = FIRST_RETURN_CAP
        while work:
            lo, hi, trans = work.popleft()
            budget -= 1
            if budget < 0:
                raise IterationCapError(
                    f"first-return induction exceeded {cap} piece iterations"
                )
            cur_lo, cur_hi = lo + trans, hi + trans
            # the pieces that overlap [cur_lo, cur_hi), in domain order: from
            # the one holding cur_lo up to the last that starts below cur_hi;
            # [xs, xe) is the part of [lo, hi) that lands in piece j
            j = bisect_right(breaks, cur_lo, 1, n) - 1
            xs = lo
            while True:
                cp = breaks[j + 1]
                last = not cp < cur_hi
                xe = hi if last else cp - trans
                ntrans = trans + ts[j]
                if not xs + ntrans < b:
                    work.append((xs, xe, ntrans))
                else:
                    done.append((xs, ntrans))
                    if b < xe + ntrans:         # the rest lands past b
                        work.append((b - ntrans, xe, ntrans))
                if last:
                    break
                j, xs = j + 1, xe
        done.sort(key=lambda p: p[0])
        starts, ts = zip(*done)
        return IET._from_tiling(self.field, starts + (b,), ts,
                                [u + t for u, t in done], self.circle)

    # -- canonical form and equality --------------------------------------------

    def canonical(self) -> "IET":
        """Merge adjacent intervals with equal translations."""
        starts, ts, ranks = [], [], []
        for u, t, k in zip(self.breaks, self.translations, self.perm):
            if not ts or ts[-1] != t:
                starts.append(u)
                ts.append(t)
                ranks.append(k)     # a merged run's images stay in one block
        if len(ts) == self.n:
            return self
        return IET._from_tiling(self.field, starts + [self.total], ts, ranks, self.circle)

    def __eq__(self, other) -> bool:
        """Equality as piecewise maps: same field, total, and canonical pieces.

        The circle flag is semantic annotation and is ignored.
        """
        if not isinstance(other, IET):
            return NotImplemented
        other = _on_field(other, self.field)
        if other is None or self.total != other.total:
            return False
        return self.canonical().pieces() == other.canonical().pieces()

    # -- the invariant ---------------------------------------------------------

    def saf(self) -> WedgeClass:
        """Sum of length wedge translation: entry (i, j) of the triangle sums
        v_i w_j - w_i v_j over the pieces, as ints over one common den."""
        d = self.field.degree
        pairs = list(zip(self.lengths, self.translations))
        den = lcm(*(l.den * t.den for l, t in pairs))
        tri = [0] * (d * (d - 1) // 2)
        for l, t in pairs:
            v, w = l.num, t.num
            scale = den // (l.den * t.den)
            start = -1          # entry (i, j) sits at start + j in row i
            for i in range(d):
                vi, wi = v[i], w[i]
                if vi or wi:
                    for j in range(i + 1, d):
                        m = vi * w[j] - wi * v[j]
                        if m:
                            tri[start + j] += m * scale
                start += d - 2 - i
        return WedgeClass._reduced(self.field, tri, den)

    def __repr__(self):
        kind = "circle" if self.circle else "interval"
        return (f"IET(n={self.n}, total={self.total!r}, perm={self.perm}, "
                f"{kind})")


def _arcs(f: IET):
    """The arcs of f as a circle map: (start, translation mod L) pairs.

    Translations lie in (-L, L), so one sign normalises each into [0, L).
    A breakpoint starts an arc when the normalised translations on its two
    sides differ; the seam point 0 compares the last piece with the first.
    """
    total = f.total
    ts = [t if t.sign() >= 0 else t + total for t in f.translations]
    return [(f.breaks[i], ts[i]) for i in range(f.n) if ts[i] != ts[i - 1]]


def _word(arcs, total):
    """The cyclic word [(gap to the next arc start, translation)] of arcs."""
    ends = [s for s, _ in arcs[1:]] + [arcs[0][0] + total]
    return [(e - s, t) for (s, t), e in zip(arcs, ends)]


def rotation_conjugacy(f: IET, g: IET):
    """An offset c with f == R_c o g o R_c^-1, or None when none exists.

    Both maps must be circle IETs over the same field with the same total
    L.  Circle maps are equal exactly when their discontinuities and their
    translations mod L on every arc agree, and h = R_c o g o R_c^-1 has
    g's discontinuities moved by c and g's word.  So f == h exactly when
    f's word read from a discontinuity fd[j] equals g's word read from
    gd[0], with c = fd[j] - gd[0] mod L.  The first such j in domain order
    gives the witness; the test is coordinate equality, with no compose.
    """
    g = _on_field(g, f.field)
    if g is None or f.total != g.total:
        return None
    total = f.total
    fa, ga = _arcs(f), _arcs(g)
    if not fa and not ga:
        # both are plain rotations; conjugation cannot change the constant
        return f.field.zero() if f == g else None
    if len(fa) != len(ga) or not fa:
        return None
    fw, gw = _word(fa, total), _word(ga, total)
    for j, (start, _) in enumerate(fa):
        if fw[j:] + fw[:j] == gw:
            c = start - ga[0][0]
            return c + total if c.sign() < 0 else c
    return None
