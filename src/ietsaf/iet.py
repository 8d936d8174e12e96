"""Interval exchange transformations over a number field.

An IET is a piecewise translation of [0, L) given by subinterval lengths
(field elements) and the permutation telling where each subinterval
lands in the image; translations are always derived from those two, so
inconsistent inputs cannot be represented.  A `circle` flag marks maps
whose endpoints are identified, which is what rotation-by-a-constant
needs.

The Sah-Arnoux-Fathi invariant of the map, sum of length wedge
translation over Q, is returned as an exact antisymmetric rational
matrix in the field's power basis (WedgeClass).  Vanishing of the
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

Inputs are validated once, at the boundary: the constructor, the public
constructors built on it, and `from_pieces`.  The constructor keeps the
partial sums it checks the total with as the breakpoints and derives the
translations from them, so every IET, however built, stores both, and
`breaks()` and `translations()` compute nothing.  Internal results
(compose, inverse, rotate, scale, first_return, canonical and the move
onto another field object) are built on a trusted path,
`IET._from_tiling`: the caller hands over pieces (start, end,
translation) in domain order that tile [0, L) and whose images tile it
too, plus one sort key per piece that orders the images.  The builder
derives perm from those keys and stores the breakpoints and translations
as they are, with no exact re-check of the tiling.  Where the image
order is known combinatorially the keys are ints: `compose` is one merge
sweep of the inner map's images (in image order) against the outer map's
pieces (in domain order), O(n + m), and a composite piece's image rank
is (outer perm, inner perm).  Only `first_return` sorts its images by
value.  `saf` builds its matrix antisymmetric, so it returns it through
`WedgeClass._trusted`; the public `WedgeClass` constructor validates.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from fractions import Fraction
from math import lcm

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

    def move(x):
        return AlgNum(field, x.num, x.den)

    return IET._from_tiling(field, move(f.total),
                            [(move(u), move(v), move(t)) for u, v, t in f.pieces()],
                            f.perm, f.circle)


class WedgeClass:
    """Antisymmetric rational matrix representing an element of K wedge_Q K."""

    __slots__ = ("field", "rows")

    def __init__(self, field: NumberField, rows):
        rows = tuple(tuple(Fraction(c) for c in row) for row in rows)
        d = field.degree
        if len(rows) != d or any(len(r) != d for r in rows):
            raise InputError("wedge matrix must be d x d")
        for i in range(d):
            for j in range(d):
                if rows[i][j] != -rows[j][i]:
                    raise InputError("wedge matrix must be antisymmetric")
        self.field = field
        self.rows = rows

    @classmethod
    def _trusted(cls, field: NumberField, rows) -> "WedgeClass":
        """The class of `rows`, a d x d antisymmetric tuple of `Fraction`
        tuples; the builder for internal results, it checks nothing."""
        out = object.__new__(cls)
        out.field, out.rows = field, rows
        return out

    @classmethod
    def zero(cls, field: NumberField) -> "WedgeClass":
        d = field.degree
        return cls._trusted(field, ((Fraction(0),) * d,) * d)

    def is_zero(self) -> bool:
        return all(c == 0 for row in self.rows for c in row)

    def __add__(self, other: "WedgeClass") -> "WedgeClass":
        if not isinstance(other, WedgeClass):
            return NotImplemented
        if other.field is not self.field and other.field != self.field:
            raise FieldMismatchError("wedge classes over different fields")
        return WedgeClass._trusted(
            self.field,
            tuple(tuple(a + b for a, b in zip(r1, r2))
                  for r1, r2 in zip(self.rows, other.rows)),
        )

    def __neg__(self) -> "WedgeClass":
        return WedgeClass._trusted(self.field,
                                   tuple(tuple(-c for c in row) for row in self.rows))

    def __sub__(self, other: "WedgeClass") -> "WedgeClass":
        return self + (-other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WedgeClass):
            return NotImplemented
        return self.field == other.field and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"WedgeClass({self.rows})"


class IET:
    """Exchange of n subintervals of [0, L), with optional circle semantics."""

    __slots__ = ("field", "total", "lengths", "perm", "circle",
                 "_breaks", "_translations")

    def __init__(self, field: NumberField, total, lengths, perm, circle=False):
        total = _coerce(field, total)
        self._tile(field, lengths, perm, circle)
        if self.total != total:
            raise InputError("lengths do not sum to the total length")
        self.total = total

    def _tile(self, field: NumberField, lengths, perm, circle) -> None:
        """Validate `lengths` and `perm` and store them, with total = the
        sum of the lengths, the breakpoints and the translations."""
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
        # in image order, each piece lands where the previous image ends
        translations = [None] * n
        offset = breaks[0]
        for i in sorted(range(n), key=perm.__getitem__):
            translations[i] = offset - breaks[i]
            offset = offset + lengths[i]
        self.field = field
        self.total = breaks[-1]
        self.lengths = lengths
        self.perm = perm
        self.circle = bool(circle)
        self._breaks = tuple(breaks)
        self._translations = tuple(translations)

    # -- derived data ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.lengths)

    def breaks(self):
        """Partition endpoints a_0 = 0 < a_1 < ... < a_n = L."""
        return self._breaks

    def translations(self):
        """Per-interval translations, derived from lengths and perm."""
        return self._translations

    def pieces(self):
        """List of (start, end, translation) triples in domain order."""
        breaks = self.breaks()
        ts = self.translations()
        return [(breaks[i], breaks[i + 1], ts[i]) for i in range(self.n)]

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, field: NumberField, total, circle=False) -> "IET":
        return cls(field, total, [total], [0], circle)

    @classmethod
    def rotation(cls, field: NumberField, total, c, circle=True) -> "IET":
        """x -> x + c (mod total)."""
        total = _coerce(field, total)
        c = _coerce(field, c)
        if c.sign() == 0:
            return cls.identity(field, total, circle)
        if c.sign() < 0 or not c < total:
            raise DomainError("rotation constant outside [0, total)")
        return cls(field, total, [total - c, c], [1, 0], circle)

    @classmethod
    def _from_tiling(cls, field, total, pieces, ranks, circle) -> "IET":
        """The trusted builder for internal results; it checks nothing.

        `pieces` are (start, end, translation) triples over `field` (this
        object) in domain order that tile [0, total), and their images
        tile it too; sorting `ranks` (one key per piece) puts the pieces
        in image order.
        """
        n = len(pieces)
        perm = [0] * n
        for slot, i in enumerate(sorted(range(n), key=ranks.__getitem__)):
            perm[i] = slot
        out = object.__new__(cls)
        out.field, out.total, out.circle = field, total, circle
        out.lengths = tuple(v - u for u, v, _ in pieces)
        out.perm = tuple(perm)
        out._breaks = tuple([u for u, _, _ in pieces] + [total])
        out._translations = tuple(t for _, _, t in pieces)
        return out

    @classmethod
    def from_pieces(cls, field: NumberField, total, pieces, circle=False) -> "IET":
        """Build from (start, end, translation) triples; validates that the
        pieces have positive lengths and tile [0, L), and that their images
        tile it as well."""
        total = _coerce(field, total)
        pieces = sorted(((_coerce(field, u), _coerce(field, v), _coerce(field, t))
                         for u, v, t in pieces), key=lambda p: p[0])
        if not pieces:
            raise InputError("no pieces")
        if pieces[0][0] != field.zero():
            raise InputError("pieces do not start at 0")
        for u, v, _ in pieces:
            if not u < v:
                raise InputError("nonpositive interval length")
        for (u, v, _), (u2, _, _) in zip(pieces, pieces[1:]):
            if v != u2:
                raise InputError("pieces do not tile the domain")
        if pieces[-1][1] != total:
            raise InputError("pieces do not reach the total length")
        images = sorted(
            ((u + t, v + t, i) for i, (u, v, t) in enumerate(pieces)),
            key=lambda p: p[0],
        )
        if images[0][0] != field.zero():
            raise InputError("image intervals do not tile [0, L)")
        for (a, b, _), (a2, _, _) in zip(images, images[1:]):
            if b != a2:
                raise InputError("image intervals do not tile [0, L)")
        if images[-1][1] != total:
            raise InputError("image intervals do not tile [0, L)")
        ranks = [0] * len(pieces)
        for slot, (_, _, i) in enumerate(images):
            ranks[i] = slot
        return cls._from_tiling(field, total, pieces, ranks, circle)

    @classmethod
    def pair_involution(cls, field: NumberField, block_lengths, pairing,
                        circle=True) -> "IET":
        """The involution swapping equal-length paired blocks in place.

        `pairing` is a 0-based involutive permutation; self-paired blocks
        stay fixed pointwise.  Paired blocks must have exactly equal
        lengths, which is also what makes the result an involution.
        """
        lengths = tuple(_coerce(field, l) for l in block_lengths)
        pairing = tuple(int(k) for k in pairing)
        n = len(lengths)
        if sorted(pairing) != list(range(n)):
            raise InputError("pairing not a bijection")
        for i, j in enumerate(pairing):
            if pairing[j] != i:
                raise InputError("pairing not an involution")
            if j != i and lengths[i] != lengths[j]:
                raise InputError(f"length mismatch within pair ({i}, {j})")
        out = object.__new__(cls)
        out._tile(field, lengths, pairing, circle)   # the total is the sum it forms
        return out

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x) -> AlgNum:
        x = _coerce(self.field, x)
        if x.sign() < 0 or not x < self.total:
            raise DomainError("point outside [0, L)")
        breaks = self.breaks()
        lo, hi = 0, self.n  # invariant: breaks[lo] <= x < breaks[hi]
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if x < breaks[mid]:
                hi = mid
            else:
                lo = mid
        return x + self.translations()[lo]

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
        inner_breaks, inner_ts = other.breaks(), other.translations()
        outer_ends, outer_ts = self.breaks()[1:], self.translations()
        slot_piece = [0] * other.n
        for i, k in enumerate(other.perm):
            slot_piece[k] = i
        groups = [[] for _ in range(other.n)]   # (piece, image rank) per inner piece
        j, pos = 0, self.field.zero()
        for k, i in enumerate(slot_piece):
            s = inner_ts[i]
            end = inner_breaks[i + 1] + s
            while True:
                outer_end = outer_ends[j]
                c = 0 if end == outer_end else (-1 if end < outer_end else 1)
                b = end if c <= 0 else outer_end
                groups[i].append(((pos - s, b - s, s + outer_ts[j]), (self.perm[j], k)))
                pos = b
                if c >= 0:
                    j += 1
                if c <= 0:
                    break
        flat = [x for group in groups for x in group]
        return IET._from_tiling(self.field, self.total, [p for p, _ in flat],
                                [r for _, r in flat], self.circle and other.circle)

    def inverse(self) -> "IET":
        """The inverse map: the images in image order, translated back."""
        pieces, inv = [None] * self.n, [0] * self.n
        for i, ((u, v, t), k) in enumerate(zip(self.pieces(), self.perm)):
            pieces[k] = (u + t, v + t, -t)
            inv[k] = i
        return IET._from_tiling(self.field, self.total, pieces, inv, self.circle)

    def rotate(self, c) -> "IET":
        """x -> self(x) + c (mod L); requires circle semantics.

        Adding c keeps the image order except that the images pushed past
        L wrap to the front, so a piece's image rank is (1 unless wrapped,
        its old image slot).
        """
        if not self.circle:
            raise DomainError("rotation requires circle semantics")
        c = _coerce(self.field, c)
        if c.sign() < 0 or not c < self.total:
            raise DomainError("rotation constant outside [0, L)")
        total = self.total
        pieces, ranks = [], []
        for (u, v, t), k in zip(self.pieces(), self.perm):
            t2 = t + c
            if not (u + t2) < total:          # whole image wraps
                pieces.append((u, v, t2 - total))
                ranks.append((0, k))
            elif total < v + t2:              # image straddles the endpoint
                w = total - t2
                pieces.append((u, w, t2))
                ranks.append((1, k))
                pieces.append((w, v, t2 - total))
                ranks.append((0, k))
            else:
                pieces.append((u, v, t2))
                ranks.append((1, k))
        return IET._from_tiling(self.field, total, pieces, ranks, True)

    def scale(self, s) -> "IET":
        """Conjugate by x -> s*x: an IET on [0, s*L)."""
        s = _coerce(self.field, s)
        if s.sign() <= 0:
            raise DomainError("scale factor must be positive")
        bs = [x * s for x in self.breaks()]
        pieces = [(bs[i], bs[i + 1], t * s) for i, t in enumerate(self.translations())]
        return IET._from_tiling(self.field, bs[-1], pieces, self.perm, self.circle)

    def first_return(self, b, cap: int = FIRST_RETURN_CAP) -> "IET":
        """The induced first-return map on [0, b)."""
        return self._first_return_with_times(b, cap)[0]

    def _first_return_with_times(self, b, cap: int = FIRST_RETURN_CAP):
        """First-return map plus the return time of each induced piece.

        Subintervals of [0, b) are pushed forward through the map; a piece
        splits whenever its orbit straddles a discontinuity or the point b.
        Each application of the map to a piece costs one unit of the cap.
        """
        b = _coerce(self.field, b)
        if b.sign() <= 0 or self.total < b:
            raise DomainError("return interval must satisfy 0 < b <= L")
        zero = self.field.zero()
        breaks, ts, n = self.breaks(), self.translations(), self.n
        work = deque([(zero, b, zero, 0)])  # (x_lo, x_hi, translation so far, steps)
        done = []
        budget = cap
        while work:
            lo, hi, trans, steps = work.popleft()
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
                    work.append((xs, xe, ntrans, steps + 1))
                elif not b < xe + ntrans:
                    done.append((xs, xe, ntrans, steps + 1))
                else:
                    w = b - ntrans
                    done.append((xs, w, ntrans, steps + 1))
                    work.append((w, xe, ntrans, steps + 1))
                if last:
                    break
                j, xs = j + 1, xe
        done.sort(key=lambda p: p[0])
        pieces = [(u, v, t) for u, v, t, _ in done]
        iet = IET._from_tiling(self.field, b, pieces, [u + t for u, _, t in pieces],
                               self.circle)
        times = [s for _, _, _, s in done]
        return iet, times

    # -- canonical form and equality --------------------------------------------

    def canonical(self) -> "IET":
        """Merge adjacent intervals with equal translations."""
        merged, ranks = [], []
        for (u, v, t), k in zip(self.pieces(), self.perm):
            if merged and merged[-1][2] == t:
                merged[-1] = (merged[-1][0], v, t)
            else:
                merged.append((u, v, t))
                ranks.append(k)     # a merged run's images stay in one block
        if len(merged) == self.n:
            return self
        return IET._from_tiling(self.field, self.total, merged, ranks, self.circle)

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
        """Sum of length wedge translation, as an antisymmetric matrix."""
        d = self.field.degree
        pairs = list(zip(self.lengths, self.translations()))
        den = lcm(*(l.den * t.den for l, t in pairs))   # integer rows over den
        rows = [[0] * d for _ in range(d)]
        for l, t in pairs:
            v, w = l.num, t.num
            scale = den // (l.den * t.den)
            for i in range(d):
                if v[i] or w[i]:
                    for j in range(i + 1, d):
                        m = v[i] * w[j] - w[i] * v[j]
                        if m:
                            rows[i][j] += m * scale
                            rows[j][i] -= m * scale
        return WedgeClass._trusted(
            self.field, tuple(tuple(Fraction(x, den) for x in row) for row in rows))

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
    ts = [t if t.sign() >= 0 else t + total for t in f.translations()]
    breaks = f.breaks()
    return [(breaks[i], ts[i]) for i in range(f.n) if ts[i] != ts[i - 1]]


def _word(arcs, total):
    """The cyclic word [(gap to the next arc start, translation)] of arcs."""
    ends = [s for s, _ in arcs[1:]] + [arcs[0][0] + total]
    return [(e - s, t) for (s, t), e in zip(arcs, ends)]


def cyclic_discontinuities(f: IET):
    """Positions where f is genuinely discontinuous as a circle map, sorted.

    A chart breakpoint is spurious on the circle when the neighbouring
    translations agree modulo the total length (the chart seam at 0 is
    treated the same way).
    """
    return [start for start, _ in _arcs(f)]


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
