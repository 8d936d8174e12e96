"""The Arnoux-Yoccoz family of self-similar interval exchanges.

For each g >= 3 the construction starts from the unique root alpha in
(0, 1) of x^g + x^(g-1) + ... + x - 1.  The boundary of a Moebius-band
neighbourhood of a one-sided curve is a circle of circumference 2
carrying intervals of lengths alpha, alpha, alpha^2, alpha^2, ...,
alpha^g, alpha^g in cyclic order; gluing each adjacent equal pair by a
translation gives an involution of the circle, built by the IET
constructor with total 2 (alpha + ... + alpha^g = 1).  Passing to the
orientation double cover halves the picture and composes with the
half-circle rotation:

    lift = rotate(scale(involution, 1/2), 1/2)     (circle of length 1)

The lift is the classical Arnoux-Yoccoz interval exchange.  Its stretch
factor 1/alpha has minimal polynomial x^g - x^(g-1) - ... - x - 1.

Self-similarity: the first-return map of the lift to [0, alpha) is
conjugate to the alpha-scaled lift by an exact rotation of the return
circle; the conjugating offset is (3*alpha - 1)/2 in the chart used
here.  `ay_self_similarity_witness` takes a lift already built,
verifies the conjugacy exactly and returns the witness offset.  (Plain
chart equality of the two maps does not hold in this chart or any
rotated or reflected one; the conjugacy is the invariant content.)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .field import NumberField
from .iet import IET, rotation_conjugacy
from .polys import Poly

GENUS_MIN = 3
HALF = Fraction(1, 2)


def ay_alpha_poly(g: int) -> Poly:
    """x^g + x^(g-1) + ... + x - 1."""
    if g < 2:
        raise InputError("alpha polynomial needs g >= 2")
    return Poly([-1] + [1] * g)


def ay_alpha(g: int) -> NumberField:
    """The field Q(alpha_g) with alpha_g isolated inside (0, 1)."""
    return NumberField(ay_alpha_poly(g), 0, 1)


def ay_stretch_minpoly(g: int) -> Poly:
    """x^g - x^(g-1) - ... - x - 1, the minimal polynomial of 1/alpha_g."""
    if g < 2:
        raise InputError("stretch polynomial needs g >= 2")
    return Poly([-1] * g + [1])


def _require_genus(g: int) -> None:
    """The one check of the construction's genus, for the command line too."""
    if g < GENUS_MIN:
        raise InputError(f"construction requires genus >= {GENUS_MIN}")


def _paired_blocks(g: int):
    """(field, lengths, pairing) of `ay_boundary_involution(g)`."""
    _require_genus(g)
    field = ay_alpha(g)
    alpha = field.gen()
    power = field.one()
    lengths, pairing = [], []
    for k in range(g):
        power = power * alpha
        lengths += [power, power]
        pairing += [2 * k + 1, 2 * k]
    return field, lengths, pairing


def ay_boundary_involution(g: int) -> IET:
    """The gluing involution on the circle of circumference 2, over a new
    field `ay_alpha(g)`.

    Blocks alpha, alpha, alpha^2, alpha^2, ..., alpha^g, alpha^g in
    cyclic order starting at 0, adjacent equal blocks swapped.
    """
    field, lengths, pairing = _paired_blocks(g)
    return IET(field, 2, lengths, pairing, circle=True)


def ay_perturbed_involution(g: int) -> IET:
    """Negative control: the boundary involution with the cyclic positions
    of one alpha^2 and one alpha^3 block exchanged.  Not self-similar."""
    field, lengths, pairing = _paired_blocks(g)
    lengths[3], lengths[4] = lengths[4], lengths[3]
    pairing[2:6] = [4, 5, 2, 3]
    return IET(field, 2, lengths, pairing, circle=True)


def ay_lift(g: int, involution: IET | None = None) -> IET:
    """The double-cover interval exchange, normalized to circle length 1,
    of `involution` (by default the boundary involution of genus g)."""
    if involution is None:
        involution = ay_boundary_involution(g)
    return involution.scale(HALF).rotate(HALF)


def ay_self_similarity_witness(lift: IET):
    """The exact rotation offset conjugating the alpha-scaled lift to the
    first-return map on [0, alpha), or None when no conjugacy exists;
    alpha is the generator of the lift's field."""
    alpha = lift.field.gen()
    returned = lift.first_return(alpha)
    scaled = lift.scale(alpha)
    return rotation_conjugacy(returned, scaled)


@dataclass(frozen=True)
class AYSystem:
    """All constructed objects for one genus, each built once; whether the
    involution squares to the identity is reported, not raised."""

    field: NumberField
    boundary_involution: IET
    lift: IET
    stretch_minpoly: Poly
    is_involution: bool

    @classmethod
    def build(cls, g: int) -> "AYSystem":
        involution = ay_boundary_involution(g)
        field = involution.field
        return cls(field, involution, ay_lift(g, involution), ay_stretch_minpoly(g),
                   involution.compose(involution) == IET.identity(field, involution.total))
