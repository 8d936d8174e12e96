"""Polynomial criteria for stretch factors of pseudo-Anosov maps.

Two independent decision procedures for SAF vanishing, both driven by
the minimal polynomial m of the stretch factor lambda > 1:

* reciprocity: the invariant vanishes exactly when m is NOT reciprocal,
  i.e. when lambda and 1/lambda are not Galois conjugates;
* field degree: the invariant vanishes exactly when
  Q(lambda) = Q(lambda + 1/lambda), detected by comparing deg m with the
  degree of the minimal polynomial of beta = lambda + 1/lambda.

The field-degree criterion builds no number field.  Over Z[x], m(y) =
A(x)*y + B(x) mod q(y) = y^2 - x*y + 1, whose roots in y have product 1
and sum x, so Res_y(m, q) = A^2 + x*A*B + B^2; over the roots r of m it
is prod (r^2 - x*r + 1) = m(0)*chi(x), chi the characteristic polynomial
of beta on Q[y]/(m).  m is squarefree, so Q[y]/(m) is a product of
fields and beta's minimal polynomial is the squarefree part
chi / gcd(chi, chi') (`polys.trace_minpoly`, O(d^2) integer steps).  It
reads neither the reversal of m nor `is_reciprocal`.

The two must agree on every input; the test suite enforces this.  Every
entry point validates m once; the command line passes it the parsed
polynomial as it is.  `polys.check_monic_integral` comes first, with the
errors `NumberField` gives its modulus.  `_validate_stretch` then serves
both criteria: with no interval supplied, m(0) != 0 and m(1) < 0, it
certifies irreducibility first and builds the Sturm chain only on a
miss, since irreducible over Q implies squarefree and m(1) < 0 puts a
root in (1, B), B the Cauchy bound.  Every other m gets the chain first.
Either way m is certified once, and an invalid m gets the error line of
chain-first validation.  The reciprocity criterion is only sound for
irreducible m, so both verdicts carry a note when that certificate is
missing.  `vanishing_verdicts` runs both criteria on one validation, and
`nonlift_certificate` takes the same certify-first step.  `ay --check`
runs the nonlift checks on the validation of its vanishing verdicts
through `_nonlift`, so it certifies m once; `nonlift --oracle` reruns
them with the brute-force completion on the validation of
`nonlift_certificate`.

The nonlift certificate decides whether lambda could be the stretch
factor of a map lifted from a nonorientable surface of genus g+1: such a
lambda must be a root of a monic integer polynomial p of degree g with
constant coefficient +-1 that is reciprocal mod 2 (p, p(-x), or their
reversals).  Since the candidate p factors as (a variant of m) times a
monic integer cofactor, existence reduces to a completion problem over
GF(2): can m mod 2 be multiplied by a degree g-d polynomial with
constant term 1 so that the product is self-reciprocal?  A negative
answer certifies that lambda is not such a lift.  The reversal of m mod
2 would decide the same: for |m(0)| = 1 both have degree d and constant
term 1, and the least completion rev(v) / gcd(v, rev v) of either v has
degree d - deg gcd(m mod 2, its reversal).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import gf2
from .errors import InputError, PolynomialError
from .polys import (
    Poly,
    cauchy_root_bound,
    certify_irreducible,
    check_monic_integral,
    count_real_roots,
    is_reciprocal,
    monic_squarefree_chain,
    reverse,
    sign_at,
    trace_minpoly,
)

OUTCOME_NOT_LIFT = "CertifiedNotLift"
OUTCOME_INCONCLUSIVE = "Inconclusive"
REASON_DEGREE = "DegreeExceedsGenus"
REASON_CONSTANT = "ConstantNotUnit"
REASON_COMPLETION = "NoMod2Completion"
NOTE_UNVERIFIED = "irreducibility unverified mod trial primes"
MINPOLY = "minimal polynomial"      # the noun of the input-check messages


@dataclass(frozen=True)
class VanishingVerdict:
    """Outcome of one SAF-vanishing decision method."""

    vanishes: bool
    method: str                    # "reciprocity" or "field-degree"
    detail: Poly                   # reversal of m, or minimal polynomial of beta
    index: int | None = None       # [Q(lambda) : Q(lambda + 1/lambda)], field-degree only
    notes: tuple = ()

    def to_dict(self) -> dict:
        return {
            "vanishes": self.vanishes,
            "method": self.method,
            "detail": self.detail.to_string(),
            "index": self.index,
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class CertVerdict:
    """Outcome of the nonorientable-lift exclusion certificate."""

    outcome: str                   # OUTCOME_NOT_LIFT or OUTCOME_INCONCLUSIVE
    reason: str | None = None      # set when certified
    variant: str | None = None     # "direct" (completion of m mod 2), set when inconclusive
    witness: int | None = None     # GF(2) completion, set when inconclusive
    notes: tuple = ()

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "reason": self.reason,
            "variant": self.variant,
            "witness": None if self.witness is None else gf2.to_string(self.witness),
            "notes": list(self.notes),
        }


def _validate_stretch(m: Poly, interval=None):
    """Check m as the minimal polynomial of a stretch factor lambda > 1:
    `check_monic_integral`, squarefree, m(0) != 0 and a real root > 1 (in
    `interval` when given, with lo < hi).  Returns `certify_irreducible(m)`.

    Without an interval, m(0) != 0 and m(1) < 0 send m to `_certify`: a
    monic m with m(1) < 0 has a root in (1, B), B its Cauchy bound, since
    m(B) > 0.  Every other m gets the Sturm chain first and the checks on
    it in the order written, which decides its error line.
    """
    check_monic_integral(m, MINPOLY)
    if (interval is None and m.constant() != 0
            and sign_at([c.numerator for c in m.coeffs], 1, 1) < 0):
        return _certify(m)
    chain = monic_squarefree_chain(m, MINPOLY)
    if m.constant() == 0:
        raise InputError("minimal polynomial must have nonzero constant term")
    if interval is not None:
        lo, hi = Fraction(interval[0]), Fraction(interval[1])
        if lo >= hi:
            raise InputError("supplied interval is empty: lo must be below hi")
        if lo < 1:
            raise InputError("supplied interval must lie in [1, oo)")
        if (any(sign_at(chain[0], x.numerator, x.denominator) == 0 for x in (lo, hi))
                or count_real_roots(m, lo, hi, chain) != 1):
            raise InputError("supplied interval does not isolate one root > 1")
    elif count_real_roots(m, Fraction(1), cauchy_root_bound(m), chain) == 0:
        raise InputError(f"no real root > 1 for {m}")
    return certify_irreducible(m)


def _certify(m: Poly):
    """`certify_irreducible(m)` for an m past `check_monic_integral`, with m
    proved squarefree: by a hit, since an irreducible polynomial over Q is
    squarefree, else by the Sturm chain."""
    prime = certify_irreducible(m)
    if prime is None:
        monic_squarefree_chain(m, MINPOLY)
    return prime


def _notes(m: Poly, prime) -> tuple:
    notes = ()
    if m.degree == 1:
        notes = ("degenerate input: rational stretch factor; "
                 "pseudo-Anosov stretch factors are irrational",)
    if prime is None:
        notes += (NOTE_UNVERIFIED,)
    return notes


def vanishing_by_reciprocity(m: Poly, interval=None) -> VanishingVerdict:
    """SAF vanishing via the reciprocity of the minimal polynomial.

    lambda and 1/lambda are Galois conjugates exactly when m is
    reciprocal, and conjugacy is equivalent to a proper (index 2)
    trace-field extension, hence to a nonzero invariant.  Commands use
    `vanishing_verdicts`; this stays while `perfbench/layers.py` traces it.
    """
    return _by_reciprocity(m, _validate_stretch(m, interval))


def vanishing_by_field_degree(m: Poly, interval=None) -> VanishingVerdict:
    """SAF vanishing via the degree of Q(lambda + 1/lambda).

    m(0)*chi = Res_y(m, y^2 - x*y + 1) = A^2 + x*A*B + B^2, where m = A*y + B
    mod y^2 - x*y + 1 and chi is the characteristic polynomial of beta =
    lambda + 1/lambda on Q[y]/(m).  m is squarefree, so Q[y]/(m) is a
    product of fields and beta's minimal polynomial is the squarefree part
    of chi (`trace_minpoly`); its degree is compared with deg m.  Commands
    use `vanishing_verdicts`; this stays while `perfbench/layers.py` traces it.
    """
    return _by_field_degree(m, _validate_stretch(m, interval))


def vanishing_verdicts(m: Poly, interval=None):
    """(reciprocity verdict, field-degree verdict) on one validation of m."""
    prime = _validate_stretch(m, interval)
    return _by_reciprocity(m, prime), _by_field_degree(m, prime)


def _by_reciprocity(m: Poly, prime) -> VanishingVerdict:
    return VanishingVerdict(
        vanishes=not is_reciprocal(m),
        method="reciprocity",
        detail=reverse(m),
        notes=_notes(m, prime),
    )


def _by_field_degree(m: Poly, prime) -> VanishingVerdict:
    beta_min = trace_minpoly(m)
    if m.degree % beta_min.degree:
        raise PolynomialError(
            f"degree of {beta_min} does not divide {m.degree}; modulus reducible?"
        )
    # 1 or 2: a value of beta = r + 1/r comes from at most two roots, r and 1/r
    index = m.degree // beta_min.degree
    return VanishingVerdict(
        vanishes=(index == 1),
        method="field-degree",
        detail=beta_min,
        index=index,
        notes=_notes(m, prime),
    )


def _check_completion_args(mbar: int, k: int) -> None:
    if mbar == 0 or mbar & 1 == 0:
        raise PolynomialError("completion requires constant term 1 over GF(2)")
    if k < 0:
        raise InputError("completion degree must be nonnegative")


def gf2_completion_exists(mbar: int, k: int):
    """A monic q over GF(2) of degree exactly k with q(0) = 1 such that
    mbar*q is self-reciprocal, or None.

    The least such q is r / gcd(mbar, r) with r = rev(mbar).  The
    irreducible factors of a self-reciprocal polynomial come in reversal
    pairs, so q must hold each factor h with multiplicity at least
    e(rev h) - e(h), where e counts multiplicity in mbar; r holds h with
    multiplicity e(rev h), and gcd(mbar, r) with min(e(h), e(rev h)), so
    the quotient holds exactly that deficit.  Leftover degree e is padded
    with (x+1)^e, which is its own reversal: the product of
    (x+1)^(2^j) = x^(2^j) + 1 over the set bits j of e, each one shift
    and xor.
    """
    _check_completion_args(mbar, k)
    r = gf2.reverse(mbar)
    q = gf2.divmod_(r, gf2.gcd(mbar, r))[0]
    pad = k - gf2.degree(q)
    if pad < 0:
        return None
    for j in range(pad.bit_length()):
        if pad >> j & 1:
            q ^= q << (1 << j)
    return q


def gf2_completion_bruteforce(mbar: int, k: int):
    """Exhaustive-search oracle with the same contract as
    gf2_completion_exists; the witness is the lexicographically first
    (smallest integer encoding) candidate."""
    _check_completion_args(mbar, k)
    if k > 24:
        raise InputError("brute-force completion limited to degree 24")
    if k == 0:
        return 1 if gf2.is_self_reciprocal(mbar) else None
    for middle in range(2 ** (k - 1)):
        q = 1 | (middle << 1) | (1 << k)
        if gf2.is_self_reciprocal(gf2.mul(mbar, q)):
            return q
    return None


def nonlift_certificate(m: Poly, g: int) -> CertVerdict:
    """Decide whether a stretch factor with minimal polynomial m passes
    the necessary conditions for being a nonorientable lift on genus g.

    Checks, in order: deg m <= g; |m(0)| = 1 (forced by the unit
    constant term of the degree-g polynomial); and existence of a GF(2)
    completion of m mod 2 to a self-reciprocal product of degree g.  The
    first failure certifies exclusion; success returns the completion
    witness.  Validation comes first: `check_monic_integral`, then
    `_certify`; a genus below 1 is rejected after the Sturm chain alone,
    whose squarefree error comes first, with no certificate.
    """
    check_monic_integral(m, MINPOLY)
    if g < 1:
        monic_squarefree_chain(m, MINPOLY)
        raise InputError("genus must be >= 1")
    prime = _certify(m)
    return _nonlift(m, g, () if prime is not None else (NOTE_UNVERIFIED,))


def _nonlift(m: Poly, g: int, notes=(), completion=gf2_completion_exists) -> CertVerdict:
    """The checks of `nonlift_certificate` past validation, for an m its
    caller has validated; `notes` go on the verdict as they are."""
    d = m.degree
    if d > g:
        return CertVerdict(OUTCOME_NOT_LIFT, reason=REASON_DEGREE, notes=notes)
    if abs(m.constant()) != 1:
        return CertVerdict(OUTCOME_NOT_LIFT, reason=REASON_CONSTANT, notes=notes)
    witness = completion(gf2.from_poly(m), g - d)
    if witness is None:
        return CertVerdict(OUTCOME_NOT_LIFT, reason=REASON_COMPLETION, notes=notes)
    return CertVerdict(OUTCOME_INCONCLUSIVE, variant="direct", witness=witness,
                       notes=notes)
