"""Shared generators and oracles for the test suite."""

import math
from fractions import Fraction

from ietsaf import (IET, NumberField, Poly, certify_irreducible, count_real_roots, gf2,
                    is_squarefree, isolate_real_roots)
from ietsaf.certificates import _by_field_degree, _by_reciprocity, _nonlift, _Stretch
from ietsaf.errors import (InputError, IterationCapError, NonSquarefreeError,
                           PolynomialError, ReducibleModulusError)
from ietsaf.field import SIGN_BISECTION_CAP, SIGN_GCD_CHECK_AFTER
from ietsaf.polys import (_mgcd, _mmod, _mtrim, _prime_factors, cauchy_root_bound,
                          monic_squarefree_chain)


def brute_mul(a, b):
    """Product of two coefficient sequences (constant first) by a double
    loop over their entries; [] when either is empty."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def divmod_by_fractions(a, b):
    """(quotient, remainder) of the coefficient sequences a and b (constant
    first, b nonzero with its last entry nonzero) by long division over
    `Fraction`; the remainder is trimmed, so [] when b divides a."""
    rem, db = list(a), len(b) - 1
    quo = [0] * max(0, len(rem) - db)
    for i in range(len(quo) - 1, -1, -1):
        c = quo[i] = Fraction(rem[i + db], b[-1])
        for j, y in enumerate(b, i):
            rem[j] -= c * y
    return quo, _mtrim(rem[:db])


def derivative(coeffs):
    return [i * c for i, c in enumerate(coeffs)][1:]


def value_at(coeffs, x):
    """p(x) for the coefficient sequence p (constant first) at a rational
    x, or at a field element x (then in the field, for nonzero p), by
    Horner."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd over the rationals by Euclid on `Fraction` coefficient
    lists (1 for coprime inputs, 0 when both are 0)."""
    a, b = list(p.coeffs), list(q.coeffs)
    while b:
        a, b = b, divmod_by_fractions(a, b)[1]
    return Poly(a).monic() if a else Poly()


def random_cubic_field(rng, above_one=False):
    """A certified-irreducible monic cubic field with a random real root."""
    while True:
        p = Poly([rng.randint(-5, 5) for _ in range(3)] + [1])
        if not is_squarefree(p):
            continue
        if certify_irreducible(p) is None:
            continue
        bound = cauchy_root_bound(p)
        lo = Fraction(1) if above_one else -bound
        roots = isolate_real_roots(p, lo, bound)
        if not roots:
            continue
        a, b = roots[rng.randrange(len(roots))]
        return NumberField(p, a, b)


def random_quartic_field_above_one(rng):
    while True:
        p = Poly([rng.randint(-5, 5) for _ in range(4)] + [1])
        if not is_squarefree(p):
            continue
        if certify_irreducible(p) is None:
            continue
        roots = isolate_real_roots(p, Fraction(1), cauchy_root_bound(p))
        if not roots:
            continue
        a, b = roots[-1]
        return NumberField(p, a, b)


def random_positive(field, rng, span=3):
    while True:
        coords = [Fraction(rng.randint(-span, span), rng.randint(1, span))
                  for _ in range(field.degree)]
        value = field.element(coords)
        if value.sign() > 0:
            return value


def random_iet(field, rng, n=None, circle=False, total=None):
    """Random IET; when total is given the lengths are rescaled to meet it."""
    n = n or rng.randint(2, 5)
    lengths = [random_positive(field, rng) for _ in range(n)]
    acc = field.zero()
    for l in lengths:
        acc = acc + l
    if total is not None:
        factor = total / acc
        lengths = [l * factor for l in lengths]
        acc = total
    perm = list(range(n))
    rng.shuffle(perm)
    return IET(field, acc, lengths, perm, circle)


def random_pair_involution(field, rng, max_pairs=3, allow_fixed=True):
    """Random valid pair involution: equal-length paired blocks in random
    cyclic positions, optionally with a self-paired block."""
    k = rng.randint(1, max_pairs)
    tokens = []
    for i in range(k):
        length = random_positive(field, rng)
        tokens += [(i, length), (i, length)]
    if allow_fixed and rng.random() < 0.3:
        tokens.append((k, random_positive(field, rng)))
    rng.shuffle(tokens)
    partner = {}
    pairing = [None] * len(tokens)
    for idx, (label, _) in enumerate(tokens):
        if label in partner:
            j = partner.pop(label)
            pairing[idx], pairing[j] = j, idx
        else:
            partner[label] = idx
    for idx in range(len(tokens)):
        if pairing[idx] is None:
            pairing[idx] = idx
    lengths = [t[1] for t in tokens]
    return IET(field, sum(lengths[1:], lengths[0]), lengths, pairing, circle=True)


def count_calls(monkeypatch, owner, attr):
    """Patch the function `owner.attr` for one test with a wrapper that
    counts its calls; the list it returns gets one entry per call."""
    calls = []
    function = getattr(owner, attr)

    def counting(*args, **kwargs):
        calls.append(1)
        return function(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counting)
    return calls


def float_pieces(iet):
    return [(float(u), float(v), float(t)) for u, v, t in iet.pieces()]


def simulate(pieces, x):
    """Floating-point evaluation of an IET given float pieces."""
    for u, v, t in pieces:
        if u <= x < v:
            return x + t
    raise AssertionError(f"{x} not in any piece")


def return_by_iteration(f, b, x):
    """Reference for `IET.first_return` at one point x of [0, b): apply f
    (`IET.__call__`) until the orbit re-enters [0, b).  Returns (the
    return time, the point it returns to)."""
    y = f(x)
    for n in range(1, 10_000):
        if y < b:
            return n, y
        y = f(y)
    raise AssertionError(f"{x} does not return to [0, b) within 10,000 steps")


def cyclic_discontinuities_by_canonical(f):
    """Reference for the arc starts of `iet._arcs`, the points where f is
    discontinuous as a circle map: walk the canonical pieces and keep each
    breakpoint whose translation jump is not 0 or +-L."""
    pieces = f.canonical().pieces()
    total = f.total
    out = []
    n = len(pieces)
    for i in range(n):
        _, v, t = pieces[i]
        diff = pieces[(i + 1) % n][2] - t
        if diff.is_zero() or (diff - total).is_zero() or (diff + total).is_zero():
            continue
        out.append(v if i < n - 1 else f.field.zero())
    return sorted(out)


def rotation_conjugacy_by_compose(f, g):
    """Reference for `rotation_conjugacy`: compose R_c o g o R_c^-1 for every
    candidate offset c that moves g's first discontinuity onto one of f's."""
    if (g.field is not f.field and g.field != f.field) or f.total != g.total:
        return None
    total = f.total
    fd = cyclic_discontinuities_by_canonical(f)
    gd = cyclic_discontinuities_by_canonical(g)
    if not fd and not gd:
        return f.field.zero() if f == g else None
    if len(fd) != len(gd) or not fd:
        return None
    for d in fd:
        c = d - gd[0]
        if c.sign() < 0:
            c = c + total
        rot = IET.rotation(f.field, total, c)
        if rot.compose(g).compose(rot.inverse()) == f:
            return c
    return None


def saf_by_fractions(f):
    """Reference for `IET.saf`: the d x d matrix sum of l wedge t over the
    pieces, (l wedge t)_ij = l_i t_j - t_i l_j on `Fraction` coordinates."""
    d = f.field.degree
    rows = [[Fraction(0)] * d for _ in range(d)]
    for l, t in zip(f.lengths, f.translations):
        lc, tc = l.coords, t.coords
        for i in range(d):
            for j in range(d):
                rows[i][j] += lc[i] * tc[j] - tc[i] * lc[j]
    return tuple(map(tuple, rows))


def min_poly_by_fractions(a):
    """Reference for `AlgNum.min_poly`: Krylov elimination over `Fraction`
    on the powers of a, built with `AlgNum` multiplication."""
    d = a.field.degree
    rows = []  # (pivot index, reduced vector, expression in powers)
    power = a.field.one()
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
        power = power * a
    raise PolynomialError("no dependency among d+1 powers")


def trace_resultant_by_convolution(coeffs):
    """m(0)*chi = A^2 + x*A*B + B^2 as d + 1 ints, constant first, for the
    integer coefficients of m: m = A*y + B mod y^2 - x*y + 1 from
    y^k = U_k*y - U_(k-1), U_(k+1) = x*U_k - U_(k-1), U_0 = 0,
    U_(-1) = -1, then the product by a double loop over the coefficients."""
    n = len(coeffs)
    A, B = [0] * n, [0] * n
    prev, cur = [-1] + [0] * (n - 1), [0] * n      # U_(k-1), U_k
    for c in coeffs:
        if c:
            A = [x + c * u for x, u in zip(A, cur)]
            B = [x - c * u for x, u in zip(B, prev)]
        prev, cur = cur, [u - p for u, p in zip([0] + cur[:-1], prev)]
    chi = [0] * (n + 1)
    for i, (ai, bi) in enumerate(zip(A, B)):
        for j in range(n - i):
            chi[i + j] += ai * A[j] + bi * B[j]
            chi[i + j + 1] += ai * B[j]
    return chi[:n]      # drop x^(d+1), whose sum is incomplete


def field_at_a_real_root(m):
    """`NumberField` on the largest real root of squarefree monic integer m,
    or None when m has no real root.  Rational roots of m are integers."""
    bound = cauchy_root_bound(m)
    roots = isolate_real_roots(m, -bound, bound)
    if not roots:
        return None
    lo, hi = roots[-1]
    for k in range(math.floor(lo) + 1, math.floor(hi) + 1):
        if value_at(m.coeffs, k) == 0:
            width = Fraction(1, 2)
            while count_real_roots(m, k - width, k + width) != 1:
                width /= 2
            return NumberField(m, k - width, k + width)
    while value_at(m.coeffs, lo) == 0:  # the root is irrational: no midpoint is a root
        mid = (lo + hi) / 2
        if count_real_roots(m, mid, hi) == 1:
            lo = mid
        else:
            hi = mid
    return NumberField(m, lo, hi)


def charpoly_by_fractions(a):
    """Characteristic polynomial of multiplication by a on its field, by
    Faddeev-LeVerrier over `Fraction` on the matrix built with `AlgNum`
    multiplication (column j: a times basis vector j)."""
    field = a.field
    n = field.degree
    basis = [field.element([int(i == j) for i in range(n)]) for j in range(n)]
    cols = [(a * e).coords for e in basis]
    mat = [[cols[j][i] for j in range(n)] for i in range(n)]
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    prod = [[Fraction(0)] * n for _ in range(n)]     # M_0 = 0
    for k in range(1, n + 1):
        prod = [[sum(mat[i][t] * prod[t][j] for t in range(n))
                 + (coeffs[n - k + 1] if i == j else 0) for j in range(n)]
                for i in range(n)]
        trace = sum(sum(mat[i][t] * prod[t][i] for t in range(n)) for i in range(n))
        coeffs[n - k] = -trace / k
    return Poly(coeffs)


def gf2_completion_by_factoring(mbar, k):
    """Reference for `gf2_completion_exists`: factor mbar by trial division
    and supply the reversal deficit of each non-self-reciprocal factor,
    then pad with powers of x+1."""
    factors = gf2.factor(mbar) if mbar > 1 else {}
    q = 1
    for f in sorted(factors):
        fr = gf2.reverse(f)
        need = factors[f] - factors.get(fr, 0)
        if fr != f and need > 0:
            for _ in range(need):
                q = gf2.mul(q, fr)
    if gf2.degree(q) > k:
        return None
    for _ in range(k - gf2.degree(q)):
        q = gf2.mul(q, 0b11)
    return q


def sturm_chain_by_fractions(p):
    """Reference for `sturm_chain`: Euclid's remainder sequence of p and p'
    over `Fraction`, each remainder negated."""
    if p.is_zero:
        raise PolynomialError("Sturm chain of the zero polynomial")
    chain = [list(p.coeffs)]
    if p.degree >= 1:
        chain.append(derivative(chain[0]))
        while len(chain[-1]) > 1:
            chain.append([-c for c in divmod_by_fractions(chain[-2], chain[-1])[1]])
        if not chain[-1]:
            chain.pop()
    if len(chain[-1]) > 1:
        raise NonSquarefreeError(
            f"polynomial is not squarefree: gcd with derivative is "
            f"{Poly(chain[-1]).monic()}"
        )
    return [Poly(q) for q in chain]


UNVERIFIED_NOTE = "irreducibility unverified mod trial primes"
DEGENERATE_NOTE = ("degenerate input: rational stretch factor; "
                   "pseudo-Anosov stretch factors are irrational")


def vanishing_verdicts_chain_first(m, interval=None):
    """Reference for `vanishing_verdicts`: validation with the Sturm chain
    first, then m(0) != 0, then the supplied interval or a root > 1 checked
    on the chain, then one certificate; the criteria run on that.  Degree 1
    is noted as degenerate, and a miss as unverified irreducibility."""
    chain = monic_squarefree_chain(m, "minimal polynomial")
    if m.constant() == 0:
        raise InputError("minimal polynomial must have nonzero constant term")
    if interval is not None:
        lo, hi = Fraction(interval[0]), Fraction(interval[1])
        if lo >= hi:
            raise InputError("supplied interval is empty: lo must be below hi")
        if lo < 1:
            raise InputError("supplied interval must lie in [1, oo)")
        if (value_at(m.coeffs, lo) == 0 or value_at(m.coeffs, hi) == 0
                or count_real_roots(m, lo, hi, chain) != 1):
            raise InputError("supplied interval does not isolate one root > 1")
    elif count_real_roots(m, Fraction(1), cauchy_root_bound(m), chain) == 0:
        raise InputError(f"no real root > 1 for {m}")
    notes = (DEGENERATE_NOTE,) if m.degree == 1 else ()
    if certify_irreducible(m) is None:
        notes += (UNVERIFIED_NOTE,)
    stretch = _Stretch(m, notes)
    return _by_reciprocity(stretch), _by_field_degree(stretch)


def nonlift_certificate_chain_first(m, g):
    """Reference for `nonlift_certificate`: the Sturm chain first, then the
    genus, then one certificate; the checks past validation run on that.
    A miss is noted as unverified irreducibility, and degree 1 is not noted."""
    monic_squarefree_chain(m, "minimal polynomial")
    if g < 1:
        raise InputError("genus must be >= 1")
    notes = () if certify_irreducible(m) is not None else (UNVERIFIED_NOTE,)
    return _nonlift(_Stretch(m, notes), g)


def count_real_roots_by_fractions(p, lo, hi):
    """Reference for `count_real_roots`: sign variations of the `Fraction`
    chain, each entry evaluated by Horner over `Fraction`."""
    chain = sturm_chain_by_fractions(p)

    def variations(x):
        signs = [v > 0 for v in (value_at(q.coeffs, x) for q in chain) if v != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    return variations(lo) - variations(hi)


def refine_by_fractions(modulus, lo, hi, width):
    """Reference for `NumberField.refine_interval`: bisect (lo, hi) over
    `Fraction` until it is at most `width` wide or a midpoint is a root.
    Returns (lo, hi, exact root or None)."""
    sign_lo = value_at(modulus.coeffs, lo) > 0
    while hi - lo > width:
        mid = (lo + hi) / 2
        value = value_at(modulus.coeffs, mid)
        if value == 0:
            return lo, hi, mid
        if (value > 0) == sign_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi, None


def power_form_by_fractions(coords, lo, hi):
    """Reference for `AlgNum._enclosure`: the enclosure of sum c_k x^k over
    [lo, hi] over `Fraction`, adding c_k times the exact range of x^k, which
    runs between lo^k and hi^k, and from 0 for an even k >= 2 when lo < 0 < hi."""
    total_lo = total_hi = Fraction(0)
    for k, c in enumerate(coords):
        ends = (lo ** k, hi ** k)
        low, high = min(ends), max(ends)
        if k and k % 2 == 0 and lo < 0 < hi:
            low = Fraction(0)
        total_lo += min(c * low, c * high)
        total_hi += max(c * low, c * high)
    return total_lo, total_hi


def sign_by_fractions(value):
    """Reference for `AlgNum.sign`: the power-form enclosure over `Fraction`
    of num(x) = den * value on the field's isolating interval, bisecting the
    field on demand, with the gcd check against the modulus after
    SIGN_GCD_CHECK_AFTER bisections."""
    if value.is_zero():
        return 0
    field = value.field
    for i in range(SIGN_BISECTION_CAP):
        if field.exact_root is not None:
            exact = value_at(value.num, field.exact_root)
            return (exact > 0) - (exact < 0)
        lo, hi = power_form_by_fractions(value.num, *field.interval)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        if i == SIGN_GCD_CHECK_AFTER:
            g = poly_gcd(Poly(value.num), field.modulus)
            if g.degree > 0:
                raise ReducibleModulusError(g)
        field._bisect_once()
    raise IterationCapError("sign determination exceeded the bisection cap")


def mul_mod_by_division(a, b, m):
    """Reference for `field._mul_mod`: dense convolution of the integer
    vectors a and b, then long division by the monic integer modulus m
    (coefficients low first); the remainder's d coordinates."""
    d = len(m) - 1
    conv = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    for k in range(2 * d - 2, d - 1, -1):
        c = conv[k]
        for i, mi in enumerate(m):
            conv[k - d + i] -= c * mi
    return conv[:d]


def _mmul(a, b, m):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % m
    return _mtrim(out)


def mulmod_by_lists(a, b, f, m):
    """Reference product in GF(m)[x]/(f) on coefficient lists."""
    return _mmod(_mmul(a, b, m), f, m)


def _mpowmod(base, e, f, m):
    result = [1]
    base = _mmod(base, f, m)
    while e:
        if e & 1:
            result = mulmod_by_lists(result, base, f, m)
        base = mulmod_by_lists(base, base, f, m)
        e >>= 1
    return result


def is_irreducible_mod_by_powering(p, q):
    """Reference for `_irreducible_mod`: Rabin's test with a fresh
    square-and-multiply x^(q^k) mod f on coefficient lists for each k."""
    if not p.is_integral:
        raise PolynomialError("integer coefficients required")
    coeffs = [int(c) % q for c in p.coeffs]
    f = _mtrim(list(coeffs))
    d = len(f) - 1
    if d < p.degree:
        return False  # leading coefficient vanished mod q
    if d == 0:
        return False
    if d == 1:
        return True
    x = [0, 1]
    for r in _prime_factors(d):
        h = _mpowmod(x, q ** (d // r), f, q)
        diff = list(h) + [0] * max(0, 2 - len(h))
        diff[1] = (diff[1] - 1) % q
        g = _mgcd(_mtrim(diff), f, q)
        if len(g) - 1 != 0:
            return False
    h = _mpowmod(x, q ** d, f, q)
    return h == [0, 1]
