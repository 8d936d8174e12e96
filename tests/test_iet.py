import json
import math
import random
from fractions import Fraction
from functools import partial

import pytest

import ietsaf.field
import ietsaf.iet
import ietsaf.polys
from ietsaf import (
    DomainError,
    FieldMismatchError,
    IET,
    InputError,
    NumberField,
    Poly,
    WedgeClass,
    ay_boundary_involution,
    ay_lift,
    ay_perturbed_involution,
    cyclic_discontinuities,
    dumps_iet,
    loads_iet,
    rotation_conjugacy,
)

from helpers import (
    count_calls,
    cyclic_discontinuities_by_canonical,
    float_pieces,
    random_cubic_field,
    random_iet,
    random_pair_involution,
    random_positive,
    rotation_conjugacy_by_compose,
    simulate,
)

AY3 = Poly([-1, 1, 1, 1])


@pytest.fixture(scope="module")
def k3():
    return NumberField(AY3, 0, 1)


def test_identity_and_rotation_translations(k3):
    ident = IET.identity(k3, 1)
    assert ident.translations() == (k3.zero(),)
    theta = k3.gen()
    rot = IET.rotation(k3, 1, theta)
    assert rot.translations() == (theta, theta - 1)


def test_constructor_errors(k3):
    a = k3.gen()
    with pytest.raises(InputError, match="bijection"):
        IET(k3, 1, [a, 1 - a], [0, 0])
    with pytest.raises(InputError, match="nonpositive"):
        IET(k3, 1, [a - 1, 2 - a], [1, 0])
    with pytest.raises(InputError, match="sum"):
        IET(k3, 2, [a, 1 - a], [1, 0])


def test_eval(k3):
    theta = k3.gen()
    rot = IET.rotation(k3, 1, theta)
    assert rot(k3.zero()) == theta
    assert IET.identity(k3, 1)(Fraction(1, 3)) == k3.from_rational(Fraction(1, 3))
    with pytest.raises(DomainError):
        rot(k3.from_rational(2))
    with pytest.raises(DomainError):
        rot(k3.from_rational(-1))


def test_rational_rotation_group(k3):
    third = IET.rotation(k3, 1, Fraction(1, 3))
    two_thirds = IET.rotation(k3, 1, Fraction(2, 3))
    assert third.compose(third) == two_thirds
    assert third.compose(third).compose(third) == IET.identity(k3, 1)


def test_compose_inverse_random(k3):
    rng = random.Random(41)
    ident = IET.identity(k3, 1)
    for _ in range(20):
        f = random_iet(k3, rng, total=k3.one())
        assert f.compose(f.inverse()) == ident
        assert f.inverse().compose(f) == ident


def test_compose_pointwise_random(k3):
    rng = random.Random(43)
    for _ in range(10):
        f = random_iet(k3, rng, total=k3.one())
        g = random_iet(k3, rng, total=k3.one())
        h = f.compose(g)
        for _ in range(20):
            x = k3.from_rational(Fraction(rng.randint(0, 999), 1000))
            assert h(x) == f(g(x))


def test_compose_requires_same_total(k3):
    f = IET.identity(k3, 1)
    g = IET.identity(k3, 2)
    with pytest.raises(DomainError):
        f.compose(g)


def test_rotate(k3):
    ident = IET.identity(k3, 1, circle=True)
    assert ident.rotate(Fraction(1, 2)) == IET.rotation(k3, 1, Fraction(1, 2))
    theta = k3.gen()
    rot = IET.rotation(k3, 1, theta)
    assert rot.rotate(k3.zero()) == rot
    with pytest.raises(DomainError):
        IET.identity(k3, 1, circle=False).rotate(Fraction(1, 2))


def test_rotate_adds_c_mod_L_pointwise(k3):
    """f.rotate(c)(x) == f(x) + c mod L at every breakpoint and piece
    midpoint of f and of the result, for random c, c = 0, and c with L - c
    at a breakpoint of f or at an image endpoint of f."""
    rng = random.Random(47)
    for _ in range(10):
        f = random_iet(k3, rng, total=random_positive(k3, rng), circle=True)
        total = f.total
        inner = rng.choice(f.breaks()[1:-1])
        image_start = rng.choice([u + t for u, _, t in f.pieces() if (u + t).sign()])
        cs = [k3.zero(), total * Fraction(rng.randint(1, 9), 10),
              total - inner, total - image_start]
        for c in cs:
            rotated = f.rotate(c)
            # its perm is the order of its image starts, and those images tile [0, L)
            assert IET.from_pieces(k3, total, rotated.pieces(), True).perm == rotated.perm
            points = []
            for g in (f, rotated):
                points += [u for u, _, _ in g.pieces()]
                points += [(u + v) * Fraction(1, 2) for u, v, _ in g.pieces()]
            for x in points:
                y = f(x) + c
                if not y < total:
                    y = y - total
                assert rotated(x) == y


def test_scale(k3):
    theta = k3.gen()
    rot = IET.rotation(k3, 1, theta)
    assert rot.scale(1) == rot
    doubled = IET.rotation(k3, 2, theta + theta)
    assert rot.scale(2) == doubled
    with pytest.raises(DomainError):
        rot.scale(k3.zero())


def test_first_return_trivial_and_rotation(k3):
    theta = k3.gen()
    rot = IET.rotation(k3, 1, theta)
    assert rot.first_return(k3.one()) == rot
    half = IET.rotation(k3, 1, Fraction(1, 2))
    ret, times = half._first_return_with_times(Fraction(1, 2))
    assert ret == IET.identity(k3, Fraction(1, 2))
    assert times == [2]


def test_first_return_kac_accounting(k3):
    # sum of (piece length x return time) equals the total length for
    # minimal examples (rotation by an irrational)
    theta = k3.gen()
    rot = IET.rotation(k3, 1, theta)
    ret, times = rot._first_return_with_times(theta)
    acc = k3.zero()
    for (u, v, _), n in zip(ret.pieces(), times):
        acc = acc + (v - u) * n
    assert acc == k3.one()


def test_first_return_cap(k3, monkeypatch):
    from ietsaf import IterationCapError
    monkeypatch.setattr(ietsaf.iet, "FIRST_RETURN_CAP", 1)
    theta = k3.gen()
    rot = IET.rotation(k3, 1, theta)
    with pytest.raises(IterationCapError):
        rot.first_return(theta)


def test_pair_involution_examples(k3):
    """Pair involutions are built by the constructor: two swapped blocks
    are a half-turn, one fixed block is the identity."""
    a = k3.gen()
    swap = IET(k3, a + a, [a, a], [1, 0], circle=True)
    assert swap == IET.rotation(k3, a + a, a)
    assert swap.compose(swap) == IET.identity(k3, a + a)
    fixed = IET(k3, a, [a], [0], circle=True)
    assert fixed == IET.identity(k3, a)


def test_pair_involution_errors(k3):
    a = k3.gen()
    with pytest.raises(InputError, match="at least one interval"):
        IET(k3, 0, [], [], circle=True)
    with pytest.raises(InputError, match="nonpositive interval length"):
        IET(k3, -a - a, [-a, -a], [1, 0], circle=True)


def test_pair_involution_sums_the_lengths_once(monkeypatch):
    """The boundary involution at genus 8 (16 blocks) goes through the
    constructor once, which makes one addition per block for the
    breakpoints and one per block for the image offsets."""
    adds = count_calls(monkeypatch, ietsaf.field.AlgNum, "__add__")
    inits = count_calls(monkeypatch, IET, "__init__")
    invol = ay_boundary_involution(8)
    assert (len(adds), len(inits)) == (32, 1)
    monkeypatch.undo()
    assert invol.total == 2
    assert invol.compose(invol) == IET.identity(invol.field, 2)


def test_rotation_runs_no_validating_constructor(k3, monkeypatch):
    """`IET.rotation` checks 0 < c < L itself and builds on the trusted
    path; the lift's half-turn is one of these."""
    inits = count_calls(monkeypatch, IET, "__init__")
    theta = k3.gen()
    for c in (Fraction(1, 3), theta, 1 - theta):
        rot = IET.rotation(k3, 1, c)
        assert rot.pieces() == [(k3.zero(), 1 - c, c), (1 - c, k3.one(), c - 1)]
        assert rot.perm == (1, 0) and rot.circle is True
    assert IET.identity(k3, 1).pieces() == [(k3.zero(), k3.one(), k3.zero())]
    assert inits == []
    monkeypatch.undo()
    assert IET.rotation(k3, 1, theta) == IET(k3, 1, [1 - theta, theta], [1, 0])
    with pytest.raises(InputError, match="nonpositive interval length"):
        IET.identity(k3, 0)
    with pytest.raises(DomainError, match="outside"):
        IET.rotation(k3, 1, 1)


def test_pair_involutions_random(k3):
    rng = random.Random(53)
    for _ in range(20):
        invol = random_pair_involution(k3, rng)
        assert invol.compose(invol) == IET.identity(k3, invol.total)
        assert invol.saf().is_zero()


def test_saf_identity_and_rotation(k3):
    assert IET.identity(k3, 1).saf().is_zero()
    theta = k3.gen()
    wedge = IET.rotation(k3, 1, theta).saf()
    assert wedge.rows[0][1] == 2
    assert wedge.rows[1][0] == -2
    flat = [c for i, row in enumerate(wedge.rows)
            for j, c in enumerate(row) if (i, j) not in ((0, 1), (1, 0))]
    assert all(c == 0 for c in flat)
    assert IET.rotation(k3, 1, Fraction(2, 7)).saf().is_zero()


def test_wedge_algebra(k3):
    theta = k3.gen()
    w = IET.rotation(k3, 1, theta).saf()
    assert (w + (-w)).is_zero()
    assert w + WedgeClass.zero(k3) == w
    with pytest.raises(InputError):
        WedgeClass(k3, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])


def test_saf_homomorphism_random(k3):
    rng = random.Random(59)
    for _ in range(25):
        f = random_iet(k3, rng, total=k3.one())
        g = random_iet(k3, rng, total=k3.one())
        assert f.compose(g).saf() == f.saf() + g.saf()
        assert f.inverse().saf() == -f.saf()


def test_canonical_merges_spurious_splits(k3):
    ident = IET.identity(k3, 1)
    split = IET(k3, 1, [k3.from_rational(Fraction(1, 3)),
                        k3.from_rational(Fraction(2, 3))], [0, 1])
    assert split.canonical().n == 1
    assert split == ident


def assert_trusted_result_is_valid(r):
    """r, built on the trusted path, equals its rebuilds through the
    validating constructors, piece for piece."""
    again = IET.from_pieces(r.field, r.total, r.pieces(), r.circle)
    fresh = IET(r.field, r.total, r.lengths, r.perm, r.circle)
    for other in (again, fresh):
        assert (other.total, other.lengths, other.perm, other.circle) == \
            (r.total, r.lengths, r.perm, r.circle)
        assert other.pieces() == r.pieces()


def test_internal_results_rebuild_through_from_pieces(k3):
    rng = random.Random(47)
    lift = ay_lift(4)
    alpha = lift.field.gen()
    split = lift.compose(lift.inverse())
    assert split.n > 1 and split.canonical().n == 1     # canonical merges
    results = [lift.first_return(alpha), lift.compose(lift), lift.inverse(),
               lift.scale(alpha), split, split.canonical()]
    for _ in range(12):
        f = random_iet(k3, rng, circle=True, total=k3.one())
        g = random_iet(k3, rng, circle=True, total=k3.one())
        c = random_positive(k3, rng)
        c = c - math.floor(float(c))
        h = f.compose(g)
        results += [h, g.compose(f), f.inverse(), f.rotate(c), f.scale(c + 1),
                    f.first_return(k3.from_rational(Fraction(1, 2))),
                    h.compose(g.inverse()).canonical(), f.rotate(c).rotate(1 - c)]
    for r in results:
        assert_trusted_result_is_valid(r)


def test_from_pieces_validates_the_tiling(k3):
    a = k3.gen()
    half = Fraction(1, 2)
    with pytest.raises(InputError, match="nonpositive"):
        IET.from_pieces(k3, 1, [(0, a, 0), (a, a, 0), (a, 1, 0)])
    with pytest.raises(InputError, match="tile the domain"):
        IET.from_pieces(k3, 1, [(0, half, 0), (a, 1, 0)])
    with pytest.raises(InputError, match="image"):
        IET.from_pieces(k3, 1, [(0, half, 0), (half, 1, a)])
    with pytest.raises(InputError, match="total"):
        IET.from_pieces(k3, 1, [(0, half, 0), (half, a, 0)])
    swap = IET.from_pieces(k3, 1, [(a, 1, -a), (0, a, 1 - a)])
    assert swap.perm == (1, 0) and swap == IET.rotation(k3, 1, 1 - a)


def test_from_pieces_rejects_pieces_that_do_not_start_at_0(k3):
    quarter = Fraction(1, 4)
    with pytest.raises(InputError, match="pieces do not start at 0"):
        IET.from_pieces(k3, 1, [(quarter, 1, -quarter)])
    with pytest.raises(InputError, match="pieces do not start at 0"):
        IET.from_pieces(k3, 1, [(quarter, Fraction(1, 2), 0), (Fraction(1, 2), 1, 0)])


def test_from_pieces_rejects_overlapping_images(k3):
    """[0, 1/2) stays and [1/2, 1) moves onto [1/4, 3/4): the domain is
    tiled and the lengths sum to 1, but the images overlap."""
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    with pytest.raises(InputError, match="image intervals do not tile"):
        IET.from_pieces(k3, 1, [(0, half, 0), (half, 1, -quarter)])


def test_equality_ignores_circle_flag(k3):
    a = IET.identity(k3, 1, circle=True)
    b = IET.identity(k3, 1, circle=False)
    assert a == b


def test_eval_matches_float_simulation(k3):
    rng = random.Random(61)
    for _ in range(5):
        f = random_iet(k3, rng, total=k3.one(), circle=False)
        pieces = float_pieces(f)
        breaks = [b for b, _, _ in pieces] + [1.0]
        for _ in range(50):
            x = Fraction(rng.randint(0, 2 ** 20 - 1), 2 ** 20)
            if min(abs(float(x) - b) for b in breaks) < 1e-7:
                continue
            exact = f(k3.from_rational(x))
            approx = simulate(pieces, float(x))
            assert abs(float(exact) - approx) < 1e-9 * max(1.0, abs(approx))


def test_cyclic_discontinuities_of_rotation(k3):
    rot = IET.rotation(k3, 1, Fraction(1, 3))
    assert cyclic_discontinuities(rot) == []
    theta = k3.gen()
    assert cyclic_discontinuities(IET.rotation(k3, 1, theta)) == []


def test_rotation_conjugacy_finds_offset(k3):
    rng = random.Random(67)
    for _ in range(10):
        f = random_iet(k3, rng, total=k3.one(), circle=True)
        c = k3.from_rational(Fraction(rng.randint(1, 9), 10))
        rot = IET.rotation(k3, 1, c)
        conj = rot.compose(f).compose(rot.inverse())
        found = rotation_conjugacy(conj, f)
        assert found is not None
        back = IET.rotation(k3, 1, found)
        assert back.compose(f).compose(back.inverse()) == conj


def test_rotation_conjugacy_none_for_different_maps(k3):
    theta = k3.gen()
    f = IET.rotation(k3, 1, theta)
    g = IET.rotation(k3, 1, Fraction(1, 3))
    assert rotation_conjugacy(f, g) is None
    assert rotation_conjugacy_by_compose(f, g) is None
    assert rotation_conjugacy(f, IET.rotation(k3, 1, theta)) == k3.zero()


def test_rotation_conjugacy_negatives_agree_with_oracle(k3):
    # the perturbed Arnoux-Yoccoz lift is not self-similar
    lift = ay_lift(3, involution=ay_perturbed_involution(3))
    alpha = lift.field.gen()
    returned, scaled = lift.first_return(alpha), lift.scale(alpha)
    assert rotation_conjugacy(returned, scaled) is None
    assert rotation_conjugacy_by_compose(returned, scaled) is None
    eighth, quarter = Fraction(1, 8), Fraction(1, 4)
    three = IET(k3, 1, [quarter, quarter, 2 * quarter], [2, 1, 0], circle=True)
    four = IET(k3, 1, [eighth, quarter, eighth, 4 * eighth], [3, 2, 1, 0],
               circle=True)
    rot = IET.rotation(k3, 1, k3.gen())
    assert [len(cyclic_discontinuities(f)) for f in (three, four, rot)] == [3, 4, 0]
    # arc translations 0, 1/2, 0, 1/2 in both, arc lengths differ
    uneven = IET(k3, 1, [3 * eighth, eighth, 3 * eighth, eighth], [2, 1, 0, 3],
                 circle=True)
    even = IET(k3, 1, [quarter] * 4, [2, 1, 0, 3], circle=True)
    # the discontinuities of `three`, every translation moved by 1/5
    moved = three.rotate(Fraction(1, 5))
    assert cyclic_discontinuities(moved) == cyclic_discontinuities(three)
    for f, g in ((three, four), (four, three), (three, rot), (rot, three),
                 (uneven, even), (even, uneven), (moved, three)):
        assert rotation_conjugacy(f, g) is None
        assert rotation_conjugacy_by_compose(f, g) is None


def test_rotation_conjugacy_returns_the_first_offset(k3):
    eighth = Fraction(1, 8)
    uneven = IET(k3, 1, [3 * eighth, eighth, 3 * eighth, eighth], [2, 1, 0, 3],
                 circle=True)
    # `uneven` commutes with the rotation by 1/2, so two offsets conjugate
    half = IET.rotation(k3, 1, Fraction(1, 2))
    assert half.compose(uneven).compose(half.inverse()) == uneven
    assert rotation_conjugacy(uneven, uneven) == k3.zero()
    rot = IET.rotation(k3, 1, eighth)
    conj = rot.compose(uneven).compose(rot.inverse())
    assert rotation_conjugacy(conj, uneven) == rotation_conjugacy_by_compose(conj, uneven)


def test_chart_seam_spurious_and_genuine(k3):
    q = lambda *x: k3.from_rational(Fraction(*x))
    # translations 1/2 and -1/2 on either side of the seam: 0 is spurious
    spurious = IET.from_pieces(k3, 1, [
        (q(0), q(1, 4), q(1, 2)),
        (q(1, 4), q(1, 2), q(-1, 4)),
        (q(1, 2), q(3, 4), q(1, 4)),
        (q(3, 4), q(1), q(-1, 2)),
    ], circle=True)
    # `spurious` conjugated by the rotation by 1/4: 0 is genuine
    genuine = IET.from_pieces(k3, 1, [
        (q(0), q(1, 2), q(1, 2)),
        (q(1, 2), q(3, 4), q(-1, 4)),
        (q(3, 4), q(1), q(-3, 4)),
    ], circle=True)
    ts = spurious.translations()
    assert ts[0] - ts[-1] == spurious.total
    assert cyclic_discontinuities(spurious) == [q(1, 4), q(1, 2), q(3, 4)]
    assert cyclic_discontinuities(genuine) == [q(0), q(1, 2), q(3, 4)]
    maps = (spurious, genuine)
    for f in maps:
        assert cyclic_discontinuities(f) == cyclic_discontinuities_by_canonical(f)
        for g in maps:
            assert rotation_conjugacy(f, g) == rotation_conjugacy_by_compose(f, g)
    assert rotation_conjugacy(genuine, spurious) == q(1, 4)
    assert rotation_conjugacy(spurious, genuine) == q(3, 4)
    rot = IET.rotation(k3, 1, q(1, 4))
    assert rot.compose(spurious).compose(rot.inverse()) == genuine
    # fd[j] - gd[0] = 1/8 - 1/4 is negative and is reduced mod 1
    rot = IET.rotation(k3, 1, q(7, 8))
    conj = rot.compose(spurious).compose(rot.inverse())
    assert rotation_conjugacy(conj, spurious) == q(7, 8)
    assert rotation_conjugacy_by_compose(conj, spurious) == q(7, 8)


# -- maps read from two files: equal fields, distinct field objects ----------------


def _with_root_interval(text, interval):
    data = json.loads(text)
    data["root_interval"] = interval
    return json.dumps(data)


def _lift_on_two_fields():
    """The genus-4 lift loaded from two texts whose root intervals differ but
    isolate the same root."""
    text = dumps_iet(ay_lift(4))
    f, g = loads_iet(text), loads_iet(_with_root_interval(text, "1/2,3/5"))
    assert f.field is not g.field and f.field == g.field
    assert f.field.interval != g.field.interval
    return f, g


def test_compose_over_equal_fields_matches_one_field():
    f, g = _lift_on_two_fields()
    across = f.compose(g.inverse())
    within = f.compose(f.inverse())
    assert across.field is f.field
    assert across == IET.identity(f.field, 1)
    assert dumps_iet(across) == dumps_iet(within)
    across = f.compose(g)
    assert across.field is f.field
    assert dumps_iet(across) == dumps_iet(f.compose(f))


def test_conjugacy_and_equality_over_equal_fields():
    f, g = _lift_on_two_fields()
    assert f == g and g == f
    assert f != g.rotate(Fraction(1, 4))
    returned = f.first_return(f.field.gen())
    across = rotation_conjugacy(returned, g.scale(g.field.gen()))
    within = rotation_conjugacy(returned, f.scale(f.field.gen()))
    assert across.field is f.field
    assert across.coords == within.coords == (-Fraction(1, 2), Fraction(3, 2), 0, 0)


def test_same_modulus_other_root_is_a_field_mismatch():
    def exchange(interval):
        # rational lengths: a valid map over either root of x^2 - 2
        return loads_iet(json.dumps({
            "modulus": "-2,0,1", "root_interval": interval, "total": "1,0",
            "lengths": ["1/3,0", "2/3,0"], "perm": [2, 1], "circle": True,
        }))

    f, g = exchange("0,2"), exchange("-2,0")
    with pytest.raises(FieldMismatchError):
        f.compose(g)
    assert f != g
    assert rotation_conjugacy(f, g) is None
    assert f == exchange("1,2") and rotation_conjugacy(f, exchange("1,2")) == 0


def test_two_loaded_files_decide_field_equality_once(monkeypatch):
    f, g = _lift_on_two_fields()
    calls = {"count_real_roots": 0, "sturm_chain": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (ietsaf.field, ietsaf.polys):
        for name in calls:
            monkeypatch.setattr(module, name,
                                counted(name, getattr(ietsaf.polys, name)),
                                raising=False)
    for operation in (f.compose, f.__eq__, partial(rotation_conjugacy, f)):
        calls.update(count_real_roots=0, sturm_chain=0)
        operation(g)
        assert calls["count_real_roots"] <= 1
        assert calls["sturm_chain"] == 0


try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st
except ImportError:  # hypothesis is an optional test dependency
    given = None


if given is None:

    def test_rotation_conjugacy_properties():
        pytest.skip("hypothesis is not installed")

else:

    K3 = NumberField(AY3, 0, 1)

    @st.composite
    def offsets(draw, f):
        """An offset in [0, 1): rational, irrational (frac of k*alpha), or
        one that moves a breakpoint of f onto the seam."""
        kind = draw(st.sampled_from(["rational", "irrational", "breakpoint"]))
        if kind == "rational":
            return K3.from_rational(draw(st.fractions(0, 1, max_denominator=24)
                                         .filter(lambda x: x < 1)))
        if kind == "irrational":
            x = K3.gen() * draw(st.integers(1, 9))
            return x - math.floor(float(x))
        b = f.breaks()[draw(st.integers(1, f.n - 1))]
        return K3.one() - b

    @st.composite
    def circle_iets(draw):
        """A circle IET on [0, 1) with 2..5 pieces, lengths in Q(alpha)."""
        n = draw(st.integers(2, 5))
        weights = [K3.gen() * draw(st.integers(-1, 1)) + draw(st.integers(1, 6))
                   for _ in range(n)]
        total = sum(weights, K3.zero())
        perm = draw(st.permutations(range(n)))
        return IET(K3, 1, [w / total for w in weights], perm, circle=True)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(circle_iets(), circle_iets(), st.data())
    def test_rotation_conjugacy_matches_compose_oracle(f, other, data):
        c = data.draw(offsets(f))
        rot = IET.rotation(K3, 1, c)
        conj = rot.compose(f).compose(rot.inverse())
        assert cyclic_discontinuities(conj) == cyclic_discontinuities_by_canonical(conj)
        found = rotation_conjugacy(conj, f)
        assert found is not None
        assert found == rotation_conjugacy_by_compose(conj, f)
        assert rotation_conjugacy(other, f) == rotation_conjugacy_by_compose(other, f)
