import random
from fractions import Fraction

import pytest

from commclass.cocycles import (
    NOT_IDENTITY_COMPONENT,
    PatchCocycle,
    PLPath,
    build_alpha_cocycle,
    build_qx_cocycle,
    clutch,
)
from commclass.errors import MathInvariantError, ValidationError
from commclass.intlinalg import Lattice
from commclass.torus import catalog_extension, catalog_extensions, psi_star

rng = random.Random(0xc0c)

SAMPLE_TIMES = (0, Fraction(1, 7), Fraction(1, 3), Fraction(1, 2), Fraction(5, 6), 1)


def degree_loop(E, d):
    """Torus loop in the first coordinate winding d times."""
    zero = [0] * (E.rank - 1)
    return PLPath(E, (0, 1), ((0, *zero), (d, *zero)), 0)


def test_plpath_basics():
    E = catalog_extension("o2")
    p = PLPath(E, (0, Fraction(1, 3), 1), ((0,), (Fraction(1, 2),), (0,)), 0)
    assert p.lift_at(Fraction(1, 6)) == (Fraction(1, 4),)
    assert p.lift_at(Fraction(2, 3)) == (Fraction(1, 4),)
    assert p.displacement() == (0,)
    assert p.value_at(0).is_identity()
    c = PLPath.constant(E, E.lift_element(1))
    assert c.f == 1
    assert c.value_at(Fraction(1, 2)) == E.lift_element(1)


def test_plpath_constructor_validation():
    E = catalog_extension("o2")
    with pytest.raises(ValidationError):
        PLPath(E, (0,), ((0,),), 0)  # one breakpoint
    with pytest.raises(ValidationError):
        PLPath(E, (0, Fraction(1, 2)), ((0,), (0,)), 0)  # does not end at 1
    with pytest.raises(ValidationError):
        PLPath(E, (0, 1, 1), ((0,), (0,), (0,)), 0)  # non-strict times
    with pytest.raises(ValidationError):
        PLPath(E, (0, 1), ((0,),), 0)  # lift count mismatch
    with pytest.raises(ValidationError):
        PLPath(E, (0, 1), ((0, 0), (0, 0)), 0)  # wrong rank
    with pytest.raises(ValidationError):
        PLPath(E, (0, 1), ((0,), (0,)), 7)  # finite part out of range
    with pytest.raises(ValidationError):
        p = PLPath(E, (0, 1), ((0,), (0,)), 0)
        p.lift_at(2)


def test_plpath_pointwise_operations():
    E = catalog_extension("su2_normalizer")
    a = PLPath(E, (0, Fraction(2, 5), 1), ((0,), (Fraction(1, 3),), (1,)), 1)
    b = PLPath(E, (0, Fraction(1, 2), 1), ((Fraction(1, 4),), (0,), (Fraction(3, 4),)), 2)
    prod = a.mul(b)
    inv = a.inverse()
    for t in SAMPLE_TIMES:
        assert prod.value_at(t) == E.mul(a.value_at(t), b.value_at(t))
        assert inv.value_at(t) == E.inv(a.value_at(t))
    with pytest.raises(ValidationError):
        a.mul(PLPath(catalog_extension("o2"), (0, 1), ((0,), (0,)), 0))


def test_alpha_fixture_o2():
    E = catalog_extension("o2")
    x = degree_loop(E, 1)
    y = PLPath.constant(E, E.identity())
    c = build_alpha_cocycle(E, 0, 1, x, y)
    assert c.is_valid
    for d in c.validate():
        assert d["ok"], d
    r = clutch(c)
    assert r.marker is None
    assert r.winding == (0,)
    # pointwise inversion flips the relative orientation of the two arcs
    ri = clutch(c.invert())
    assert ri.winding == (2,)


def test_invert_is_an_involution():
    E = catalog_extension("o2")
    c = build_alpha_cocycle(E, 0, 1, degree_loop(E, 1), PLPath.constant(E, E.identity()))
    cc = c.invert().invert()
    for t in SAMPLE_TIMES:
        assert cc.values_at(t) == c.values_at(t)


def test_invert_requires_validity():
    E = catalog_extension("o2")
    a12 = PLPath.constant(E, E.torus_element([Fraction(1, 3)]))
    ident = PLPath.constant(E, E.identity())
    c = PatchCocycle(a12, ident, ident)
    assert not c.is_valid
    with pytest.raises(ValidationError):
        c.invert()


def test_qx_fixture_o2():
    E = catalog_extension("o2")
    r = build_qx_cocycle(E, 1, degree_loop(E, 1))
    assert r.clutching.marker is None
    assert r.clutching.winding == (-2,)
    # trivial finite part gives the zero class
    r0 = build_qx_cocycle(E, 0, degree_loop(E, 1))
    assert r0.clutching.winding == (0,)
    # winding is linear in the loop degree
    r3 = build_qx_cocycle(E, 1, degree_loop(E, 3))
    assert r3.clutching.winding == (-6,)


def test_qx_input_validation():
    E = catalog_extension("o2")
    with pytest.raises(ValidationError):
        build_qx_cocycle(E, 1, PLPath(E, (0, 1), ((0,), (Fraction(1, 3),)), 0))
    with pytest.raises(ValidationError):
        build_qx_cocycle(
            E, 1, PLPath(E, (0, 1), ((Fraction(1, 3),), (Fraction(1, 3),)), 0)
        )
    with pytest.raises(ValidationError):
        build_qx_cocycle(E, 1, PLPath(E, (0, 1), ((0,), (1,)), 1))
    with pytest.raises(ValidationError):
        build_qx_cocycle(catalog_extension("su2_normalizer"), 1, degree_loop(E, 1))


def test_alpha_endpoint_commutation_guard():
    E = catalog_extension("o2")
    x = PLPath.constant(E, E.torus_element([Fraction(1, 3)]))
    y = PLPath.constant(E, E.identity())
    with pytest.raises(ValidationError):
        # the q-lift does not commute with a third-of-a-turn torus point
        build_alpha_cocycle(E, 0, 1, x, y)


def test_marker_with_loop():
    # all three arcs constant, both clutching arcs carry the reflection label
    E = catalog_extension("o2")
    tau = PLPath.constant(E, E.lift_element(1))
    ident = PLPath.constant(E, E.identity())
    c = PatchCocycle(tau, tau, ident)
    assert c.is_valid
    r = clutch(c)
    assert r.marker == NOT_IDENTITY_COMPONENT
    assert r.winding is None
    assert "marker" in repr(r)


def test_marker_without_loop():
    # in the half-turn quotient the labels of the two arcs can disagree even
    # though their values agree, so no common lift of the loop exists
    E = catalog_extension("su2_normalizer")
    a12 = PLPath.constant(E, E.identity()).mul(
        PLPath(E, (0, 1), ((Fraction(1, 2),), (Fraction(1, 2),)), 2)
    )
    ident = PLPath.constant(E, E.identity())
    c = PatchCocycle(a12, ident, ident)
    assert a12.f == 2
    assert c.is_valid
    r = clutch(c)
    assert r.marker == NOT_IDENTITY_COMPONENT
    assert r.winding is None


def test_clutch_rejects_nonclosing_data():
    E = catalog_extension("o2")
    a12 = PLPath.constant(E, E.torus_element([Fraction(1, 3)]))
    ident = PLPath.constant(E, E.identity())
    with pytest.raises(ValidationError, match="cocycle-equation fails at front"):
        clutch(PatchCocycle(a12, ident, ident))


def test_qx_fractional_loop_in_quotient():
    # in the half-turn quotient a half-integer displacement already closes
    E = catalog_extension("o2_half")
    x = PLPath(E, (0, 1), ((0,), (Fraction(1, 2),)), 0)
    assert x.value_at(1) == x.value_at(0)
    r = build_qx_cocycle(E, 1, x)
    assert r.clutching.winding == (-1,)


def test_qx_winding_lands_in_action_lattice():
    for name in ("o2", "su2_normalizer", "swap2", "rot4", "q8_sign"):
        E = catalog_extension(name)
        for _ in range(10):
            q = rng.randrange(E.F.order)
            interior = [
                tuple(Fraction(rng.randrange(12), 12) for _ in range(E.rank))
                for _ in range(2)
            ]
            endpoint = tuple(rng.randrange(-2, 3) for _ in range(E.rank))
            x = PLPath(
                E,
                (0, Fraction(1, 3), Fraction(2, 3), 1),
                ((0,) * E.rank, *interior, endpoint),
                0,
            )
            r = build_qx_cocycle(E, q, x)
            w = r.clutching.winding
            assert w is not None
            image = Lattice.from_columns(E.rank, psi_star(E, q).to_columns())
            assert image.contains(list(w))


class FractionPLPath:
    """Reference: the path stored and interpolated in Fractions, with the
    product rescanning the segments for every merged time."""

    def __init__(self, parent, times, lifts, f=0):
        self.parent = parent
        self.times = tuple(Fraction(t) for t in times)
        self.lifts = tuple(tuple(Fraction(x) for x in lift) for lift in lifts)
        self.f = f

    def lift_at(self, t):
        t = Fraction(t)
        times = self.times
        lo = 0
        for i in range(len(times) - 1):
            if times[i] <= t <= times[i + 1]:
                lo = i
                break
        t0, t1 = times[lo], times[lo + 1]
        a, b = self.lifts[lo], self.lifts[lo + 1]
        lam = (t - t0) / (t1 - t0)
        return tuple(x + lam * (y - x) for x, y in zip(a, b))

    def value_at(self, t):
        return self.parent.element(self.lift_at(t), self.f)

    def displacement(self):
        return tuple(b - a for a, b in zip(self.lifts[0], self.lifts[-1]))

    def mul(self, other):
        E = self.parent
        rho_f = E.rho[self.f]
        times = tuple(sorted(set(self.times) | set(other.times)))
        lifts = []
        for t in times:
            a = self.lift_at(t)
            b = rho_f.times_vector(other.lift_at(t))
            lifts.append(tuple(x + y for x, y in zip(a, b)))
        return FractionPLPath(E, times, lifts, E.F.mul(self.f, other.f))

    def inverse(self):
        E = self.parent
        finv = E.F.inv(self.f)
        rho_inv = E.rho[finv]
        lifts = [tuple(-x for x in rho_inv.times_vector(lift)) for lift in self.lifts]
        return FractionPLPath(E, self.times, lifts, finv)


def random_path_pair(E, denominator):
    """The same random path as a PLPath and as the reference, with interior
    breakpoints drawn from the multiples of 1/denominator."""
    interior = rng.sample(range(1, denominator), rng.randrange(0, min(4, denominator - 1) + 1))
    times = [Fraction(0), *sorted(Fraction(k, denominator) for k in interior), Fraction(1)]
    denominators = (1, 2, 3, 4, 6, 12)
    lifts = [
        tuple(Fraction(rng.randrange(-24, 25), rng.choice(denominators)) for _ in range(E.rank))
        for _ in times
    ]
    f = rng.randrange(E.F.order)
    return PLPath(E, times, lifts, f), FractionPLPath(E, times, lifts, f)


def probe_times(times):
    """The breakpoints and a point strictly inside every segment."""
    inside = [a + (b - a) * Fraction(rng.randrange(1, 8), 8) for a, b in zip(times, times[1:])]
    return sorted(set(times) | set(inside))


def assert_same_path(p, ref):
    assert p.f == ref.f
    assert p.displacement() == ref.displacement()
    for t in probe_times(ref.times):
        assert p.lift_at(t) == ref.lift_at(t), t
        assert p.value_at(t) == ref.value_at(t), t


def test_integer_paths_match_the_fraction_reference():
    seen = set()
    for name, E in catalog_extensions():
        seen.add(name)
        for _ in range(6):
            p, ref = random_path_pair(E, 7)
            assert_same_path(p, ref)
            assert_same_path(p.inverse(), ref.inverse())
            # interior breakpoints over 7 and over 8 are disjoint; over 6
            # and over 4 they may share 1/2
            for d1, d2 in ((7, 8), (6, 4)):
                a, ra = random_path_pair(E, d1)
                b, rb = random_path_pair(E, d2)
                assert_same_path(a.mul(b), ra.mul(rb))
                assert_same_path(b.mul(a).inverse(), rb.mul(ra).inverse())
    assert {"su2_normalizer", "o2_half"} <= seen and len(seen) == 13


def test_lift_at_a_breakpoint_is_the_stored_lift():
    E = catalog_extension("rot3")
    lifts = ((0, 0), (Fraction(5, 3), Fraction(-7, 4)), (2, 1))
    p = PLPath(E, (0, Fraction(2, 9), 1), lifts, 1)
    for t, lift in zip((0, Fraction(2, 9), 1), lifts):
        assert p.lift_at(t) == lift
        assert p.value_at(t) == E.element(lift, 1)
    assert p.lift_at(Fraction(1, 9)) == (Fraction(5, 6), Fraction(-7, 8))


def test_floats_and_bools_are_refused():
    E = catalog_extension("o2")
    for times, lifts, f in (
        ((0, 0.1, 1), ((0,), (0,), (0,)), 0),
        ((0, Fraction(1, 10), 1), ((0,), (0.5,), (0,)), 0),
        ((0, 1), ((0,), (True,)), 0),
        ((0, 1), ((0,), (0,)), True),
        ((0, 1), ((0,), (0,)), 1.0),
    ):
        with pytest.raises(ValidationError):
            PLPath(E, times, lifts, f)
    p = PLPath(E, (0, "1/10", 1), ((0,), ("-3/2",), (1,)), 1)
    assert p.lift_at("1/20") == (Fraction(-3, 4),)
    for t in (0.5, True):
        with pytest.raises(ValidationError):
            p.lift_at(t)
    for t, f in (((0.1,), 0), ((False,), 0), ((0,), 1.0), ((0,), True)):
        with pytest.raises(ValidationError):
            E.element(t, f)
    with pytest.raises(ValidationError):
        E.lift_element(True)


def test_times_outside_the_unit_interval_are_refused():
    E = catalog_extension("o2")
    p = PLPath(E, (0, 1), ((0,), (1,)), 0)
    for t in (Fraction(-1, 3), 1 + Fraction(1, 10**30)):
        with pytest.raises(ValidationError):
            PLPath(E, (0, t, 1), ((0,), (0,), (0,)), 0)
        with pytest.raises(ValidationError):
            p.lift_at(t)
        with pytest.raises(ValidationError):
            p.value_at(t)


def shift_last_lift(monkeypatch):
    """Make PLPath.mul move the product's last lift by half a step of its
    denominator, so the product arc leaves the group element it should end on."""
    mul = PLPath.mul

    def shifted(self, other):
        p = mul(self, other)
        lifts = [tuple(2 * x for x in lift) for lift in p._l]
        lifts[-1] = (lifts[-1][0] + 1, *lifts[-1][1:])
        return PLPath._of(p.parent, p._dt, p._t, 2 * p._dl, tuple(lifts), p.f)

    monkeypatch.setattr(PLPath, "mul", shifted)


def test_clutch_refuses_a_product_arc_that_misses_a13(monkeypatch):
    E = catalog_extension("o2")
    c = build_alpha_cocycle(E, 0, 1, degree_loop(E, 1), PLPath.constant(E, E.identity()))
    shift_last_lift(monkeypatch)
    assert c.is_valid
    with pytest.raises(MathInvariantError, match="misses a13"):
        clutch(c)
