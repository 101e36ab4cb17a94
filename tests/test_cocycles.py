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
from commclass.errors import ValidationError
from commclass.intlinalg import Lattice
from commclass.torus import catalog_extension, psi_star

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
