import random
from fractions import Fraction
from itertools import product

import pytest

from commclass.catalog import catalog_group, cyclic
from commclass.errors import BudgetExceededError, ValidationError
from commclass.intlinalg import IntMatrix, Lattice
from commclass.torus import (
    TorusExtension,
    catalog_extension,
    catalog_extensions,
    commutator_lattices,
    extension_names,
    pi1_split,
    psi_star,
    single_commutator_cover,
    torus_pi1_lattice,
)
from test_intlinalg import determinant

rng = random.Random(0x70f)

F12 = [Fraction(k, 12) for k in range(12)]


def random_point(rank):
    return tuple(rng.choice(F12) for _ in range(rank))


def test_catalog_extension_names():
    names = extension_names()
    assert names == (
        "o2",
        "su2_normalizer",
        "o2_half",
        "trivial_z3",
        "swap2",
        "reflect2",
        "rot4",
        "rot3",
        "rot6",
        "perm_s3",
        "antipodal3",
        "d8_square",
        "q8_sign",
    )
    with pytest.raises(ValidationError):
        catalog_extension("nope")


def test_element_algebra_laws():
    for name in ("o2", "su2_normalizer", "d8_square"):
        E = catalog_extension(name)
        pool = E.elements_of_denominator(4)
        e = E.identity()
        for x in pool:
            assert E.mul(x, E.inv(x)) == e
            assert E.mul(e, x) == x and E.mul(x, e) == x
            assert E.inv(E.inv(x)) == x
        for _ in range(60):
            x, y, z = (rng.choice(pool) for _ in range(3))
            assert E.mul(E.mul(x, y), z) == E.mul(x, E.mul(y, z))
            assert E.inv(E.mul(x, y)) == E.mul(E.inv(y), E.inv(x))
        assert e.is_identity()
        assert sum(x.is_identity() for x in pool) == 1


# A Fraction reference for the element arithmetic, from the defining data:
# (t, f)(t', f') = (t + rho(f) t', f f'), then the least (t, f) in the Z-orbit.


def ref_apply(E, f, t):
    return tuple(sum(r * x for r, x in zip(row, t)) for row in E.rho[f].to_rows())


def ref_canonical(E, t, f):
    orbit = []
    for tz, fz in E.z_elements:
        moved = ref_apply(E, f, tz)
        orbit.append((tuple((a + b) % 1 for a, b in zip(t, moved)), E.F.mul(f, fz)))
    return min(orbit)


def ref_mul(E, x, y):
    moved = ref_apply(E, x[1], y[0])
    return ref_canonical(E, tuple(a + b for a, b in zip(x[0], moved)), E.F.mul(x[1], y[1]))


def ref_inv(E, x):
    finv = E.F.inv(x[1])
    return ref_canonical(E, tuple(-a for a in ref_apply(E, finv, x[0])), finv)


def test_element_arithmetic_matches_fraction_reference():
    sampler = random.Random(0x7ea)
    for name, E in catalog_extensions():
        for den in (12, 7):
            for _ in range(30):
                raw = []
                for _ in range(2):
                    t = tuple(Fraction(sampler.randrange(den), den) for _ in range(E.rank))
                    raw.append((t, sampler.randrange(E.F.order)))
                x, y = (E.element(t, f) for t, f in raw)
                rx, ry = (ref_canonical(E, t, f) for t, f in raw)
                for el, want in (
                    (x, rx),
                    (E.mul(x, y), ref_mul(E, rx, ry)),
                    (E.inv(x), ref_inv(E, rx)),
                    (
                        E.commutator(x, y),
                        ref_mul(E, ref_mul(E, ref_inv(E, rx), ref_inv(E, ry)), ref_mul(E, rx, ry)),
                    ),
                ):
                    assert (el.t, el.f) == want, name
                    assert all(type(c) is Fraction and 0 <= c < 1 for c in el.t)
                    zero = (Fraction(0),) * E.rank
                    assert el.is_identity() == (want == (zero, 0))


def test_equal_inputs_give_equal_elements():
    for name in ("o2", "o2_half", "su2_normalizer", "swap2"):
        E = catalog_extension(name)
        f = E.F.order - 1
        forms = [[Fraction(1, 2)], [Fraction(2, 4)], [Fraction(-1, 2)], [Fraction(3, 2)], ["-1/2"]]
        zeros = [[0], [1], [Fraction(-3)], [Fraction(4, 2)]]
        for group in (forms, zeros):
            els = [E.element(t * E.rank, f) for t in group]
            assert all(el == els[0] and hash(el) == hash(els[0]) for el in els)
            assert len(set(els)) == 1
        ident = E.element([1] * E.rank, 0)
        assert ident == E.identity() and hash(ident) == hash(E.identity())
        assert ident.is_identity()
    # in su2_normalizer (1/2, 2) is the identity coset
    E = catalog_extension("su2_normalizer")
    assert E.element([Fraction(1, 2)], 2).is_identity()
    assert not E.element([Fraction(1, 2)], 0).is_identity()
    # mixed coordinates in rank >= 2, also on a central quotient
    swap_half = TorusExtension(
        2,
        cyclic(2),
        {1: IntMatrix.from_rows([[0, 1], [1, 0]])},
        central_quotient=[((Fraction(1, 2), Fraction(1, 2)), 0)],
    )
    assert not swap_half.is_split
    forms = [
        [Fraction(5, 6), Fraction(1, 4)],
        [Fraction(-7, 6), "5/4"],
        ["-7/6", Fraction(10, 8)],
        [Fraction(-14, 12), "-3/4"],
        [Fraction(17, 6), Fraction(9, 4)],
    ]
    zeros = [[0, 0], [1, -2], ["3", Fraction(4, 2)], ["-6/3", Fraction(0)]]
    for E in (catalog_extension("d8_square"), catalog_extension("rot6"), swap_half):
        for f in range(E.F.order):
            for group in (forms, zeros):
                els = [E.element(t, f) for t in group]
                assert all(el == els[0] and hash(el) == hash(els[0]) for el in els)
                assert all(0 <= x < el.d for el in els for x in el.n)
    # (t, 0) and (t + (1/2, 1/2), 0) are one coset of swap_half
    third = swap_half.element([Fraction(1, 3), Fraction(3, 4)])
    assert swap_half.element(["-7/6", "5/4"]) == third
    assert swap_half.element([Fraction(1, 2), "-1/2"]).is_identity()
    E = catalog_extension("perm_s3")
    assert E.element([Fraction(-7, 6), "5/4", 3], 5) == E.element(
        [Fraction(5, 6), Fraction(1, 4), 0], 5
    )


def test_commutator_matches_composed_products():
    # the one-canonicalisation commutator against three products and two
    # inverses, each canonicalised; the quotients skip most canonicalisations
    seen = set()
    for name, E in catalog_extensions():
        for M in (2, 3):
            pool = E.elements_of_denominator(M)
            if M == 3 and len(pool) > 200:
                continue
            if not E.is_split:
                seen.add(name)
            for x in pool:
                for y in pool:
                    got = E.commutator(x, y)
                    want = E.mul(E.mul(E.inv(x), E.inv(y)), E.mul(x, y))
                    assert (got.n, got.d, got.f) == (want.n, want.d, want.f), (name, x, y)
    assert {"su2_normalizer", "o2_half"} <= seen


def test_element_arithmetic_constructs_no_fraction(monkeypatch):
    from commclass import torus

    cases = []
    for name in ("o2", "su2_normalizer", "o2_half", "perm_s3"):
        E = catalog_extension(name)
        x = E.element(random_point(E.rank), E.F.order - 1)
        y = E.element(random_point(E.rank), 0)
        cases.append((E, x, y))

    def no_fraction(*args):
        raise AssertionError("Fraction constructed in element arithmetic")

    monkeypatch.setattr(torus, "Fraction", no_fraction)
    for E, x, y in cases:
        E.commutator(E.mul(x, y), E.inv(x))
        E.lift_element(1)
        E.elements_of_denominator(3)


def test_element_pools_are_sorted_by_t_then_f():
    for name, E in catalog_extensions():
        for M in (3, 4):
            pool = E.elements_of_denominator(M)
            assert pool == sorted(pool, key=lambda e: (e.t, e.f))
            want = {
                ref_canonical(E, tuple(Fraction(a, M) for a in n), f)
                for n in product(range(M), repeat=E.rank)
                for f in range(E.F.order)
            }
            assert [(e.t, e.f) for e in pool] == sorted(want)


def test_o2_psi_and_lattices():
    E = catalog_extension("o2")
    assert psi_star(E, 0) == IntMatrix.zero(1, 1)
    assert psi_star(E, 1) == IntMatrix.from_rows([[2]])
    total, sub = commutator_lattices(E)
    assert total == Lattice.from_columns(1, [[2]])
    assert sub.is_full
    sub2, comp = pi1_split(E)
    assert sub2.is_full
    assert comp.rank == 0
    assert torus_pi1_lattice(E) == (1, Lattice.full(1))
    assert E.is_split


def test_o2_bracket_fixture():
    E = catalog_extension("o2")
    tau = E.lift_element(1)
    third = E.torus_element([Fraction(1, 3)])
    assert E.commutator(tau, third) == E.torus_element([Fraction(2, 3)])


def test_su2_normalizer_central_quotient():
    E = catalog_extension("su2_normalizer")
    assert not E.is_split
    assert set(E.z_elements) == {((Fraction(0),), 0), ((Fraction(1, 2),), 2)}
    # canonical representatives identify (t, f) with (t + 1/2, f + 2)
    assert E.element([Fraction(3, 4)], 0) == E.element([Fraction(1, 4)], 2)
    assert E.element([Fraction(1, 2)], 2) == E.identity()
    assert torus_pi1_lattice(E) == (1, Lattice.full(1))


def test_central_quotient_elements_are_charged():
    # the action's one entry, then each element found after the identity
    z = [((Fraction(1, 3),), 0)]
    message = "central quotient elements: charging 1 brings the total to 3, which exceeds budget 2"
    with pytest.raises(BudgetExceededError, match=message):
        TorusExtension(1, cyclic(1), {}, central_quotient=z, budget=2)
    assert len(TorusExtension(1, cyclic(1), {}, central_quotient=z, budget=3).z_elements) == 3


def test_o2_half_fractional_pi1():
    E = catalog_extension("o2_half")
    assert not E.is_split
    D, L = torus_pi1_lattice(E)
    assert D == 2
    assert L == Lattice.full(1)  # honest lattice is (1/2) Z
    # the quotient halves the circle: denominator-2 points collapse
    assert len(E.elements_of_denominator(2)) == 2
    assert len(catalog_extension("o2").elements_of_denominator(2)) == 4


def test_elements_of_denominator_counts():
    E = catalog_extension("trivial_z3")
    assert len(E.elements_of_denominator(1)) == 3
    assert len(E.elements_of_denominator(2)) == 12
    with pytest.raises(ValidationError):
        E.elements_of_denominator(0)


def test_bracket_against_torus_is_linear():
    # [x, torus(t)] depends only on the finite part of x and acts by psi_star
    for name, E in catalog_extensions():
        for _ in range(40):
            f = rng.randrange(E.F.order)
            x = E.mul(E.lift_element(f), E.torus_element(random_point(E.rank)))
            t = random_point(E.rank)
            got = E.commutator(x, E.torus_element(t))
            want = E.torus_element(psi_star(E, f).times_vector(t))
            assert got == want


def test_lifted_commutator_identity_sampled():
    for name in ("o2", "su2_normalizer", "rot4", "perm_s3"):
        E = catalog_extension(name)
        F = E.F
        for _ in range(80):
            p, q = rng.randrange(F.order), rng.randrange(F.order)
            s = E.torus_element(random_point(E.rank))
            t = E.torus_element(random_point(E.rank))
            lhs = E.commutator(E.mul(E.lift_element(p), s), E.mul(E.lift_element(q), t))
            conj = F.mul(F.mul(F.inv(q), p), q)
            rhs = E.commutator(E.lift_element(p), E.lift_element(q))
            rhs = E.mul(rhs, E.commutator(E.lift_element(F.commutator(p, q)), s))
            rhs = E.mul(rhs, E.commutator(E.lift_element(conj), t))
            rhs = E.mul(rhs, E.commutator(E.lift_element(q), E.inv(s)))
            assert lhs == rhs


def test_commutator_lattice_shapes():
    # rotation by 90 degrees: I - rho(q) has determinant 2, index-2 sublattice
    E = catalog_extension("rot4")
    total, sub = commutator_lattices(E)
    assert sub.is_full
    assert total.rank == 2
    # trivial action: no commutators at all
    T = catalog_extension("trivial_z3")
    total, sub = commutator_lattices(T)
    assert total.rank == 0
    assert sub.rank == 0
    sub2, comp = pi1_split(T)
    assert comp.is_full


# (commutator-subtorus basis rows, complement basis rows) of every catalog
# extension; a primitive complement is not unique, and these are the ones
# the Hermite reduction picks
PI1_SPLITS = {
    "o2": ([[1]], []),
    "su2_normalizer": ([[1]], []),
    "o2_half": ([[1]], []),
    "trivial_z3": ([], [[1, 0], [0, 1]]),
    "swap2": ([[1, -1]], [[0, 1]]),
    "reflect2": ([[1, 0]], [[0, 1]]),
    "rot4": ([[1, 0], [0, 1]], []),
    "rot3": ([[1, 0], [0, 1]], []),
    "rot6": ([[1, 0], [0, 1]], []),
    "perm_s3": ([[1, 0, -1], [0, 1, -1]], [[0, 0, 1]]),
    "antipodal3": ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], []),
    "d8_square": ([[1, 0], [0, 1]], []),
    "q8_sign": ([[1]], []),
}


def test_pi1_split_pinned_for_every_catalog_extension():
    assert set(PI1_SPLITS) == set(extension_names())
    for name, E in catalog_extensions():
        sub, comp = pi1_split(E)
        assert (sub.basis_rows(), comp.basis_rows()) == PI1_SPLITS[name], name


def test_perm_s3_splitting():
    E = catalog_extension("perm_s3")
    sub, comp = pi1_split(E)
    assert sub.rank == 2
    assert comp.rank == 1
    # together they span the whole ambient lattice
    stacked = IntMatrix.from_rows(sub.basis_rows() + comp.basis_rows())
    assert determinant(stacked) in (1, -1)
    # the diagonal is fixed by every permutation, so it avoids the subtorus
    assert not sub.contains([1, 1, 1])


def test_single_commutator_cover_o2():
    E = catalog_extension("o2")
    report = single_commutator_cover(E, 4)
    assert report.covered
    assert report.denominator == 4
    assert report.search_denominator == 8
    assert len(report.targets) == 4
    assert not report.missing
    for target, x, y in report.witnesses:
        assert E.commutator(x, y) == target
    assert "covered" in repr(report)


def test_single_commutator_cover_can_fail_honestly():
    E = catalog_extension("su2_normalizer")
    report = single_commutator_cover(E, 2, search_denominator=1)
    assert not report.covered
    assert report.missing
    assert len(report.witnesses) + len(report.missing) == len(report.targets)


def brute_force_cover(E, N, M):
    """The cover by definition: targets from Fractions through torus_element,
    then a row-major scan of E.commutator over the pool that keeps the
    first (x, y) per target."""
    basis = commutator_lattices(E)[1].basis_rows()
    targets = set()
    for c in product(range(N), repeat=len(basis)):
        vec = [sum(Fraction(ci, N) * row[j] for ci, row in zip(c, basis)) for j in range(E.rank)]
        targets.add(E.torus_element(vec))
    targets = sorted(targets, key=lambda e: (e.t, e.f))
    pool = E.elements_of_denominator(M)
    witnesses = {}
    for x in pool:
        for y in pool:
            c = E.commutator(x, y)
            if c in targets and c not in witnesses:
                witnesses[c] = (x, y)
        if len(witnesses) == len(targets):
            break
    missing = [t for t in targets if t not in witnesses]
    return targets, [(t, *witnesses[t]) for t in targets if t in witnesses], missing


def test_single_commutator_cover_matches_brute_force():
    runs = set()
    for name, E in catalog_extensions():
        # the default search denominator N |F|; search denominator 3, where
        # L = lcm(3, zd) is even only for a central quotient; and the
        # honest failure at 1
        for N, M in ((1, None), (2, None), (2, 3), (2, 1)):
            report = single_commutator_cover(E, N, search_denominator=M)
            want = brute_force_cover(E, N, report.search_denominator)
            got = (report.targets, report.witnesses, report.missing)
            assert got == want, (name, N, M)
            assert report.covered == (not report.missing)
            assert report.search_denominator == (N * E.F.order if M is None else M)
            runs.add((N, M, report.covered))
    # the oracle saw covered and uncovered reports
    assert {(2, 3, False), (2, 3, True), (2, 1, False), (2, None, True)} <= runs


def test_single_commutator_cover_charges_the_rows_it_scans():
    # perm_s3 at denominator 2 finds its last witness in row 4 of a pool of
    # 10,368: its 4 targets, the pool and 4 rows of pairs are charged, not
    # the 107,495,424 pairs of the square
    E = catalog_extension("perm_s3")
    message = "commutator pairs: charging 10368 brings the total to 51844, which exceeds budget 51843"
    with pytest.raises(BudgetExceededError, match=message):
        single_commutator_cover(E, 2, budget=51843)
    assert single_commutator_cover(E, 2, budget=51844).covered


def test_single_commutator_cover_builds_no_element_per_pair(monkeypatch):
    calls = {"commutator": 0, "canonical": 0}

    def counting(method, key):
        def wrapped(*args):
            calls[key] += 1
            return method(*args)

        return wrapped

    monkeypatch.setattr(TorusExtension, "commutator", counting(TorusExtension.commutator, "commutator"))
    monkeypatch.setattr(TorusExtension, "_canonical", counting(TorusExtension._canonical, "canonical"))
    for name, N in (("d8_square", 2), ("su2_normalizer", 12), ("rot4", 3)):
        E = catalog_extension(name)
        calls.update(commutator=0, canonical=0)
        report = single_commutator_cover(E, N)
        made = dict(calls)
        M = report.search_denominator
        pairs = len(E.elements_of_denominator(M)) ** 2
        # a central quotient's pool canonicalises each of its M^rank |F|
        # lifts once, and the targets each of their N^rank points once
        assert made["commutator"] == 0, name
        assert made["canonical"] <= (not E.is_split) * M**E.rank * E.F.order + N**E.rank, name
        assert made["canonical"] < pairs // 8, name


def test_denominators_must_be_positive_integers():
    E = catalog_extension("su2_normalizer")
    for N, M in ((2.0, None), (True, None), ("2", None), (0, None), (2, 2.9), (2, True), (2, 0)):
        with pytest.raises(ValidationError):
            single_commutator_cover(E, N, search_denominator=M)
    for M in (2.0, True, Fraction(2), 0, -1):
        with pytest.raises(ValidationError):
            E.elements_of_denominator(M)


def test_psi_star_is_one_minus_rho_of_the_inverse():
    for name, E in catalog_extensions():
        ident = IntMatrix.identity(E.rank)
        for q in range(E.F.order):
            inverse = E.rho[E.F.inv(q)]
            assert E.rho[q] @ inverse == ident
            want = IntMatrix.from_rows(
                [[a - b for a, b in zip(*rows)] for rows in zip(ident.to_rows(), inverse.to_rows())]
            )
            assert psi_star(E, q) == want, (name, q)
            # rho(q) (I - rho(q^-1)) = rho(q) - I
            assert E.rho[q] @ psi_star(E, q) == IntMatrix.from_rows(
                [[a - b for a, b in zip(*rows)] for rows in zip(E.rho[q].to_rows(), ident.to_rows())]
            )
        with pytest.raises(ValidationError):
            psi_star(E, E.F.order)


def test_catalog_actions_are_homomorphisms_into_gl_z():
    # the constructor checks rho(x g) = rho(x) rho(g) only on generators g
    for name, E in catalog_extensions():
        F = E.F
        for f in range(F.order):
            assert abs(determinant(E.rho[f])) == 1, name
            for g in range(F.order):
                assert E.rho[f] @ E.rho[g] == E.rho[F.mul(f, g)], name


def test_rho_from_generators_errors():
    # generator images that do not extend to a homomorphism F -> GL_k(Z)
    with pytest.raises(ValidationError, match="inconsistent at 0"):
        # [[0,-1],[1,0]] has order 4, inconsistent over Z2
        TorusExtension(2, cyclic(2), {1: IntMatrix.from_rows([[0, -1], [1, 0]])})
    with pytest.raises(ValidationError, match="do not generate"):
        # the image of 2 alone does not generate Z4
        TorusExtension(1, cyclic(4), {2: IntMatrix.identity(1)})


def test_constructor_validation():
    ident = IntMatrix.identity(1)
    neg = IntMatrix.from_rows([[-1]])
    for rank, F, action, message in [
        # [[2]] is not invertible over Z, so rho(1)^2 != rho(0) = I
        (1, cyclic(2), {1: IntMatrix.from_rows([[2]])}, "inconsistent at 0"),
        # not a homomorphism: rho(1)^2 != rho(2)
        (1, cyclic(3), {1: neg, 2: neg}, "inconsistent at 2"),
        # the identity must act as the identity
        (1, cyclic(2), {0: neg, 1: neg}, "action at the identity"),
        # element index out of range
        (1, cyclic(2), {2: neg}, "out of range"),
        # images must be rank x rank
        (1, cyclic(2), {1: IntMatrix.identity(2)}, "rank x rank"),
    ]:
        with pytest.raises(ValidationError, match=message):
            TorusExtension(rank, F, action)
    for t, f in (((0.1,), 0), ((Fraction(1, 2),), True), ((Fraction(1, 2),), 0.0)):
        with pytest.raises(ValidationError):
            # floats and bools never reach the closure of the central quotient
            TorusExtension(1, cyclic(2), {1: ident}, central_quotient=[(t, f)])
    with pytest.raises(ValidationError):
        # central torus part not fixed by the action
        TorusExtension(1, cyclic(2), {1: neg}, central_quotient=[((Fraction(1, 4),), 0)])
    with pytest.raises(ValidationError):
        # finite part of a central generator must act trivially
        TorusExtension(1, cyclic(4), {1: neg}, central_quotient=[((Fraction(0),), 1)])
    with pytest.raises(ValidationError):
        # finite part of a central generator must be central in F
        D8 = catalog_group("D8")
        TorusExtension(
            1,
            D8,
            {D8.names.index("r"): ident, D8.names.index("s"): ident},
            central_quotient=[((Fraction(0),), D8.names.index("r"))],
        )


def test_parent_separation():
    A = catalog_extension("o2")
    B = TorusExtension(1, cyclic(2), {1: IntMatrix.from_rows([[-1]])})
    a, b = A.lift_element(1), B.lift_element(1)
    for call in (
        lambda: A.mul(a, b),
        lambda: A.mul(b, a),
        lambda: A.inv(b),
        lambda: A.commutator(a, b),
        lambda: A.commutator(b, a),
    ):
        with pytest.raises(ValidationError, match="element belongs to a different extension"):
            call()
