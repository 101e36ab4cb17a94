import json
import re
import time
from functools import partial

import pytest

from commclass import cli
from commclass.catalog import catalog_group, catalog_groups, cyclic, dihedral
from commclass.errors import (
    Budget,
    BudgetExceededError,
    MathInvariantError,
    TruncationError,
    ValidationError,
)
from commclass.groups import commuting_levels, commuting_tuples, continuation_counts, direct_product
from commclass.intlinalg import AbelianGroupInvariants, homology_range
from commclass.simplicial import (
    SimplicialTruncation,
    bar_degeneracy,
    bar_face,
    build_c,
    build_e,
    commutator_map,
    drop_entry,
    face_boundary,
    homology,
    level_sizes,
    morse_complex,
    is_successively_commuting,
    p_map,
    reduced_homology_range,
    successive_quotients,
)

Z = AbelianGroupInvariants


def test_level_counts_s3():
    S3 = catalog_group("S3")
    C = build_c(S3, 3)
    assert [len(C.levels[k]) for k in range(4)] == [1, 6, 18, 48]
    E = build_e(S3, 3)
    assert [len(E.levels[k]) for k in range(4)] == [6, 36, 108, 288]
    # each total-space level fibers over the commuting tuples with fiber G
    for k in range(4):
        assert len(E.levels[k]) == 6 * len(C.levels[k])


def test_nondegenerate_counts_s3():
    S3 = catalog_group("S3")
    C = build_c(S3, 3)
    assert [len(C.nondegenerate(k)) for k in range(4)] == [1, 5, 7, 11]
    E = build_e(S3, 3)
    assert [len(E.nondegenerate(k)) for k in range(4)] == [6, 30, 42, 66]


def test_simplicial_identities_hold():
    # the number of identities checked at depth 3, build_c then build_e
    for name, counts in [("S3", (615, 3690)), ("Z4", (663, 2652)), ("Q8", (1731, 13848))]:
        G = catalog_group(name)
        assert (build_c(G, 3).verify_identities(), build_e(G, 3).verify_identities()) == counts


def test_face_degeneracy_tables_in_range():
    S3 = catalog_group("S3")
    C = build_c(S3, 3)
    for k in (1, 2, 3):
        for x in C.levels[k]:
            for i in range(k + 1):
                assert C.face(k, x, i) in C.levels[k - 1]
    for k in (0, 1, 2):
        for x in C.levels[k]:
            for i in range(k + 1):
                s = C.degeneracy(k, x, i)
                assert s in C.levels[k + 1] and s not in C.nondegenerate(k + 1)


def test_classifying_space_cyclic_homology():
    # for abelian G the commuting-tuple model is the full classifying space,
    # and cyclic groups have 2-periodic homology
    C = build_c(cyclic(2), 4)
    assert homology(C, 1) == Z(0, (2,))
    assert homology(C, 2) == Z(0, ())
    assert homology(C, 3) == Z(0, (2,))
    C3 = build_c(cyclic(3), 3)
    assert homology(C3, 1) == Z(0, (3,))
    assert homology(C3, 2) == Z(0, ())
    C4 = build_c(cyclic(4), 3)
    assert homology(C4, 1) == Z(0, (4,))
    assert homology(C4, 2) == Z(0, ())


def test_classifying_space_klein_homology():
    V = direct_product(cyclic(2), cyclic(2))
    C = build_c(V, 3)
    assert homology(C, 0) == Z(1, ())
    assert homology(C, 1) == Z(0, (2, 2))
    assert homology(C, 2) == Z(0, (2,))


def test_h0_and_reduced_h0():
    S3 = catalog_group("S3")
    C = build_c(S3, 2)
    assert homology(C, 0) == Z(1, ())
    assert reduced_homology_range(C, 0)[0] == Z(0, ())
    E = build_e(S3, 2)
    assert homology(E, 0) == Z(1, ())


def unnormalized_boundary(S, k):
    """The degree-k boundary on every stored simplex, degenerate ones too."""
    row_of = {x: r for r, x in enumerate(S.levels[k - 1])}
    return face_boundary(S.levels[k], k, partial(S.face, k), row_of)


def test_normalized_matches_unnormalized():
    models = [build_c(catalog_group(name), 3) for name in ("Z6", "S3", "D8")]
    models += [build_e(catalog_group(name), 3) for name in ("S3", "D8")]
    for S in models:
        normalized = [S.boundary_matrix(k) for k in (1, 2, 3)]
        full = [unnormalized_boundary(S, k) for k in (1, 2, 3)]
        assert homology_range(normalized) == homology_range(full)


def test_total_space_s3():
    S3 = catalog_group("S3")
    E = build_e(S3, 3)
    assert reduced_homology_range(E, 2) == [Z(0, ()), Z(8, ()), Z(0, ())]


def test_total_space_bigger_groups():
    assert reduced_homology_range(build_e(dihedral(8), 3), 1)[1] == Z(15, ())
    assert reduced_homology_range(build_e(catalog_group("Q8oZ4"), 3), 1)[1] == Z(3, ())


def test_abelian_total_space_contractible_range():
    for name, G in catalog_groups(9):
        if not G.is_abelian:
            continue
        assert reduced_homology_range(build_e(G, 3), 2) == [Z(0, ())] * 3


def test_p_map_and_commutator_map():
    S3 = catalog_group("S3")
    E = build_e(S3, 3)
    C = build_c(S3, 3)
    for k in range(4):
        for tup in E.levels[k]:
            assert p_map(S3, tup) in C.levels[k]
            assert len(commutator_map(S3, tup)) == k
    # a simplex of the total space is determined by its start and projection
    for tup in E.levels[2]:
        q = successive_quotients(S3, tup)
        assert tup == (tup[0], S3.mul(tup[0], q[0]), S3.mul(S3.mul(tup[0], q[0]), q[1]))


def test_p_map_rejects_noncommuting_quotients():
    S3 = catalog_group("S3")
    g0, g1 = next(
        (a, b)
        for a in range(6)
        for b in range(6)
        if not S3.commute(a, b)
    )
    bad = (0, g0, S3.mul(g0, S3.mul(g1, g0)))
    if is_successively_commuting(S3, bad):
        bad = (0, g0, S3.mul(g0, g1))
    assert not is_successively_commuting(S3, bad)
    with pytest.raises(ValidationError):
        p_map(S3, bad)
    with pytest.raises(ValidationError):
        commutator_map(S3, bad)


def test_truncation_guard():
    C = build_c(cyclic(2), 2)
    with pytest.raises(TruncationError):
        homology(C, 2)
    with pytest.raises(TruncationError):
        C.boundary_matrix(3)
    with pytest.raises(ValidationError):
        homology(C, -1)


def test_maps_refuse_degrees_outside_the_truncation():
    C = build_c(cyclic(2), 2)
    assert C.degeneracy(1, (1,), 0) == (0, 1)
    # no level 3 to land in, no level 3 to start from, no level -1 to land in
    with pytest.raises(TruncationError, match="no degeneracy at degree 2"):
        C.degeneracy(2, (0, 0), 0)
    with pytest.raises(TruncationError, match="no face at degree 3"):
        C.face(3, (0, 0, 0), 0)
    with pytest.raises(TruncationError, match="no face at degree 0"):
        C.face(0, (), 0)


def test_verify_identities_detects_corruption():
    G = cyclic(3)
    C = build_c(G, 2)
    first, edges = C.levels[2][0], C.levels[1]

    def corrupted(t, i):
        # d_0 of the first 2-simplex moves to the next edge, inside the levels
        fx = bar_face(G, t, i)
        return edges[(edges.index(fx) + 1) % len(edges)] if (t, i) == (first, 0) else fx

    with pytest.raises(MathInvariantError):
        SimplicialTruncation(C.levels, corrupted, bar_degeneracy).verify_identities()
    assert C.verify_identities() > 0


def test_face_leaving_the_levels_is_refused_on_use():
    G = cyclic(2)
    C = build_c(G, 2)
    top = (1, 1)  # nondegenerate

    def face(t, i):
        return ("missing",) if (t, i) == ((1, 1), 0) else bar_face(G, t, i)

    S = SimplicialTruncation(C.levels, face, bar_degeneracy)
    assert S.face(2, top, 1) == C.face(2, top, 1) == (0,)
    with pytest.raises(MathInvariantError, match="face d_0 leaves the stored levels"):
        S.face(2, top, 0)
    for boundary in (S.boundary_matrix, partial(unnormalized_boundary, S)):
        with pytest.raises(MathInvariantError, match="leaves the stored levels"):
            boundary(2)
    with pytest.raises(MathInvariantError, match="leaves the stored levels"):
        S.verify_identities()


def test_degeneracy_leaving_the_levels_is_refused_at_construction():
    G = cyclic(2)
    C = build_c(G, 2)

    def degeneracy(t, i):
        return ("missing",) if (t, i) == ((1,), 1) else bar_degeneracy(t, i)

    with pytest.raises(MathInvariantError, match="degeneracy s_1 leaves the stored levels"):
        SimplicialTruncation(C.levels, lambda t, i: bar_face(G, t, i), degeneracy)


def test_budget_refuses_deep_truncations_before_enumerating(monkeypatch):
    # the depth is charged before the walk, and no huge power is formed
    from commclass import simplicial

    enumerated = []
    monkeypatch.setattr(
        simplicial, "commuting_levels", lambda G, n, budget: enumerated.append(n) or [[()]]
    )
    for build, G, N in [
        (build_e, cyclic(3), 10**6),
        (build_c, cyclic(1), 10**6),
        (build_e, cyclic(1), 10**20),
    ]:
        with pytest.raises(BudgetExceededError):
            build(G, N)
    assert enumerated == []
    monkeypatch.undo()
    # a shallow depth on a group with many tuples is refused by the level
    # charges of the walk, long before its 2^40 top tuples
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="commuting tuples of length"):
        build_c(cyclic(2), 40)
    assert time.perf_counter() - start < 1
    with pytest.raises(BudgetExceededError):
        commuting_tuples(cyclic(2), 10**9)
    assert len(build_c(cyclic(1), 300).levels) == 301


def test_each_build_walks_the_commuting_tuples_once(monkeypatch):
    # every level of either model comes from one walk to the top length
    from commclass import groups, simplicial

    walks = []
    walk = groups.commuting_levels

    def counting(G, n, budget):
        walks.append(n)
        return walk(G, n, budget=budget)

    monkeypatch.setattr(simplicial, "commuting_levels", counting)
    G = catalog_group("Q8")
    C, E = build_c(G, 3), build_e(G, 3)
    assert walks == [3, 3]
    assert C.levels == [commuting_tuples(G, k) for k in range(4)]
    assert [len(level) for level in E.levels] == [8 * len(level) for level in C.levels]


def test_build_budget():
    with pytest.raises(BudgetExceededError):
        build_e(catalog_group("S4"), 4, budget=10_000)
    with pytest.raises(ValidationError):
        build_c(catalog_group("S3"), -1)


# homology-e2g against the full build_e.  The command reads the homology of
# the closure-reduced coset poset and the level counts of |G|·f(k, G).
# These tests keep the names they had under the cone matching and the Morse
# cover that came before it, so that their ids stay comparable across
# versions.


def _e2g(capsys, name, max_dim):
    """The nondegenerate and level counts and the reduced homology
    H~0..H~max_dim that homology-e2g reports."""
    argv = ["homology-e2g", "--group", name, "--max-dim", str(max_dim), "--output", "machine"]
    assert cli.main(argv) == 0
    rows = {r["name"]: r["value"] for r in json.loads(capsys.readouterr().out)["results"]}
    h = [rows["H~0"]] + [rows[f"H{k}"] for k in range(1, max_dim + 1)]
    h = [Z(v["free_rank"], tuple(v["invariant_factors"])) for v in h]
    return rows["nondegenerate-sizes"], rows["level-sizes"], h


@pytest.mark.parametrize("name", [name for name, _ in catalog_groups(12)])
def test_cone_morse_complex_is_the_critical_part_of_the_full_model(capsys, name):
    # depth 4 where it is cheap or the group is nonabelian, depth 3 for the
    # larger abelian groups, whose full build_e criterion 5 reduces
    G = catalog_group(name)
    N = 4 if G.order <= 8 or not G.is_abelian else 3
    S = build_e(G, N)
    nondegenerate, levels, h = _e2g(capsys, name, N - 1)
    assert levels == [S.level_size(k) for k in range(N + 1)]
    assert nondegenerate == [len(S.nondegenerate(k)) for k in range(N + 1)]
    assert h == reduced_homology_range(S, N - 1)


def test_cone_morse_matches_unreduced_homology(capsys):
    for name, G in catalog_groups(16):
        if G.order > 12 and not G.is_abelian:
            assert _e2g(capsys, name, 2)[2] == reduced_homology_range(build_e(G, 3), 2), name


def test_morse_complex_of_build_c_is_the_quotient_of_the_cover(capsys):
    # build_c is the quotient of its free G-cover build_e: p_map takes the
    # faces of build_e to those of build_c, and homology-e2g counts |G|
    # cells over each cell that homology-b2g counts
    for name, G in catalog_groups(12):
        E = build_e(G, 3)
        for k in range(1, 4):
            for e in E.levels[k]:
                for i in range(k + 1):
                    assert p_map(G, drop_entry(e, i)) == bar_face(G, p_map(G, e), i), (name, e)
        argv = ["homology-b2g", "--group", name, "--max-dim", "2", "--output", "machine"]
        assert cli.main(argv) == 0
        b2g = {r["name"]: r["value"] for r in json.loads(capsys.readouterr().out)["results"]}
        assert _e2g(capsys, name, 2)[0] == [G.order * n for n in b2g["nondegenerate-sizes"]]


def test_cone_morse_critical_cells():
    # the chains of the closure-reduced coset poset per dimension, and
    # d o d = 0 on the boundaries homology-e2g reduces: Z4xZ4 is abelian and
    # its poset a point, D8 and Q8 have a centre of order 2 under three
    # maximal abelian subgroups, S3 and S4 have none
    from commclass.cosetposet import CosetPoset, _chain_boundary, closed_abelian_subgroups

    for name, sizes in [
        ("Z4xZ4", [1]),
        ("D8", [10, 12]),
        ("Q8", [10, 12]),
        ("S3", [17, 24]),
        ("S4", [134, 444, 216]),
    ]:
        G = catalog_group(name)
        levels = CosetPoset(G, closed_abelian_subgroups(G, continuation_counts(G, 0))).chains(4)
        assert [len(level) for level in levels if level] == sizes, name
        d = [_chain_boundary(levels, k) for k in range(1, len(levels))]
        for d_out, d_in in zip(d, d[1:]):
            assert (d_out @ d_in).is_zero()


@pytest.mark.parametrize("name, N", [("Z2", 10), ("Z3", 6)])
def test_cone_morse_complex_counts_the_levels_of_the_full_model_past_degree_3(capsys, name, N):
    # the level counts come from the nondegenerate ones by the binomial rule
    G = catalog_group(name)
    S = build_e(G, N)
    nondegenerate, levels, _ = _e2g(capsys, name, N - 1)
    assert levels == [S.level_size(k) for k in range(N + 1)]
    assert nondegenerate == [len(S.nondegenerate(k)) for k in range(N + 1)]


def test_cone_morse_complex_enumerates_only_nondegenerate_tuples(capsys, monkeypatch):
    # the Morse builder lists no tuple but the critical ones: the scan, one
    # step per level, lists exactly the nondegenerate tuples it passes, in
    # lexicographic order; S3 keeps every tuple, Q8 few of them.
    # homology-e2g lists no tuple at all.
    from commclass import groups, simplicial

    scan = simplicial._scan_levels
    listed = []

    def spy(*args):
        for cells, up, down in scan(*args):
            listed.append(cells)
            yield cells, up, down

    # the nondegenerate tuples the scan passes, listed before the walk is taken away
    passed = {}
    for name in ("S3", "Q8"):
        G = catalog_group(name)
        partner = simplicial._BarMatching(G).partner
        levels = groups.commuting_levels(G, 3)
        passed[name] = [[t for t in levels[k] if 0 not in t and partner(t) is None] for k in (1, 2, 3)]
    monkeypatch.setattr(simplicial, "_scan_levels", spy)
    monkeypatch.setattr(simplicial, "commuting_levels", None)
    monkeypatch.setattr(groups, "commuting_levels", None)
    for name, want in passed.items():
        listed.clear()
        morse_complex(catalog_group(name), 3)
        assert listed == want, name
        listed.clear()
        _e2g(capsys, name, 2)
        assert listed == []


def test_morse_complex_steps_the_scan_once_per_level(monkeypatch):
    # each level is checked and built right after its scan step, and
    # morse_complex(G, N) asks for levels 1..N and no more
    from commclass import simplicial

    scan = simplicial._scan_levels
    stepped = []

    def spy(*args):
        for cells, up, down in scan(*args):
            stepped.append(len(cells[0]))
            yield cells, up, down

    monkeypatch.setattr(simplicial, "_scan_levels", spy)
    for name in ("Z4", "Q8", "S3"):
        for N in (0, 1, 4):
            stepped.clear()
            M = morse_complex(catalog_group(name), N)
            assert stepped == list(range(1, N + 1)) and len(M.boundaries) == N, (name, N)


def test_morse_complex_charges_a_level_before_listing_it(monkeypatch):
    # S3's trivial centre leaves every nondegenerate tuple critical: a budget
    # spent up to the end of level N - 1 refuses level N at its first cells,
    # before the scan lists the level, and N one lower answers
    from commclass import simplicial

    scan = simplicial._scan_levels
    spent = []

    def spy(*args):
        for level in scan(*args):
            spent.append(args[-1].spent)
            yield level

    monkeypatch.setattr(simplicial, "_scan_levels", spy)
    S3, N = catalog_group("S3"), 6
    morse_complex(S3, N, Budget())
    assert spent == [39, 46, 57, 76, 111, 178]  # 2^k + 3 cells at level k
    limit = spent[-2]
    spent.clear()
    with pytest.raises(BudgetExceededError, match=f"critical cells of level {N}:"):
        morse_complex(S3, N, limit)
    assert len(spent) == N - 1
    assert len(morse_complex(S3, N - 1, limit).boundaries) == N - 1


@pytest.mark.parametrize("corrupted", [1, 2, 3])
def test_cone_matching_count_invariant_detects_a_corrupted_level(capsys, monkeypatch, corrupted):
    # the last critical cell missing from a level, the top level too: the
    # level no longer adds up to the count of its nondegenerate tuples.  S3
    # keeps every tuple critical, so the cell is the level's last tuple; Z4
    # keeps one critical cell per level and counts the matched ones.
    # homology-e2g builds no Morse complex, so it still answers.
    from commclass import simplicial

    scan = simplicial._scan_levels

    def dropping_one_cell(*args):
        for k, (cells, up, down) in enumerate(scan(*args), 1):
            yield (cells[:-1] if k == corrupted else cells), up, down

    monkeypatch.setattr(simplicial, "_scan_levels", dropping_one_cell)
    for name in ("S3", "Z4"):
        with pytest.raises(MathInvariantError, match=f"bar matching at level {corrupted}:"):
            morse_complex(catalog_group(name), 3)
        assert cli.main(["homology-b2g", "--group", name, "--max-dim", "2"]) == 4
        assert f"bar matching at level {corrupted}:" in capsys.readouterr().err
        assert cli.main(["homology-e2g", "--group", name, "--max-dim", "2"]) == 0
        capsys.readouterr()


@pytest.mark.parametrize("name", [name for name, _ in catalog_groups(12)])
def test_bar_morse_complex_has_the_homology_of_the_full_model(name):
    G = catalog_group(name)
    S = build_c(G, 4)
    M = morse_complex(G, 4)
    assert level_sizes(M.nondegenerate_sizes) == [S.level_size(k) for k in range(5)]
    assert M.nondegenerate_sizes == [len(S.nondegenerate(k)) for k in range(5)]
    assert homology_range(M.boundaries, reduced=True) == reduced_homology_range(S, 3)


def test_bar_morse_critical_counts():
    # critical cells at levels 0..4; a group with a centre keeps few, a
    # centreless one keeps every nondegenerate cell
    for name, sizes in [
        ("Z2", [1, 1, 1, 1, 1]),
        ("Z5", [1, 1, 1, 1, 1]),
        ("Z16", [1, 1, 1, 1, 1]),
        ("Z3xZ3", [1, 2, 3, 4, 5]),
        ("Z4xZ4", [1, 2, 3, 4, 5]),
        ("Q8", [1, 4, 7, 10, 13]),
        ("Q8oZ4", [1, 4, 7, 10, 13]),
        ("S3", [1, 5, 7, 11, 19]),
    ]:
        M = morse_complex(catalog_group(name), 4)
        assert [M.boundaries[0].rows] + [d.cols for d in M.boundaries] == sizes, name
        assert M.boundaries[0].is_zero()
        for d_out, d_in in zip(M.boundaries, M.boundaries[1:]):
            assert (d_out @ d_in).is_zero()
    Q8oZ4 = morse_complex(catalog_group("Q8oZ4"), 4)
    assert Q8oZ4.nondegenerate_sizes == [1, 15, 129, 975, 7041]
    with pytest.raises(ValidationError):
        morse_complex(catalog_group("S3"), -1)


def test_bar_matching_is_mutual_on_small_groups():
    # every nondegenerate cell, through level 4 for the catalog groups of
    # order <= 16 and through level 5 for those of order <= 8, is critical
    # or matched with a nondegenerate commuting cell one level away that is
    # matched back, with incidence +-1 in its bar chain; a matched-down
    # cell's partner was checked a level below
    from commclass.simplicial import _BarMatching, _bar_chain

    for name, G in catalog_groups(16):
        partner = _BarMatching(G).partner
        top = 5 if G.order <= 8 else 4
        levels = commuting_levels(G, top)
        for k in range(1, top + 1):
            for t in [t for t in levels[k] if 0 not in t]:
                other = partner(t)
                if other is None:
                    continue
                if len(other) == k - 1:
                    assert partner(other) == t, (name, t, other)
                    continue
                assert len(other) == k + 1 and 0 not in other, (name, t)
                assert all(G.commute(a, b) for a in other for b in other), (name, t)
                assert partner(other) == t, (name, t, other)
                assert _bar_chain(G, other).get(t) in (1, -1), (name, t, other)


def test_bar_chain_matches_the_bar_faces():
    # the chain the flow builds from the Cayley table, against the alternating
    # sum of bar_face with degenerate faces and zero coefficients dropped,
    # term for term and in the same order
    from commclass.simplicial import _bar_chain

    for name, G in catalog_groups(8):
        for t in [t for k in range(1, 5) for t in commuting_tuples(G, k) if 0 not in t]:
            want = {}
            for i in range(len(t) + 1):
                face = bar_face(G, t, i)
                if 0 not in face:
                    want[face] = want.get(face, 0) + (-1) ** i
            want = [(face, c) for face, c in want.items() if c]
            assert list(_bar_chain(G, t).items()) == want, (name, t)


def test_morse_complex_builds_the_chains_of_the_flow_only():
    # one chain per critical cell and per matched-up cell the flow visits:
    # Z2xZ2 keeps 1, 2, ..., 7 critical cells of its 3^k nondegenerate ones
    from commclass import simplicial

    chains, memos = [], {}
    build, flow = simplicial._bar_chain, simplicial._gradient_flow

    def counting_chain(G, t):
        chains.append(t)
        return build(G, t)

    def recording_flow(G, matching, chain, critical, memo, budget):
        memos[id(memo)] = memo
        return flow(G, matching, chain, critical, memo, budget)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplicial, "_bar_chain", counting_chain)
        patch.setattr(simplicial, "_gradient_flow", recording_flow)
        M = morse_complex(catalog_group("Z2xZ2"), 6)
    critical = sum(d.cols for d in M.boundaries)
    visited = sum(len(memo) for memo in memos.values())
    assert critical == 27 and len(chains) <= critical + visited < sum(M.nondegenerate_sizes) // 4


def test_bar_gradient_flow_refuses_a_cycle():
    # (2,) is matched up with (1, 1) and (1,) with (2, 3), whose boundary
    # holds (2,) again: a cyclic matching, which the flow must refuse
    from commclass.simplicial import _gradient_flow

    pairs = {(2,): (1, 1), (1,): (2, 3), (3,): (1, 2)}

    class Cyclic:
        def partner(self, t):
            return {**pairs, **{up: down for down, up in pairs.items()}}.get(t)

    with pytest.raises(MathInvariantError, match="meets"):
        _gradient_flow(cyclic(4), Cyclic(), {(2,): 1}, {}, {}, Budget())


def test_bar_gradient_flow_refuses_a_face_neither_critical_nor_matched():
    # S3 has a trivial centre, so every nondegenerate tuple is critical; with
    # (1,) left out of the critical cells the flow of (1,) has nowhere to go
    from commclass.simplicial import _BarMatching, _gradient_flow

    G = catalog_group("S3")
    nondegenerate = [t for t in commuting_tuples(G, 1) if 0 not in t]
    critical = {t: r for r, t in enumerate(nondegenerate[1:])}
    with pytest.raises(MathInvariantError, match="neither critical nor matched"):
        _gradient_flow(G, _BarMatching(G), {(1,): 1}, critical, {}, Budget())


def _homology_exit(capsys, command, name, max_dim):
    code = cli.main([command, "--group", name, "--max-dim", str(max_dim)])
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    return code, captured.err


# the Morse builder serves homology-b2g alone; the parameter keeps the test ids
B2G = pytest.mark.parametrize("command", ["homology-b2g"])


@B2G
def test_bar_matching_count_detects_a_missing_cell(capsys, monkeypatch, command):
    # Z4's (1, 1) merges into (2,); counted without it, level 2 has one
    # matched-down cell fewer than level 1 has matched-up ones
    from commclass import simplicial

    scan = simplicial._scan_levels

    def dropping(*args):
        for k, (cells, up, down) in enumerate(scan(*args), 1):
            yield cells, up, down - (k == 2)

    monkeypatch.setattr(simplicial, "_scan_levels", dropping)
    message = (
        "bar matching at level 2: 1 critical + 6 matched up + 1 matched down of 9 "
        "nondegenerate cells, against 2 matched up at level 1"
    )
    with pytest.raises(MathInvariantError, match=re.escape(message)):
        morse_complex(cyclic(4), 3)
    code, err = _homology_exit(capsys, command, "Z4", 2)
    assert code == 4 and message in err


@B2G
def test_bar_matching_detects_a_missing_critical_cell(capsys, monkeypatch, command):
    # every nondegenerate tuple of S3 is critical, so without (3, 4) level 2
    # holds one tuple fewer than it should
    from commclass import simplicial

    scan = simplicial._scan_levels

    def dropping(*args):
        for cells, up, down in scan(*args):
            yield [c for c in cells if c != (3, 4)], up, down

    monkeypatch.setattr(simplicial, "_scan_levels", dropping)
    code, err = _homology_exit(capsys, command, "S3", 2)
    assert code == 4
    assert (
        "bar matching at level 2: 6 critical + 0 matched up + 0 matched down of 7 "
        "nondegenerate cells, against 0 matched up at level 1"
    ) in err


@B2G
@pytest.mark.parametrize(
    "a, b, step, message",
    [
        # (2,) left unsplit: the merge of (1, 1) into it is not undone
        (0, 2, None, "level 2: entry 1 after 1 steps to (2,)"),
        # (1, 1) merged into (3,): the split of (2,) into it is not undone
        (1, 1, (3,), "level 1: entry 2 at the start steps to (1, 1)"),
    ],
)
def test_bar_matching_detects_a_step_its_partner_does_not_undo(
    capsys, monkeypatch, command, a, b, step, message
):
    from commclass import simplicial

    init = simplicial._BarMatching.__init__

    def misrouted(self, G):
        init(self, G)
        self.steps[a][b] = step

    monkeypatch.setattr(simplicial._BarMatching, "__init__", misrouted)
    code, err = _homology_exit(capsys, command, "Z4", 2)
    assert code == 4
    assert f"bar matching at {message}, which the partner's scan does not undo" in err


@B2G
def test_bar_matching_detects_a_partner_that_is_not_mutual(capsys, monkeypatch, command):
    from commclass import simplicial

    partner = simplicial._BarMatching.partner

    def crossed(self, t):
        return (3,) if t == (1, 1) else partner(self, t)

    monkeypatch.setattr(simplicial._BarMatching, "partner", crossed)
    code, err = _homology_exit(capsys, command, "Z4", 2)
    assert code == 4
    assert (
        "bar matching at level 2: (1, 1) is matched down to (3,), which is matched to (1, 2)"
        in err
    )


@B2G
@pytest.mark.parametrize(
    "cell, i, face, incidence",
    [
        # the merge face of (1, 1) moved away
        ((1, 1), 1, (3,), 0),
        # d_3 of (1, 1, 1) moved onto its merge face d_1, of the same sign
        ((1, 1, 1), 3, (2, 1), -2),
    ],
)
def test_bar_matching_detects_an_incidence_other_than_a_unit(
    capsys, monkeypatch, command, cell, i, face, incidence
):
    from commclass import simplicial

    chain = simplicial._bar_chain

    def moved(G, t):
        # the chain of cell with its face d_i replaced by face
        out = chain(G, t)
        if t == cell:
            sign, old = (-1) ** i, bar_face(G, t, i)
            out[old] = out.get(old, 0) - sign
            out[face] = out.get(face, 0) + sign
        return {f: c for f, c in out.items() if c}

    monkeypatch.setattr(simplicial, "_bar_chain", moved)
    code, err = _homology_exit(capsys, command, "Z4", 2)
    assert code == 4
    merged = (2,) + cell[2:]
    assert f"{merged} has incidence {incidence} in the boundary of its partner {cell}" in err


def rank_mod_p(columns, p):
    """Rank over F_p of the matrix with the given sparse columns (row -> entry),
    by column reduction on the lowest nonzero row."""
    pivots = {}
    for col in columns:
        c = {i: v % p for i, v in col.items() if v % p}
        while c:
            low = max(c)
            if low not in pivots:
                inv = pow(c[low], -1, p)
                pivots[low] = {i: v * inv % p for i, v in c.items()}
                break
            f = c[low]
            for i, v in pivots[low].items():
                x = (c.get(i, 0) - f * v) % p
                if x:
                    c[i] = x
                else:
                    del c[i]
    return len(pivots)


def test_rank_mod_p():
    assert rank_mod_p([{0: 2}], 2) == 0
    assert rank_mod_p([{0: 2}], 3) == 1
    assert rank_mod_p([{0: 1, 1: 1}, {0: 1, 1: -1}], 2) == 1
    assert rank_mod_p([{0: 1, 1: 1}, {0: 1, 1: -1}], 3) == 2
    assert rank_mod_p([{}, {2: 6}, {1: 4, 2: 3}], 5) == 2


def check_cli_homology_against_mod_p_ranks(capsys, command, build, name, max_dim):
    # universal coefficients: dim H_k(C; F_p) = b_k + t_k(p) + t_{k-1}(p)
    argv = [command, "--group", name, "--max-dim", str(max_dim), "--output", "machine"]
    assert cli.main(argv) == 0
    rows = {r["name"]: r["value"] for r in json.loads(capsys.readouterr().out)["results"]}
    answer = [rows[f"H{k}"] for k in range(max_dim + 1)]
    G = catalog_group(name)
    S = build(G, max_dim + 1)
    sizes = [len(S.nondegenerate(k)) for k in range(max_dim + 2)]
    columns = [S.boundary_matrix(k).column_dicts() for k in range(1, max_dim + 2)]
    primes = [p for p in range(2, G.order + 1) if G.order % p == 0 and all(p % q for q in range(2, p))]
    for p in primes + [2**31 - 1]:
        ranks = [0] + [rank_mod_p(cols, p) for cols in columns]
        for k in range(max_dim + 1):
            t = [sum(1 for d in answer[j]["invariant_factors"] if d % p == 0) for j in (k, k - 1)]
            want = answer[k]["free_rank"] + t[0] + (t[1] if k else 0)
            assert sizes[k] - ranks[k] - ranks[k + 1] == want, (command, name, p, k)


# every catalog group of order <= 12, on both models
SMALL_GROUPS = [name for name, _ in catalog_groups(12)]


@pytest.mark.parametrize("name", SMALL_GROUPS)
def test_cli_homology_matches_mod_p_ranks_of_the_full_complex(capsys, name):
    check_cli_homology_against_mod_p_ranks(capsys, "homology-e2g", build_e, name, 2)


@pytest.mark.parametrize("name", SMALL_GROUPS)
def test_cli_homology_b2g_matches_mod_p_ranks_of_the_full_complex(capsys, name):
    check_cli_homology_against_mod_p_ranks(capsys, "homology-b2g", build_c, name, 3)
