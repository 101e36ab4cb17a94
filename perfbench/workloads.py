"""The benchmark's three workloads as lists of operations.

An operation is one CLI command (commclass.cli.main with --output machine)
or one batch of library calls.  Operation.run() does the program's work
and returns (exit code, output); Operation.check(output, outputs) returns
None or the reason the output is wrong, where outputs maps every operation
name of the pass to its output.  Checks run after the timed passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from itertools import product

import oracles

# catalog groups of order <= 10, plus the three order-12 groups that are not
# isomorphic to each other (Z3xZ4 is Z12 again, Z2xZ6 costs as much again)
E2G_GROUPS = (
    "Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "Z9", "Z10",
    "Z2xZ2", "Z2xZ4", "Z3xZ3", "Z4oZ4", "D4", "D6", "D8", "D10", "Q8", "S3",
    "Z12", "D12", "A4",
)
E2G_MAX_DIM = 2

B2G_GROUPS = (
    "Z8", "Z9", "Z2xZ4", "Z3xZ3", "Z4oZ4", "S3", "D8", "Q8", "A4", "D12",
    "S4", "Q16", "D16", "Q8oZ4",
)
B2G_MAX_DIM = 3

IDENTITY_SAMPLES = 80
BRACKET_SAMPLES = 120
QX_LOOPS = 6
SAMPLE_DENOMINATOR = 12
SINGLE_COMM = (("o2", 12), ("su2_normalizer", 12), ("d8_square", 2))
COCYCLE_SPEC = "specs/o2_alpha.cocycle.json"
# |winding| of the o2_alpha clutching loop: direct, then inverted
COCYCLE_WINDINGS = ((False, 0), (True, 2))


class Operation:
    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


def _cli(cc, args):
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cc.cli.main(list(args) + ["--output", "machine"])
        return code, buf.getvalue()

    return run


def _doc_check(command, inner):
    def check(text, outputs):
        doc = json.loads(text)
        if doc["command"] != command:
            return f"document is for {doc['command']}"
        return inner(doc, outputs)

    return check


# ---------------------------------------------------------------------------
# homology workloads


def homology_ops(cc, model):
    """e2g: the homogeneous model, the coset-poset oracle, coinvariants and
    moore-h2 on each group.  b2g: the commuting-tuple model."""
    ops = []
    groups = E2G_GROUPS if model == "e2g" else B2G_GROUPS
    max_dim = E2G_MAX_DIM if model == "e2g" else B2G_MAX_DIM
    for name in groups:
        table = [list(r) for r in cc.catalog.catalog_group(name).table]
        cmd = f"homology-{model}"
        hom_name = f"{cmd} {name}"
        ops.append(
            Operation(
                hom_name,
                _cli(cc, [cmd, "--group", name, "--max-dim", str(max_dim)]),
                _doc_check(
                    cmd,
                    lambda doc, outs, t=table: oracles.check_homology_doc(doc, t, model, max_dim),
                ),
            )
        )
        if model != "e2g":
            continue
        ops.append(
            Operation(
                f"coset-poset {name}",
                _cli(cc, ["coset-poset", "--group", name, "--max-dim", str(max_dim)]),
                _doc_check(
                    "coset-poset",
                    lambda doc, outs, h=hom_name: oracles.check_coset_poset_doc(
                        doc, json.loads(outs[h]), max_dim
                    ),
                ),
            )
        )
        for cmd, row in (("coinvariants", "coinvariants"), ("moore-h2", "moore-h2")):
            ops.append(
                Operation(
                    f"{cmd} {name}",
                    _cli(cc, [cmd, "--group", name]),
                    _doc_check(
                        cmd,
                        lambda doc, outs, t=table, r=row: oracles.check_group_ring_doc(doc, t, r),
                    ),
                )
            )
    return ops


# ---------------------------------------------------------------------------
# torus workload


def _point(rng, rank):
    return tuple(Fraction(rng.randrange(SAMPLE_DENOMINATOR), SAMPLE_DENOMINATOR) for _ in range(rank))


def _identity_batch(cc, E, X, samples):
    """The lifted commutator identity [ps, qt] = [p,q] psi([p,q])(s)
    psi(q^-1 p q)(t) psi(q)(s^-1), evaluated by the program on each sample;
    the left side is recomputed here from the defining data."""
    F = E.F

    def run():
        out = []
        for p, q, s_t, t_t in samples:
            s = E.torus_element(s_t)
            t = E.torus_element(t_t)
            ps = E.mul(E.lift_element(p), s)
            qt = E.mul(E.lift_element(q), t)
            lhs = E.commutator(ps, qt)
            conj = F.mul(F.mul(F.inv(q), p), q)
            rhs = E.commutator(E.lift_element(p), E.lift_element(q))
            rhs = E.mul(rhs, E.commutator(E.lift_element(F.commutator(p, q)), s))
            rhs = E.mul(rhs, E.commutator(E.lift_element(conj), t))
            rhs = E.mul(rhs, E.commutator(E.lift_element(q), E.inv(s)))
            out.append(((lhs.t, lhs.f), (rhs.t, rhs.f)))
        return 0, out

    def check(out, outputs):
        for (p, q, s_t, t_t), (lhs, rhs) in zip(samples, out):
            if lhs != rhs:
                return f"identity fails at p={p}, q={q}: {lhs} != {rhs}"
            ps = X.mul((X.zero(), p), (s_t, 0))
            qt = X.mul((X.zero(), q), (t_t, 0))
            if not X.same(X.comm(ps, qt), lhs):
                return f"[ps, qt] at p={p}, q={q} is {X.comm(ps, qt)}, program gives {lhs}"
        return None

    return run, check


def _bracket_batch(cc, E, X, samples):
    """bracket [q-lift, t] against the lattice action psi_star(q) t."""

    def run():
        out = []
        for q, t in samples:
            bracket = E.commutator(E.lift_element(q), E.torus_element(t))
            action = E.torus_element(cc.torus.psi_star(E, q).times_vector(t))
            out.append(((bracket.t, bracket.f), (action.t, action.f)))
        return 0, out

    def check(out, outputs):
        for (q, t), (bracket, action) in zip(samples, out):
            if bracket != action:
                return f"bracket {bracket} != psi_star action {action} at q={q}"
            want = (oracles.apply(X.psi(q), t), 0)
            if not X.same(bracket, want) or not X.same(X.comm((X.zero(), q), (t, 0)), want):
                return f"bracket at q={q}, t={t} is {bracket}, I - rho(q^-1) gives {want}"
        return None

    return run, check


def _qx_batch(cc, E, X, loops):
    """build_qx_cocycle on integral torus loops; the winding must be
    -(I - rho(q^-1)) applied to the loop's displacement."""

    def run():
        out = []
        for q, times, lifts in loops:
            x = cc.cocycles.PLPath(E, times, lifts, 0)
            winding = cc.cocycles.build_qx_cocycle(E, q, x).clutching.winding
            out.append(None if winding is None else tuple(winding))
        return 0, out

    def check(out, outputs):
        for (q, times, lifts), winding in zip(loops, out):
            disp = [b - a for a, b in zip(lifts[0], lifts[-1])]
            want = tuple(-x for x in oracles.apply(X.psi(q), disp))
            if winding != want:
                return f"winding {winding} at q={q} != -psi(q) displacement {want}"
        return None

    return run, check


def torus_ops(cc, seed, root):
    ops = []
    names = cc.torus.extension_names()
    for name in names:
        E = cc.torus.catalog_extension(name)
        X = oracles.Extension.of(E)
        fnames = list(E.F.names)
        grid = [tuple(Fraction(c, 4) for c in cs) for cs in product(range(4), repeat=E.rank)]
        ops.append(
            Operation(
                f"torus-analyze {name}",
                _cli(cc, ["torus-analyze", "--ext", name]),
                _doc_check(
                    "torus-analyze",
                    lambda doc, outs, X=X, f=fnames, g=grid: oracles.check_torus_analyze_doc(doc, X, f, g),
                ),
            )
        )
        rng = random.Random(f"{seed}/{name}")
        order = E.F.order
        identity = [
            (rng.randrange(order), rng.randrange(order), _point(rng, E.rank), _point(rng, E.rank))
            for _ in range(IDENTITY_SAMPLES)
        ]
        brackets = [(rng.randrange(order), _point(rng, E.rank)) for _ in range(BRACKET_SAMPLES)]
        loops = []
        for _ in range(QX_LOOPS):
            q = rng.randrange(order)
            segments = rng.randrange(2, 5)
            times = [Fraction(i, segments) for i in range(segments + 1)]
            lifts = [tuple(Fraction(0) for _ in range(E.rank))]
            lifts += [_point(rng, E.rank) for _ in range(segments - 1)]
            lifts.append(tuple(Fraction(rng.randrange(-2, 3)) for _ in range(E.rank)))
            loops.append((q, times, lifts))
        for kind, make, data in (
            ("identity", _identity_batch, identity),
            ("bracket", _bracket_batch, brackets),
            ("qx-clutch", _qx_batch, loops),
        ):
            run, check = make(cc, E, X, data)
            ops.append(Operation(f"{kind} {name}", run, check))
    for name, N in SINGLE_COMM:
        E = cc.torus.catalog_extension(name)
        X = oracles.Extension.of(E)
        ops.append(
            Operation(
                f"single-comm {name} {N}",
                _cli(cc, ["single-comm", "--ext", name, "--denominator", str(N)]),
                _doc_check(
                    "single-comm",
                    lambda doc, outs, X=X, f=list(E.F.names), N=N: oracles.check_single_comm_doc(doc, X, f, N),
                ),
            )
        )
    path = str(root / COCYCLE_SPEC)
    for invert, size in COCYCLE_WINDINGS:
        args = ["clutch", "--cocycle", path] + (["--invert"] if invert else [])
        ops.append(
            Operation(
                "clutch --invert" if invert else "clutch",
                _cli(cc, args),
                _doc_check(
                    "clutch",
                    lambda doc, outs, i=invert, s=size: oracles.check_clutch_doc(doc, path, i, s),
                ),
            )
        )
    return ops


WORKLOADS = ("e2g", "b2g", "torus")


def build(workload, cc, seed, root):
    """Operations of one pass, in a seed-dependent order."""
    if workload == "torus":
        ops = torus_ops(cc, seed, root)
    else:
        ops = homology_ops(cc, workload)
    random.Random(f"{seed}/{workload}/order").shuffle(ops)
    return ops


def setup_objects(workload, cc):
    """Catalog construction counted in set-up time."""
    if workload == "torus":
        for name in cc.torus.extension_names():
            cc.torus.catalog_extension(name)
    else:
        for name in E2G_GROUPS if workload == "e2g" else B2G_GROUPS:
            cc.catalog.catalog_group(name)
