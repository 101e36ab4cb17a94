"""Commutative cocycles over the three-patch cover of the sphere, their
pointwise inverses, and the exact winding vectors of their clutching loops.

The cover's combinatorics reduce to three arcs (one per double
intersection), each a piecewise-linear path of extension elements with a
constant finite part, meeting at the two triple points: parameter 0
("front") and parameter 1 ("back").  A cocycle is commutative when the
three arc values commute pairwise at both triple points; that condition is
what makes the pointwise inverse a cocycle again.

The clutching loop traverses the a12*a23 arc forward and the a13 arc
backward.  When both arcs carry the identity finite-part label the loop
lives in the identity component and its class is the displacement
difference of the torus lifts, an exact rational vector (integral whenever
the central quotient meets the torus trivially); the loop itself is never
built.

Paths are stored on integers, as extension elements are: breakpoint times
as numerators over one denominator and lifts as numerator tuples over
another.  Fractions appear only at the input boundary and in the read-only
results of lift_at and displacement; floats and bools are refused.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from operator import mul as _times

from .errors import MathInvariantError, ValidationError
from .intlinalg import Lattice
from .torus import ExtElement, TorusExtension, rational, torus_pi1_lattice

NOT_IDENTITY_COMPONENT = "not in identity-component loop"


def _lift_at(times, lifts, d, k, t, q=1):
    """(numerators, denominator) of the lift at the integer time t / q with
    times[k - 1] q < t <= times[k] q: the stored lift over d at a
    breakpoint, otherwise interpolated on integers over d (t1 - t0)."""
    t1 = times[k] * q
    if t1 == t:
        return lifts[k], d
    t0 = times[k - 1] * q
    w, u = t1 - t0, t - t0
    return [x * w + u * (y - x) for x, y in zip(lifts[k - 1], lifts[k])], d * w


class PLPath:
    """Piecewise-linear path of extension elements with constant finite part.

    Stored as strictly increasing breakpoint time numerators _t from 0 to
    _dt over _dt, and one lift numerator tuple per time over _dl; the path
    value at t is the interpolated lift reduced into the group.  Lifts are
    NOT reduced mod 1, so closed loops keep their winding information.
    """

    __slots__ = ("parent", "f", "_dt", "_t", "_dl", "_l")

    def __init__(self, parent: TorusExtension, times, lifts, f=0):
        times = [rational(t) for t in times]
        lifts = [[rational(x) for x in lift] for lift in lifts]
        if len(times) < 2:
            raise ValidationError("a path needs at least two breakpoints")
        if len(times) != len(lifts):
            raise ValidationError("one lift per breakpoint required")
        if times[0] != 0 or times[-1] != 1:
            raise ValidationError("paths are parametrized over [0, 1]")
        for a, b in zip(times, times[1:]):
            if not a < b:
                raise ValidationError("breakpoint times must increase strictly")
        for lift in lifts:
            if len(lift) != parent.rank:
                raise ValidationError("lift length must equal the extension rank")
        self.parent, self.f = parent, parent._finite_part(f)
        self._dt = dt = lcm(*(t.denominator for t in times))
        self._dl = dl = lcm(*(x.denominator for lift in lifts for x in lift))
        self._t = tuple(t.numerator * (dt // t.denominator) for t in times)
        self._l = tuple(tuple(x.numerator * (dl // x.denominator) for x in lift) for lift in lifts)

    @classmethod
    def _of(cls, parent, dt, t, dl, lifts, f):
        """A path from numerators already checked."""
        p = cls.__new__(cls)
        p.parent, p.f, p._dt, p._t, p._dl, p._l = parent, f, dt, t, dl, lifts
        return p

    @classmethod
    def constant(cls, parent: TorusExtension, element: ExtElement):
        if element.parent is not parent:
            raise ValidationError("element belongs to a different extension")
        return cls._of(parent, 1, (0, 1), element.d, (element.n, element.n), element.f)

    def _lift(self, t):
        """The lift at parameter t as (numerators, denominator): the stored
        lift at a breakpoint, otherwise interpolated on integers."""
        t = rational(t)
        if not 0 <= t <= 1:
            raise ValidationError("parameter outside [0, 1]")
        # t dt = p / q against the breakpoint numerators, compared as tn q
        p, q = t.numerator * self._dt, t.denominator
        k = bisect_left(self._t, p, key=lambda tn: tn * q)
        return _lift_at(self._t, self._l, self._dl, k, p, q)

    def lift_at(self, t) -> tuple:
        n, d = self._lift(t)
        return tuple(Fraction(x, d) for x in n)

    def value_at(self, t) -> ExtElement:
        n, d = self._lift(t)
        return self.parent._from_numerators(n, d, self.f)

    def displacement(self) -> tuple:
        d = self._dl
        return tuple(Fraction(b - a, d) for a, b in zip(self._l[0], self._l[-1]))

    def mul(self, other):
        """Pointwise product path: t -> self(t) * other(t), in one merged
        walk over both breakpoint lists."""
        if other.parent is not self.parent:
            raise ValidationError("paths belong to different extensions")
        E = self.parent
        rows = E._rows[self.f]
        dt = lcm(self._dt, other._dt)
        ta = [t * (dt // self._dt) for t in self._t]
        tb = [t * (dt // other._dt) for t in other._t]
        la, lb, da, db = self._l, other._l, self._dl, other._dl
        times, lifts = [], []
        i = j = 0
        while i < len(ta):
            t = min(ta[i], tb[j])
            a, a_d = _lift_at(ta, la, da, i, t)
            b, b_d = _lift_at(tb, lb, db, j, t)
            # a + rho(self.f) b over lcm(a_d, b_d)
            d = lcm(a_d, b_d)
            sa, sb = d // a_d, d // b_d
            times.append(t)
            lifts.append(([x * sa + sb * sum(map(_times, row, b)) for x, row in zip(a, rows)], d))
            i += ta[i] == t
            j += tb[j] == t
        # one denominator for all lifts, in lowest terms
        dl = lcm(*(d for _, d in lifts))
        lifts = [[x * (dl // d) for x in n] for n, d in lifts]
        g = gcd(dl, *(x for n in lifts for x in n))
        lifts = tuple(tuple(x // g for x in n) for n in lifts)
        return PLPath._of(E, dt, tuple(times), dl // g, lifts, E.F.mul(self.f, other.f))

    def inverse(self):
        """Pointwise group inverse path: t -> self(t)^-1."""
        E = self.parent
        finv = E.F.inv(self.f)
        rows = E._rows[finv]
        lifts = tuple(tuple(-sum(map(_times, row, n)) for row in rows) for n in self._l)
        return PLPath._of(E, self._dt, self._t, self._dl, lifts, finv)

    def __repr__(self):
        fname = self.parent.F.names[self.f]
        return f"PLPath({len(self._t)} breakpoints, f={fname})"


class PatchCocycle:
    """Three arcs over the double intersections of the three-patch cover."""

    __slots__ = ("parent", "a12", "a13", "a23")

    def __init__(self, a12: PLPath, a13: PLPath, a23: PLPath):
        parents = {id(a12.parent), id(a13.parent), id(a23.parent)}
        if len(parents) != 1:
            raise ValidationError("arcs belong to different extensions")
        self.parent = a12.parent
        self.a12 = a12
        self.a13 = a13
        self.a23 = a23

    def values_at(self, t):
        return self.a12.value_at(t), self.a13.value_at(t), self.a23.value_at(t)

    def validate(self) -> list:
        """Per-condition diagnostics at the two triple points.

        Returns a list of dicts with keys check, location, ok, detail;
        never raises."""
        E = self.parent
        out = []
        for t, location in ((Fraction(0), "front"), (Fraction(1), "back")):
            v12, v13, v23 = self.values_at(t)
            prod = E.mul(v12, v23)
            ok = prod == v13
            out.append(
                {
                    "check": "cocycle-equation",
                    "location": location,
                    "ok": ok,
                    "detail": "a12*a23 = a13" if ok else f"a12*a23 = {prod!r} but a13 = {v13!r}",
                }
            )
            bad = None
            pairs = (("a12", v12, "a13", v13), ("a12", v12, "a23", v23), ("a13", v13, "a23", v23))
            for n1, x, n2, y in pairs:
                c = E.commutator(x, y)
                if not c.is_identity():
                    bad = f"[{n1}, {n2}] = {c!r}"
                    break
            out.append(
                {
                    "check": "commutativity",
                    "location": location,
                    "ok": bad is None,
                    "detail": bad or "all pairwise commutators vanish",
                }
            )
        return out

    def _require(self, checks, what: str) -> None:
        """ValidationError, prefixed with `what`, naming the first failed
        check of validate() among `checks`."""
        for d in self.validate():
            if d["check"] in checks and not d["ok"]:
                raise ValidationError(
                    f"{what}: {d['check']} fails at {d['location']}: {d['detail']}"
                )

    @property
    def is_valid(self) -> bool:
        return all(d["ok"] for d in self.validate())

    def invert(self):
        """Pointwise inverse cocycle; requires commutativity, otherwise the
        inverse would not satisfy the cocycle equation."""
        self._require(("cocycle-equation", "commutativity"), "cannot invert")
        return PatchCocycle(self.a12.inverse(), self.a13.inverse(), self.a23.inverse())

    def __repr__(self):
        return f"PatchCocycle(over {self.parent!r})"


class ClutchResult:
    """Winding class of the clutching loop of a cocycle: an exact rational
    vector when the loop lies in the identity component; otherwise None
    with marker set."""

    __slots__ = ("winding", "marker")

    def __init__(self, winding, marker):
        self.winding = winding
        self.marker = marker

    def __repr__(self):
        if self.marker:
            return f"ClutchResult(marker={self.marker!r})"
        w = ",".join(str(x) for x in self.winding)
        return f"ClutchResult(winding=({w}))"


def clutch(c: PatchCocycle) -> ClutchResult:
    """The winding class of the clutching loop, the a12*a23 arc (forward)
    followed by the a13 arc (backward): the difference of the two arcs'
    lift displacements.  The loop closes exactly where the cocycle equation
    holds at both triple points; ValidationError when it does not."""
    arc1 = c.a12.mul(c.a23)
    arc2 = c.a13
    if any(arc1.value_at(t) != arc2.value_at(t) for t in (0, 1)):
        c._require(("cocycle-equation",), "clutching loop fails to close")
        raise MathInvariantError(
            "the product arc a12*a23 misses a13 at a triple point "
            "although the cocycle equation holds there"
        )
    if arc1.f != arc2.f or arc1.f != 0:
        return ClutchResult(None, NOT_IDENTITY_COMPONENT)
    d1 = arc1.displacement()
    d2 = arc2.displacement()
    return ClutchResult(tuple(a - b for a, b in zip(d1, d2)), None)


def _require_torus_path(x: PLPath, name: str):
    if x.f != 0:
        raise ValidationError(f"{name} must have identity finite part")


class QxResult:
    """Clutching outcome of the commutator-composite cocycle."""

    __slots__ = ("clutching",)

    def __init__(self, clutching):
        self.clutching = clutching


def build_qx_cocycle(E: TorusExtension, q: int, x: PLPath) -> QxResult:
    """Compose the patch data (x(t), q-lift, identity) with the commutator
    map and clutch the resulting cocycle.

    x must be a torus loop based at the identity.  The only nonconstant arc
    is a12(t) = [x(t), q-lift]; its winding is the psi_star(q) image of the
    class of x (with a sign fixed by the arc orientation convention)."""
    if x.parent is not E:
        raise ValidationError("path belongs to a different extension")
    _require_torus_path(x, "x")
    if not x.value_at(0).is_identity():
        raise ValidationError("x must be based at the identity")
    if not x.value_at(1).is_identity():
        raise ValidationError("x must be a closed loop at the identity")
    q = E._finite_part(q)
    # x is the identity at both triple points, so the successive quotients
    # of (x, q-lift, 1) there, q-lift and its inverse, commute; the only
    # nonconstant arc is a12 = -psi_star(q) x, on the lift numerators
    B = E._pair(q, 0)[1]
    a12_lifts = tuple(tuple(-sum(map(_times, row, n)) for row in B) for n in x._l)
    a12 = PLPath._of(E, x._dt, x._t, x._dl, a12_lifts, 0)
    ident = PLPath.constant(E, E.identity())
    cocycle = PatchCocycle(a12, ident, ident)
    failures = [d for d in cocycle.validate() if not d["ok"]]
    if failures:
        raise MathInvariantError(f"composite cocycle invalid: {failures[0]}")
    result = clutch(cocycle)
    D, pi1 = torus_pi1_lattice(E)
    image = Lattice.from_columns(
        E.rank, [[sum(map(_times, row, v)) for row in B] for v in pi1.basis_rows()]
    )
    if result.winding is not None:
        scaled = [D * w for w in result.winding]
        if any(s.denominator != 1 for s in scaled) or not image.contains(scaled):
            raise MathInvariantError(
                "clutching winding escaped the commutation-action lattice"
            )
    return QxResult(result)


def build_alpha_cocycle(E: TorusExtension, p: int, q: int, x: PLPath, y: PLPath) -> PatchCocycle:
    """The two-parameter construction: a12 = (p-lift x(t)) (q-lift y(t)),
    a23 = (q-lift y(t))^-1, a13 = p-lift x(t).

    x and y are torus paths; the values p-lift*x and q-lift*y must commute
    at both endpoint parameters, otherwise the data cannot commute at the
    triple points and a constructive error names the offending commutator."""
    if x.parent is not E or y.parent is not E:
        raise ValidationError("paths belong to a different extension")
    _require_torus_path(x, "x")
    _require_torus_path(y, "y")
    pbar = PLPath.constant(E, E.lift_element(p))
    qbar = PLPath.constant(E, E.lift_element(q))
    px = pbar.mul(x)
    qy = qbar.mul(y)
    for t in (0, 1):
        c = E.commutator(px.value_at(t), qy.value_at(t))
        if not c.is_identity():
            raise ValidationError(
                f"endpoint commutation fails at parameter {t}: "
                f"[p-lift*x, q-lift*y] = {c!r}"
            )
    a12 = px.mul(qy)
    a23 = qy.inverse()
    a13 = px
    return PatchCocycle(a12, a13, a23)
