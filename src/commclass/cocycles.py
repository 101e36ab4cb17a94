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
"""

from __future__ import annotations

from fractions import Fraction

from .errors import MathInvariantError, ValidationError
from .intlinalg import Lattice
from .torus import ExtElement, TorusExtension, psi_star, torus_pi1_lattice

NOT_IDENTITY_COMPONENT = "not in identity-component loop"


class PLPath:
    """Piecewise-linear path of extension elements with constant finite part.

    Stored as strictly increasing rational times from 0 to 1 and one exact
    rational lift vector per time; the path value at t is the interpolated
    lift reduced into the group.  Lifts are NOT reduced mod 1, so closed
    loops keep their winding information.
    """

    __slots__ = ("parent", "times", "lifts", "f")

    def __init__(self, parent: TorusExtension, times, lifts, f=0):
        self.parent = parent
        times = tuple(Fraction(t) for t in times)
        lifts = tuple(tuple(Fraction(x) for x in lift) for lift in lifts)
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
        f = int(f)
        if not 0 <= f < parent.F.order:
            raise ValidationError("finite part out of range")
        self.times = times
        self.lifts = lifts
        self.f = f

    @classmethod
    def constant(cls, parent: TorusExtension, element: ExtElement):
        if element.parent is not parent:
            raise ValidationError("element belongs to a different extension")
        return cls(parent, (0, 1), (element.t, element.t), element.f)

    def lift_at(self, t) -> tuple:
        t = Fraction(t)
        if not 0 <= t <= 1:
            raise ValidationError("parameter outside [0, 1]")
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

    def value_at(self, t) -> ExtElement:
        return self.parent.element(self.lift_at(t), self.f)

    def displacement(self) -> tuple:
        return tuple(b - a for a, b in zip(self.lifts[0], self.lifts[-1]))

    def _merged_times(self, other) -> tuple:
        return tuple(sorted(set(self.times) | set(other.times)))

    def mul(self, other):
        """Pointwise product path: t -> self(t) * other(t)."""
        if other.parent is not self.parent:
            raise ValidationError("paths belong to different extensions")
        E = self.parent
        rho_f = E.rho[self.f]
        times = self._merged_times(other)
        lifts = []
        for t in times:
            a = self.lift_at(t)
            b = rho_f.times_vector(other.lift_at(t))
            lifts.append(tuple(x + y for x, y in zip(a, b)))
        return PLPath(E, times, lifts, E.F.mul(self.f, other.f))

    def inverse(self):
        """Pointwise group inverse path: t -> self(t)^-1."""
        E = self.parent
        finv = E.F.inv(self.f)
        rho_inv = E.rho[finv]
        lifts = [tuple(-x for x in rho_inv.times_vector(lift)) for lift in self.lifts]
        return PLPath(E, self.times, lifts, finv)

    def __repr__(self):
        fname = self.parent.F.names[self.f]
        return f"PLPath({len(self.times)} breakpoints, f={fname})"


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
    qbar = E.lift_element(q)
    ident = E.identity()

    # triple-point check: successive quotients of (x(t*), qbar, 1) commute
    for t in (0, 1):
        u1 = E.mul(E.inv(x.value_at(t)), qbar)
        u2 = E.inv(qbar)
        c = E.commutator(u1, u2)
        if not c.is_identity():
            raise MathInvariantError(
                f"patch data is not a homogeneous 2-simplex at parameter {t}: {c!r}"
            )

    L = psi_star(E, q)
    a12_lifts = [tuple(-v for v in L.times_vector(lift)) for lift in x.lifts]
    a12 = PLPath(E, x.times, a12_lifts, 0)
    a13 = PLPath.constant(E, ident)
    a23 = PLPath.constant(E, ident)
    cocycle = PatchCocycle(a12, a13, a23)
    failures = [d for d in cocycle.validate() if not d["ok"]]
    if failures:
        raise MathInvariantError(f"composite cocycle invalid: {failures[0]}")
    result = clutch(cocycle)
    D, pi1 = torus_pi1_lattice(E)
    image = Lattice.from_columns(
        E.rank, [L.times_vector(col) for col in pi1.basis_rows()]
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
