"""Parsing of the JSON spec files the CLI consumes: groups (catalog name,
explicit table, or permutation generators), torus extensions, and patch
cocycles.  All rationals are exact "p/q" strings; parse errors carry the
file and field that failed.  Every reader takes a budget, a limit or a
shared errors.Budget, which permutation groups and torus extensions are
charged to; a catalog group comes from its cache without a charge.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from .catalog import catalog_group, catalog_names, permutation_group
from .cocycles import PatchCocycle, PLPath
from .errors import DEFAULT_BUDGET, ParseError, ValidationError, meter
from .groups import FiniteGroup
from .intlinalg import IntMatrix
from .torus import TorusExtension, catalog_extension, extension_names, rational


def load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise ParseError(f"{path}: {e.strerror or e}") from None
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None
    except (ValueError, RecursionError) as e:  # not UTF-8, nested too deep, or an int too long
        raise ParseError(f"{path}: {e}") from None


def parse_rational(value, where: str) -> Fraction:
    try:
        return rational(value)
    except ValidationError as e:
        raise ParseError(f"{where}: {e}") from None


def _require(doc, key, where, kind=None):
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected an object")
    if key not in doc:
        raise ParseError(f"{where}: missing field {key!r}")
    value = doc[key]
    # JSON true/false load as bool, a subclass of int; no field takes one
    if kind is not None and (not isinstance(value, kind) or isinstance(value, bool)):
        raise ParseError(f"{where}.{key}: wrong type {type(value).__name__}")
    return value


def _int_list(value, where: str) -> list:
    if not isinstance(value, list) or any(
        not isinstance(v, int) or isinstance(v, bool) for v in value
    ):
        raise ParseError(f"{where}: expected a list of integers")
    return value


def group_from_spec(doc, where: str = "group", budget: int = DEFAULT_BUDGET) -> FiniteGroup:
    fmt = _require(doc, "format", where, str)
    if fmt == "catalog":
        name = _require(doc, "name", where, str)
        if name not in catalog_names():
            raise ParseError(f"{where}.name: unknown catalog group {name!r}")
        return catalog_group(name)
    if fmt == "table":
        table = _require(doc, "table", where, list)
        for i, row in enumerate(table):
            _int_list(row, f"{where}.table[{i}]")
        names = doc.get("names")
        if names is not None and not isinstance(names, list):
            raise ParseError(f"{where}.names: expected a list")
        for i, name in enumerate(names or ()):
            try:
                str(name).encode("utf-8")
            except UnicodeEncodeError:  # a lone surrogate such as "\ud800"
                raise ParseError(f"{where}.names[{i}]: not encodable as UTF-8") from None
        label = doc.get("label")
        return FiniteGroup(table, names=names, label=label)
    if fmt == "perm":
        degree = _require(doc, "degree", where, int)
        gens = _require(doc, "generators", where, list)
        for i, g in enumerate(gens):
            if len(_int_list(g, f"{where}.generators[{i}]")) != degree:
                raise ParseError(f"{where}.generators: each generator lists the images of 0..{degree - 1}")
        return permutation_group([tuple(g) for g in gens], label=doc.get("label"), budget=budget)
    raise ParseError(f"{where}.format: unknown format {fmt!r}")


def parse_group(source: str, budget: int = DEFAULT_BUDGET) -> FiniteGroup:
    """Accept a catalog group name or a path to a group spec file."""
    if source in catalog_names():
        return catalog_group(source)
    if os.path.exists(source):
        return group_from_spec(load_json(source), where=source, budget=budget)
    raise ParseError(f"{source!r} is neither a catalog group nor a readable file")


def _element_index(F: FiniteGroup, name, where: str) -> int:
    if isinstance(name, int) and not isinstance(name, bool):
        if not 0 <= name < F.order:
            raise ParseError(f"{where}: element index {name} out of range")
        return name
    if isinstance(name, str):
        if name in F.names:
            return F.names.index(name)
        raise ParseError(f"{where}: unknown element name {name!r}")
    raise ParseError(f"{where}: expected an element name or index")


def extension_from_spec(
    doc, where: str = "extension", budget: int = DEFAULT_BUDGET
) -> TorusExtension:
    rank, budget = _require(doc, "rank", where, int), meter(budget)
    F = group_from_spec(_require(doc, "finite", where), where=f"{where}.finite", budget=budget)
    action = _require(doc, "action", where, dict)
    images = {}
    for name, mat in action.items():
        idx = _element_index(F, name, f"{where}.action")
        if not isinstance(mat, list) or len(mat) != rank or any(
            not isinstance(row, list) or len(row) != rank for row in mat
        ):
            raise ParseError(f"{where}.action.{name}: expected a {rank}x{rank} integer matrix")
        for row in mat:
            for v in row:
                if not isinstance(v, int) or isinstance(v, bool):
                    raise ParseError(f"{where}.action.{name}: matrix entries must be integers")
        images[idx] = IntMatrix.from_rows(mat)
    quotient = []
    gens = _require(doc, "central_quotient", where, list) if "central_quotient" in doc else []
    for i, gen in enumerate(gens):
        gwhere = f"{where}.central_quotient[{i}]"
        tvec = _require(gen, "t", gwhere, list)
        if len(tvec) != rank:
            raise ParseError(f"{gwhere}.t: expected {rank} coordinates")
        t = tuple(parse_rational(x, f"{gwhere}.t") for x in tvec)
        f = _element_index(F, _require(gen, "f", gwhere), f"{gwhere}.f")
        quotient.append((t, f))
    return TorusExtension(
        rank, F, images, central_quotient=quotient, label=doc.get("label"), budget=budget
    )


def parse_extension(source: str, budget: int = DEFAULT_BUDGET) -> TorusExtension:
    """Accept a catalog extension name or a path to an extension spec file."""
    if source in extension_names():
        return catalog_extension(source, budget=budget)
    if os.path.exists(source):
        return extension_from_spec(load_json(source), where=source, budget=budget)
    raise ParseError(f"{source!r} is neither a catalog extension nor a readable file")


def _arc_from_spec(E: TorusExtension, points, where: str) -> PLPath:
    if not isinstance(points, list) or not points:
        raise ParseError(f"{where}: expected a nonempty breakpoint list")
    times, lifts, fs = [], [], []
    for i, pt in enumerate(points):
        pwhere = f"{where}[{i}]"
        times.append(parse_rational(_require(pt, "time", pwhere), f"{pwhere}.time"))
        tvec = _require(pt, "t", pwhere, list)
        if len(tvec) != E.rank:
            raise ParseError(f"{pwhere}.t: expected {E.rank} coordinates")
        lifts.append(tuple(parse_rational(x, f"{pwhere}.t") for x in tvec))
        fs.append(_element_index(E.F, _require(pt, "f", pwhere), f"{pwhere}.f"))
    if len(set(fs)) != 1:
        raise ParseError(f"{where}: the finite part must be constant along an arc")
    return PLPath(E, times, lifts, fs[0])


def cocycle_from_spec(
    doc, where: str = "cocycle", base_dir: str | None = None, budget: int = DEFAULT_BUDGET
):
    ext = _require(doc, "extension", where)
    if isinstance(ext, str):
        if base_dir and ext not in extension_names():
            candidate = os.path.join(base_dir, ext)
            if os.path.exists(candidate):
                ext = candidate
        E = parse_extension(ext, budget=budget)
    else:
        E = extension_from_spec(ext, where=f"{where}.extension", budget=budget)
    arcs = _require(doc, "arcs", where, dict)
    paths = {}
    for key in ("a12", "a13", "a23"):
        paths[key] = _arc_from_spec(E, _require(arcs, key, f"{where}.arcs"), f"{where}.arcs.{key}")
    return E, PatchCocycle(paths["a12"], paths["a13"], paths["a23"])


def parse_cocycle(source: str, budget: int = DEFAULT_BUDGET):
    """Parse a cocycle spec file; returns (extension, cocycle).

    A relative extension path inside the file resolves against the file's
    own directory first, so spec bundles can be moved as a unit."""
    return cocycle_from_spec(
        load_json(source),
        where=source,
        base_dir=os.path.dirname(os.path.abspath(source)),
        budget=budget,
    )
