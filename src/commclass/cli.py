"""Command-line surface.

Ten subcommands covering the library: tuple-space homology for both
simplicial models, group-ring invariants, torus-extension lattice analysis,
single-commutator coverage, cocycle clutching, the coset-poset oracle, and
the full acceptance suite.  Output is a human-readable table by default or
a deterministic JSON document with --output machine; --fixtures pins the
machine document to a file and flags any later drift.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .cocycles import clutch
from .cosetposet import CosetPoset, closed_abelian_subgroups
from .errors import (
    DEFAULT_BUDGET,
    Budget,
    BudgetExceededError,
    MathInvariantError,
    ParseError,
    ValidationError,
)
from .fileio import parse_cocycle, parse_extension, parse_group
from .groupring import coinvariants, moore_h2, pi2_e2_connected
from .groups import abelianization, continuation_counts
from .intlinalg import (
    AbelianGroupInvariants,
    IntMatrix,
    Lattice,
    complement,
    homology_range,
)
from .simplicial import level_sizes, morse_complex
from .torus import (
    commutator_lattices,
    psi_star,
    single_commutator_cover,
    torus_pi1_lattice,
)

OUTPUT_VERSION = 1


# ---------------------------------------------------------------------------
# value rendering


def _element_doc(E, t, f) -> dict:
    return {"t": [Fraction(x) for x in t], "f": E.F.name_of(f)}


def _json_default(v):
    """The json.dumps hook: the JSON form of each value type json does not know."""
    if isinstance(v, AbelianGroupInvariants):
        return {"free_rank": v.free_rank, "invariant_factors": v.torsion}
    if isinstance(v, Lattice):
        return {"ambient": v.ambient, "basis_rows": v.basis_rows()}
    if isinstance(v, IntMatrix):
        return {"rows": v.to_rows()}
    if isinstance(v, Fraction):
        return str(v)
    raise TypeError(f"no machine form for {type(v).__name__}")


def _text_value(v) -> str:
    if isinstance(v, Lattice):
        rows = v.basis_rows()
        body = ", ".join("(" + ", ".join(str(x) for x in r) + ")" for r in rows)
        return f"span{{{body}}} in Z^{v.ambient}" if rows else f"0 in Z^{v.ambient}"
    if isinstance(v, IntMatrix):
        return str(v.to_rows())
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, dict):
        return "{" + ", ".join(f"{k}: {_text_value(x)}" for k, x in v.items()) + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_text_value(x) for x in v) + "]"
    if v is None:
        return "-"
    return str(v)


def _row(name: str, value, ref: str) -> dict:
    return {"name": name, "value": value, "ref": ref}


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (rows, inputs, exit_code)


def _homology_rows(args, nondegenerate: list, h: list, counts_ref: str, hom_ref: str) -> tuple:
    """The rows, inputs and exit code of a homology command from its model's
    nondegenerate level counts (0..max_dim+1) and reduced homology h[0..max_dim]."""
    # C_0 is never empty here, so H0 is H~0 plus one free summand
    h0 = AbelianGroupInvariants(h[0].free_rank + 1, h[0].torsion)
    rows = [
        _row("level-sizes", level_sizes(nondegenerate, args.budget), counts_ref),
        _row("nondegenerate-sizes", nondegenerate, counts_ref),
        _row("H0", h0, hom_ref),
        _row("H~0", h[0], hom_ref),
    ]
    rows += [_row(f"H{k}", h[k], hom_ref) for k in range(1, len(h))]
    return rows, {"group": args.group, "max_dim": args.max_dim}, 0


def cmd_homology_b2g(args):
    G = parse_group(args.group, budget=args.budget)
    # the collapsing-scheme Morse complex of build_c(G, max_dim + 1), never the model itself
    M = morse_complex(G, args.max_dim + 1, budget=args.budget)
    h = homology_range(M.boundaries, reduced=True, budget=args.budget)
    refs = "commuting-tuple-level-counts", "commuting-tuple-space-homology"
    return _homology_rows(args, M.nondegenerate_sizes, h, *refs)


def cmd_homology_e2g(args):
    G = parse_group(args.group, budget=args.budget)
    # one lattice walk: its sets' centres give Q, its counts build_e's levels
    counts = continuation_counts(G, args.max_dim + 1, args.budget)
    poset = CosetPoset(G, closed_abelian_subgroups(G, counts))
    h = poset.homology(args.max_dim, budget=args.budget)
    nondegenerate = [G.order * n for n in counts[frozenset(range(G.order))]]
    return _homology_rows(args, nondegenerate, h, "total-space-level-counts", "total-space-homology")


def cmd_coinvariants(args):
    G = parse_group(args.group, budget=args.budget)
    co = coinvariants(G, budget=args.budget)
    ab = AbelianGroupInvariants(0, tuple(abelianization(G, args.budget)))
    rows = [
        _row("coinvariants", co, "augmentation-ideal-coinvariants"),
        _row("abelianization", ab, "abelianization-invariants"),
        _row("agrees", co == ab, "coinvariants-abelianization-agreement"),
    ]
    return rows, {"group": args.group}, 0


def cmd_moore_h2(args):
    G = parse_group(args.group, budget=args.budget)
    h2 = moore_h2(G, budget=args.budget)
    co = coinvariants(G, budget=args.budget)
    rows = [
        _row("moore-h2", h2, "moore-complex-middle-homology"),
        _row("coinvariants", co, "augmentation-ideal-coinvariants"),
        _row("agrees", h2 == co, "moore-h2-coinvariants-agreement"),
    ]
    return rows, {"group": args.group}, 0


def cmd_pi2_e2(args):
    try:
        factors = [int(part) for part in args.pi1.split(",") if part.strip()]
    except ValueError:
        raise ValidationError(f"--pi1 expects comma-separated integers, got {args.pi1!r}")
    result = pi2_e2_connected(factors, budget=args.budget)
    rows = [_row("pi2", result, "pi2-of-connected-total-space")]
    return rows, {"pi1": factors}, 0


def cmd_torus_analyze(args):
    E = parse_extension(args.ext, budget=args.budget)
    rows = [
        _row("rank", E.rank, "extension-shape"),
        _row("finite-order", E.F.order, "extension-shape"),
        _row("split", E.is_split, "central-quotient-structure"),
        _row(
            "torus-quotient-elements",
            [_element_doc(E, t, f) for t, f in E.z_elements],
            "central-quotient-structure",
        ),
    ]
    for q in range(E.F.order):
        name = E.F.name_of(q)
        rows.append(_row(f"psi[{name}]", psi_star(E, q), "commutation-action-on-pi1"))
    lattice_sum, subtorus = commutator_lattices(E)
    scale, pi1 = torus_pi1_lattice(E)
    rows += [
        _row("commutator-image-sum", lattice_sum, "commutator-image-lattice"),
        _row("commutator-subtorus", subtorus, "commutator-subtorus-saturation"),
        _row("pi1-subtorus-summand", subtorus, "pi1-splitting"),
        _row("pi1-complement", complement(subtorus), "pi1-splitting"),
        _row("pi1-denominator", scale, "quotient-torus-pi1"),
        _row("pi1-lattice-times-denominator", pi1, "quotient-torus-pi1"),
    ]
    return rows, {"ext": args.ext}, 0


def cmd_single_comm(args):
    E = parse_extension(args.ext, budget=args.budget)
    report = single_commutator_cover(
        E, args.denominator, search_denominator=args.search_denominator, budget=args.budget
    )
    rows = [
        _row("covered", report.covered, "single-commutator-cover"),
        _row("denominator", report.denominator, "single-commutator-cover"),
        _row("search-denominator", report.search_denominator, "single-commutator-cover"),
        _row("target-count", len(report.targets), "single-commutator-cover"),
        _row(
            "witnesses",
            [
                {
                    "target": _element_doc(E, t.t, t.f),
                    "x": _element_doc(E, x.t, x.f),
                    "y": _element_doc(E, y.t, y.f),
                }
                for t, x, y in report.witnesses
            ],
            "single-commutator-witnesses",
        ),
        _row(
            "missing",
            [_element_doc(E, t.t, t.f) for t in report.missing],
            "single-commutator-witnesses",
        ),
    ]
    return rows, {"ext": args.ext, "denominator": args.denominator}, 0


def cmd_clutch(args):
    E, cocycle = parse_cocycle(args.cocycle, budget=args.budget)
    if args.invert:
        cocycle = cocycle.invert()
    rows = [
        _row(f"check-{c['check']}-{c['location']}", c["ok"], "cocycle-validation") for c in cocycle.validate()
    ]
    result = clutch(cocycle)
    winding = result.winding
    # a loop through the central quotient can wind a fraction of a turn, written "p/q"
    if winding is not None:
        winding = [int(x) if x.denominator == 1 else x for x in winding]
    rows += [
        _row("winding", winding, "clutching-loop-winding"),
        _row("marker", result.marker, "identity-component-marker"),
    ]
    return rows, {"cocycle": args.cocycle, "invert": bool(args.invert)}, 0


def cmd_coset_poset(args):
    G = parse_group(args.group, budget=args.budget)
    poset = CosetPoset(G, budget=args.budget)
    vertices, edges = poset.size()
    rows = [
        _row("abelian-subgroups", len(poset.family), "abelian-subgroup-count"),
        _row("vertices", vertices, "coset-poset-size"),
        _row("edges", edges, "coset-poset-size"),
    ]
    for i, h in enumerate(poset.homology(args.max_dim, budget=args.budget)):
        rows.append(_row(f"H~{i}", h, "coset-poset-homology"))
    return rows, {"group": args.group, "max_dim": args.max_dim}, 0


def cmd_verify_all(args):
    from .acceptance import run_all

    # each library call gets a meter of its own: no one meter covers the suite
    results = run_all(budget=args.budget.limit)
    rows = []
    failed = 0
    for number, name, passed, detail in results:
        rows.append(
            _row(
                f"criterion-{number:02d}",
                {"name": name, "passed": passed, "detail": detail},
                "acceptance-criterion",
            )
        )
        if not passed:
            failed += 1
    rows.append(_row("all-passed", failed == 0, "acceptance-summary"))
    return rows, {}, 0 if failed == 0 else 4


# ---------------------------------------------------------------------------
# parser and entry point


_SPEC = {"required": True, "help": "catalog name or spec file"}
_GROUP, _EXT, _MAX_DIM = ("--group", _SPEC), ("--ext", _SPEC), ("--max-dim", {"type": int, "default": 2})

# every subcommand in --help order: name, handler, help, then its own arguments
_COMMANDS = (
    ("homology-b2g", cmd_homology_b2g, "homology of the commuting-tuple simplicial space", _GROUP, _MAX_DIM),
    ("homology-e2g", cmd_homology_e2g, "homology of the homogeneous total-space model", _GROUP, _MAX_DIM),
    ("coinvariants", cmd_coinvariants, "augmentation-ideal coinvariants", _GROUP),
    ("moore-h2", cmd_moore_h2, "middle homology of the Moore complex", _GROUP),
    (
        "coset-poset", cmd_coset_poset, "reduced homology of the coset poset of abelian subgroups",
        _GROUP, _MAX_DIM,
    ),
    (
        "pi2-e2", cmd_pi2_e2, "pi2 of the connected total-space model",
        ("--pi1", {"required": True, "help": "invariant factors, e.g. 2,2"}),
    ),
    ("torus-analyze", cmd_torus_analyze, "commutator lattice analysis of a torus extension", _EXT),
    (
        "single-comm", cmd_single_comm, "single-commutator coverage of the commutator subtorus", _EXT,
        ("--denominator", {"type": int, "required": True}),
        ("--search-denominator", {"type": int}),
    ),
    (
        "clutch", cmd_clutch, "clutching winding of a patch cocycle",
        ("--cocycle", {"required": True, "help": "cocycle spec file"}),
        ("--invert", {"action": "store_true", "help": "invert pointwise before clutching"}),
    ),
    ("verify-all", cmd_verify_all, "run the full acceptance suite"),
)


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="commclass",
        description="Homology of commuting-tuple spaces, torus-extension "
        "commutator lattices, and clutching windings of commutative cocycles.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, handler, help_text, *arguments in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.add_argument("--output", choices=("text", "machine"), default="text")
        p.add_argument("--fixtures", metavar="PATH")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
        p.set_defaults(handler=handler)
    return top


def _machine_doc(command: str, inputs: dict, rows: list) -> str:
    doc = {"version": OUTPUT_VERSION, "command": command, "inputs": inputs, "results": rows}
    return json.dumps(doc, sort_keys=True, indent=2, default=_json_default) + "\n"


def _print_text(rows) -> None:
    width = max((len(r["name"]) for r in rows), default=0)
    for r in rows:
        value = r["value"]
        if isinstance(value, dict) and "passed" in value and "name" in value:
            status = "PASS" if value["passed"] else "FAIL"
            print(f"{r['name']:<{width}}  {status}  {value['name']}: {value['detail']}")
        else:
            print(f"{r['name']:<{width}}  {_text_value(value)}")


def _handle_fixtures(path: str, machine_text: str) -> tuple:
    try:
        with open(path, encoding="utf-8") as fh:
            pinned = fh.read()
    except FileNotFoundError:
        # write beside the target and rename, so no reader sees half a file
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(machine_text)
            os.replace(tmp, path)
        except OSError as e:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise ValidationError(f"cannot write fixtures file {path}: {e.strerror}")
        return "pinned", 0
    except OSError as e:
        raise ValidationError(f"cannot read fixtures file {path}: {e.strerror}")
    except UnicodeDecodeError:
        raise ParseError(f"fixtures file {path} is not a machine document")
    if pinned == machine_text:
        return "match", 0
    try:
        pinned_rows = {r["name"]: r["value"] for r in json.loads(pinned).get("results", [])}
    except (ValueError, TypeError, KeyError, AttributeError, RecursionError):
        raise ParseError(f"fixtures file {path} is not a machine document")
    new_rows = {r["name"]: r["value"] for r in json.loads(machine_text)["results"]}
    drifted = sorted(
        set(pinned_rows) ^ set(new_rows)
        | {k for k in set(pinned_rows) & set(new_rows) if pinned_rows[k] != new_rows[k]}
    )
    return "drift: " + ", ".join(drifted), 4


# built by the first call of main and reused: parse_args leaves the parser unchanged
_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = _parser()
    args = _PARSER.parse_args(argv)
    try:
        # the bounds every command shares, refused before any work
        for flag, value in (("--budget", args.budget), ("--max-dim", getattr(args, "max_dim", 0))):
            if value < 0:
                raise ValidationError(f"{flag} must be nonnegative")
        args.budget = Budget(args.budget)
        rows, inputs, code = args.handler(args)
        if args.output == "machine" or args.fixtures:
            machine_text = _machine_doc(args.command, inputs, rows)
        if args.output == "machine":
            sys.stdout.write(machine_text)
        else:
            _print_text(rows)
        if args.fixtures:
            status, fix_code = _handle_fixtures(args.fixtures, machine_text)
            print(f"fixtures: {status}", file=sys.stderr)
            code = max(code, fix_code)
    except BudgetExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except MathInvariantError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
