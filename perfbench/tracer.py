"""Per-layer tracing installed from outside the program.

Tracer.install() replaces each traced commclass function, in every
commclass module that holds a reference to it (so names imported with
`from .x import f` are wrapped where they are looked up), and each traced
method on its class.  Tracer.uninstall() puts the originals back.

Every wrapped call adds its self time (its duration minus the time of
wrapped calls inside it) and a call count to its layer.  Calls of coarse
functions are also kept as spans (name, start, end, parent span, operation
id) in memory; the element arithmetic of torus extensions runs hundreds of
thousands of times per pass, so it is aggregated without spans.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _levels_size(S):
    return sum(len(level) for level in S.levels)


def _chain_count(levels):
    return sum(len(level) for level in levels)


# (module, attribute, layer, result counter, span).  A dotted attribute
# names a method; its class is looked up in the module.
TARGETS = (
    ("groups", "commuting_tuples", "groups.commuting_tuples", ("groups.tuples", len), True),
    ("simplicial", "build_e", "simplicial.build", ("simplicial.simplices", _levels_size), True),
    ("simplicial", "build_c", "simplicial.build", ("simplicial.simplices", _levels_size), True),
    ("simplicial", "SimplicialTruncation.boundary_matrix", "simplicial.boundary", ("simplicial.boundary_nnz", lambda M: M.nnz), True),
    ("simplicial", "homology", "simplicial.homology", None, True),
    ("intlinalg", "homology_at", "intlinalg.homology_at", None, True),
    ("intlinalg", "IntMatrix.__matmul__", "intlinalg.matmul", None, True),
    ("intlinalg", "snf_diagonal", "intlinalg.snf", None, True),
    ("intlinalg", "row_hnf", "intlinalg.lattice", None, True),
    ("intlinalg", "saturate", "intlinalg.lattice", None, True),
    ("intlinalg", "complement", "intlinalg.lattice", None, True),
    ("intlinalg", "lattice_sum", "intlinalg.lattice", None, True),
    ("cosetposet", "abelian_subgroups", "cosetposet.poset", None, True),
    ("cosetposet", "CosetPoset.__init__", "cosetposet.poset", None, True),
    ("cosetposet", "CosetPoset.chains", "cosetposet.chains", ("cosetposet.chains", _chain_count), True),
    ("cosetposet", "coset_poset_homology", "cosetposet.homology", None, True),
    ("groupring", "coinvariants", "groupring.coinvariants", None, True),
    ("groupring", "moore_h2", "groupring.moore_h2", None, True),
    ("torus", "TorusExtension.element", "torus.element", None, False),
    ("torus", "TorusExtension.mul", "torus.element", ("torus.mul_calls", None), False),
    ("torus", "TorusExtension.inv", "torus.element", None, False),
    ("torus", "TorusExtension.lift_element", "torus.element", None, False),
    ("torus", "TorusExtension.torus_element", "torus.element", None, False),
    ("torus", "TorusExtension.identity", "torus.element", None, False),
    ("torus", "TorusExtension.elements_of_denominator", "torus.element", None, True),
    ("torus", "TorusExtension.commutator", "torus.commutator", ("torus.commutator_calls", None), False),
    ("torus", "single_commutator_cover", "torus.cover", None, True),
    ("torus", "psi_star", "torus.lattice", None, False),
    ("torus", "commutator_lattices", "torus.lattice", None, True),
    ("torus", "pi1_split", "torus.lattice", None, True),
    ("torus", "torus_pi1_lattice", "torus.lattice", None, True),
    ("cocycles", "build_qx_cocycle", "cocycles.build", None, True),
    ("cocycles", "build_alpha_cocycle", "cocycles.build", None, True),
    ("cocycles", "PatchCocycle.validate", "cocycles.validate", None, True),
    ("cocycles", "clutch", "cocycles.clutch", None, True),
    ("fileio", "parse_group", "fileio.parse", None, True),
    ("fileio", "parse_extension", "fileio.parse", None, True),
    ("fileio", "parse_cocycle", "fileio.parse", None, True),
    ("cli", "main", "cli.self", None, True),
)

# counters taken from the arguments rather than the result
ARG_COUNTERS = {"intlinalg.snf": ("intlinalg.snf_nnz", lambda M, *a, **k: M.nnz)}


class Tracer:
    def __init__(self):
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.spans = []
        self._stack = []
        self._installed = []
        self.op = None

    # -- wrapping -------------------------------------------------------

    def _wrap(self, fn, layer, counter, span):
        stack = self._stack
        spans = self.spans
        self_time = self.self_time
        calls = self.calls
        counts = self.counts
        arg_counter = ARG_COUNTERS.get(layer)

        def traced(*args, **kwargs):
            if arg_counter:
                counts[arg_counter[0]] += arg_counter[1](*args, **kwargs)
            parent = stack[-1][1] if stack else None
            start = perf_counter()
            if span:
                idx = len(spans)
                spans.append([layer, start, None, parent, self.op])
            else:
                idx = parent
            frame = [0.0, idx]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                self_time[layer] += elapsed - frame[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += elapsed
                if span:
                    spans[idx][2] = end
            if counter:
                name, measure = counter
                counts[name] += 1 if measure is None else measure(result)
            return result

        return traced

    def install(self):
        mods = {name: mod for name, mod in sys.modules.items() if name.startswith("commclass")}
        for modname, attr, layer, counter, span in TARGETS:
            mod = mods[f"commclass.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                orig = owner.__dict__[meth]
                self._installed.append((owner, meth, orig))
                setattr(owner, meth, self._wrap(orig, layer, counter, span))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(orig, layer, counter, span)
            for other in mods.values():
                for name, value in list(vars(other).items()):
                    if value is orig:
                        self._installed.append((other, name, orig))
                        setattr(other, name, wrapped)

    def uninstall(self):
        for owner, name, orig in reversed(self._installed):
            setattr(owner, name, orig)
        self._installed.clear()

    # -- operations -----------------------------------------------------

    def run_op(self, op_id, fn):
        """Run one benchmark operation as the root span of its calls."""
        self.op = op_id
        wrapped = self._wrap(fn, "bench.self", None, True)
        try:
            return wrapped()
        finally:
            self.op = None

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                },
                fh,
            )
