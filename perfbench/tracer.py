"""Per-layer tracing from outside the package.

The package imports names directly (``from .probability import mi``), so a
wrapper only sees the calls made through the name it replaces.  ``install``
therefore replaces a function under every name that refers to it in every
loaded ``nncpdf`` module: ``nncpdf.bounds.mi``, ``nncpdf.probability.
marginalize`` (for ``entropy``'s own calls), ``nncpdf.symbolic.
eliminate_variable`` (for ``project_to_R``), and so on.  ``nncpdf_bound`` as
seen from ``sys.modules["nncpdf.optimize"]`` gets one more layer that counts
objective evaluations.  The package attribute ``nncpdf.optimize`` is the
function, not the submodule, hence the ``sys.modules`` lookup.

Each wrapper records a span while ``active``: calls, and self time (the
span minus the time of traced calls made inside it).  A few wrappers also
count work: entries summed and distinct keep-sets in ``marginalize``,
states built in ``product_compose``, rows in and out of each Fourier-Motzkin
step.  Totals stay in memory and are read once the pass is over.
"""

from __future__ import annotations

import sys
import weakref
from collections import defaultdict
from time import perf_counter

TRACED = {
    "probability": ("marginalize", "entropy", "mutual_information", "product_compose"),
    "network": ("assemble_joint", "load_network_file", "load_scheme_file"),
    "bounds": ("nncpdf_bound", "term_values", "feasibility_check", "cutset_value"),
    "optimize": ("coordinate_ascent",),
    "omega": ("build_nncpdf_omega",),
    "derivation": (
        "derive_constraint_families", "constraint_for_decoding",
        "constraint_for_compression", "simplify_constraint", "asymptotic_system",
        "build_unfolded_joint",
    ),
    "symbolic": ("eliminate_variable", "project_to_R", "evaluate_region"),
    "cli": ("main",),
}

# Calls that must not read zero on a workload: the layers each workload is
# there to exercise.
REQUIRED = {
    "bound-n4": (
        "probability.marginalize", "probability.entropy", "probability.mutual_information",
        "bounds.nncpdf_bound", "bounds.term_values", "bounds.feasibility_check",
    ),
    "ascent-n3": (
        "probability.marginalize", "probability.entropy", "probability.mutual_information",
        "probability.product_compose", "network.assemble_joint",
        "bounds.nncpdf_bound", "bounds.term_values", "bounds.feasibility_check",
        "optimize.coordinate_ascent", "optimize.objective",
    ),
    "derive-n4": (
        "omega.build_nncpdf_omega", "derivation.derive_constraint_families",
        "derivation.constraint_for_decoding", "derivation.constraint_for_compression",
        "derivation.simplify_constraint", "derivation.asymptotic_system",
        "symbolic.eliminate_variable", "symbolic.project_to_R", "symbolic.evaluate_region",
    ),
    "cli-fixtures": (
        "probability.product_compose", "network.assemble_joint",
        "network.load_network_file", "network.load_scheme_file",
        "bounds.cutset_value", "derivation.build_unfolded_joint", "cli.main",
    ),
}


class Tracer:
    def __init__(self):
        self.active = False
        self.totals = defaultdict(float)
        self._stack: list[list[float]] = []
        self._keep_sets: dict[int, tuple] = {}
        self._projections: list[list[tuple[int, int]]] = []

    def span(self, name, fn, before=None, after=None):
        """``fn`` wrapped to record calls and self time under ``name``."""
        totals, stack = self.totals, self._stack

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if before is not None:
                args = before(*args, **kwargs)
            child = [0.0]
            stack.append(child)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                totals[f"{name}.calls"] += 1
                totals[f"{name}.self_s"] += elapsed - child[0]
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- counters hung on particular layers --------------------------------

    def _marginalize_before(self, d, keep):
        keep = list(keep)
        if len(set(keep)) < len(d.variables):
            self.totals["probability.marginalize.entries_summed"] += d.mass.size
        # distinct keep-sets per joint; a dead joint's id may be reused
        ref, seen = self._keep_sets.get(id(d), (None, None))
        if ref is None or ref() is not d:
            ref, seen = weakref.ref(d), set()
            self._keep_sets[id(d)] = (ref, seen)
        key = frozenset(keep)
        if key not in seen:
            seen.add(key)
            self.totals["probability.marginalize.distinct"] += 1
        return (d, keep)

    def _compose_after(self, args, joint):
        self.totals["probability.product_compose.states_built"] += joint.mass.size

    def _eliminate_after(self, args, region):
        rows_in, rows_out = len(args[0].inequalities), len(region.inequalities)
        t = self.totals
        t["symbolic.eliminate_variable.rows_in"] += rows_in
        t["symbolic.eliminate_variable.rows_out"] += rows_out
        t["symbolic.eliminate_variable.rows_out_max"] = max(
            t["symbolic.eliminate_variable.rows_out_max"], rows_out
        )
        if self._projections:
            self._projections[-1].append((rows_in, rows_out))

    def _project_before(self, region, *rest, **kwargs):
        self._projections.append([])
        return (region, *rest)

    def _project_after(self, args, region):
        # project_to_R prunes its input and every elimination's output; the
        # rows entering each elimination and the final rows are what the
        # prunes kept.
        steps = self._projections.pop()
        self.totals["symbolic.prune.rows_in"] += len(args[0].inequalities) + sum(o for _, o in steps)
        self.totals["symbolic.prune.rows_out"] += sum(i for i, _ in steps) + len(region.inequalities)

    def _objective_after(self, args, report):
        self.totals["optimize.objective.calls"] += 1
        self.totals["optimize.objective.infeasible"] += not report.feasible


def _rebind(old, new):
    """Point every name bound to ``old`` in a loaded nncpdf module at ``new``."""
    bound = 0
    for modname, mod in list(sys.modules.items()):
        if modname != "nncpdf" and not modname.startswith("nncpdf."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)
                bound += 1
    return bound


def install() -> Tracer:
    """Wrap every function in ``TRACED``; the nncpdf modules, including
    ``nncpdf.cli``, must already be imported."""
    tracer = Tracer()
    hooks = {
        "probability.marginalize": dict(before=tracer._marginalize_before),
        "probability.product_compose": dict(after=tracer._compose_after),
        "symbolic.eliminate_variable": dict(after=tracer._eliminate_after),
        "symbolic.project_to_R": dict(
            before=tracer._project_before, after=tracer._project_after
        ),
    }
    for module, names in TRACED.items():
        mod = sys.modules[f"nncpdf.{module}"]
        for fname in names:
            name = f"{module}.{fname}"
            orig = getattr(mod, fname)
            wrapped = tracer.span(name, orig, **hooks.get(name, {}))
            if _rebind(orig, wrapped) == 0:
                raise RuntimeError(f"no name refers to {name}")
    opt = sys.modules["nncpdf.optimize"]
    bound_fn = opt.nncpdf_bound

    def objective(*args, **kwargs):
        report = bound_fn(*args, **kwargs)
        if tracer.active:
            tracer._objective_after(args, report)
        return report

    opt.nncpdf_bound = objective
    return tracer


def _per_op(x, ops):
    return x / ops if ops else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(totals, ops):
    """Per-layer metric values (per operation where they are counts or
    times) from the summed totals of the traced passes."""
    out = {}
    for module, names in TRACED.items():
        for fname in names:
            name = f"{module}.{fname}"
            out[f"{name}.calls"] = _per_op(totals.get(f"{name}.calls", 0.0), ops)
            out[f"{name}.self_s"] = _per_op(totals.get(f"{name}.self_s", 0.0), ops)
    calls = totals.get("probability.marginalize.calls", 0.0)
    out["probability.marginalize.entries_summed"] = _per_op(
        totals.get("probability.marginalize.entries_summed", 0.0), ops
    )
    out["probability.marginalize.distinct_ratio"] = _ratio(
        totals.get("probability.marginalize.distinct", 0.0), calls
    )
    out["probability.product_compose.states_built"] = _per_op(
        totals.get("probability.product_compose.states_built", 0.0), ops
    )
    for kind in ("rows_in", "rows_out"):
        key = f"symbolic.eliminate_variable.{kind}"
        out[key] = _per_op(totals.get(key, 0.0), ops)
    out["symbolic.eliminate_variable.rows_out_max"] = totals.get(
        "symbolic.eliminate_variable.rows_out_max", 0.0
    )
    prune_in = totals.get("symbolic.prune.rows_in", 0.0)
    out["symbolic.prune_drop_ratio"] = _ratio(
        prune_in - totals.get("symbolic.prune.rows_out", 0.0), prune_in
    )
    evals = totals.get("optimize.objective.calls", 0.0)
    out["optimize.objective_evals"] = _per_op(evals, ops)
    out["optimize.infeasible_ratio"] = _ratio(
        totals.get("optimize.objective.infeasible", 0.0), evals
    )
    return out
