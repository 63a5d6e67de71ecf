"""Span tracing of the parafosls package from outside its source.

``install`` replaces every public function of the package modules, and
every public method (plus ``__init__``) of the classes they define, with
a wrapper that records a span: name, parent span, start and end. A
replaced function is rebound wherever the package refers to it, so calls
between modules are seen as well. Spans stay in memory; ``layer_metrics``
turns them into per-layer counts and times once the run has ended.

Span names are ``<module>.<function>`` or ``<module>.<Class>.<method>``.
Two spans are not package attributes: ``analysis.source`` wraps the
source callable of each manufactured problem, and ``forms.tables`` wraps
the constructor of the per-rule element tables, which the forms build
lazily inside their first matrix or load call.
"""

import dataclasses
import enum
import functools
import importlib
import inspect
import sys
from time import perf_counter

MODULES = (
    "mesh", "quadrature", "spaces", "forms", "solver",
    "evolution", "projection", "analysis", "driver",
)


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self.observed = {}  # key -> values recorded by hooks
        self._stack = [-1]

    def wrap(self, name, fn, after=None):
        """Return fn wrapped in a span; ``after(tracer, result, args, kwargs)``
        runs once the span has closed and returns the result to hand back."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1], 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if after is not None:
                result = after(self, result, args, kwargs)
            return result

        return traced

    def observe(self, key, value):
        self.observed.setdefault(key, []).append(value)


def _observe_factor(tracer, result, args, kwargs):
    tracer.observe("lu_fill", args[0].lu.nnz)
    return result


def _observe_solve(tracer, report, args, kwargs):
    tracer.observe("refine_sweeps", report.iterations)
    tracer.observe("rel_residual", report.relative_residual)
    return report


def _observe_matrix(tracer, matrix, args, kwargs):
    tracer.observe("nnz", matrix.nnz)
    return matrix


def _observe_run(fn):
    signature = inspect.signature(fn)

    def after(tracer, states, args, kwargs):
        partition = signature.bind(*args, **kwargs).arguments["partition"]
        tracer.observe("steps", len(partition.steps))
        return states

    return after


def _trace_source(tracer, problem, args, kwargs):
    return dataclasses.replace(problem, f=tracer.wrap("analysis.source", problem.f))


def _hooks(modules):
    evolution = modules["evolution"]
    return {
        "solver.FactorHandle.__init__": _observe_factor,
        "solver.FactorHandle.solve": _observe_solve,
        "forms.FormAssembler.total_matrix": _observe_matrix,
        "forms.FormAssembler.nonsymmetric_matrix": _observe_matrix,
        "evolution.backward_euler_run": _observe_run(evolution.backward_euler_run),
        "analysis.decaying_sine_problem": _trace_source,
    }


def _wrap_class(tracer, cls, prefix, hooks):
    for attr, member in list(vars(cls).items()):
        if attr.startswith("_") and attr != "__init__":
            continue
        name = f"{prefix}.{cls.__name__}.{attr}"
        if isinstance(member, (classmethod, staticmethod)):
            wrapped = tracer.wrap(name, member.__func__, hooks.get(name))
            setattr(cls, attr, type(member)(wrapped))
        elif inspect.isfunction(member):
            setattr(cls, attr, tracer.wrap(name, member, hooks.get(name)))


def install(tracer):
    """Wrap the package in spans."""
    modules = {m: importlib.import_module(f"parafosls.{m}") for m in MODULES}
    hooks = _hooks(modules)
    replaced = {}  # id(original function) -> wrapper
    for prefix, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                name = f"{prefix}.{attr}"
                replaced[id(obj)] = tracer.wrap(name, obj, hooks.get(name))
            elif inspect.isclass(obj) and not issubclass(obj, (enum.Enum, BaseException)):
                _wrap_class(tracer, obj, prefix, hooks)
    tables = getattr(modules["forms"], "_RuleTables", None)
    if tables is not None:
        tables.__init__ = tracer.wrap("forms.tables", tables.__init__)
    for name, module in list(sys.modules.items()):
        if name == "parafosls" or name.startswith("parafosls."):
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    setattr(module, attr, replaced[id(obj)])


def summarize(spans):
    """name -> [calls, total seconds, self seconds].

    Self time is a span's duration minus the durations of its child spans.
    """
    child = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    stats = {}
    for i, (name, parent, start, end) in enumerate(spans):
        entry = stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child[i]
    return stats


def layer_metrics(tracer, wall_s):
    """Per-layer metrics of one traced repetition that took wall_s seconds."""
    stats = summarize(tracer.spans)
    seen = tracer.observed

    def calls(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[0] for n in names)

    def total(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_s(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[2] for n in names)

    def module_self(module):
        return sum(s[2] for n, s in stats.items() if n.startswith(module + "."))

    factor = "solver.FactorHandle.__init__"
    solve = "solver.FactorHandle.solve"
    metrics = {
        "forms.load_calls": calls("forms.FormAssembler.load_vector"),
        "forms.load_s": self_s("forms.FormAssembler.load_vector"),
        "analysis.source_calls": calls("analysis.source"),
        "analysis.source_s": self_s("analysis.source"),
        "evolution.steps": sum(seen.get("steps", [])),
        "evolution.run_self_s": self_s("evolution.backward_euler_run"),
        "solver.solve_calls": calls(solve),
        "solver.solve_s": self_s(solve),
        "solver.refine_sweeps": sum(seen.get("refine_sweeps", [])),
        "solver.factor_calls": calls(factor),
        "solver.factor_s": self_s(factor),
        "solver.lu_fill": max(seen.get("lu_fill", [0])),
        "solver.reuse_ratio": calls(solve) / max(calls(factor), 1),
        "solver.max_rel_residual": max(seen.get("rel_residual", [0.0])),
        "forms.assemblers": calls("forms.FormAssembler.__init__"),
        "forms.tables_builds": calls("forms.tables"),
        "forms.tables_s": self_s("forms.tables"),
        "forms.total_matrix_s": self_s("forms.FormAssembler.total_matrix"),
        "forms.nnz": max(seen.get("nnz", [0])),
        "forms.nonsym_matrix_s": self_s("forms.FormAssembler.nonsymmetric_matrix"),
        "forms.nonsym_load_s": self_s("forms.FormAssembler.nonsymmetric_load_from_fields"),
        "projection.calls": calls("projection.elliptic_project"),
        "mesh.refine_calls": calls("mesh.refine_uniform"),
        "mesh.refine_s": self_s("mesh.refine_uniform"),
        "spaces.dofmap_s": self_s("spaces.build_dof_map"),
        "spaces.geometry_calls": calls("spaces.element_geometry"),
        "spaces.geometry_s": self_s("spaces.element_geometry"),
        "quadrature.rule_calls": calls("quadrature.triangle_rule"),
        "evolution.initial_proj_s": total("evolution.l2_project_initial"),
        "analysis.errors_s": self_s("analysis.compute_errors", "analysis.field_error_norms"),
        "driver.level_self_s": self_s("driver.run_level"),
    }
    for module in MODULES:
        metrics[f"{module}.self_s"] = module_self(module)
    metrics["trace.wall_s"] = wall_s
    metrics["trace.coverage"] = sum(module_self(m) for m in MODULES) / wall_s
    return metrics
