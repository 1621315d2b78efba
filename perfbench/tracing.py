"""Spans and counts at the boundaries between the program's modules.

A Tracer wraps the public functions and methods that one module of the
package calls in another, replacing the attribute in every namespace of
the package that holds it (``eigen_fields`` lives in ``system_model`` and
was imported into ``periodic_solver``, ``ivp_solver`` and
``characteristics``). Each call records a span (name, start, end, parent
span, operation id, states passed) in memory; ``write_spans`` puts them
on disk when the run ends. Only the traced run creates a Tracer, so the
untraced run executes the program unmodified.
"""
from __future__ import annotations

import functools
import math
import sys
import time
from pathlib import Path

import numpy as np

PACKAGE = "periodic_hyp"


def _states(args) -> int:
    """Number of states in a (..., n) array passed after spec / self."""
    return math.prod(np.shape(args[1])[:-1])


# (module, attribute or Class.method, states counter or None)
TARGETS = (
    ("periodic_solver", "solve_periodic", None),
    ("periodic_solver", "linearized_step", None),
    ("system_model", "eigen_fields", _states),
    ("system_model", "g_nonlinear_batch", _states),
    ("system_model", "gtilde_matrix", None),
    ("system_model", "minimal_K", None),
    ("system_model", "SystemSpec.gradF_at", None),
    ("system_model", "SystemSpec.A_at", _states),
    ("system_model", "SystemSpec.F_at", _states),
    ("characteristics", "Field.time_derivative_grid", None),
    ("characteristics", "Field.space_derivative_grid", None),
    ("characteristics", "Field.interpolate", None),
    ("characteristics", "Field.interpolate_dt", None),
    ("characteristics", "Field.interpolate_dx", None),
    ("boundary", "characterizing_data", None),
    ("boundary", "minimal_characterizing_number", None),
    ("boundary", "theta_matrix", None),
    ("boundary", "validate_forcing", None),
    ("boundary", "BoundarySpec.h_values", None),
    ("boundary", "eval_boundary", None),
    ("ivp_solver", "run", None),
    ("ivp_solver", "step", None),
    ("ivp_solver", "stability_metrics", None),
    ("diagnostics", "norms", None),
)


class Tracer:
    """In-memory span recorder; per-name calls, time, self time and states."""

    def __init__(self):
        self.names = []
        self.spans = []  # (name index, start, end, parent span, op, states)
        self.calls = []
        self.total_s = []
        self.self_s = []
        self.states = []
        self.op = -1
        self._stack = []  # [span id, time covered by children]
        self._undo = []

    def _name_index(self, name: str) -> int:
        self.names.append(name)
        for acc in (self.calls, self.total_s, self.self_s, self.states):
            acc.append(0)
        return len(self.names) - 1

    def _wrap(self, fn, idx: int, counter):
        stack, spans = self._stack, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                items = counter(args) if counter is not None else 0
                spans[sid] = (idx, t0, t1, parent, self.op, items)
                self.calls[idx] += 1
                self.total_s[idx] += dur
                self.self_s[idx] += dur - frame[1]
                self.states[idx] += items

        return traced

    def install(self) -> None:
        """Replace every target in every loaded module of the package."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for mod_name, attr, counter in TARGETS:
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            name = f"{mod_name}.{attr}"
            idx = self._name_index(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[meth]
                self._replace(owner, meth, original, self._wrap(original, idx, counter))
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(original, idx, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, original, wrapped)

    def _replace(self, owner, key: str, original, wrapped) -> None:
        setattr(owner, key, wrapped)
        self._undo.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def totals(self) -> dict:
        """name -> (calls, total seconds, self seconds, states)."""
        return {name: (self.calls[i], self.total_s[i], self.self_s[i], self.states[i])
                for i, name in enumerate(self.names)}

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent,op,states\n")
            for sid, (idx, t0, t1, parent, op, items) in enumerate(self.spans):
                fh.write(f"{sid},{self.names[idx]},{t0:.9f},{t1:.9f},"
                         f"{parent},{op},{items}\n")


def layer_metrics(totals: dict, n_ops: int) -> dict:
    """Per-operation layer figures from Tracer.totals() over n_ops operations."""

    def get(name):
        return totals.get(name, (0, 0.0, 0.0, 0))

    def per_call(name, field, scale):
        calls = get(name)[0]
        return get(name)[field] / calls * scale if calls else 0.0

    def per_op(*names, field):
        return sum(get(n)[field] for n in names) / n_ops

    CALLS, TOTAL, SELF, STATES = 0, 1, 2, 3
    interp = ("characteristics.Field.interpolate", "characteristics.Field.interpolate_dt",
              "characteristics.Field.interpolate_dx")
    return {
        "periodic_solver.sweeps": (per_op("periodic_solver.linearized_step", field=CALLS), "count"),
        "periodic_solver.sweep_ms": (per_call("periodic_solver.linearized_step", TOTAL, 1e3), "ms"),
        "periodic_solver.sweep_self_ms": (per_call("periodic_solver.linearized_step", SELF, 1e3), "ms"),
        "system_model.eigen_calls": (per_op("system_model.eigen_fields", field=CALLS), "count"),
        "system_model.eigen_states": (per_op("system_model.eigen_fields", field=STATES), "count"),
        "system_model.eigen_s": (per_op("system_model.eigen_fields", field=TOTAL), "s"),
        "system_model.remainder_s": (per_op("system_model.g_nonlinear_batch", field=TOTAL), "s"),
        "system_model.linearization_calls": (per_op(
            "system_model.gtilde_matrix", "system_model.minimal_K",
            "system_model.SystemSpec.gradF_at", field=CALLS), "count"),
        "system_model.coeff_evals": (per_op(
            "system_model.SystemSpec.A_at", "system_model.SystemSpec.F_at", field=STATES), "count"),
        "characteristics.derivative_s": (per_op(
            "characteristics.Field.time_derivative_grid",
            "characteristics.Field.space_derivative_grid", field=TOTAL), "s"),
        "characteristics.interpolate_calls": (per_op(*interp, field=CALLS), "count"),
        "characteristics.interpolate_s": (per_op(*interp, field=TOTAL), "s"),
        "boundary.theta_s": (per_op("boundary.minimal_characterizing_number", field=TOTAL), "s"),
        "boundary.theta_matrix_s": (per_op("boundary.theta_matrix", field=TOTAL), "s"),
        "boundary.forcing_s": (per_op("boundary.validate_forcing", field=TOTAL), "s"),
        "boundary.h_calls": (per_op("boundary.BoundarySpec.h_values", field=CALLS), "count"),
        "boundary.h_s": (per_op("boundary.BoundarySpec.h_values", field=TOTAL), "s"),
        "boundary.eval_calls": (per_op("boundary.eval_boundary", field=CALLS), "count"),
        "boundary.eval_s": (per_op("boundary.eval_boundary", field=TOTAL), "s"),
        "ivp_solver.steps": (per_op("ivp_solver.step", field=CALLS), "count"),
        "ivp_solver.step_us": (per_call("ivp_solver.step", TOTAL, 1e6), "us"),
        "ivp_solver.step_self_us": (per_call("ivp_solver.step", SELF, 1e6), "us"),
        "ivp_solver.metrics_s": (per_op("ivp_solver.stability_metrics", field=TOTAL), "s"),
        "diagnostics.norms_s": (per_op("diagnostics.norms", field=TOTAL), "s"),
    }
