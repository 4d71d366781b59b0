"""Outside-in tracing of the sbfock layers, and the per-layer metrics.

``python3 perfbench/tracer.py SPANS.json <sbfock CLI arguments>`` runs one
CLI command with spans around the public functions of each sbfock module
and around the numpy/scipy kernels as sbfock calls them, then writes the
spans to SPANS.json.  Nothing under ``src/`` is edited: the wrappers are
bound in place of the originals in every loaded ``sbfock`` module, on
the solver and basis classes, and on the numpy/scipy modules, where a
kernel wrapper records a span only when its caller is sbfock code.

A span is (name, start, end, parent).  ``layer_metrics`` turns the span
files of one round into the per-layer metrics: ``<name>_s`` is the time
inside the outermost spans of that name (children included),
``<layer>.self_s`` the layer's time minus the time of its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

LAYERS = ("cli", "fock", "ibc", "dressing", "renorm", "solvers", "kernel")
COMMANDS = ("verify", "converge", "spectrum", "vanhove")
SOLVER_PATHS = {
    "_DenseSolve": "dense",
    "_SchurSolve": "schur",
    "_TridiagSolve": "tridiag",
    "_GmresSolve": "gmres",
    "_DiagSolve": "diag",
}

# (span name, module, attribute) of the wrapped public functions
FUNCTIONS = (
    ("cli.parse_config", "sbfock.cli", "parse_config"),
    ("fock.build_basis", "sbfock.fock", "build_basis"),
    ("fock.annihilate", "sbfock.fock", "annihilate"),
    ("ibc.xi", "sbfock.ibc", "xi"),
    ("ibc.theta1", "sbfock.ibc", "theta1"),
    ("ibc.verify_ibc_bounds", "sbfock.ibc", "verify_ibc_bounds"),
    ("dressing.weyl", "sbfock.dressing", "weyl"),
    ("dressing.verify_weyl", "sbfock.dressing", "verify_weyl_transforms"),
    ("dressing.verify_weyl", "sbfock.dressing", "verify_weyl_continuity"),
    ("renorm.h_reg", "sbfock.renorm", "h_reg"),
    ("renorm.h_renormalized", "sbfock.renorm", "h_renormalized"),
    ("renorm.ground_energy", "sbfock.renorm", "ground_energy"),
    ("renorm.opnorm", "sbfock.renorm", "opnorm"),
)
# kernel -> module it is called through
KERNEL_MODULES = {
    "eigvalsh": "numpy.linalg",
    "eigsh": "scipy.sparse.linalg",
    "lu_factor": "scipy.linalg",
    "lu_solve": "scipy.linalg",
    "expm": "scipy.linalg",
    "expm_multiply": "scipy.sparse.linalg",
    "gmres": "scipy.sparse.linalg",
}


class Tracer:
    """Spans kept in memory, plus counters of the solver plans and the
    largest basis built."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters: Counter = Counter()

    def wrap(self, name: str, fn):
        name_id = self._ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append([name_id, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(i)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[i][2] = time.perf_counter()
                stack.pop()

        return traced

    def wrap_kernel(self, name: str, fn):
        traced = self.wrap(name, fn)

        @functools.wraps(fn)
        def kernel(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__", "").startswith("sbfock"):
                return traced(*args, **kwargs)
            return fn(*args, **kwargs)

        return kernel

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans, "counters": self.counters}, fh)


def _rebind(original, replacement):
    """Put ``replacement`` wherever an sbfock module holds ``original``."""
    for name, module in list(sys.modules.items()):
        if name == "sbfock" or name.startswith("sbfock."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(tracer: Tracer):
    import importlib

    import sbfock.cli  # noqa: F401  (loads every sbfock module)
    from sbfock import _solvers, cli, dressing, fock

    for span, module, attr in FUNCTIONS:
        original = getattr(importlib.import_module(module), attr)
        wrapped = tracer.wrap(span, original)
        if span == "fock.build_basis":
            wrapped = _counting_basis(tracer, wrapped)
        _rebind(original, wrapped)
    for kernel, module in KERNEL_MODULES.items():
        mod = importlib.import_module(module)
        setattr(mod, kernel, tracer.wrap_kernel(f"kernel.{kernel}", getattr(mod, kernel)))

    run_command = cli.run_command
    per_command = {cmd: tracer.wrap(f"cli.{cmd}", run_command) for cmd in COMMANDS}

    def traced_run_command(cmd, *args, **kwargs):
        return per_command.get(cmd, run_command)(cmd, *args, **kwargs)

    _rebind(run_command, traced_run_command)

    weyl_action = dressing.weyl_action
    build_action = tracer.wrap("dressing.weyl_action", weyl_action)

    def traced_weyl_action(basis, F):
        forward, adjoint = build_action(basis, F)
        return (
            tracer.wrap("dressing.weyl_action_apply", forward),
            tracer.wrap("dressing.weyl_action_apply", adjoint),
        )

    _rebind(weyl_action, traced_weyl_action)

    basis_cls = fock.OccupationBasis
    basis_cls.lowering_table = tracer.wrap("fock.lowering_table", basis_cls.lowering_table)

    resolvent = _solvers.StructuredResolvent
    factor = tracer.wrap("solvers.factor", resolvent.__init__)

    def traced_init(self, *args, **kwargs):
        factor(self, *args, **kwargs)
        for idx, part in self.parts:
            path = SOLVER_PATHS.get(type(getattr(part, "inner", part)).__name__)
            if path is not None:
                tracer.counters[f"solvers.components.{path}"] += len(idx) if path == "diag" else 1
                tracer.counters[f"solvers.states.{path}"] += len(idx)

    resolvent.__init__ = traced_init
    resolvent.solve = tracer.wrap("solvers.solve", resolvent.solve)
    resolvent.adjoint_solve = tracer.wrap("solvers.solve", resolvent.adjoint_solve)


def _counting_basis(tracer, build_basis):
    @functools.wraps(build_basis)
    def traced(*args, **kwargs):
        basis = build_basis(*args, **kwargs)
        tracer.counters["fock.basis_dim"] = max(tracer.counters["fock.basis_dim"], basis.dim)
        return basis

    return traced


# ---------------------------------------------------------------- metrics


def metric_names() -> list[str]:
    """Every per-layer metric, in report order (trace.overhead_s included)."""
    names = ["cli.parse_config_s"] + [f"cli.{c}_s" for c in COMMANDS]
    names += [
        "fock.build_basis_s", "fock.basis_dim", "fock.lowering_table_s",
        "fock.annihilate_s", "fock.annihilate_calls",
        "ibc.xi_s", "ibc.theta1_s", "ibc.verify_ibc_bounds_s",
        "dressing.weyl_s", "dressing.weyl_calls", "dressing.weyl_action_applies",
        "dressing.weyl_action_s", "dressing.verify_weyl_s",
        "renorm.h_reg_s", "renorm.h_renormalized_s", "renorm.ground_energy_s",
        "renorm.ground_energy_calls", "renorm.eigensolves_per_ground",
        "renorm.opnorm_s", "renorm.opnorm_calls", "renorm.distance_s",
        "solvers.factor_s", "solvers.factorizations", "solvers.solve_s", "solvers.solves",
    ]
    names += [f"solvers.components.{p}" for p in SOLVER_PATHS.values()]
    names += [f"solvers.states.{p}" for p in SOLVER_PATHS.values()]
    for k in KERNEL_MODULES:
        names += [f"kernel.{k}_calls", f"kernel.{k}_s"]
    names += [f"{layer}.self_s" for layer in LAYERS]
    names.append("trace.overhead_s")
    return names


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "fock.basis_dim" or name.startswith("solvers.states."):
        return "states"
    if name == "renorm.eigensolves_per_ground":
        return "calls/call"
    return "count"


def layer_metrics(docs, overhead_s: float) -> dict:
    """Per-layer metrics of one round from the span files of its commands."""
    inclusive, calls, self_time, counters = Counter(), Counter(), Counter(), Counter()
    ground_eigensolves = 0
    distance_s = 0.0
    for doc in docs:
        names, spans = doc["names"], doc["spans"]
        counters["fock.basis_dim"] = max(counters["fock.basis_dim"], doc["counters"].get("fock.basis_dim", 0))
        for key, value in doc["counters"].items():
            if key != "fock.basis_dim":
                counters[key] += value
        covered = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name_id, start, end, parent) in enumerate(spans):
            name = names[name_id]
            ancestors = set()
            while parent >= 0:
                ancestors.add(names[spans[parent][0]])
                parent = spans[parent][3]
            calls[name] += 1
            if name not in ancestors:
                inclusive[name] += end - start
            self_time[name.split(".")[0]] += end - start - covered[i]
            if name in ("kernel.eigvalsh", "kernel.eigsh") and "renorm.ground_energy" in ancestors:
                ground_eigensolves += 1
            if name == "kernel.eigsh" and "renorm.ground_energy" not in ancestors:
                distance_s += end - start

    grounds = calls["renorm.ground_energy"]
    values = {
        "dressing.weyl_action_applies": calls["dressing.weyl_action_apply"],
        "dressing.weyl_action_s": inclusive["dressing.weyl_action"]
        + inclusive["dressing.weyl_action_apply"],
        "renorm.eigensolves_per_ground": ground_eigensolves / grounds if grounds else 0.0,
        "renorm.distance_s": distance_s,
        "solvers.factorizations": calls["solvers.factor"],
        "solvers.solves": calls["solvers.solve"],
        "trace.overhead_s": overhead_s,
    }
    values.update({f"{layer}.self_s": self_time[layer] for layer in LAYERS})
    out = {}
    for metric in metric_names():
        if metric in values:
            value = values[metric]
        elif metric.endswith("_calls"):
            value = calls[metric[: -len("_calls")]]
        elif metric.endswith("_s"):
            value = inclusive[metric[:-2]]
        else:
            value = counters[metric]
        out[metric] = {"value": value, "unit": unit(metric)}
    return out


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    import sbfock.cli

    try:
        return sbfock.cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
