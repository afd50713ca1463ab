"""Per-layer tracing installed from outside the package.

The tracer replaces public functions of cliffpoly with wrappers that
record a span (name, start, end, parent) for every call.  The package
imports names with ``from .linalg import rref`` and keeps some in tables
(``operators.PRIMITIVES``), so a wrapper is rebound wherever a cliffpoly
module, or this benchmark's workloads module, holds the original: in
module namespaces and in module-level dicts.  Methods are replaced on
their class.  ``uninstall`` puts every original back.

Spans are kept in flat arrays while a pass runs; ``layer_metrics`` turns
them into per-layer counts and self times (a span's duration minus its
children's), and ``write`` saves them as JSON lines.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

RANK_ONLY_PARENTS = {"linalg.subspace_certify", "linalg.direct_sum_check", "linalg.rank"}
SOLVE_PARENTS = {"linalg.nullspace", "decompose.project_onto", "linalg.coords_in_basis", "linalg.span_equal"}
REFINE_FUNCTIONS = (
    "h_bookkeeping_report", "harmonic_refine", "inframonogenic_refine", "monogenic_refine",
    "harmonic_infra_intersection", "fischer_h_decompose", "refine_decompose",
    "classical_fischer_decompose",
)

# (module, attribute or Class.method, span name)
SPANS = (
    ("cliffpoly.linalg", "rref", "linalg.rref"),
    ("cliffpoly.linalg", "rank", "linalg.rank"),
    ("cliffpoly.linalg", "nullspace", "linalg.nullspace"),
    ("cliffpoly.linalg", "span_equal", "linalg.span_equal"),
    ("cliffpoly.linalg", "coords_in_basis", "linalg.coords_in_basis"),
    ("cliffpoly.linalg", "direct_sum_check", "linalg.direct_sum_check"),
    ("cliffpoly.linalg", "operator_matrix", "linalg.operator_matrix"),
    ("cliffpoly.linalg", "SubspaceBasis.__init__", "linalg.subspace_certify"),
    ("cliffpoly.operators", "dirac_plus", "operators.halves"),
    ("cliffpoly.operators", "dirac_minus", "operators.halves"),
    ("cliffpoly.operators", "x_wedge", "operators.halves"),
    ("cliffpoly.operators", "x_dot", "operators.halves"),
    ("cliffpoly.operators", "apply_operator", "operators.apply_operator"),
    ("cliffpoly.operators", "h_action", "operators.h_action"),
    ("cliffpoly.polynomial", "CliffordPoly.__mul__", "polynomial.mul"),
    ("cliffpoly.polynomial", "CliffordPoly.__add__", "polynomial.add"),
    ("cliffpoly.spaces", "space_basis", "spaces.space_basis"),
    ("cliffpoly.spaces", "component_space", "spaces.component_space"),
    ("cliffpoly.decompose", "project_onto", "decompose.project_onto"),
    *(("cliffpoly.decompose", name, "decompose.refine") for name in REFINE_FUNCTIONS),
    ("cliffpoly.decompose", "verify_report", "decompose.verify_report"),
    ("cliffpoly.cli", "_read_poly", "cli.parse"),
    ("cliffpoly.cli", "_emit", "cli.emit"),
    ("cliffpoly.polynomial", "CliffordPoly.to_json_dict", "cli.emit"),
    ("cliffpoly.decompose", "DecompositionResult.to_json_dict", "cli.emit"),
    ("workloads", "read_poly", "cli.parse"),
    ("workloads", "write_poly", "cli.emit"),
)
# functions too small and too frequent for a span: only their calls are counted
COUNTED = (("cliffpoly.multivector", "blade_product", "multivector.blade_product"),)

CACHED = {"spaces.space_basis", "spaces.component_space"}


def find_memos() -> list:
    """Every module-level memo of cliffpoly: dicts named *cache* and functools caches."""
    memos = []
    for name, mod in list(sys.modules.items()):
        if not name.startswith("cliffpoly") or mod is None:
            continue
        for attr, value in vars(mod).items():
            if isinstance(value, dict) and "cache" in attr.lower():
                memos.append(value)
            elif callable(value) and hasattr(value, "cache_info"):
                memos.append(value)
    return memos


def memo_entries(memos: list) -> int:
    return sum(len(m) if isinstance(m, dict) else m.cache_info().currsize for m in memos)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self._undo: list = []
        self._memos: list = []

    # -- recording ----------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _count(self, key: str, n: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_of.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        inspect = getattr(self, "_inspect_" + name.replace(".", "_"), None)
        open_, close = self.open, self.close
        cached = name in CACHED
        memos = self._memos

        def traced(*args, **kwargs):
            before = memo_entries(memos) if cached else 0
            idx = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if cached and memo_entries(memos) == before:
                self._count("spaces.cache.hits", 1)
            if inspect is not None:
                # the bookkeeping gets its own span so it is not billed to the caller
                extra = open_("trace.inspect")
                try:
                    inspect(args, result)
                finally:
                    close(extra)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter(self, fn, name: str):
        counts, key = self.counts, name + ".calls"
        counts.setdefault(key, 0)

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # per-call measurements taken from arguments and results

    def _inspect_linalg_rref(self, args, result):
        mat = args[0]
        self._count("linalg.rref.cells", mat.rows * mat.cols)
        self._count("linalg.rref.rows", mat.rows)
        self._count("linalg.rref.rank", result.rank)

    def _inspect_linalg_operator_matrix(self, args, result):
        self._count("linalg.operator_matrix.cells", result.rows * result.cols)
        self._count("linalg.operator_matrix.nnz", sum(1 for row in result.entries for x in row if x))

    def _inspect_operators_halves(self, args, result):
        self._count("operators.halves.terms_in", len(args[0].terms))

    # -- installing ----------------------------------------------------

    def install(self) -> None:
        """Replace every target with its wrapper; remember how to undo it."""
        self._undo = []
        self.missing = []
        self._stack = [-1]
        self._memos[:] = find_memos()
        for module, attr, name in SPANS + COUNTED:
            mod = sys.modules.get(module)
            if mod is None:  # not imported by this workload, so never called
                continue
            owner_name, _, method = attr.rpartition(".")
            if owner_name and not hasattr(mod, owner_name):
                self.missing.append(f"{module}.{attr}")
                continue
            make = self._counter if (module, attr, name) in COUNTED else self._wrap
            if owner_name:
                cls = getattr(mod, owner_name)
                original = cls.__dict__.get(method)
                if original is None:
                    self.missing.append(f"{module}.{attr}")
                    continue
                setattr(cls, method, make(original, name))
                self._undo.append((setattr, cls, method, original))
                continue
            original = getattr(mod, attr, None)
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            self._rebind(original, make(original, name))

    def _rebind(self, original, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname.startswith("cliffpoly") or modname == "workloads"):
                continue
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapper
                    self._undo.append((dict.__setitem__, namespace, key, original))
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k2, v2 in list(value.items()):
                        if v2 is original:
                            value[k2] = wrapper
                            self._undo.append((dict.__setitem__, value, k2, original))

    def uninstall(self) -> None:
        for setter, target, key, original in reversed(self._undo):
            setter(target, key, original)
        self._undo = []

    # -- results -------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer counts and self times of everything recorded so far."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        rref = self._ids.get("linalg.rref")
        split = {"rank_only": 0.0, "solve": 0.0}
        for i in range(n):
            name = self.names[self.name_of[i]]
            own = self.end[i] - self.start[i] - child[i]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            if self.name_of[i] == rref and self.parent[i] >= 0:
                parent = self.names[self.name_of[self.parent[i]]]
                if parent in RANK_ONLY_PARENTS:
                    split["rank_only"] += own
                elif parent in SOLVE_PARENTS:
                    split["solve"] += own

        def c(name):
            return calls.get(name, 0)

        def s(name):
            return self_s.get(name, 0.0)

        counts = self.counts
        rows = counts.get("linalg.rref.rows", 0)
        cached = c("spaces.space_basis") + c("spaces.component_space")
        return {
            "linalg.rref.rank_only.self_s": split["rank_only"],
            "linalg.rref.solve.self_s": split["solve"],
            "linalg.rref.calls": c("linalg.rref"),
            "linalg.rref.cells": counts.get("linalg.rref.cells", 0),
            "linalg.rref.rank_ratio": counts.get("linalg.rref.rank", 0) / rows if rows else 0.0,
            "linalg.operator_matrix.calls": c("linalg.operator_matrix"),
            "linalg.operator_matrix.self_s": s("linalg.operator_matrix"),
            "linalg.operator_matrix.cells": counts.get("linalg.operator_matrix.cells", 0),
            "linalg.operator_matrix.nnz": counts.get("linalg.operator_matrix.nnz", 0),
            "linalg.nullspace.calls": c("linalg.nullspace"),
            "linalg.nullspace.self_s": s("linalg.nullspace"),
            "linalg.subspace_certify.calls": c("linalg.subspace_certify"),
            "linalg.direct_sum_check.calls": c("linalg.direct_sum_check"),
            "operators.halves.calls": c("operators.halves"),
            "operators.halves.terms_in": counts.get("operators.halves.terms_in", 0),
            "operators.halves.self_s": s("operators.halves"),
            "operators.apply_operator.self_s": s("operators.apply_operator"),
            "operators.h_action.self_s": s("operators.h_action"),
            "polynomial.mul.calls": c("polynomial.mul"),
            "polynomial.mul.self_s": s("polynomial.mul"),
            "polynomial.add.calls": c("polynomial.add"),
            "polynomial.add.self_s": s("polynomial.add"),
            "multivector.blade_product.calls": counts.get("multivector.blade_product.calls", 0),
            "spaces.space_basis.calls": c("spaces.space_basis"),
            "spaces.space_basis.self_s": s("spaces.space_basis"),
            "spaces.component_space.calls": c("spaces.component_space"),
            "spaces.cache.hit_ratio": counts.get("spaces.cache.hits", 0) / cached if cached else 0.0,
            "spaces.cache.entries": memo_entries(self._memos),
            "decompose.project_onto.calls": c("decompose.project_onto"),
            "decompose.project_onto.self_s": s("decompose.project_onto"),
            "decompose.refine.self_s": s("decompose.refine"),
            "decompose.verify_report.self_s": s("decompose.verify_report"),
            "cli.parse.self_s": s("cli.parse"),
            "cli.emit.self_s": s("cli.emit"),
        }

    def write(self, fh, header: dict) -> None:
        """Write a header line, then every span as a JSON line [name, start, end, parent index]."""
        fh.write(json.dumps({**header, "spans": len(self.start), "missing": self.missing}) + "\n")
        for i in range(len(self.start)):
            fh.write(json.dumps([self.names[self.name_of[i]], self.start[i], self.end[i], self.parent[i]]) + "\n")
