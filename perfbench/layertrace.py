"""Per-layer tracing of one qhecke process, installed from outside the package.

The layers are the ``qhecke`` modules.  `Tracer.install` replaces selected
public functions and methods with timing wrappers; nothing inside
``src/qhecke`` is edited.  A module-level function is replaced under every
name that refers to it in every loaded ``qhecke`` module (for example both
``qhecke.commutant.span_closure`` and ``qhecke.suites.span_closure``), and a
method under every alias in its class (``__radd__ = __add__``).

Two kinds of record are kept in memory and written out once, at the end:

* a *span* per call for the calls a suite makes into a layer
  (``commutant.span_closure``, ``tensor.pi_T``, ...): id, parent span id,
  name, layer, start, end and self time;
* an *aggregate* per (op, parent layer) for hot leaf calls, which run up to
  hundreds of thousands of times (the `RationalFunction` dunders,
  ``HeckeElement.__mul__``, ``OperatorMatrix.__mul__``,
  ``SymmetricGroupTable.tp_left_col`` and ``_lc_to_rf``): call count,
  inclusive time, self time and an op-specific extra count.

Self time is a call's duration minus the time its traced callees took, so
the self times of all spans and aggregates sum to the root span (``cli.main``)
minus the wrappers' own bookkeeping.  Code that is not wrapped (private
helpers, ``report``, ``crossed``) counts toward the layer that called it.
"""

from __future__ import annotations

import json
import sys
import time

LAYERS = ("cli", "suites", "partitions", "alternating", "hecke", "tensor",
          "commutant", "qfield")

SPAN_CALLS = {
    "cli": ("main", "_emit"),
    "suites": ("suite_hecke", "suite_alt", "suite_schur_weyl",
               "suite_alt_centralizer", "suite_specialization"),
    "partitions": ("predicted_dimensions",),
    "alternating": ("enumerate_even_basis", "odd_word_count", "is_in_alt",
                    "x_generator", "check_even_closure", "verify_crossed_product_H",
                    "tprime_product_coords"),
    "hecke": ("to_tprime_basis", "from_tprime_basis", "goldman", "goldman_eigenproject",
              "HeckeElement.goldman", "HeckeAlgebra.one", "HeckeAlgebra.zero",
              "HeckeAlgebra.generator", "HeckeAlgebra.tprime",
              "HeckeAlgebra.basis_element", "HeckeAlgebra.tprime_basis_element",
              "HeckeAlgebra.random_element", "SymmetricGroupTable.tp_left_apply"),
    "tensor": ("pi_T", "pi_Tprime", "rho_generators", "rho_generator", "phi_tensor",
               "specialize_matrix", "sign_permutation_matrix", "represent",
               "OperatorMatrix.commutes_with"),
    "commutant": ("span_closure", "commutant_basis", "anticommutant_basis",
                  "span_equal", "direct_sum_check", "draw_points",
                  "AlgebraBasis.contains"),
}

AGGREGATE_CALLS = {
    "qfield": tuple(f"RationalFunction.{op}" for op in (
        "__add__", "__sub__", "__rsub__", "__neg__", "__mul__", "__truediv__",
        "__rtruediv__", "__pow__", "inverse", "specialize")),
    "hecke": ("HeckeElement.__mul__", "SymmetricGroupTable.tp_left_col", "_lc_to_rf"),
    "tensor": ("OperatorMatrix.__mul__",),
}

TABLE_SPAN = "hecke.symmetric_group_table"
BUILD_SPANS = ("tensor.pi_T", "tensor.pi_Tprime", "tensor.rho_generators", "tensor.phi_tensor")


def _constraint_count(source) -> int:
    mats = getattr(source, "generators", None) or getattr(source, "elements", source)
    return len(mats)


def _after_closure(counters, result, args, kwargs):
    counters["commutant.closure.tried"] += len(result) * len(result.generators)
    counters["commutant.closure.accepted"] += len(result)


def _after_nullspace(counters, result, args, kwargs):
    counters["commutant.nullspace.constraints"] += _constraint_count(args[0])
    counters["commutant.nullspace.nullity"] += len(result)


def _after_specialize(counters, result, args, kwargs):
    counters["tensor.specialize.entries"] += len(args[0].entries)


SPAN_HOOKS = {
    "commutant.span_closure": _after_closure,
    "commutant.commutant_basis": _after_nullspace,
    "commutant.anticommutant_basis": _after_nullspace,
    "tensor.specialize_matrix": _after_specialize,
}


class Tracer:
    """In-memory spans, aggregates and counters for one traced process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.aggregates: dict[tuple[str, str], list] = {}
        self.counters: dict[str, float] = {name: 0 for name in (
            "commutant.closure.tried", "commutant.closure.accepted",
            "commutant.nullspace.constraints", "commutant.nullspace.nullity",
            "tensor.specialize.entries")}
        self.tp_left_keys: set[tuple[int, int, int]] = set()
        self._next_id = 0
        # frames: [nearest span id, layer, time taken by traced callees]
        self._stack: list[list] = [[None, "", 0.0]]

    # -- wrappers

    def _span(self, fn, name: str, layer: str, hook=None):
        stack, spans, counters = self._stack, self.spans, self.counters
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            sid = self._next_id
            self._next_id = sid + 1
            frame = [sid, layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                parent[2] += t1 - t0
                spans.append((sid, parent[0], name, layer, t0, t1, t1 - t0 - frame[2]))
            if hook is not None:
                hook(counters, result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _aggregate(self, fn, op: str, layer: str, extra=None):
        stack, aggregates = self._stack, self.aggregates
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [parent[0], layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                parent[2] += dur
                key = (op, parent[1])
                agg = aggregates.get(key)
                if agg is None:
                    agg = aggregates[key] = [0, 0.0, 0.0, 0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[2]
            if extra is not None:
                agg[3] += extra(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _first_table_build(self, fn):
        """Time only the first `symmetric_group_table(r)` per rank: the build."""
        built: set[int] = set()
        spanned = self._span(fn, TABLE_SPAN, "hecke")

        def wrapper(rank):
            if rank in built:
                return fn(rank)
            built.add(rank)
            return spanned(rank)

        wrapper.__wrapped__ = fn
        return wrapper

    def _tp_left_key(self, result, args) -> int:
        """Record the (table, g, wid) key; the reuse ratio needs distinct keys."""
        table, g, wid = args
        self.tp_left_keys.add((table.rank, g, wid))
        return 0

    # -- installation

    def install(self) -> None:
        """Wrap the traced calls in every loaded ``qhecke`` module."""
        import qhecke.cli  # noqa: F401  (loads every module the suites use)

        modules = [m for name, m in sys.modules.items()
                   if name == "qhecke" or name.startswith("qhecke.")]
        extras = {
            "tensor.OperatorMatrix.__mul__": lambda result, args: len(result.entries),
            "hecke.SymmetricGroupTable.tp_left_col": self._tp_left_key,
        }
        for layer, calls in SPAN_CALLS.items():
            for qualname in calls:
                name = f"{layer}.{qualname}"
                self._replace(modules, layer, qualname, lambda fn, n=name, lay=layer:
                              self._span(fn, n, lay, SPAN_HOOKS.get(n)))
        for layer, calls in AGGREGATE_CALLS.items():
            for qualname in calls:
                name = f"{layer}.{qualname}"
                self._replace(modules, layer, qualname, lambda fn, n=name, lay=layer:
                              self._aggregate(fn, n, lay, extras.get(n)))
        self._replace(modules, "hecke", "symmetric_group_table", self._first_table_build)

    @staticmethod
    def _replace(modules, layer: str, qualname: str, make) -> None:
        home = sys.modules[f"qhecke.{layer}"]
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(home, owner_name)
            original = owner.__dict__[attr]
            wrapped = make(original)
            for alias, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, alias, wrapped)
            return
        original = getattr(home, attr)
        wrapped = make(original)
        for module in modules:
            for alias, value in list(vars(module).items()):
                if value is original:
                    setattr(module, alias, wrapped)

    # -- output

    def write(self, path: str) -> None:
        """Write spans, aggregates and counters as one JSON document."""
        doc = {
            "spans": self.spans,
            "aggregates": [[op, parent, *vals] for (op, parent), vals
                           in sorted(self.aggregates.items())],
            "counters": self.counters,
            "tp_left_distinct": len(self.tp_left_keys),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


# ---------------------------------------------------------------------------
# per-layer metrics from a written trace
# ---------------------------------------------------------------------------

def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer numbers of one traced run (see README.md for the map)."""
    spans = trace["spans"]
    aggregates = trace["aggregates"]
    counters = trace["counters"]
    by_id = {s[0]: s for s in spans}

    self_s = dict.fromkeys(LAYERS, 0.0)
    for _, _, _, layer, _, _, own in spans:
        self_s[layer] = self_s.get(layer, 0.0) + own
    calls: dict[str, int] = {}
    extra: dict[str, int] = {}
    for op, _parent, n, _total, own, more in aggregates:
        layer = op.split(".", 1)[0]
        self_s[layer] = self_s.get(layer, 0.0) + own
        calls[op] = calls.get(op, 0) + n
        extra[op] = extra.get(op, 0) + more

    def span_time(name: str) -> float:
        return sum(s[5] - s[4] for s in spans if s[2] == name)

    def outermost_time(names) -> float:
        total = 0.0
        for s in spans:
            if s[2] not in names:
                continue
            parent = by_id.get(s[1])
            while parent is not None and parent[2] not in names:
                parent = by_id.get(parent[1])
            if parent is None:
                total += s[5] - s[4]
        return total

    tp_calls = calls.get("hecke.SymmetricGroupTable.tp_left_col", 0)
    out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    out.update({
        "qfield.ops": sum(n for op, n in calls.items() if op.startswith("qfield.")),
        "hecke.mul.calls": calls.get("hecke.HeckeElement.__mul__", 0),
        "hecke.table_s": span_time(TABLE_SPAN),
        "hecke.tp_left_col.calls": tp_calls,
        "hecke.tp_left_col.reuse":
            1 - trace["tp_left_distinct"] / tp_calls if tp_calls else 0.0,
        "commutant.closure.tried": counters["commutant.closure.tried"],
        "commutant.closure.accepted": counters["commutant.closure.accepted"],
        "commutant.nullspace.constraints": counters["commutant.nullspace.constraints"],
        "commutant.nullspace.nullity": counters["commutant.nullspace.nullity"],
        "commutant.contains.calls":
            sum(1 for s in spans if s[2] == "commutant.AlgebraBasis.contains"),
        "tensor.matmul.calls": calls.get("tensor.OperatorMatrix.__mul__", 0),
        "tensor.matmul.nnz": extra.get("tensor.OperatorMatrix.__mul__", 0),
        "tensor.build_s": outermost_time(BUILD_SPANS),
        "tensor.specialize.entries": counters["tensor.specialize.entries"],
        "cli.emit_s": span_time("cli._emit"),
        "verify_s": span_time("cli.main"),
    })
    return out
