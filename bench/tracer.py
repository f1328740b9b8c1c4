"""Outside-in tracer for linperm: wraps public functions from the benchmark's side.

`install()` replaces each traced function or method with a wrapper, on every
`linperm.*` module attribute and class attribute bound to the same object,
so aliases such as `linearized.ring_mul` are caught too. Span wrappers keep
one span per call (name, parent span, op id, start, end) in flat arrays;
counting wrappers, for the per-element L0 operations, only count. Nothing is
written until `dump()`. `uninstall()` restores the originals. Cache counters
are read from the unwrapped `lru_cache` objects.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

# (module, attribute path) pairs; a dotted path names a class method.
SPAN_TARGETS = [
    ("fields", "ExtElement.__mul__"),
    ("fields", "ExtElement.__pow__"),
    ("fields", "frobenius"),
    ("fields", "find_irreducible"),
    ("fields", "element_order"),
    ("_polys", "pegcd"),
    ("_polys", "pdivmod"),
    ("_polys", "pcyclic_mul"),
    ("_polys", "pis_irreducible"),
    ("_linalg", "rank_mod"),
    ("polyring", "ring_is_unit"),
    ("polyring", "ring_inverse"),
    ("polyring", "factor_xn_minus_1"),
    ("idempotents", "primitive_idempotents"),
    ("idempotents", "project"),
    ("idempotents", "reconstruct"),
    ("linearized", "evaluate"),
    ("linearized", "compose"),
    ("linearized", "is_permutation"),
    ("linearized", "is_permutation_gcd"),
    ("linearized", "is_permutation_rank"),
    ("linearized", "compositional_inverse"),
    ("linearized", "sign_vector_involutions"),
    ("linearized", "is_involution"),
    ("linearized", "parse_linearized"),
    ("linearized", "format_linearized"),
    ("shifts", "alpha_shift"),
    ("shifts", "cyclic_order"),
    ("shifts", "shift_class"),
    ("oracle", "is_bijection_bruteforce"),
    ("oracle", "involution_check_pointwise"),
]
COUNT_TARGETS = [
    ("fields", "FieldElement.__mul__"),
    ("fields", "FieldElement.__add__"),
]
CACHES = [
    ("fields", "base_field"),
    ("fields", "extension_field"),
    ("polyring", "factor_xn_minus_1"),
    ("idempotents", "primitive_idempotents"),
    ("fields", "_frobenius_power"),
    ("_polys", "_reduction_matrix"),
]
ROOT = -1


def metric_prefix(module: str, path: str) -> str:
    """Metric names may not start with '_': `_polys` reports as `polys`."""
    return f"{module.lstrip('_')}.{path}"


def _resolve(module: str, path: str):
    owner = sys.modules[f"linperm.{module}"]
    *head, attr = path.split(".")
    for part in head:
        owner = getattr(owner, part)
    return owner, attr


def cache_counts() -> dict:
    """Current (hits, misses) of each traced cache, from the unwrapped originals."""
    out = {}
    for module, name in CACHES:
        fn = getattr(sys.modules[f"linperm.{module}"], name)
        while not hasattr(fn, "cache_info"):
            fn = fn.__wrapped__
        info = fn.cache_info()
        out[name.lstrip("_")] = (info.hits, info.misses)
    return out


def table_bytes(table) -> int:
    """Memory held by one cached Frobenius power: an int array, or rows of field elements."""
    if hasattr(table, "nbytes"):
        return int(table.nbytes)
    total, seen = sys.getsizeof(table), set()
    for row in table:
        total += sys.getsizeof(row)
        for c in row:
            if id(c) not in seen:
                seen.add(id(c))
                total += sys.getsizeof(c) + sys.getsizeof(c.coeffs)
    return total


class Tracer:
    def __init__(self):
        self.names = [metric_prefix(m, p) for m, p in SPAN_TARGETS]
        self.count_names = [metric_prefix(m, p) for m, p in COUNT_TARGETS]
        self.counts = [0] * len(COUNT_TARGETS)
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [ROOT]
        self.current_op = ROOT
        self.frobenius_tables = {}
        self._patched = []

    # --- spans -----------------------------------------------------------------

    def _open(self, name_index: int) -> int:
        sid = len(self.start)
        self.name.append(name_index)
        self.parent.append(self.stack[-1])
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self.stack.pop()

    def span_name(self, label: str) -> int:
        """Index for a benchmark-side span (an op or the set-up phase)."""
        if label not in self.names:
            self.names.append(label)
        return self.names.index(label)

    def begin_op(self, op_id: int, label: str) -> int:
        self.current_op = op_id
        return self._open(self.span_name(label))

    def end_op(self, sid: int) -> None:
        self._close(sid)
        self.current_op = ROOT

    # --- patching ----------------------------------------------------------------

    def _span_wrapper(self, fn, index: int):
        opener, closer = self._open, self._close

        def traced(*args, **kwargs):
            sid = opener(index)
            try:
                return fn(*args, **kwargs)
            finally:
                closer(sid)

        return traced

    def _count_wrapper(self, fn, index: int):
        counts = self.counts

        def counted(*args):
            counts[index] += 1
            return fn(*args)

        return counted

    def _table_wrapper(self, fn):
        tables = self.frobenius_tables

        def recorded(spec, i):
            table = fn(spec, i)
            if id(table) not in tables:
                tables[id(table)] = table_bytes(table)
            return table

        return recorded

    def _patch(self, module: str, path: str, wrapper) -> None:
        owner, attr = _resolve(module, path)
        original = getattr(owner, attr)
        replacement = wrapper(original)
        replacement.__wrapped__ = original
        if isinstance(owner, type):
            self._patched.append((owner, attr, original))
            setattr(owner, attr, replacement)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "linperm" or mod_name.startswith("linperm.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, key, original))
                    setattr(mod, key, replacement)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for i, (module, path) in enumerate(SPAN_TARGETS):
            self._patch(module, path, lambda fn, i=i: self._span_wrapper(fn, i))
        for i, (module, path) in enumerate(COUNT_TARGETS):
            self._patch(module, path, lambda fn, i=i: self._count_wrapper(fn, i))
        self._patch("fields", "_frobenius_power", self._table_wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # --- results -----------------------------------------------------------------

    def self_times(self):
        """Per-span duration minus the time covered by its direct children."""
        import numpy as np

        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return dur - child

    def layer_metrics(self) -> dict:
        """`<module>.<function>.{calls,self_s}` for every traced function, plus L0 counts."""
        import numpy as np

        name = np.frombuffer(self.name, dtype=np.int32)
        own = self.self_times()
        calls = np.bincount(name, minlength=len(self.names))
        self_s = np.bincount(name, weights=own, minlength=len(self.names))
        out = {}
        for i in range(len(SPAN_TARGETS)):
            out[f"{self.names[i]}.calls"] = int(calls[i])
            out[f"{self.names[i]}.self_s"] = float(self_s[i])
        for label, count in zip(self.count_names, self.counts):
            out[f"{label}.calls"] = count
        out["fields.frobenius_tables.bytes"] = sum(self.frobenius_tables.values())
        return out

    def dump(self, path) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
