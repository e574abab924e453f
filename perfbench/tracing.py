"""In-memory span tracing around the public functions of ``randskew``.

The benchmark wraps each traced function wherever a module of the package
holds a reference to it (``from .x import f`` copies the reference, so the
defining module alone is not enough).  Each call records one span: name,
start, end and the index of the enclosing span.  Spans stay in memory until
the run ends and are then written out as one JSON file; :func:`summarize`
turns that file into per-function counts and self times.

This module imports nothing heavy, so a child process can import it before
timing the import of the package itself.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from pathlib import Path

TRACED = {
    "rng": ["generator", "split"],
    "linalg": ["gram", "cholesky", "solve_spd", "spectral_norm", "inv_sqrt",
               "sqrt_psd"],
    "sampling": ["exact_leverage_scores", "sjlt_approx_leverage",
                 "build_plan", "approximation_factors", "draw",
                 "apply_sketch"],
    "hadamard": ["fwht_inplace", "srht_draw", "srht_apply",
                 "rotated_leverage_scores"],
    "debias": ["apply_debias", "fine_grained_weights"],
    "biaslab": ["estimate_bias", "make_debias_spec"],
    "optim": ["objective_eval", "ssn_step", "reference_solution", "_armijo"],
    "data": ["load_data"],
}
ROOT_SPAN = "cli.main"
LAYER_NAMES = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


def _apply_sketch_rows(args, kwargs):
    sketch = kwargs.get("sketch", args[0] if args else None)
    return int(sketch.m)


def _fwht_bytes(args, kwargs):
    """Computed, not measured: one read and one write of the array per
    butterfly level, log2(n) levels."""
    v = kwargs.get("v", args[0] if args else None)
    n = v.shape[0]
    return 2 * v.size * 8 * max(int(math.log2(n)), 0)


# Work counted at a boundary:
# function name -> (counter name, unit, extractor of the call's arguments).
COUNTERS = {
    "sampling.apply_sketch": ("sampling.apply_sketch.rows", "rows",
                              _apply_sketch_rows),
    "hadamard.fwht_inplace": ("hadamard.fwht_inplace.bytes_computed", "B",
                              _fwht_bytes),
}


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # [name id, start ns, end ns, parent span index, exception name]
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        name_id = self._name_id(name)
        counter = COUNTERS.get(name)
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                key, _, extract = counter
                counters[key] = counters.get(key, 0) + extract(args, kwargs)
            span = [name_id, clock(), 0, stack[-1] if stack else -1, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def install(self, package: str = "randskew") -> int:
        """Replace every reference to a traced function inside ``package``.

        Returns the number of references replaced.
        """
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None
                   and (name == package or name.startswith(package + "."))}
        replaced = 0
        for mod_name, fn_names in TRACED.items():
            home = modules[f"{package}.{mod_name}"]
            for fn_name in fn_names:
                original = getattr(home, fn_name)
                wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            replaced += 1
        return replaced

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"names": self.names, "spans": self.spans,
                                    "counters": self.counters},
                                   separators=(",", ":")), encoding="utf-8")


def summarize(path: Path) -> dict:
    """Per-function calls, total and self seconds, plus derived counts."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    names, spans = doc["names"], doc["spans"]
    child_ns = [0] * len(spans)
    for name_id, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start

    stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": {}}
             for name in names}
    for i, (name_id, start, end, parent, error) in enumerate(spans):
        s = stats[names[name_id]]
        s["calls"] += 1
        s["total_s"] += (end - start) / 1e9
        s["self_s"] += (end - start - child_ns[i]) / 1e9
        if error is not None:
            s["errors"][error] = s["errors"].get(error, 0) + 1

    def under(i: int, target: str) -> bool:
        parent = spans[i][3]
        while parent >= 0:
            if names[spans[parent][0]] == target:
                return True
            parent = spans[parent][3]
        return False

    evals = [i for i, sp in enumerate(spans)
             if names[sp[0]] == "optim.objective_eval"]
    return {
        "functions": stats,
        "counters": dict(doc["counters"]),
        "armijo_evals": sum(under(i, "optim._armijo") for i in evals),
        "solver_evals": sum(not under(i, "optim.reference_solution")
                            for i in evals),
    }
