"""Outside-in tracing of the relumorse pipeline.

The benchmark must not edit ``src/``, so spans and counters are recorded by
wrapping public callables from here.  Every binding of a wrapped function in
every loaded ``relumorse*`` module (``from .lp import lp_solve`` makes a new
binding in the importing module) is replaced by one shared wrapper, and
``CanonicalComplex`` methods are wrapped on the class.  :meth:`Tracer.uninstall`
puts every original object back.  A callable that no longer exists is skipped
and reads as zero calls.

The program is single-threaded and has no queues, so a span's duration is
all busy time: no layer has a wait time to report.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (layer, module, attribute).  The layer names the metric prefix.
FUNCTIONS = (
    ("network", "relumorse.network", "cell_affine_form"),
    ("lp", "relumorse.lp", "lp_solve"),
    ("lp", "relumorse.lp", "interior_witness"),
    ("complex", "relumorse.complex", "build_complex"),
    ("orientation", "relumorse.orientation", "classify_vertex"),
    ("dgvf", "relumorse.dgvf", "build_dgvf"),
    ("dgvf", "relumorse.dgvf", "compactify"),
    ("dgvf", "relumorse.dgvf", "is_acyclic"),
    ("dgvf", "relumorse.dgvf", "local_pair"),
    ("homology", "relumorse.homology", "verify_relative_perfectness"),
    ("homology", "relumorse.homology", "relative_ranks"),
    ("homology", "relumorse.homology", "chain_complex"),
    ("homology", "relumorse.homology", "betti"),
    ("homology", "relumorse.homology", "morse_complex"),
    ("cli", "relumorse.cli", "main"),
)

# (layer, module, class, method)
METHODS = (
    ("complex", "relumorse.complex", "CanonicalComplex", "is_bounded_above"),
    ("complex", "relumorse.complex", "CanonicalComplex", "f_max"),
)

# Spans that name the pipeline stage an LP solve belongs to.
STAGES = {
    "complex.build_complex": "build",
    "dgvf.build_dgvf": "dgvf",
    "dgvf.compactify": "compactify",
    "dgvf.local_pair": "local_pair",
}
STAGE_NAMES = ("build", "dgvf", "compactify", "local_pair", "other")

# Error kinds of relumorse.errors, reported even when zero so that every run
# has the same metric names; a kind added later is reported when seen.
REJECTION_KINDS = (
    "architecture",
    "cyclic_matching",
    "dimension",
    "flat_cell",
    "genericity",
    "incomplete_pairing",
    "injectivity",
    "missing_edge",
    "numerical_instability",
    "singular_system",
    "unbounded_cell",
)

MAX_CELL_DIM = 4


class Tracer:
    """Spans and counters for one traced run.

    A span is ``(id, name, start, end, parent id or None, draw id)``, with
    times from ``time.perf_counter``.  Spans stay in memory until the run
    writes them out.
    """

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.draw_id = None
        self._stack = []  # ids of the open spans
        self._stages = []  # stage names of the open stage spans
        self._restore = []  # (owner, attribute, original)

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        for layer, module_name, attr in FUNCTIONS:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None) if module else None
            if original is None:
                continue
            wrapper = self._wrap(f"{layer}.{attr}", original)
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "relumorse" or name.startswith("relumorse.")):
                    continue
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, binding, original))
                        setattr(mod, binding, wrapper)
        for layer, module_name, cls_name, attr in METHODS:
            cls = getattr(sys.modules.get(module_name), cls_name, None)
            original = vars(cls).get(attr) if cls is not None else None
            if original is None:
                continue
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(f"{layer}.{attr}", original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- recording -------------------------------------------------------

    def _wrap(self, name, original):
        stage = STAGES.get(name)
        observe = _OBSERVERS.get(name)
        spans, stack, stages, counters = self.spans, self._stack, self._stages, self.counters
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)  # reserve the id; filled in on exit
            stack.append(span_id)
            if stage:
                stages.append(stage)
            if name == "lp.lp_solve":
                counters[f"lp.lp_solve.calls.{stages[-1] if stages else 'other'}"] += 1
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stage:
                    stages.pop()
                spans[span_id] = (span_id, name, start, end, parent, self.draw_id)
                counters[f"{name}.calls"] += 1
            if observe is not None:
                observe(counters, result)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", name)
        return wrapper

    # -- reading ---------------------------------------------------------

    def self_times(self) -> dict:
        """Summed self time per span name: duration minus direct children."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span is not None and span[4] is not None:
                child_time[span[4]] += span[3] - span[2]
        out = defaultdict(float)
        for span in self.spans:
            if span is not None:
                out[span[1]] += (span[3] - span[2]) - child_time[span[0]]
        return dict(out)

    def metrics(self) -> dict:
        """Per-layer metric values (name -> number); absent names read 0."""
        counters = self.counters
        selfs = self.self_times()
        out = {}
        for layer, _, attr in FUNCTIONS:
            name = f"{layer}.{attr}"
            out[f"{name}.calls"] = counters[f"{name}.calls"]
            out[f"{name}.self_s"] = selfs.get(name, 0.0)
        for layer, _, _, attr in METHODS:
            name = f"{layer}.{attr}"
            out[f"{name}.calls"] = counters[f"{name}.calls"]
            out[f"{name}.self_s"] = selfs.get(name, 0.0)
        for stage in STAGE_NAMES:
            out[f"lp.lp_solve.calls.{stage}"] = counters[f"lp.lp_solve.calls.{stage}"]
        out["lp.lp_solve.infeasible"] = counters["lp.lp_solve.infeasible"]
        out["lp.lp_solve.unbounded"] = counters["lp.lp_solve.unbounded"]
        out["lp.interior_witness.kept"] = counters["lp.interior_witness.kept"]
        tried = counters["lp.interior_witness.calls"]
        out["lp.interior_witness.keep_ratio"] = (
            counters["lp.interior_witness.kept"] / tried if tried else 0.0
        )
        for d in range(MAX_CELL_DIM + 1):
            out[f"complex.cells.d{d}"] = counters[f"complex.cells.d{d}"]
        for kind in REJECTION_KINDS:
            out[f"cli.rejected.{kind}"] = counters[f"cli.rejected.{kind}"]
        out.update({k: v for k, v in counters.items() if k.startswith("cli.rejected.")})
        return out


def _observe_lp(counters, result):
    status = getattr(result, "status", None)
    if status in ("infeasible", "unbounded"):
        counters[f"lp.lp_solve.{status}"] += 1


def _observe_witness(counters, result):
    if result is not None:
        counters["lp.interior_witness.kept"] += 1


def _observe_complex(counters, result):
    for cell in getattr(result, "cells", {}).values():
        counters[f"complex.cells.d{cell.dim}"] += 1


_OBSERVERS = {
    "lp.lp_solve": _observe_lp,
    "lp.interior_witness": _observe_witness,
    "complex.build_complex": _observe_complex,
}
