"""Spans around the calls into triqent's layers, installed from outside.

Each traced function is wrapped, and the wrapper is bound in place of the
original under every name that any triqent module holds for it (``chains``
holds its own ``tangle``, the package root re-exports most names). Spans
stay in memory until the run ends. Nothing in triqent itself changes.

Each thread keeps its own span stack: ``verify`` runs one sweep on a thread
pool, and a span started there has no parent.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

# the layers are triqent's modules; these are the functions traced in each
TRACED = {
    "qstate": ("normalize", "sample_type", "apply_local_unitary", "_sample_type_batch"),
    "entanglement": ("tangle", "bloch_triple", "reduce_one", "concurrence_pair",
                     "_bloch_norms_batch", "_tangle_batch", "_concurrence_pairs_batch"),
    "canonical": ("classify", "canonical_decompose", "det_zero_solutions", "reconstruct"),
    "polytope": ("big_r", "dist_to_diagonal", "bound_curve", "membership", "tau_surface"),
    "chains": ("sweep", "build_hamiltonian", "eigensystem", "closed_form_spectrum",
               "closed_form_eigenstate", "closed_form_tangle", "symmetry_labels"),
    "cli": ("main", "build_parser", "_table", "_emit"),
    "verify": ("run_checks",),
}
ENTANGLEMENT_BATCH = ("_bloch_norms_batch", "_tangle_batch", "_concurrence_pairs_batch")
AMP_ROW_BYTES = 8 * 16  # one (8,) complex128 amplitude row


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "child_s")

    def __init__(self, name: str, layer: str, parent: "Span | None"):
        self.name, self.layer, self.parent = name, layer, parent
        self.start = self.end = 0.0
        self.child_s = 0.0


class Tracer:
    """Wraps the functions in TRACED and records one span per call."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._paused = False

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "triqent" or name.startswith("triqent."))]
        for layer, names in TRACED.items():
            mod = sys.modules.get(f"triqent.{layer}")
            for fname in names:
                orig = getattr(mod, fname, None)
                if not callable(orig):
                    self.missing.append(f"{layer}.{fname}")
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", layer, orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._patches.append((m, attr, orig))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patches):
            setattr(m, attr, orig)
        self._patches.clear()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run untraced (the output checks use this)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _wrap(self, name: str, layer: str, fn):
        from triqent.errors import TriqentError

        observe = self._observer(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            stack = self._thread_stack()
            parent = stack[-1] if stack else None
            span = Span(name, layer, parent)
            stack.append(span)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            except TriqentError:
                if parent is None or parent.layer != layer:
                    with self._lock:
                        self.errors[layer] += 1
                raise
            finally:
                span.end = self.clock()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
                self.spans.append(span)
            if observe is not None:
                with self._lock:
                    observe(args, kwargs, result)
            return result

        return traced

    def _thread_stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _observer(self, name: str):
        """Counter kept at the boundary of this function, if any."""
        layer, fname = name.split(".", 1)
        if name == "canonical.canonical_decompose":
            def observe(args, kwargs, result):
                self.counts["degenerate"] += bool(result.degenerate)
            return observe
        if layer == "entanglement" and fname in ENTANGLEMENT_BATCH:
            def observe(args, kwargs, result):
                self.counts["entanglement.batch_rows"] += int(result.shape[0])
            return observe
        if name == "qstate._sample_type_batch":
            def observe(args, kwargs, result):
                self.counts["qstate.batch_rows"] += int(result.shape[0])
            return observe
        return None

    # -- results --------------------------------------------------------------

    def metrics(self, overhead_frac: float) -> dict[str, float]:
        """Every per-layer metric; a layer or function never called reads 0."""
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        total_s: defaultdict = defaultdict(float)
        classify_in_draws = 0
        for sp in self.spans:
            dur = sp.end - sp.start
            for key in (sp.layer, sp.name):
                calls[key] += 1
                self_s[key] += dur - sp.child_s
            total_s[sp.name] += dur
            if sp.name == "canonical.classify" and sp.parent is not None \
                    and sp.parent.name == "qstate.sample_type":
                classify_in_draws += 1
        out: dict[str, float] = {}
        for layer, names in TRACED.items():
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.errors"] = self.errors[layer]
            for fname in names:
                out[f"{layer}.{fname}.calls"] = calls[f"{layer}.{fname}"]
                out[f"{layer}.{fname}.self_s"] = self_s[f"{layer}.{fname}"]
        tangle_s = total_s["entanglement.tangle"]
        out["qstate.sample_type.classify_per_draw"] = _ratio(
            classify_in_draws, calls["qstate.sample_type"])
        out["entanglement.tangle.check_share"] = _ratio(
            tangle_s - self_s["entanglement.tangle"], tangle_s)
        out["canonical.canonical_decompose.degenerate_frac"] = _ratio(
            self.counts["degenerate"], calls["canonical.canonical_decompose"])
        out["entanglement.batch_rows"] = self.counts["entanglement.batch_rows"]
        out["qstate.batch_rows"] = self.counts["qstate.batch_rows"]
        out["entanglement.batch_bytes"] = self.counts["entanglement.batch_rows"] * AMP_ROW_BYTES
        out["cli.format_share"] = _ratio(self_s["cli._table"], total_s["cli.main"])
        out["trace.overhead_frac"] = overhead_frac
        return out

    def write_spans(self, path) -> None:
        """One CSV line per span: id, name, start, end, parent id."""
        ids = {id(sp): i for i, sp in enumerate(self.spans)}
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent\n")
            for i, sp in enumerate(self.spans):
                parent = "" if sp.parent is None else ids[id(sp.parent)]
                fh.write(f"{i},{sp.name},{sp.start:.9f},{sp.end:.9f},{parent}\n")


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 where nothing was counted."""
    return num / den if den else 0.0
