"""Layer spans recorded from outside the program.

The benchmark does not change ``helmskel``.  It replaces the public
functions, classes and methods of each layer with timing wrappers, at the
place where the caller looks the name up: ``helmskel.problem.DtnBlock``
for the constructor call inside ``build_problem``,
``helmskel.skeleton.ExchangeOperator.apply`` for every exchange
application, and so on.  Spans are kept in memory and written out by the
caller when the run ends.  Everything here is single-threaded.
"""

from __future__ import annotations

import contextlib
from time import perf_counter

import helmskel.assembly as assembly
import helmskel.impedance as impedance
import helmskel.problem as problem
import helmskel.skeleton as skeleton
import helmskel.solvers_spectral as solvers_spectral

# (owner, attribute, span name).  The owner is the namespace the caller
# reads the name from, so the wrapper sees exactly the calls of that caller.
WRAP_POINTS = (
    (problem, "build_rect_mesh", "geometry.build"),
    (problem, "partition_checkerboard", "geometry.build"),
    (problem, "skeleton_index", "geometry.build"),
    (assembly, "assemble_forms", "assembly.forms"),
    (problem, "DtnBlock", "impedance.dtn"),
    (problem, "collar_impedance", "impedance.outer"),
    (problem, "boundary_h1_impedance", "impedance.outer"),
    (problem, "ExchangeOperator", "skeleton.exchange_setup"),
    (problem, "LocalImpedanceSolver", "skeleton.local_lu_setup"),
    (skeleton.ExchangeOperator, "apply", "skeleton.exchange_apply"),
    (skeleton.ScatteringOperator, "apply", "skeleton.scattering_apply"),
    (impedance.BlockImpedance, "whiten", "impedance.whiten"),
    (impedance.BlockImpedance, "unwhiten", "impedance.unwhiten"),
    (skeleton, "skeleton_rhs", "skeleton.rhs"),
    (skeleton, "recover_volume", "skeleton.recover"),
    (solvers_spectral, "gmres_tinv", "solvers_spectral.gmres"),
    (solvers_spectral, "dense_operator", "solvers_spectral.dense_operator"),
    (solvers_spectral, "infsup_primary", "solvers_spectral.infsup_primary"),
    (solvers_spectral, "continuity_modulus", "solvers_spectral.continuity_modulus"),
    (solvers_spectral, "verify_estimates", "solvers_spectral.verify"),
)

# Per-layer metrics derived from spans: span name and the statistics
# reported for it.  "s" is the summed span time, "self_s" the span time
# minus the time of its direct child spans.
SPAN_METRICS = (
    ("geometry.build", ("s", "calls")),
    ("assembly.forms", ("s", "calls")),
    ("impedance.dtn", ("s", "calls")),
    ("impedance.outer", ("s", "calls")),
    ("skeleton.exchange_setup", ("s", "calls")),
    ("skeleton.local_lu_setup", ("s", "calls")),
    ("skeleton.exchange_apply", ("s", "calls", "ms_per_call")),
    ("skeleton.scattering_apply", ("s", "calls", "ms_per_call")),
    ("impedance.whiten", ("s", "calls")),
    ("impedance.unwhiten", ("s", "calls")),
    ("skeleton.rhs", ("s", "calls")),
    ("skeleton.recover", ("s", "calls")),
    ("solvers_spectral.gmres", ("self_s", "calls")),
    ("solvers_spectral.dense_operator", ("self_s", "calls")),
    ("solvers_spectral.continuity_modulus", ("s", "calls")),
    ("solvers_spectral.infsup_primary", ("s", "calls")),
    ("solvers_spectral.verify", ("self_s", "calls")),
)

STAT_UNITS = {"s": "s", "self_s": "s", "calls": "count", "ms_per_call": "ms"}


class Recorder:
    """In-memory span recorder.

    A span is ``[name, parent, request, start, end]``.  ``parent`` is the
    index of the enclosing span (-1 at the top); ``request`` is the index
    of the outermost span open when it started, so all spans of one build,
    one solve or one certificate share it.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._enabled = True

    @contextlib.contextmanager
    def span(self, name):
        """Record the enclosed block as one span."""
        if not self._enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        request = self._stack[0] if self._stack else index
        span = [name, parent, request, perf_counter(), None]
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield
        finally:
            span[4] = perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def paused(self):
        """Run the enclosed block without recording (correctness checks)."""
        was, self._enabled = self._enabled, False
        try:
            yield
        finally:
            self._enabled = was

    def wrap(self, fn, name):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Install a wrapper at every wrap point; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name in WRAP_POINTS:
                # Read from __dict__ so a class attribute is restored as it was.
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_totals(self):
        """Per span name: (calls, summed time, summed self time)."""
        child_time = [0.0] * len(self.spans)
        for _, parent, _, t0, t1 in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        totals = {}
        for (name, _, _, t0, t1), inner in zip(self.spans, child_time):
            calls, total, own = totals.get(name, (0, 0.0, 0.0))
            totals[name] = (calls + 1, total + (t1 - t0), own + (t1 - t0 - inner))
        return totals

    def layer_metrics(self):
        """The span-derived per-layer metrics, as ``{name: (value, unit)}``."""
        totals = self.layer_totals()
        out = {}
        for name, stats in SPAN_METRICS:
            calls, total, own = totals.get(name, (0, 0.0, 0.0))
            values = {"s": total, "self_s": own, "calls": calls,
                      "ms_per_call": 1e3 * total / calls if calls else 0.0}
            for stat in stats:
                out[f"{name}_{stat}"] = (values[stat], STAT_UNITS[stat])
        return out

    def as_records(self):
        """Spans as JSON-ready dicts, times relative to the first span."""
        base = self.spans[0][3] if self.spans else 0.0
        return [{"id": i, "name": name, "parent": parent, "request": request,
                 "start_s": t0 - base, "end_s": t1 - base}
                for i, (name, parent, request, t0, t1) in enumerate(self.spans)]
