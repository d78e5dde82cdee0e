"""Spans recorded from outside, around the calls into each layer.

Every program (or served job) gets one trace id and one root span, its
turnaround.  Layer spans are the root's children; the translate call's
per-pass spans come from a ``PipelineProfiler`` and hang below it.  A
layer's self time is its span minus the part its children cover, and
``other`` is the root's self time, so the layers of one trace sum to
its turnaround exactly (the conservation rule).  Spans stay in memory
and are written out once, when the benchmark ends.
"""

import json


class Span:
    __slots__ = ("trace_id", "span_id", "parent", "name", "start", "end")

    def __init__(self, trace_id, span_id, parent, name, start, end):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = end

    @property
    def seconds(self):
        return self.end - self.start

    def as_dict(self):
        return {"trace": self.trace_id, "id": self.span_id,
                "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end}


class SpanRecorder:
    """In-memory span store."""

    def __init__(self):
        self.spans = []
        self._next_id = 0

    def new_id(self):
        self._next_id += 1
        return self._next_id

    def add(self, trace_id, name, start, end, parent=None,
            span_id=None):
        span = Span(trace_id, span_id or self.new_id(), parent, name,
                    start, end)
        self.spans.append(span)
        return span

    def add_profile(self, trace_id, parent, profiler):
        """Attach a ``PipelineProfiler``'s top-level pass spans below
        ``parent``, named by the paper stage they belong to."""
        for pspan in profiler.spans:
            if pspan.end is not None:
                self.add(trace_id, stage_of(pspan.name), pspan.start,
                         pspan.end, parent)

    def write(self, path):
        with open(path, "w") as handle:
            json.dump([span.as_dict() for span in self.spans], handle)


def stage_of(pass_name):
    """Layer name of one translation pass span: stages 1-4 keep their
    number, the static-analysis pass is ``static``, and Stage 5's
    conversions plus its removal/insertion passes (Appendices A and B)
    are ``core.stage5``."""
    if pass_name == "static-analysis":
        return "static"
    if pass_name.startswith("stage") and pass_name[5:6] in "1234":
        return "core.stage" + pass_name[5]
    return "core.stage5"


def self_times(spans):
    """Per trace id: ``{layer: self seconds}``, with the root's self
    time under ``"other"`` and the root's duration under
    ``"turnaround"``.  Raises ValueError when children overrun their
    parent, which would break conservation."""
    by_trace = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)
    result = {}
    for trace_id, members in by_trace.items():
        roots = [s for s in members if s.parent is None]
        if len(roots) != 1:
            raise ValueError("trace %r has %d roots"
                             % (trace_id, len(roots)))
        covered = {}
        for span in members:
            if span.parent is not None:
                covered[span.parent] = covered.get(span.parent, 0.0) \
                    + span.seconds
        layers = {}
        for span in members:
            own = span.seconds - covered.get(span.span_id, 0.0)
            if own < -1e-9:
                raise ValueError("children of %s overrun it by %.3g s"
                                 % (span.name, -own))
            name = "other" if span.parent is None else span.name
            layers[name] = layers.get(name, 0.0) + own
        layers["turnaround"] = roots[0].seconds
        result[trace_id] = layers
    return result


def conserved(layers, tolerance=1e-9):
    """True when a trace's layer self times sum to its turnaround."""
    total = sum(v for k, v in layers.items() if k != "turnaround")
    return abs(total - layers["turnaround"]) <= tolerance * max(
        1.0, layers["turnaround"])


def layer_totals(spans):
    """``(total self seconds per layer, number of traces)``, after
    checking every trace for conservation."""
    per_trace = self_times(spans)
    totals = {}
    for trace_id, layers in per_trace.items():
        if not conserved(layers):
            raise ValueError("trace %r breaks conservation" % (trace_id,))
        for name, seconds in layers.items():
            totals[name] = totals.get(name, 0.0) + seconds
    return totals, len(per_trace)
