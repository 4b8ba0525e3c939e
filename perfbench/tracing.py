"""Spans around hbayes functions, recorded from the benchmark's own code.

Each target is wrapped at the name its caller looks it up by: ``cavi_sweep``
calls ``update_user`` through the ``hbayes.inference`` module globals, the
CLI calls ``io.load_events`` through the ``hbayes.io`` module, and so on.
A target that no longer exists is skipped without error, so a later change
that removes a function only makes its spans disappear.
"""

import functools
import importlib
import json
import time

# (module, attribute path) pairs, in the form their callers resolve them.
TARGETS = [
    ("hbayes.inference", "fit"),
    ("hbayes.inference", "cavi_sweep"),
    ("hbayes.inference", "update_responsibilities"),
    ("hbayes.inference", "update_theta"),
    ("hbayes.inference", "update_user"),
    ("hbayes.inference", "update_brand"),
    ("hbayes.inference", "update_style"),
    ("hbayes.inference", "update_w"),
    ("hbayes.inference", "update_precisions"),
    ("hbayes.inference", "update_xi"),
    ("hbayes.inference", "spd_inverse"),
    ("hbayes.inference", "elbo"),
    ("hbayes.model", "VariationalState.copy"),
    ("hbayes.io", "load_events"),
    ("hbayes.io", "save_checkpoint"),
    ("hbayes.io", "load_checkpoint"),
    ("hbayes.io", "load_candidates"),
    ("hbayes.predictor", "rank_top_k"),
    ("hbayes.predictor", "predictive_moments"),
    ("hbayes.predictor", "brand_prior"),
    ("hbayes.predictor", "user_prior"),
]


class Tracer:
    """In-memory span recorder for one single-threaded process.

    A span is (name index, start, end, parent span index or -1); times are
    ``time.perf_counter`` seconds.  Spans are written out once, by ``dump``.
    """

    def __init__(self):
        self.names = []
        self.spans = []
        self._stack = []

    def _name_index(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name, fn):
        idx = self._name_index(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[span_id] = (idx, start, end, parent)

        return traced

    def record(self, name, start, end):
        """Add a top-level span timed by the caller."""
        self.spans.append((self._name_index(name), start, end, -1))

    def install(self):
        """Wrap every target that exists."""
        for module_name, path in TARGETS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                continue
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                continue
            setattr(owner, attr, self.wrap(f"{module_name}.{path}", fn))

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))


def summarize(path):
    """Per span name: number of spans, total seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children; in one thread children never overlap each other.  A span
    still open when the file was written (null) is left out.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    names, spans = doc["names"], doc["spans"]
    child_time = [0.0] * len(spans)
    for span in spans:
        if span is not None and span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    out = {}
    for i, span in enumerate(spans):
        if span is None:
            continue
        idx, start, end, _ = span
        row = out.setdefault(names[idx], {"count": 0, "total": 0.0, "self": 0.0})
        row["count"] += 1
        row["total"] += end - start
        row["self"] += end - start - child_time[i]
    return out
