"""Layer tracing from outside the package.

A :class:`Tracer` replaces named functions in the modules that call them
(``mellin.log_moment``, ``montecarlo.pdf``, ``montecarlo.sample``, ...) with
wrappers that count calls and accumulate inclusive and self time, in the
benchmark process only.  Calls of hot leaf functions are only aggregated;
the other wrapped calls also record a span (name, start, end, parent, and
the benchmark operation it ran in).  Spans
stay in memory until :meth:`Tracer.write` dumps them.
"""

from __future__ import annotations

import json
import threading
import types
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# (module, attribute, label, kind).  Names are patched where the calling
# module looks them up; "channels.specfun" is a copy of the specfun namespace
# that only channels sees, so specfun's own recursion is not counted.  A
# label patched in several modules aggregates over all of them.  "count"
# only counts calls, "hot" adds inclusive time, "span" also keeps self time
# and records a span per call.
PATCHES = (
    ("channels.specfun", "log_gamma", "specfun.log_gamma", "hot"),
    ("channels.specfun", "kummer_1f1", "specfun.kummer_1f1", "hot"),
    ("channels.specfun", "gauss_2f1", "specfun.gauss_2f1", "hot"),
    ("channels.specfun", "log_bessel_i0", "specfun.log_bessel_i0", "hot"),
    ("mellin", "log_moment", "channels.log_moment", "hot"),
    ("channels", "validate_model", "channels.validate_model", "count"),
    ("mellin", "validate_model", "channels.validate_model", "count"),
    ("cli", "validate_model", "channels.validate_model", "count"),
    ("montecarlo", "pdf", "channels.pdf", "hot"),
    ("montecarlo", "_quad", "montecarlo.quad", "hot"),
    ("montecarlo", "sample", "channels.sample", "span"),
    ("mellin", "enumerate_poles", "mellin.enumerate_poles", "span"),
    ("mellin", "leading_pole", "mellin.leading_pole", "span"),
    ("mellin", "leading_term", "mellin.leading_term", "span"),
    ("mellin", "build_expansion", "mellin.build_expansion", "span"),
    ("mellin", "evaluate_expansion", "mellin.evaluate_expansion", "span"),
    ("montecarlo", "estimate_outage", "montecarlo.estimate_outage", "span"),
    ("montecarlo", "clopper_pearson", "montecarlo.clopper_pearson", "span"),
    ("montecarlo", "oracle_outage", "montecarlo.oracle_outage", "span"),
    ("analysis", "sweep_compare", "analysis.sweep_compare", "span"),
    ("cli", "parse_config", "cli.parse_config", "span"),
    ("cli", "emit_csv", "cli.emit_csv", "span"),
)

#: Labels whose statistics are also kept per operation context.
KEYED = {"mellin.build_expansion"}


class Tracer:
    """Call counts, inclusive/self time and spans of wrapped package functions.

    Each thread keeps its own stack of open spans; a call of a label that is
    already open on the stack (recursion) is passed through uncounted.
    """

    def __init__(self):
        self.context = ""
        # label -> [calls, inclusive s, self s, sampled draws]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.spans: list[tuple | None] = []
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _thread(self):
        local = self._local
        try:
            return local.stack, local.active
        except AttributeError:
            local.stack, local.active = [], set()
            return local.stack, local.active

    def _wrap(self, fn, label: str, kind: str):
        tracer = self
        st = self.stats[label]

        if kind == "count":
            def counted(*args, **kwargs):
                st[0] += 1
                return fn(*args, **kwargs)
            counted.__wrapped__ = fn
            return counted

        if kind == "hot":
            # Leaf calls: no stack, so a span's self time still includes
            # them; only the self times of estimate_outage and sweep_compare
            # are reported, and no hot function runs directly under those.
            def timed(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    st[1] += perf_counter() - t0
                    st[0] += 1
            timed.__wrapped__ = fn
            return timed

        keyed = label in KEYED

        def spanned(*args, **kwargs):
            stack, active = tracer._thread()
            if label in active:
                return fn(*args, **kwargs)
            active.add(label)
            parent = stack[-1][1] if stack else None
            span_id = len(tracer.spans)
            tracer.spans.append(None)
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                stack.pop()
                active.discard(label)
                if stack:
                    stack[-1][0] += dt
                stats = [st, tracer.stats[f"{label}.{tracer.context}"]] if keyed else [st]
                for s in stats:
                    s[0] += 1
                    s[1] += dt
                    s[2] += dt - frame[0]
                if label == "channels.sample":
                    size = kwargs.get("size", args[2] if len(args) > 2 else None)
                    st[3] += 1 if size is None else int(size)
                tracer.spans[span_id] = (span_id, parent, label, tracer.context, t0, t1)

        spanned.__wrapped__ = fn
        return spanned

    @contextmanager
    def op(self, name: str, context: str):
        """Span of one benchmark operation; wrapped calls inside it become its children."""
        self.context = context
        stack, _ = self._thread()
        span_id = len(self.spans)
        self.spans.append(None)
        stack.append([0.0, span_id])
        t0 = perf_counter()
        try:
            yield
        finally:
            stack.pop()
            self.spans[span_id] = (span_id, None, f"op.{name}", context, t0, perf_counter())

    def install(self, package) -> None:
        """Wrap every entry of PATCHES in the given relayasym package."""
        channels = package.channels
        self._saved.append((channels, "specfun", channels.specfun))
        channels.specfun = types.SimpleNamespace(**vars(package.specfun))
        for where, attr, label, kind in PATCHES:
            module = channels.specfun if where == "channels.specfun" else getattr(package, where)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, label, kind))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def calls(self, label: str) -> int:
        return self.stats[label][0] if label in self.stats else 0

    def seconds(self, label: str) -> float:
        return self.stats[label][1] if label in self.stats else 0.0

    def self_seconds(self, label: str) -> float:
        return self.stats[label][2] if label in self.stats else 0.0

    def draws(self, label: str) -> int:
        return self.stats[label][3] if label in self.stats else 0

    def write(self, path: Path, metrics: dict) -> None:
        doc = {
            "metrics": metrics,
            "stats": {k: {"calls": v[0], "s": v[1], "self_s": v[2]} for k, v in sorted(self.stats.items())},
            "spans": [
                {"id": s[0], "parent": s[1], "name": s[2], "context": s[3], "start": s[4], "end": s[5]}
                for s in self.spans
                if s is not None
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n")
