"""In-memory span recorder that wraps fastpolar's public functions.

A span is (name, start, end, parent index, size).  Wrappers are installed
on the module attributes through which the library calls its own layers
(for example ``fastpolar.sim.encode`` or ``fastpolar.listdec.PathSet.fork``)
and removed again when the tracer is closed.  An attribute that no longer
exists is listed in ``absent`` instead of raising, so a refactor that
removes a name shows up as a missing layer, not as a crashed benchmark.
"""

import functools
import importlib
import json
import time


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent, size); parent -1 = root
        self.absent = []
        self._stack = []
        self._patches = []

    def _record(self, name, fn, size, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent, size(args) if size else 1)

    def wrap(self, name, targets, size=None):
        """Record a span ``name`` around every call made through ``targets``.

        ``targets`` are "module:attr" or "module:Class.attr" strings; ``size``
        maps the call's positional arguments to the number of frames it
        handles (default 1).
        """
        found = False
        for target in targets:
            mod_name, _, path = target.partition(":")
            *outer, attr = path.split(".")
            try:
                owner = importlib.import_module(mod_name)
                for part in outer:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                continue
            found = True

            def wrapper(*args, _fn=fn, **kwargs):
                return self._record(name, _fn, size, args, kwargs)

            setattr(owner, attr, functools.wraps(fn)(wrapper))
            self._patches.append((owner, attr, fn))
        if not found:
            self.absent.append(name)

    def span(self, name, fn, *args, size=1, **kwargs):
        """Call ``fn`` under a span recorded by the benchmark itself."""
        return self._record(name, fn, lambda _: size, args, kwargs)

    def close(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "size"],
                       "absent": self.absent, "spans": self.spans}, fh)


class SpanTable:
    """Durations, self times and decoder attribution of recorded spans."""

    def __init__(self, spans, decoders):
        self.spans = spans
        n = len(spans)
        self.by_name = {}
        self.dur = [s[2] - s[1] for s in spans]
        self.self_time = list(self.dur)
        # parents precede their children, so one forward pass resolves the
        # outermost decoder span above every span
        self.decoder = [None] * n
        for i, (name, _, _, parent, _) in enumerate(spans):
            self.by_name.setdefault(name, []).append(i)
            if parent >= 0:
                self.self_time[parent] -= self.dur[i]
                self.decoder[i] = self.decoder[parent]
            if self.decoder[i] is None and name in decoders:
                self.decoder[i] = decoders[name]

    def select(self, name, decoder=None):
        return [i for i in self.by_name.get(name, ())
                if decoder is None or self.decoder[i] == decoder]

    def count(self, name, decoder=None):
        return len(self.select(name, decoder))

    def total(self, name, decoder=None, own=False):
        times = self.self_time if own else self.dur
        return sum(times[i] for i in self.select(name, decoder))

    def size(self, name):
        return sum(self.spans[i][4] for i in self.select(name))
