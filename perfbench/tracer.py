"""Wall-clock spans around calls into repro's layers, recorded from outside.

The tracer wraps public functions and methods of ``repro`` modules.  A
function is patched under every name that binds it in a loaded
``repro.*`` module, so callers that imported it by name see the wrapper
too.  :meth:`Tracer.restore` puts every original back, including names
bound to a wrapper by a module imported after :meth:`Tracer.install`.

A wrapper records a span only while :attr:`Tracer.active` is set; when
it is not, it costs one attribute check and one extra call.  Spans are
kept in memory as ``[name, label, start, end, parent, op, request]``
lists; ``parent`` is the index of the enclosing span (``-1`` for none),
``op`` the id of the operation the span belongs to, and ``request`` the
id shared by the spans of one trajectory, solve or served session.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

NAME, LABEL, START, END, PARENT, OP, REQUEST = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        #: id stamped on every span recorded from now on
        self.op = None
        self._stack: list[int] = []
        #: (owner, attribute, original, was_own_attribute)
        self._patched: list[tuple] = []
        #: id(wrapper) -> (wrapper, original), for restore()'s scan
        self._wrappers: dict[int, tuple] = {}

    # -- recording -------------------------------------------------------

    def begin(self, name: str, request: str | None = None) -> int:
        """Open a span.  It starts the request ``request`` unless it is
        inside a request already, whose id it then shares; at the root
        of an operation without ``request`` it joins the operation's."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        op_request = f"op{self.op}"
        inherited = self.spans[parent][REQUEST] if parent >= 0 else op_request
        # a request started inside another one stays part of it
        if request is None or inherited != op_request:
            request = inherited
        else:
            request = f"{op_request}/{request}"
        self.spans.append([name, None, time.perf_counter(), None, parent,
                           self.op, request])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, label: str | None = None) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        if label is not None:
            span[LABEL] = label
        self._stack.pop()

    def wrap(self, name: str, fn, label=None, request=None):
        """A wrapper of ``fn`` recording ``name`` spans while active.

        ``label(args, result)`` may return a string stored on the span
        (for example a kernel family); ``request(args)`` may return the
        id of a request that starts at this call (for example a served
        session's name).
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.begin(name, request(args) if request else None)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.end(idx, label(args, result) if label else None)

        self._wrappers[id(wrapper)] = (wrapper, fn)
        return wrapper

    # -- patching --------------------------------------------------------

    def install(self, targets) -> None:
        """Patch each ``(module, qualname, span name[, label[, request]])``
        target (see :meth:`wrap`).

        ``qualname`` is ``func`` or ``Class.method``.  Call before the
        objects that capture bound methods (contexts) are created.
        """
        for target in targets:
            modname, qualname, span = target[:3]
            label, request = (*target[3:], None, None)[:2]
            module = importlib.import_module(modname)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                own = attr in owner.__dict__
                original = getattr(owner, attr)
                self._patched.append((owner, attr, original, own))
                setattr(owner, attr,
                        self.wrap(span, original, label, request))
                continue
            original = getattr(module, qualname)
            wrapper = self.wrap(span, original, label, request)
            for mod in _repro_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original, True))
                        setattr(mod, key, wrapper)

    def restore(self) -> None:
        """Undo :meth:`install`; safe to call more than once."""
        self.active = False
        for owner, attr, original, own in reversed(self._patched):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patched.clear()
        for mod in _repro_modules():
            for key, value in list(vars(mod).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, key, entry[1])

    # -- output ----------------------------------------------------------

    def write_chrome_trace(self, path: str) -> None:
        """Write the spans as a Chrome trace (``chrome://tracing``)."""
        if not self.spans:
            return
        t0 = self.spans[0][START]
        events = [{"name": s[NAME], "ph": "X", "pid": 1, "tid": 1,
                   "ts": (s[START] - t0) * 1e6,
                   "dur": (s[END] - s[START]) * 1e6,
                   "args": {"op": s[OP], "request": s[REQUEST],
                            "label": s[LABEL]}}
                  for s in self.spans if s[END] is not None]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events}, fh)


def _repro_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))]


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children of one span may not overlap in a single-threaded run, but
    the covered time is computed as the union of their intervals
    (clipped to the parent) so that overlap is never counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        start, end = s[START], s[END]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out
