"""In-memory span recorder for the traced benchmark run.

The benchmark measures layers from the outside: :meth:`Tracer.patch`
replaces a layer's public entry point *where its callers look it up*
(a module global, a class attribute, a dispatch-table entry) with a
wrapper that records one span per call, and :meth:`Tracer.restore`
puts every original back.  Nothing under ``src/`` changes.

A span is ``[name, parent, start, end]``: ``parent`` is the index of
the enclosing span (``-1`` at the top level), so the self time of a
layer is its duration minus the part its child spans cover.  Spans
stay in memory; the benchmark reduces them to per-layer totals when
the traced run ends.  Counters (lane ops, captured ops, distinct
stream builds) are bumped by ``on_return`` hooks after the span has
closed, so their cost lands outside every layer span; a hook also runs
when the call raised, with ``result`` ``None``.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

_MISSING = object()

#: ``on_return(tracer, result, args, kwargs)``.
Hook = Callable[["Tracer", Any, tuple, dict], None]


class Tracer:
    """Spans and counters of one or more traced runs."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.counters: Counter = Counter()
        self.keys: Dict[str, set] = {}
        self._stack: List[int] = []
        self._patches: List[Callable[[], None]] = []

    # -- recording ---------------------------------------------------------

    def wrap(
        self, name: str, fn: Callable, on_return: Optional[Hook] = None
    ) -> Callable:
        """``fn`` with one span per call (and ``on_return`` after it)."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            stack.append(index)
            result = None
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[3] = clock()
                stack.pop()
                if on_return is not None:
                    on_return(self, result, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def distinct(self, name: str, key: Any) -> None:
        """Record ``key`` in the named set of distinct keys."""
        self.keys.setdefault(name, set()).add(key)

    # -- patching ----------------------------------------------------------

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_return: Optional[Hook] = None,
    ) -> Callable:
        """Replace ``owner.attr`` with a traced wrapper; returns it.

        ``owner`` may be a module, a class or an instance.  A
        classmethod is wrapped bound and stored as a staticmethod, so
        calls through the class and its instances both still work.
        """
        raw = vars(owner).get(attr, _MISSING)
        wrapper = self.wrap(name, getattr(owner, attr), on_return)
        setattr(
            owner, attr,
            staticmethod(wrapper) if isinstance(raw, classmethod) else wrapper,
        )

        def undo() -> None:
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

        self._patches.append(undo)
        return wrapper

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr`` to an existing wrapper (one object shared
        by several lookup sites)."""
        raw = vars(owner)[attr]
        setattr(owner, attr, value)
        self._patches.append(lambda: setattr(owner, attr, raw))

    def replace_item(self, mapping: dict, key: Any, value: Any) -> None:
        """Set ``mapping[key]`` to ``value`` until :meth:`restore`."""
        raw = mapping[key]
        mapping[key] = value
        self._patches.append(lambda: mapping.__setitem__(key, raw))

    def restore(self) -> None:
        """Undo every patch, most recent first."""
        while self._patches:
            self._patches.pop()()

    # -- reduction ---------------------------------------------------------

    def summary(self) -> Tuple[Counter, Counter, float]:
        """``(self seconds by layer, calls by layer, top-level seconds)``.

        Top-level seconds is the time covered by spans with no
        enclosing span: the part of the wall time the layers account
        for.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for _, parent, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter = Counter()
        calls: Counter = Counter()
        top = 0.0
        for index, (name, parent, start, end) in enumerate(spans):
            duration = end - start
            self_s[name] += duration - child[index]
            calls[name] += 1
            if parent < 0:
                top += duration
        return self_s, calls, top
