"""In-memory span tracing by wrapping module attributes from the outside.

A wrapper replaces a function where its callers look it up, for example
``pcfgtk.estimator.nbest`` for the estimator's calls and
``pcfgtk.kbest.nbest`` for the benchmark's own.  Nothing in the program
changes: uninstalling puts the original objects back.  The benchmark's
untraced runs never install a wrapper.
"""
from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from typing import Callable


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, work item.

    Spans nest strictly because the benchmark runs one call at a time in one
    thread, so a span's self time is its duration minus its children's.  A
    call made while a span of the same name is innermost (a recursive
    function calling itself through its module global) is folded into that
    span rather than opening a new one.
    """

    def __init__(self) -> None:
        # each span is [name, start, end, parent index or -1, item]
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.item: int | None = None
        self._open: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def install(
        self,
        module,
        attr: str,
        name: str,
        count: Callable[[Counter, object], None] | None = None,
    ) -> None:
        """Wrap ``module.attr`` as span ``name``; ``count`` tallies its results.

        A missing attribute, for example one a later refactor renamed, is
        skipped: the trace then records nothing for it.
        """
        original = getattr(module, attr, None)
        if original is None:
            return
        spans, opened, counts = self.spans, self._open, self.counts

        def wrapper(*args, **kwargs):
            if opened and spans[opened[-1]][0] == name:
                return original(*args, **kwargs)
            span = [name, 0.0, 0.0, opened[-1] if opened else -1, self.item]
            opened.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                opened.pop()
            if count is not None:
                count(counts, result)
            return result

        setattr(module, attr, wrapper)
        self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def self_seconds(self, scale: Callable[[int | None], float] = lambda item: 1.0) -> dict[str, float]:
        """Per span name, the summed duration not covered by child spans,
        each span's duration multiplied by ``scale`` of its work item."""
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, parent, item in self.spans:
            duration = (end - start) * scale(item)
            totals[name] += duration
            if parent >= 0:
                totals[self.spans[parent][0]] -= duration
        return totals

    def calls(self) -> Counter[str]:
        return Counter(span[0] for span in self.spans)

    def write(self, path) -> None:
        """Write the spans as JSON lines, in the order they were opened."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, item in self.spans:
                record = {"name": name, "start": start, "end": end, "parent": parent, "item": item}
                fh.write(json.dumps(record) + "\n")
