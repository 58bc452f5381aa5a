"""Spans and counters recorded from outside the program.

The traced run wraps public functions of the program's layers (module
attributes the evaluator and server look up at call time) with recorders
that keep spans in memory: name, start, end, parent span and a request id
shared by every span of one request.  ``splitmix64`` is wrapped with a
plain counter instead, because it runs hundreds of thousands of times per
search.  ``uninstall`` restores every original.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional


class Tracer:
    def __init__(self) -> None:
        #: (request id, name, start, end, parent span index or -1)
        self.spans: List[tuple] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: List[tuple] = []

    # -- spans ---------------------------------------------------------
    @contextmanager
    def request(self, request_id: str):
        """Attribute every span opened on this thread to ``request_id``."""
        previous = getattr(self._local, "request_id", None)
        self._local.request_id = request_id
        try:
            yield
        finally:
            self._local.request_id = previous

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)
        stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[index] = (getattr(self._local, "request_id", None), name, start, end, parent)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- instrumentation -------------------------------------------------
    def wrap(self, owner: Any, attribute: str, name: str, on_result: Optional[Callable] = None) -> None:
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attribute, traced)
        self._patched.append((owner, attribute, original))

    def count_calls(self, owner: Any, attribute: str, counter: str) -> None:
        original = getattr(owner, attribute)
        counters = self.counters

        @functools.wraps(original)
        def counted(*args):
            counters[counter] += 1
            return original(*args)

        setattr(owner, attribute, counted)
        self._patched.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- reading -----------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write the spans as JSON lines (one span per line)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, (request_id, name, start, end, parent) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "request": request_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )


def install_program_spans(tracer: Tracer) -> None:
    """Wrap the public calls the evaluator makes into each layer."""
    from repro.ctp import interning
    from repro.query import evaluator

    def count_rows(table) -> None:
        tracer.counters["bgp.rows"] += len(table)

    tracer.wrap(evaluator, "parse_query", "parser.parse_query")
    tracer.wrap(evaluator, "evaluate_bgp", "bgp.evaluate_bgp", count_rows)
    tracer.wrap(evaluator, "run_ctp_jobs", "query.parallel.run_ctp_jobs")
    tracer.wrap(evaluator, "natural_join_many", "storage.natural_join_many")
    tracer.count_calls(interning, "splitmix64", "ctp.zobrist_codes")
