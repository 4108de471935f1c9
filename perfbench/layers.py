"""Spans and counts around each layer's public functions, for the traced run.

The wrappers are installed from here by replacing module attributes; the
program's source is not touched.  A span records (name, start, end,
parent); spans stay in memory and are written out when the run ends.
A layer's self time is its spans' duration minus the time its child spans
cover.

A wrapper sees only calls made through the attribute it replaces.
`checks.check_ic` binds `engine.solve` as a default argument at import, so
its re-solves stay inside `checks.check_ic.ms` and out of `engine.solve`.
"""
from __future__ import annotations

import time
from collections import defaultdict

# span name -> (attribute paths that refer to the function, counter).  A
# counter maps the call's result to a number added to `<name>.<counter>`.
LAYERS = {
    "core.dumps": (["clinch.core.dumps", "clinch.cli.dumps"], ("bytes", len)),
    "engine.solve": (["clinch.engine.solve"], None),
    "engine.trace": (["clinch.engine.trace"], ("events", lambda tr: len(tr.events))),
    "engine.state_at": (["clinch.engine.state_at", "clinch.checks.state_at"], None),
    "stream.on_supply": (["clinch.stream.SupplyStream.on_supply"], None),
    "checks.random_instances": (["clinch.checks.random_instances"], None),
    "checks.check_ic": (["clinch.checks.check_ic"], None),
    "checks.check_pareto": (["clinch.checks.check_pareto"], None),
    "checks.check_supply_monotonicity": (["clinch.checks.check_supply_monotonicity"], None),
    "checks.check_oracle_agreement": (["clinch.checks.check_oracle_agreement"], None),
    "oracle.solve_euler": (["clinch.oracle.solve_euler"], None),
}
ROOT = "cli"  # the span around clinch.cli.main; its self time is cli.self_ms


def _resolve(path: str):
    """(owner, attribute) for a dotted path such as clinch.stream.SupplyStream.on_supply."""
    import importlib
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr)
        return owner, parts[-1]
    raise ImportError(path)


class Recorder:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn, counter=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        key = f"{name}.{counter[0]}" if counter else None

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if key:
                counts[key] += counter[1](result)
            return result
        return wrapper

    def install(self) -> None:
        for name, (paths, counter) in LAYERS.items():
            owner, attr = _resolve(paths[0])
            wrapped = self.wrap(name, getattr(owner, attr), counter)
            for path in paths:
                owner, attr = _resolve(path)
                self._saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def summary(self) -> dict[str, float]:
        """calls, inclusive ms and self ms per span name, plus the counters."""
        out: dict[str, float] = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), inner in zip(self.spans, child):
            out[f"{name}.calls"] += 1
            out[f"{name}.ms"] += (end - start) * 1e3
            out[f"{name}.self_ms"] += (end - start - inner) * 1e3
        out.update(self.counts)
        return out
