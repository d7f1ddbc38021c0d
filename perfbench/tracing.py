"""Spans and exact counts around each layer's public functions.

The tracer wraps module attributes of ``aliascert`` from the outside, so
nothing under ``src/`` changes.  Calls at layer boundaries (the CLI,
parse, certify, the trace oracle, the safety re-check, image build, the
interpreter cores, the sweep and its comparisons) become spans: name,
start, end, parent span and operation id, kept in memory and written out
when the run ends.  The three hot inner calls of the search (disassembly,
the small-step rules and annotation joins) run up to a million times a
run, so they only add to counters and a time total; a span for each would
take hundreds of megabytes.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter
from time import perf_counter


def _theory_rows(theory) -> int:
    return sum(len(c.rows) for c in theory.routines.values()) if theory else 0


def _after_certify(counts, args, report, dt):
    counts["certifier.rows"] += _theory_rows(report.theory)
    counts["certifier.routines"] += len(report.theory.routines) if report.theory else 0
    if report.theory is not None:
        counts["certifier.ok_s"] += dt


def _after_check(counts, args, violations, dt):
    counts["traces.rows"] += _theory_rows(args[0])


def _after_parse(counts, args, program, dt):
    counts["frontend.lines"] += args[0].count("\n")


def _after_clean(counts, args, outcome, dt):
    counts["engine.clean_steps"] += outcome.steps


def _after_alias(counts, args, outcome, dt):
    counts["engine.alias_steps"] += outcome.steps


def _after_compare(counts, args, divergence, dt):
    counts["aliasing.divergences"] += divergence is not None


def _after_readings(counts, args, readings, dt):
    counts["disasm.readings"] += len(readings)


# (module, attribute, span name, hook on return).  The attribute is the
# name the caller looks up: the CLI imports its layers into its own
# namespace, the sweep imports the cores from ``_engine`` at call time.
SPANS = (
    ("aliascert.cli", "main", "cli", None),
    ("aliascert.cli", "parse_program", "frontend.parse", _after_parse),
    ("aliascert.cli", "certify_program", "certifier.certify", _after_certify),
    ("aliascert.cli", "check_program", "traces.check", _after_check),
    ("aliascert.cli", "check_safety", "safety.check", None),
    ("aliascert.aliasing", "diff_runs", "aliasing.sweep", None),
    ("aliascert.aliasing", "build_image", "machine.build_image", None),
    ("aliascert.aliasing", "compare_runs", "aliasing.compare", _after_compare),
    ("aliascert._engine", "run_clean_image", "engine.clean", _after_clean),
    ("aliascert._engine", "run_alias_image", "engine.alias", _after_alias),
)

COUNTED = (
    ("aliascert.certifier", "raw_alternatives", "disasm", _after_readings),
    ("aliascert.certifier", "apply_smallstep", "smallstep", None),
    ("aliascert.certifier", "unify_annotations", "annotation.join", None),
)


class Tracer:
    """Records spans and counts while installed.

    ``counts`` maps ``<name>.n`` to calls, ``<name>.s`` to seconds,
    ``<name>.self_s`` to seconds outside child spans, ``<name>.errors`` to
    calls that raised, plus the exact counts the hooks add.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[list] = []  # [span index, seconds in child spans]
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module, attr, name, hook in SPANS:
            self._patch(module, attr, self._span(name, hook))
        for module, attr, name, hook in COUNTED:
            self._patch(module, attr, self._counted(name, hook))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def _patch(self, module: str, attr: str, wrap) -> None:
        mod = importlib.import_module(module)
        original = getattr(mod, attr)
        self._saved.append((mod, attr, original))
        setattr(mod, attr, wrap(original))

    def _span(self, name: str, hook):
        counts, spans, stack = self.counts, self.spans, self._stack

        def wrap(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = len(spans)
                spans.append([name, 0.0, 0.0, stack[-1][0] if stack else -1, self.op])
                frame = [idx, 0.0]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    counts[f"{name}.errors"] += 1
                    raise
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    dt = t1 - t0
                    spans[idx][1], spans[idx][2] = t0, t1
                    counts[f"{name}.n"] += 1
                    counts[f"{name}.s"] += dt
                    counts[f"{name}.self_s"] += dt - frame[1]
                    if stack:
                        stack[-1][1] += dt
                if hook is not None:
                    hook(counts, args, result, dt)
                return result
            return traced
        return wrap

    def _counted(self, name: str, hook):
        counts = self.counts

        def wrap(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                except BaseException as e:
                    counts[f"{name}.{type(e).__name__}"] += 1
                    raise
                finally:
                    counts[f"{name}.n"] += 1
                    counts[f"{name}.s"] += perf_counter() - t0
                if hook is not None:
                    hook(counts, args, result, 0.0)
                return result
            return counted
        return wrap

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
