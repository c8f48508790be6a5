"""Span recorder for the gridmc benchmark.

The recorder wraps public functions of the gridmc modules from outside the
package, by replacing module attributes for the duration of a ``with``
block and restoring them afterwards.  This works because the drivers look
up ``completion.update_*`` as module globals at call time, and ``cli``
reaches the other layers through ``gm.``/``lf.``/``dm.``/``cp.``/``ce.``/
``mt.`` attributes.  Nothing under ``src/`` is modified.

A span is the list ``[name, start, end, parent, run]``: ``parent`` is the
index of the enclosing recorded span (-1 at top level) and ``run`` numbers
the ``run_experiment`` call the span belongs to.  Spans stay in memory and
are written out once, at the end of the benchmark.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name).  Several functions may share a span name;
# the layer metric "<span name>_s" is the sum over them.
SETUP_TARGETS = (
    ("gridmodel", "feeder33_analog", "gridmodel.feeder"),
    ("gridmodel", "generate_radial_feeder", "gridmodel.feeder"),
    ("gridmodel", "solve_exact_flow", "gridmodel.flow"),
    ("linflow", "build_linear_model", "linflow.model"),
    ("linflow", "truncate_model", "linflow.model"),
    ("linflow", "build_area_maps", "linflow.maps"),
    ("datamatrix", "build_matrix", "datamatrix.sample"),
    ("datamatrix", "add_noise", "datamatrix.sample"),
    ("datamatrix", "sample_mask", "datamatrix.sample"),
)
SETUP_SPANS = frozenset(name for _, _, name in SETUP_TARGETS)

# The one public per-iteration call: every driver solves U once per area per
# ADMM iteration.
ITERATION_TARGET = ("completion", "update_u", "completion.update_u")

LAYER_TARGETS = SETUP_TARGETS + (
    ("cli", "run_experiment", "cli.run_experiment"),
    ("completion", "run_decentralized", "completion.solve"),
    ("completion", "run_centralized", "completion.solve"),
    ITERATION_TARGET,
    ("completion", "update_v", "completion.update_v"),
    ("completion", "update_q", "completion.update_q"),
    ("completion", "update_s", "completion.update_q"),
    ("completion", "update_duals", "completion.update_duals"),
    ("certificate", "build_B_d", "certificate.build"),
    ("certificate", "full_report", "certificate.report"),
    ("metrics", "evaluate_estimate", "metrics.evaluate"),
    ("metrics", "voltage_from_matrix", "metrics.evaluate"),
    ("metrics", "aggregate_reports", "metrics.evaluate"),
)

SPAN_FIELDS = ("name", "start", "end", "parent", "run")


def _maps_counts(maps) -> dict:
    mats = list(maps.e_mats.values())
    total = sum(m.size for m in mats)
    return {
        "linflow.maps_bytes": sum(m.nbytes for m in mats),
        "linflow.maps_nnz_frac": sum(int((m != 0).sum()) for m in mats) / total,
    }


# Counters taken from a wrapped function's return value on its first call of
# each run, keyed by function name.  Only the traced run computes them.  Byte
# counts and dimensions are computed from array shapes (``nbytes``, ``size``).
RETURN_COUNTERS = {
    "build_area_maps": _maps_counts,
    "sample_mask": lambda mask: {"datamatrix.observed": len(mask)},
    "update_u": lambda u: {"completion.u_system_dim": u.size},
    "build_B_d": lambda op: {"certificate.b_bytes": op.b_mat.nbytes},
}


class Recorder:
    """In-memory spans plus per-run counters.

    Spans are timed with ``clock``, a CPU clock: on a shared virtual
    machine the hypervisor can take 10-30% of the guest's time in bursts
    (steal), which a wall clock counts and a CPU clock does not."""

    def __init__(self, clock):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[int, dict] = defaultdict(dict)
        self.buses: dict[int, object] = {}
        self.run = -1
        self._stack: list[int] = []
        self._counted: set = set()

    def begin_run(self) -> int:
        self.run += 1
        return self.run

    def clear(self) -> None:
        """Drop the spans and counters of finished runs (none may be open)."""
        self.spans.clear()
        self.counters.clear()

    def wrap(self, name: str, fn, counter=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None and (self.run, counter) not in self._counted:
                self._counted.add((self.run, counter))
                self.counters[self.run].update(counter(out))
            return out

        return wrapper

    def wrap_round(self, run_round):
        """``MessageBus.run_round`` with each node closure timed as a child
        span and its sent messages counted."""
        counters = self.counters

        def node(fn):
            def call(inbox):
                out, sends = fn(inbox)
                c = counters[self.run]
                c["simnet.messages"] = c.get("simnet.messages", 0) + len(sends)
                return out, sends

            return self.wrap("simnet.node", call)

        @functools.wraps(run_round)
        def traced_round(bus, nodes, order=None):
            self.buses[self.run] = bus
            return run_round(bus, {a: node(fn) for a, fn in nodes.items()},
                             order=order)

        return self.wrap("simnet.run_round", traced_round)

    def pop_bus(self, run: int):
        return self.buses.pop(run, None)

    def dump(self, path, extra: dict) -> None:
        with open(path, "w") as fh:
            json.dump({**extra, "fields": SPAN_FIELDS, "spans": self.spans}, fh)
            fh.write("\n")


@contextmanager
def installed(recorder: Recorder, modules: dict, targets, traced: bool):
    """Replace each target with its recorded wrapper; restore on exit.

    Only the traced run wraps the bus and computes return-value counters.
    A target the module no longer has is skipped; its span never appears."""
    saved = []
    try:
        for mod_name, attr, span_name in targets:
            mod = modules[mod_name]
            original = getattr(mod, attr, None)
            if original is None:
                continue
            saved.append((mod, attr, original))
            counter = RETURN_COUNTERS.get(attr) if traced else None
            setattr(mod, attr, recorder.wrap(span_name, original, counter))
        if traced:
            bus_cls = modules["simnet"].MessageBus
            original = bus_cls.run_round
            saved.append((bus_cls, "run_round", original))
            bus_cls.run_round = recorder.wrap_round(original)
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_times(spans: list[list], run: int) -> dict:
    """Per-layer seconds of one run.

    ``<name>_s`` sums the spans of that name that are not nested in a span
    of the same name (``solve_exact_flow`` recurses once per time step).
    Self times subtract the direct children's durations; the simnet figures
    follow the bulk-synchronous rounds: the critical path is the slowest
    node of each round, and barrier wait is how long each other node's
    result waited for it.
    """
    totals: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    children: dict[int, list[int]] = defaultdict(list)
    for index, (name, start, end, parent, r) in enumerate(spans):
        if r != run:
            continue
        if parent < 0 or spans[parent][0] != name:
            totals[name] += end - start
        self_s[name] += end - start
        if parent >= 0:
            children[parent].append(index)
            self_s[spans[parent][0]] -= end - start
    critical = barrier = 0.0
    for index, kids in children.items():
        if spans[index][0] != "simnet.run_round":
            continue
        node_times = [spans[k][2] - spans[k][1] for k in kids
                      if spans[k][0] == "simnet.node"]
        if node_times:
            slowest = max(node_times)
            critical += slowest
            barrier += sum(slowest - t for t in node_times)
    out = {f"{name}_s": value for name, value in totals.items()}
    out["completion.driver_self_s"] = self_s.get("completion.solve", 0.0)
    out["simnet.round_self_s"] = self_s.get("simnet.run_round", 0.0)
    out["cli.self_s"] = self_s.get("cli.run_experiment", 0.0)
    out["simnet.critical_path_s"] = critical
    out["simnet.barrier_wait_s"] = barrier
    return out


def setup_seconds(spans: list[list], run: int) -> float:
    """Instance-build seconds: outermost gridmodel, linflow and datamatrix
    set-up spans of one run."""
    return sum(
        end - start
        for name, start, end, parent, r in spans
        if r == run and name in SETUP_SPANS
        and (parent < 0 or spans[parent][0] not in SETUP_SPANS)
    )


def iterations(spans: list[list], run: int, calls_per_iteration: int) -> list[tuple]:
    """(start, end) clock readings of each ADMM iteration but the last,
    marked by the first ``update_u`` call of each iteration."""
    name = ITERATION_TARGET[2]
    starts = [s[1] for s in spans if s[4] == run and s[0] == name]
    marks = starts[::calls_per_iteration]
    return list(zip(marks, marks[1:]))
