"""Outside-in span tracer for decint, installed from the benchmark's own files.

Each public function of interest is wrapped at the namespace its caller
resolves it from: a module attribute for calls such as ``iface.build_gamma``,
every module that imported the name for ``from .noise import rng_stream``,
and the class for methods such as ``LeaderTable.lookup``. A span records its
name, its parent span, and start and end times; spans stay in memory and are
written out once, when the traced process ends. Self times are computed
afterwards by :func:`summarize`, so the traced process does no aggregation.
"""

from __future__ import annotations

import functools
import inspect
import json
import pathlib
import time
from collections import Counter
from typing import Callable, Optional

import numpy as np

# Entry points of the executor: the first call into any of them ends set-up.
EXECUTOR_ENTRIES = (
    ("interface", "gamma_frames"),
    ("e2e", "run_block_chain_frames"),
    ("e2e", "run_block_chain_tableau"),
)

ROOT_SPAN = "cli.main"


class FirstCall:
    """Records one timestamp: the first call into an executor entry point."""

    def __init__(self):
        self.at: Optional[float] = None

    def install(self, modules: dict) -> None:
        for mod_name, attr in EXECUTOR_ENTRIES:
            mod = modules[mod_name]
            setattr(mod, attr, self._wrap(getattr(mod, attr)))

    def _wrap(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.at is None:
                self.at = time.monotonic()
            return fn(*args, **kwargs)

        return wrapper


class Tracer:
    """In-memory span recorder with per-span counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self._stack = [-1]
        self.counters: Counter = Counter()
        self.plan_keys: set = set()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn: Callable, name: str, before: Optional[Callable] = None) -> Callable:
        """Span around every call of `fn`; `before(*args, **kwargs)` updates
        counters outside the timed interval."""
        nid = self._name_id(name)
        names, parents, starts, ends, stack = (
            self.span_name, self.span_parent, self.span_start, self.span_end, self._stack,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return wrapper

    def patch(self, owner, attr: str, name: str, before: Optional[Callable] = None) -> None:
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, before))

    def install(self, modules: dict) -> None:
        """Wrap decint's layers. `modules` maps short names to imported modules."""
        circuit, interface, e2e = modules["circuit"], modules["interface"], modules["e2e"]
        noise, scheduler, css, cli = modules["noise"], modules["scheduler"], modules["css"], modules["cli"]
        tableau = modules["tableau"]

        for mod in (noise, circuit, interface, e2e):
            if hasattr(mod, "rng_stream"):
                self.patch(mod, "rng_stream", "noise.rng_stream")

        def count_locations(runner, circ, batch, *args, **kwargs):
            self.counters["circuit.location_trials"] += circ.n_locations * batch.trials

        self.patch(circuit.FrameRunner, "run", "circuit.frame_run", count_locations)
        self.patch(circuit, "run_noisy", "circuit.run_noisy")
        self.patch(tableau.Tableau, "measure_z", "tableau.measure_z")

        gamma_sig = inspect.signature(interface.build_gamma)

        def plan_key(*args, **kwargs):
            bound = gamma_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            knobs = a["knobs"] or interface.GammaKnobs()
            self.plan_keys.add((id(a["family"]), a["r"], a["r_prime"], repr(knobs)))

        self.patch(interface, "build_gamma", "interface.build_gamma", plan_key)
        self.patch(interface, "gamma_frames", "interface.gamma_frames")

        def count_rows(table, syndromes):
            self.counters["interface.leader_lookup_rows"] += int(syndromes.shape[0])

        self.patch(interface.LeaderTable, "lookup", "interface.leader_lookup", count_rows)
        self.patch(interface, "classify_gamma_output", "interface.classify")
        self.patch(interface, "decode_syndrome", "interface.decode_syndrome")
        self.patch(interface, "logical_bell_process", "interface.bell_process")
        self.patch(e2e, "run_block_chain_frames", "e2e.block_chain")
        self.patch(e2e, "run_block_chain_tableau", "e2e.block_chain")
        self.patch(scheduler, "measured_constants", "scheduler.plan")
        self.patch(scheduler, "build_schedule", "scheduler.plan")
        self.patch(css.CssCode, "min_distance", "css.min_distance")
        self.patch(cli, "write_csv", "cli.write")
        self.patch(cli, "write_loglog_svg", "cli.write")
        self.patch(cli.Manifest, "finish", "cli.write")
        self.patch(pathlib.Path, "write_text", "cli.write")

    def dump(self, path: pathlib.Path) -> None:
        """Write the spans (npz) and the counters (json) next to `path`."""
        np.savez(
            path.with_suffix(".npz"),
            name=np.array(self.span_name, dtype=np.int32),
            parent=np.array(self.span_parent, dtype=np.int64),
            start=np.array(self.span_start, dtype=np.float64),
            end=np.array(self.span_end, dtype=np.float64),
        )
        meta = {
            "names": self.names,
            "counters": dict(self.counters),
            "unique_plans": len(self.plan_keys),
        }
        # open() rather than Path.write_text, which is itself traced.
        with open(path.with_suffix(".spans.json"), "w") as fh:
            json.dump(meta, fh)


def summarize(path: pathlib.Path) -> dict:
    """Per-name call count, total and self time from a dumped trace.

    Self time is a span's duration minus the durations of its direct
    children; spans are properly nested because the traced run is single
    threaded.
    """
    meta = json.loads(path.with_suffix(".spans.json").read_text())
    with np.load(path.with_suffix(".npz")) as arrays:
        name, parent = arrays["name"], arrays["parent"]
        dur = arrays["end"] - arrays["start"]
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    k = len(meta["names"])
    layers = {}
    calls = np.bincount(name, minlength=k)
    total = np.bincount(name, weights=dur, minlength=k)
    own = np.bincount(name, weights=self_time, minlength=k)
    for i, n in enumerate(meta["names"]):
        layers[n] = {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
    roots = dur[~has_parent]
    return {
        "layers": layers,
        "counters": meta["counters"],
        "unique_plans": meta["unique_plans"],
        "root_s": float(roots.sum()),
        "self_sum_s": float(self_time.sum()),
        "root_spans": int((~has_parent).sum()),
    }
