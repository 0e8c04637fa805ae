"""Layer spans recorded from outside the program.

The benchmark never edits ``src/``: it wraps each layer's public entry
point (a module function or a class method) in a recorder call.  A span has
a name, start, end, parent span and request id; spans stay in memory and are
written out as one Chrome trace when the run ends.

Two ways in:

* :func:`install` patches every target whose module is already imported and
  rebinds ``from x import f`` copies held by other ``repro`` modules.  The
  in-process workloads call it after set-up.
* :func:`install_import_hook` additionally patches each target the moment
  its module finishes executing, and records every ``repro`` module import as
  an ``import`` span.  The traced CLI child (``child.py``) uses it, so the
  child imports nothing the real command would not.

Wrappers cost one flag test while the recorder is inactive, which is how the
in-process workloads interleave untraced and traced requests.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import json
import sys
import time
from collections import defaultdict


class Recorder:
    """Spans and counts of the requests run while :attr:`active` is set."""

    def __init__(self):
        self.active = False
        self.request = None
        #: ``[name, start, end, parent index, request id]`` per span.
        self.spans = []
        self._stack = []
        #: request id -> {counter name: value}
        self.counts = defaultdict(lambda: defaultdict(float))

    def begin(self, name, start=None):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter() if start is None
                           else start, None, parent, self.request])
        self._stack.append(len(self.spans) - 1)

    def end(self, stop=None):
        index = self._stack.pop()
        self.spans[index][2] = time.perf_counter() if stop is None else stop

    def count(self, name, value=1):
        self.counts[self.request][name] += value

    def adopt(self, spans, counts, request):
        """Append spans and counts recorded by another process under the
        current span."""
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        for name, start, stop, span_parent, _ in spans:
            self.spans.append([name, start, stop,
                               parent if span_parent is None
                               else base + span_parent, request])
        for name, value in counts.items():
            self.counts[request][name] += value

    def dump(self, path, **extra):
        with open(path, "w") as handle:
            json.dump({"spans": self.spans,
                       "counts": dict(self.counts[self.request]), **extra},
                      handle)


# --------------------------------------------------------------------------- #
# Layer table: (module, attribute path, span name or None for count-only,
# optional after-hook that records counts from the call).
# --------------------------------------------------------------------------- #


def _count_ops(module):
    return sum(1 for _ in module.walk())


def _after_passes(recorder, args, kwargs, result):
    recorder.count("passes.ir_ops", _count_ops(args[1]))


def _after_unroll(recorder, args, kwargs, result):
    recorder.count("verilog.unrolled_ops", _count_ops(args[0]))


def _after_compile(recorder, args, kwargs, result):
    source = kwargs.get("source")
    if source is None and len(args) > 1 and isinstance(args[-1], str):
        source = args[-1]
    if source is not None:
        recorder.count("sim.source_lines", source.count("\n") + 1)


def _after_elaborate_miss(recorder, args, kwargs, result):
    recorder.count("sim.cache.misses")


def _after_base_artifacts(recorder, args, kwargs, result):
    recorder.count("sim.cache.lookups")


def _after_simulate(recorder, args, kwargs, result):
    if any(key == "fallback" for key, _ in result.provenance):
        recorder.count("sim.fallbacks")


def _after_store_get(recorder, args, kwargs, result):
    recorder.count("store.gets")
    if result is not None:
        recorder.count("store.hits")


def _after_store_put(recorder, args, kwargs, result):
    payload = args[3] if len(args) > 3 else kwargs["payload"]
    size = len(payload.encode("utf-8") if isinstance(payload, str)
               else payload)
    recorder.count("store.bytes_written", size)


def _after_hls(recorder, args, kwargs, result):
    report = result.report
    recorder.count("hls.dse.scheduled", report.dse_scheduled)
    recorder.count("hls.dse.pruned", report.dse_pruned)
    recorder.count("hls.dse.memo_hits", report.dse_memo_hits)


def _compile_clock_name(args, kwargs):
    vector = kwargs.get("vector", args[1] if len(args) > 1 else False)
    return "sim.compile_lanes" if vector else "sim.compile_scalar"


LAYERS = [
    ("repro.__main__", "main", "cli", None),
    ("repro.flow", "Flow.hir", "flow", None),
    ("repro.flow", "Flow.compose", "flow", None),
    ("repro.flow", "Flow.optimized", "flow", None),
    ("repro.flow", "Flow.verilog", "flow", None),
    ("repro.flow", "Flow.resources", "flow", None),
    ("repro.flow", "Flow.simulate", "flow", _after_simulate),
    ("repro.flow", "Flow.simulate_batch", "flow", None),
    ("repro.flow", "Flow.validate", "flow", None),
    ("repro.kernels", "build_kernel", "kernels.build", None),
    ("repro.graph.scenarios", "build_scenario", "graph.compose", None),
    ("repro.graph.graph", "DesignGraph.build", "graph.compose", None),
    ("repro.ir.pass_manager", "PassManager.run", "passes", _after_passes),
    ("repro.ir.parser", "parse_module", "ir", None),
    ("repro.ir.printer", "print_op", "ir", None),
    ("repro.verilog.codegen", "generate_verilog_impl", "verilog", None),
    ("repro.passes.unroll", "unroll_all", "verilog.unroll", _after_unroll),
    ("repro.verilog.codegen", "FunctionLowering.lower", "verilog.lower",
     None),
    ("repro.verilog.emitter", "emit_design", "verilog.emit", None),
    ("repro.resources.model", "estimate_resources", "resources", None),
    ("repro.sim.engine.vector", "steady_state_of", "sim.steady_state", None),
    ("repro.sim.testbench", "run_design_impl", "sim.run", None),
    ("repro.sim.engine.batch", "run_design_batch_impl", "sim.batch_run",
     None),
    ("repro.sim.engine.cache", "base_artifacts", "sim.elaborate",
     _after_base_artifacts),
    ("repro.sim.engine.levelize", "lower_design", None,
     _after_elaborate_miss),
    ("repro.sim.engine.codegen", "comb_source", "sim.codegen", None),
    ("repro.sim.engine.codegen", "clock_source", "sim.codegen", None),
    ("repro.sim.engine.codegen", "comb_vector_source", "sim.codegen", None),
    ("repro.sim.engine.vector", "vector_run_source", "sim.codegen", None),
    ("repro.sim.engine.codegen", "compile_comb", "sim.compile_scalar",
     _after_compile),
    ("repro.sim.engine.codegen", "compile_clock", _compile_clock_name,
     _after_compile),
    ("repro.sim.engine.codegen", "compile_comb_vector", "sim.compile_lanes",
     _after_compile),
    ("repro.sim.engine.vector", "compile_vector_run", "sim.compile_fused",
     _after_compile),
    ("repro.store.store", "ArtifactStore.get", "store.get", _after_store_get),
    ("repro.store.store", "ArtifactStore.put", "store.put", _after_store_put),
    ("repro.hls.compiler", "compile_program", "hls", _after_hls),
]


def _wrap(recorder, function, name, after):
    @functools.wraps(function)
    def traced(*args, **kwargs):
        if not recorder.active:
            return function(*args, **kwargs)
        if name is None:
            result = function(*args, **kwargs)
        else:
            recorder.begin(name(args, kwargs) if callable(name) else name)
            try:
                result = function(*args, **kwargs)
            finally:
                recorder.end()
        if after is not None:
            after(recorder, args, kwargs, result)
        return result
    traced.__perfbench_wrapped__ = True
    return traced


def _patch_module(recorder, module_name):
    """Wrap the targets defined in ``module_name``; returns
    ``{original: wrapper}`` for the module-level functions patched."""
    module = sys.modules.get(module_name)
    replaced = {}
    if module is None:
        return replaced
    for target_module, path, name, after in LAYERS:
        if target_module != module_name:
            continue
        owner_path, _, attribute = path.rpartition(".")
        owner = module
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part)
        original = owner.__dict__.get(attribute)
        if original is None:
            raise RuntimeError(f"layer entry point {module_name}.{path} is "
                               "gone; update LAYERS in perfbench/spans.py")
        if getattr(original, "__perfbench_wrapped__", False):
            continue
        wrapper = _wrap(recorder, original, name, after)
        setattr(owner, attribute, wrapper)
        if owner is module:
            replaced[original] = wrapper
    return replaced


def _rebind(replaced):
    """Point ``from x import f`` copies in loaded repro modules at the
    wrappers."""
    if not replaced:
        return
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        namespace = module.__dict__
        for key, value in list(namespace.items()):
            try:
                wrapper = replaced.get(value)
            except TypeError:       # unhashable module attribute
                continue
            if wrapper is not None:
                namespace[key] = wrapper


def install(recorder):
    """Wrap every layer target whose module is already imported."""
    replaced = {}
    for module_name in {entry[0] for entry in LAYERS}:
        replaced.update(_patch_module(recorder, module_name))
    _rebind(replaced)


class _ImportSpans(importlib.abc.MetaPathFinder):
    """Times each ``repro`` module import and patches targets on load."""

    def __init__(self, recorder):
        self.recorder = recorder

    def find_spec(self, name, path, target=None):
        if name != "repro" and not name.startswith("repro."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None or spec.loader is None:
            return spec
        recorder = self.recorder
        exec_module = spec.loader.exec_module

        def traced_exec(module):
            recorder.begin("import")
            try:
                exec_module(module)
            finally:
                recorder.end()
            _rebind(_patch_module(recorder, name))

        spec.loader.exec_module = traced_exec
        return spec


def install_import_hook(recorder):
    sys.meta_path.insert(0, _ImportSpans(recorder))
    install(recorder)


# --------------------------------------------------------------------------- #
# Aggregation
# --------------------------------------------------------------------------- #


def self_times(spans):
    """``{request id: {span name: self seconds}}``; the self time of a
    request's root span (named ``request``) is reported as
    ``unattributed``."""
    child_time = defaultdict(float)
    for name, start, stop, parent, request in spans:
        if parent is not None:
            child_time[parent] += stop - start
    per_request = defaultdict(lambda: defaultdict(float))
    for index, (name, start, stop, parent, request) in enumerate(spans):
        own = (stop - start) - child_time[index]
        label = "unattributed" if name == "request" else name
        per_request[request][label] += own
    return per_request


def write_chrome_trace(spans, path, labels):
    """Write ``spans`` as Chrome ``trace_event`` JSON (one track per
    request kind)."""
    origin = min((span[1] for span in spans), default=0.0)
    tracks = {}
    events = []
    for index, (name, start, stop, parent, request) in enumerate(spans):
        label = labels.get(request, "setup")
        track = tracks.setdefault(label, len(tracks) + 1)
        events.append({
            "name": name, "ph": "X", "pid": 1, "tid": track,
            "ts": (start - origin) * 1e6, "dur": (stop - start) * 1e6,
            "args": {"request": request, "parent": parent, "span": index},
        })
    events.extend({"name": "thread_name", "ph": "M", "pid": 1, "tid": track,
                   "args": {"name": label}}
                  for label, track in tracks.items())
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
