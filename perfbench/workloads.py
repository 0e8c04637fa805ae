"""The four benchmark workloads.

Each workload has a ``setup()`` (run several times; the last one stays), a
``block(rng)`` that returns one seeded permutation of its request kinds, and
``request(kind, rng, traced)`` that runs one request and returns an
:class:`Outcome`; an exception it raises is counted by the runner as a failed
request.  The runner sends requests in a closed loop from one client:
the next request starts when the previous one has returned, and at most one
child process runs at a time.

Every block holds each request kind a fixed number of times, and the number
of blocks is a fixed function of ``--seconds`` (:meth:`Workload.blocks`), not
of how fast the host is.  So the request mix of a run is exact, and the ranks
of the median and the tail always fall on the same request kind: a host that
runs slower makes the run longer, not shorter.
"""

from __future__ import annotations

import gc
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 60.0

#: The paper's Table 6 kernels at the paper's sizes.
TABLE6 = {
    "transpose-16": ("transpose", {"size": 16}),
    "stencil_1d-64": ("stencil_1d", {"size": 64}),
    "histogram-256/256": ("histogram", {"pixels": 256, "bins": 256}),
    "convolution-16": ("convolution", {"size": 16}),
    "gemm-16": ("gemm", {"size": 16}),
}


def _cli_argv(kernel, params, verb="simulate"):
    argv = [verb, kernel]
    for key, value in params.items():
        argv += ["-p", f"{key}={value}"]
    return argv


#: The fresh-process command mix: Table 6 kernels plus one composed graph.
CLI_MIX = {label: _cli_argv(kernel, params)
           for label, (kernel, params) in TABLE6.items()}
CLI_MIX["gemm_pipeline-8"] = _cli_argv("gemm_pipeline", {"size": 8},
                                       verb="compose")

_STATUS = re.compile(r"cycles=(\d+) (ok|MISMATCH)\s*$", re.MULTILINE)


@dataclass
class Outcome:
    seconds: float
    ok: bool = True
    error: str = ""
    #: Exact observations compared with ``expected.json`` (per request kind).
    exact: dict = field(default_factory=dict)
    #: Simulated cycles (lane-cycles for a batch) this request ran.
    sim_cycles: int = 0
    #: Peak RSS of the child process, in KiB (fresh-process requests).
    child_rss_kb: int = 0


def timed(recorder, traced, call):
    """``(result, seconds)`` of ``call()``; a traced call runs with the
    recorder active, inside its ``request`` span."""
    if not traced:
        start = time.perf_counter()
        result = call()
        return result, time.perf_counter() - start
    recorder.active = True
    recorder.begin("request")
    start = time.perf_counter()
    try:
        result = call()
    finally:
        seconds = time.perf_counter() - start
        recorder.end()
        recorder.active = False
    return result, seconds


def fresh_import():
    """Drop every loaded ``repro`` module, so the next import executes the
    package again: each repeated in-process set-up then pays the same
    import a new process pays (numpy and the standard library stay
    loaded)."""
    for name in [name for name in sys.modules
                 if name == "repro" or name.startswith("repro.")]:
        del sys.modules[name]
    gc.collect()


def _stimulus_seed(rng):
    return rng.randrange(1 << 20)


def _fail(seconds, error):
    return Outcome(seconds=seconds, ok=False, error=error)


# --------------------------------------------------------------------------- #
# Fresh-process workloads
# --------------------------------------------------------------------------- #


class Workload:
    #: Request kinds of one block (a kind may repeat).
    kinds = ()
    #: Seconds of ``--seconds`` that one block stands for: about the wall
    #: time of an untraced block on a 2-vCPU x86-64 VM.  It is a constant,
    #: never measured, so the block count depends on ``--seconds`` alone.
    block_seconds = 1.0
    in_process = True

    def __init__(self, work_dir, recorder):
        self.work = Path(work_dir)
        self.recorder = recorder

    def blocks(self, seconds):
        """Number of blocks a run of ``seconds`` sends."""
        return max(1, round(seconds / self.block_seconds))

    def block(self, rng):
        order = list(self.kinds)
        rng.shuffle(order)
        return order


class _CLIWorkload(Workload):
    """Each request is one ``python -m repro ...`` child process.

    A block runs transpose and stencil twice, gemm_pipeline three times and
    the other kernels once: ten requests, 18 fast ones (about 0.8 s, mostly
    import), 9 of gemm_pipeline and 3 of gemm-16 in the three blocks of a
    25 s run.  The median is then the mean of the 15th and 16th fastest of
    the 18 fast requests, and the tail (the 11th slowest) is the second
    fastest of the 9 gemm_pipeline requests.  On ``cold-simulate`` these
    three clusters do not overlap, so neither statistic changes kind between
    runs.
    """

    kinds = tuple(CLI_MIX) + ("transpose-16", "stencil_1d-64") + (
        "gemm_pipeline-8",) * 2
    block_seconds = 9.5
    in_process = False

    def __init__(self, work_dir, recorder):
        super().__init__(work_dir, recorder)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.store_count = 0

    def _new_store(self):
        self.store_count += 1
        path = self.work / f"store-{self.store_count}"
        path.mkdir(parents=True)
        return path

    def _run_child(self, argv, store_dir):
        """Run one child to completion; returns (seconds, exit code, stdout,
        rusage, start, stop)."""
        env = dict(self.env, REPRO_STORE_DIR=str(store_dir))
        out_path = self.work / "child.out"
        err_path = self.work / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT,
                                    env=env, stdout=out, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            stop = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text(errors="replace")
        if proc.returncode != 0:
            tail = err_path.read_text(errors="replace").strip()[-300:]
            stdout += f"\n[stderr] {tail}"
        return stop - start, proc.returncode, stdout, usage, start, stop

    def _cli_request(self, kind, rng, traced, store_dir):
        argv = CLI_MIX[kind] + ["--engine", "vector",
                                "--seed", str(_stimulus_seed(rng))]
        if traced:
            spans_path = self.work / "child-spans.json"
            command = [str(HERE / "child.py"), str(spans_path),
                       json.dumps([argv])]
        else:
            command = ["-m", "repro", *argv]
        seconds, code, stdout, usage, start, stop = self._run_child(
            command, store_dir)
        outcome = Outcome(seconds=seconds, child_rss_kb=usage.ru_maxrss)
        if traced:
            self._record_child(spans_path if code == 0 else None, start, stop)
        match = _STATUS.search(stdout)
        if code != 0:
            outcome.ok = False
            outcome.error = f"exit code {code}: {stdout.strip()[-300:]}"
        elif match is None or match.group(2) != "ok":
            outcome.ok = False
            outcome.error = f"no 'cycles=N ok' status line: {stdout[-300:]}"
        else:
            outcome.exact = {"cycles": int(match.group(1))}
            outcome.sim_cycles = int(match.group(1))
        return outcome

    def _record_child(self, path, start, stop):
        """Record the request span and, from a child that succeeded, its
        spans framed by interpreter start-up and exit spans measured from
        this process.  ``perf_counter`` is the system-wide monotonic clock on
        Linux, so the child's timestamps share this process's time base."""
        recorder = self.recorder
        recorder.begin("request", start)
        if path is not None:
            data = json.loads(path.read_text())
            recorder.begin("python.startup", start)
            recorder.end(data["t0"])
            recorder.adopt(data["spans"], data["counts"], recorder.request)
            recorder.begin("python.exit", data["t1"])
            recorder.end(stop)
        recorder.end(stop)


class ColdSimulate(_CLIWorkload):
    """A fresh process over a new empty store per request."""

    def setup(self):
        # Warm the bytecode and file caches the way a user's first command
        # does; the store of the warm-up run is thrown away.
        store = self._new_store()
        argv = CLI_MIX["transpose-16"] + ["--engine", "vector"]
        _, code, stdout, _, _, _ = self._run_child(["-m", "repro", *argv],
                                                   store)
        shutil.rmtree(store)
        if code != 0:
            raise RuntimeError(f"set-up command failed: {stdout[-300:]}")

    def request(self, kind, rng, traced):
        store = self._new_store()
        try:
            return self._cli_request(kind, rng, traced, store)
        finally:
            shutil.rmtree(store, ignore_errors=True)


class StoreResimulate(_CLIWorkload):
    """A fresh process per request over one store populated in set-up.

    A warm store takes about 0.3 s off gemm_pipeline, which then overlaps
    convolution: the tail is the upper end of that gemm_pipeline/convolution
    cluster, the median the middle of the fast kernels.
    """

    block_seconds = 8.2

    shared = None

    def setup(self):
        if self.shared is not None:
            shutil.rmtree(self.shared)
        self.shared = self._new_store()
        # One child publishes every design of the mix (same CLI code path
        # as the requests, one interpreter start instead of six).
        argv = [argv + ["--engine", "vector"] for argv in CLI_MIX.values()]
        _, code, stdout, _, _, _ = self._run_child(
            [str(HERE / "child.py"), "-", json.dumps(argv)], self.shared)
        if code != 0:
            raise RuntimeError(f"store population failed: {stdout[-300:]}")

    def request(self, kind, rng, traced):
        return self._cli_request(kind, rng, traced, self.shared)


# --------------------------------------------------------------------------- #
# In-process workloads
# --------------------------------------------------------------------------- #


def _outputs_equal(reference, produced, warmup):
    """The benchmark's own comparison of simulated memories with the numpy
    reference (warm-up elements the hardware does not produce skipped)."""
    for name, expected in reference.items():
        skip = warmup.get(name, 0)
        if not np.array_equal(np.asarray(produced(name))[skip:],
                              np.asarray(expected)[skip:]):
            return False
    return True


class SessionSimulate(Workload):
    """One long-lived process re-simulating designs it has compiled."""

    SINGLE = {kind: TABLE6[kind] for kind in
              ("gemm-16", "convolution-16", "histogram-256/256")}
    BATCH = "gemm-8x16"
    LANES = 16
    #: Per block: gemm-16 four times, histogram twice, convolution once and
    #: two batches.  In the 7 blocks of a 25 s run the median falls in the
    #: middle of the 28 gemm-16 requests and the tail (the 11th slowest) is
    #: the 4th fastest of the 14 batches, so neither statistic sits on the
    #: boundary between two request kinds.
    kinds = ("gemm-16",) * 4 + ("histogram-256/256",) * 2 + (
        "convolution-16", BATCH, BATCH)
    block_seconds = 3.6

    flows = {}

    def setup(self):
        self.flows = {}
        fresh_import()
        from repro import Flow, FlowConfig

        config = FlowConfig(store_dir="")
        for kind, (kernel, params) in self.SINGLE.items():
            flow = Flow.from_kernel(kernel, config=config, **params)
            flow.simulate(0, engine="vector")
            self.flows[kind] = flow
        from repro.sim.engine.cache import compiled_artifacts

        flow = Flow.from_kernel("gemm", config=config, size=8)
        # The batched engine's lanes dialect, compiled without a warm-up run.
        compiled_artifacts(flow.design, None, None, vector=True)
        self.flows[self.BATCH] = flow

    def request(self, kind, rng, traced):
        flow = self.flows[kind]
        if kind == self.BATCH:
            seeds = [_stimulus_seed(rng) for _ in range(self.LANES)]
            artifact, seconds = timed(self.recorder, traced,
                                      lambda: flow.simulate_batch(seeds))
            outcome = artifact.value
            run = outcome.run
            lanes = [int(cycles) for cycles in run.cycles]
            for lane, inputs in enumerate(outcome.inputs_per_lane):
                if not (run.done[lane] and _outputs_equal(
                        flow.reference(inputs),
                        lambda name: outcome.memory_array(name, lane),
                        flow.output_warmup)):
                    return _fail(seconds, f"lane {lane} (seed "
                                 f"{seeds[lane]}) differs from the reference")
            if len(set(lanes)) != 1:
                return _fail(seconds, f"lanes disagree on cycles: {lanes}")
            return Outcome(seconds=seconds, exact={"cycles": lanes[0]},
                           sim_cycles=sum(lanes))
        seed = _stimulus_seed(rng)
        artifact, seconds = timed(self.recorder, traced,
                                  lambda: flow.simulate(seed, engine="vector"))
        outcome = artifact.value
        run = outcome.run
        if not (run.done and _outputs_equal(flow.reference(outcome.inputs),
                                            run.memory_array,
                                            flow.output_warmup)):
            return _fail(seconds, f"seed {seed} differs from the reference")
        return Outcome(seconds=seconds, exact={"cycles": int(run.cycles)},
                       sim_cycles=int(run.cycles))


class Table6Compile(Workload):
    """One Table 6 row per request: HIR compile plus the HLS baseline.

    The gemm-16 row takes about 1.3 s, the others 0.01-0.03 s.  The 14 blocks
    of a 25 s run put the tail (the 11th slowest) at the 4th fastest of the
    14 gemm-16 rows and the median among the stencil and histogram rows.
    """

    kinds = tuple(TABLE6)
    block_seconds = 1.75

    def setup(self):
        # Import the toolchain and run one warm-up row, so the lazy imports
        # of a process's first row are not charged to a request.
        fresh_import()
        self._row(*TABLE6["transpose-16"])

    @staticmethod
    def _row(kernel, params):
        from repro import Flow, FlowConfig
        from repro.hls.compiler import compile_program
        from repro.hls.dse import clear_schedule_memo
        from repro.kernels import build_kernel

        artifacts = build_kernel(kernel, **params)
        flow = Flow(artifacts, config=FlowConfig(store_dir=""))
        flow.optimized()
        text = flow.verilog().value.text
        report = flow.resources().value
        clear_schedule_memo()
        hls = compile_program(artifacts.hls_program, artifacts.hls_function)
        return text, report, hls

    def request(self, kind, rng, traced):
        kernel, params = TABLE6[kind]
        (text, report, hls), seconds = timed(
            self.recorder, traced, lambda: self._row(kernel, params))
        exact = {"verilog_bytes": len(text.encode("utf-8")),
                 "lut": report.lut, "ff": report.ff, "dsp": report.dsp,
                 "bram": report.bram,
                 "hls_latency": sum(loop.total_latency
                                    for loop in hls.report.loops)}
        return Outcome(seconds=seconds, exact=exact)


WORKLOADS = {
    "cold-simulate": ColdSimulate,
    "store-resimulate": StoreResimulate,
    "session-simulate": SessionSimulate,
    "table6-compile": Table6Compile,
}


_HWM = re.compile(r"^VmHWM:\s+(\d+) kB", re.MULTILINE)


def reset_peak_rss():
    """Reset this process's RSS high-water mark, so the peak read after the
    request loop excludes the set-ups.  Returns False where the kernel does
    not offer the reset (then the peak is that of the whole process)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb(outcomes, workload):
    """Peak RSS of the request process, in MB: the largest child for
    fresh-process workloads (``ru_maxrss`` is KiB on Linux), and for
    in-process ones this process's high-water mark since
    :func:`reset_peak_rss`."""
    if not workload.in_process:
        return max(outcome.child_rss_kb for outcome in outcomes) / 1024.0
    try:
        with open("/proc/self/status") as handle:
            return int(_HWM.search(handle.read()).group(1)) / 1024.0
    except (OSError, AttributeError):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
