"""pcfgtk benchmark: three workloads, measured end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload parse|nbest|train --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a summary with the
sample counts goes to standard error.

Load is a closed loop: one caller in one process and one thread runs work
items back to back.  A run stops at the first block boundary after
``--seconds`` of work (see ``gen.corpus_lines``), so every run sees the same
length mix.  Every item's output is checked outside the timed region, and
for the default seed compared with ``reference.json``; a failed check or an
exception counts as a failed operation.

Times are reported at a reference host speed.  A shared 2-core x86 host was
seen to slow everything by up to 2x for a minute at a time, which no run
length averages away.  So every quarter second of work the benchmark also
times ``calibration_kernel``, fixed pure-Python work of the same kind as
pcfgtk's (tuples, dicts, sorting), and scales the items timed since the
last calibration by ``REFERENCE_KERNEL_S`` over the mean of the kernel
times on either side.  The kernel is part of the benchmark, so a change to
pcfgtk changes only the scaled item times, not the scale.

Workloads (inputs are generated from the seed by ``gen.py``):

* ``parse``: per sentence of a plain corpus (lengths 6-16) over ``G100``,
  ``inside``, ``viterbi``, ``derivation_tree`` and ``format_tree``, as
  ``pcfgtk inside`` plus ``pcfgtk viterbi`` do.  Nearly all time is in
  ``chart``; ``kbest`` and ``estimator`` are never called.
* ``nbest``: per sentence of a bracketed corpus (lengths 6-10) over ``G100``,
  ``nbest(n=10, brackets)`` and tree rendering, as
  ``pcfgtk nbest --n 10 --bracketed-corpus`` does.  Stresses the eager
  k-best merge and the bracket-compatibility path.
* ``train``: ``pcfgtk train`` run in-process by ``pcfgtk.cli.main`` over
  ``Gsmall``, one command per one-sentence corpus (lengths 4-6), with
  ``--ref-mode viterbi --comp-mode all --h 0.3 --eta 1 --epsilon 1
  --rel-tol 0 --iters 2``.  Uses ``kbest`` as an exhaustive enumerator and
  exercises the estimator.

End-to-end metrics (``--trace 0``):

* ``setup_s``: median wall time of a fresh interpreter that imports pcfgtk
  and loads the workload's grammar and (first) corpus file, over several
  children run one at a time after one warm-up.
* ``sent_per_s``: sentences completed per second of work.  In ``train`` a
  sentence counts once per training iteration it went through.
* ``sent_p50_ms``, ``sent_p90_ms``: per-sentence latency; in ``train``, a
  command's wall time divided by the sentence-iterations it ran.
* ``peak_rss_mb``: peak resident memory of the benchmark process after the
  timed loop.

Per-layer metrics (``--trace 1``) come from spans recorded by wrapping
pcfgtk's functions where their callers look them up (``spans.py``,
``workloads.trace_points``); their times are scaled like the end-to-end
ones.  A traced run loads the inputs and works
through a fixed number of blocks (or ``--seconds`` of work, whichever ends
first), so its self times and counts cover the same items from one version
of pcfgtk to the next and its counts repeat exactly.  It then replays the
same items untraced to measure the tracing overhead, and writes its spans
to ``.perfbench_work/trace-<workload>-<seed>.jsonl``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0

# BLAS and OpenMP pools would otherwise start one thread per core.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END = {
    "setup_s": "s",
    "sent_per_s": "1/s",
    "sent_p50_ms": "ms",
    "sent_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# "<span>.self_s" is the span's time not covered by child spans and
# "<span>.calls" its number of calls, with span names as recorded by
# workloads.trace_points; the other counts come from the wrapped calls'
# results.  All cover the items of one traced run.
PER_LAYER = {
    "chart.viterbi.self_s": "s",
    "chart.viterbi.calls": "count",
    "chart.inside.self_s": "s",
    "chart.inside.calls": "count",
    "kbest.nbest.self_s": "s",
    "kbest.nbest.calls": "count",
    "kbest.nbest.derivs": "count",
    "derivations.tree.self_s": "s",
    "estimator.realize.self_s": "s",
    "estimator.ref_derivs": "count",
    "estimator.comp_derivs": "count",
    "estimator.skipped": "count",
    "estimator.accumulate.self_s": "s",
    "estimator.objective.self_s": "s",
    "estimator.step.self_s": "s",
    "consistency.check.self_s": "s",
    "consistency.check.calls": "count",
    "cli.train.self_s": "s",
    "grammar.load.self_s": "s",
    "corpus.read.self_s": "s",
    "trace.wall_s": "s",
    "trace.items": "count",
    "trace.overhead_frac": "ratio",
}


@dataclass(frozen=True)
class Scale:
    """How big a run's inputs are.

    ``blocks`` is each corpus's size in blocks and ``trace_blocks`` how
    many of them a traced run covers.  At full scale a run stops only at a
    block boundary and ``setup_s`` is the median of ``setup_runs`` children.
    """

    blocks: dict[str, int]
    trace_blocks: dict[str, int]
    whole_blocks: bool
    setup_runs: int


# Corpora hold more items than a 30-second run gets through on a 2-core
# x86 machine, so a run seldom meets the same sentence twice; a traced run
# covers about 10 seconds of work there.
FULL = Scale(
    blocks={"parse": 40, "nbest": 600, "train": 200},
    trace_blocks={"parse": 10, "nbest": 150, "train": 40},
    whole_blocks=True,
    setup_runs=7,
)
SMOKE = Scale(
    blocks={"parse": 1, "nbest": 1, "train": 1},
    trace_blocks={"parse": 1, "nbest": 1, "train": 1},
    whole_blocks=False,
    setup_runs=1,
)


def bootstrap() -> None:
    """Pin thread pools to one thread and put the checkout's pcfgtk first."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "pcfgtk" / "__init__.py").is_file():
        raise SystemExit(f"error: no pcfgtk sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))


# A host on which calibration_kernel takes this long defines the reference
# speed; it is about what a 2-core x86 cloud host takes.
REFERENCE_KERNEL_S = 0.02
CALIBRATE_EVERY_S = 0.25


def calibration_kernel() -> float:
    """Fixed pure-Python work like pcfgtk's inner loops; never change it,
    or figures from before and after the change stop being comparable."""
    total = 0.0
    counts = tuple(range(100))
    table = {}
    for r in range(1500):
        c = tuple(a + b for a, b in zip(counts, counts))
        k = r % 100
        c = c[:k] + (c[k] + 1,) + c[k + 1 :]
        table[(r % 31, r % 17)] = c
        total += sum(x * 0.5 for x in c if x)
    ranked = sorted(table.values(), key=lambda t: (-t[3], t))
    return total + len(ranked)


def time_kernel() -> float:
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import pcfgtk
g = pcfgtk.load_grammar(sys.argv[2])
print(len(getattr(pcfgtk, sys.argv[3])(sys.argv[4])))
"""


def measure_setup(inputs, runs: int) -> float:
    """Median wall time of ``runs`` fresh interpreters loading the inputs,
    scaled to the reference host speed.

    One extra child runs first and is not timed, so that every timed child
    finds the bytecode cache warm, as repeated command-line use does.
    """
    corpus_path = inputs.corpora[0]
    expected = sum(1 for line in corpus_path.read_text(encoding="utf-8").splitlines() if line.strip())
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC), str(inputs.grammar), inputs.reader, str(corpus_path)]
    times = []
    kernel = time_kernel()
    for k in range(runs + 1):
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0 or proc.stdout.split() != [str(expected)]:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip() or proc.stdout.strip()}")
        previous, kernel = kernel, time_kernel()
        if k:
            times.append(elapsed * REFERENCE_KERNEL_S * 2 / (previous + kernel))
    return statistics.median(times)


@dataclass
class Loop:
    busy_s: float
    latencies: list[float]
    scales: list[float]  # per item, reference speed over measured speed
    ok: list[bool]
    attempted: int
    failed: int


def run_items(
    workload, state, checker, stride: int, seconds: float = math.inf, limit: float = math.inf, tracer=None
) -> Loop:
    """Run items back to back; stop after a multiple of ``stride`` items once
    ``seconds`` of work or ``limit`` items are done."""
    busy = 0.0
    latencies = []
    scales = []
    ok = []
    i = 0
    kernel = time_kernel()
    since = 0.0
    while True:
        if tracer is not None:
            tracer.item = i
        start = time.perf_counter()
        try:
            out, error = workload.run(state, i), None
        except Exception as exc:  # one failed operation; the run goes on
            out, error = None, exc
        elapsed = time.perf_counter() - start
        busy += elapsed
        since += elapsed
        latencies.append(elapsed)
        ok.append(checker(i, out, error))
        i += 1
        done = i % stride == 0 and (busy >= seconds or i >= limit)
        if since >= CALIBRATE_EVERY_S or done:
            previous, kernel = kernel, time_kernel()
            scale = REFERENCE_KERNEL_S * 2 / (previous + kernel)
            scales += [scale] * (i - len(scales))
            since = 0.0
        if done:
            break
    return Loop(busy, latencies, scales, ok, i, ok.count(False))


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics (as numpy's default)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end_metrics(workload, loop: Loop, setup_s: float) -> dict[str, float]:
    """The end-to-end metrics, with every time scaled to the reference speed."""
    latencies = [t * scale for t, scale in zip(loop.latencies, loop.scales)]
    per_sentence_ms = [t * 1000.0 / workload.sentences_per_item for t in latencies]
    completed = loop.ok.count(True) * workload.sentences_per_item
    return {
        "setup_s": setup_s,
        "sent_per_s": completed / sum(latencies),
        "sent_p50_ms": percentile(per_sentence_ms, 0.5),
        "sent_p90_ms": percentile(per_sentence_ms, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def scaled_busy(loop: Loop, load_s: float) -> float:
    """Load time plus the items' latencies, scaled to the reference speed."""
    return load_s * loop.scales[0] + sum(t * s for t, s in zip(loop.latencies, loop.scales))


def per_layer_metrics(tracer, loop: Loop, load_s: float, replay: Loop, reload_s: float) -> dict[str, float]:
    """Per-layer metrics; self times are scaled like the end-to-end times."""
    self_s = tracer.self_seconds(lambda item: loop.scales[0 if item is None else item])
    calls = tracer.calls()
    traced_s = scaled_busy(loop, load_s)
    values = {
        "trace.wall_s": traced_s,
        "trace.items": loop.attempted,
        "trace.overhead_frac": traced_s / scaled_busy(replay, reload_s) - 1.0,
    }
    for key in PER_LAYER:
        span, _, kind = key.rpartition(".")
        if kind == "self_s":
            values[key] = self_s.get(span, 0.0)
        elif kind == "calls":
            values[key] = calls[span]
        elif key not in values:
            values[key] = tracer.counts[key]
    return values


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, scale: Scale = FULL) -> dict:
    """One run of one workload; returns the result object."""
    # these import pcfgtk, which bootstrap() puts on the path
    import workloads
    from spans import Tracer

    workload = workloads.WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        inputs = workload.prepare(random.Random(seed), workdir, scale.blocks[name])
        reference = workloads.load_reference(REFERENCE, name, inputs) if seed == DEFAULT_SEED else None
        stride = workload.block_items if scale.whole_blocks else 1
        if not trace:
            setup_s = measure_setup(inputs, scale.setup_runs)
            state = workload.load(inputs)
            checker = workloads.Checker(workload, state, inputs, reference)
            loop = run_items(workload, state, checker, stride, seconds)
            metrics = end_to_end_metrics(workload, loop, setup_s)
            attempted, failed = loop.attempted, loop.failed
        else:
            tracer = Tracer()
            for point in workloads.trace_points():
                tracer.install(*point)
            try:
                start = time.perf_counter()
                state = workload.load(inputs)
                load_s = time.perf_counter() - start
                checker = workloads.Checker(workload, state, inputs, reference)
                limit = stride * scale.trace_blocks[name]
                loop = run_items(workload, state, checker, stride, seconds, limit, tracer)
            finally:
                tracer.uninstall()
            start = time.perf_counter()
            state = workload.load(inputs)
            reload_s = time.perf_counter() - start
            checker.state = state
            replay = run_items(workload, state, checker, 1, limit=loop.attempted)
            tracer.write(WORK / f"trace-{name}-{seed}.jsonl")
            metrics = per_layer_metrics(tracer, loop, load_s, replay, reload_s)
            attempted, failed = loop.attempted + replay.attempted, loop.failed + replay.failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for i, problem in checker.problems[:10]:
        print(f"{name} item {i}: {problem}", file=sys.stderr)
    print(
        f"{name} seed={seed}: {attempted} items attempted, {failed} failed; "
        f"{loop.attempted} items in {loop.busy_s:.2f} s of {'traced' if trace else 'timed'} work",
        file=sys.stderr,
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": metrics[key], "unit": unit}
            for key, unit in (PER_LAYER if trace else END_TO_END).items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("parse", "nbest", "train"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap()
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
