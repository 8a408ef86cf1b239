"""Self-test of the benchmark at its smallest size.

Every workload runs one work item untraced and traced; the metrics it
prints must be exactly those ``BENCHMARK.json`` defines, with their units.
Corrupting one output must make the output checks count a failure.
"""
from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
for path in (BENCH.parent / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

DEFINITION = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    return tmp_path


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_metric_is_reported_with_its_unit(name, trace, work_dir):
    result = run.run_benchmark(name, run.DEFAULT_SEED, 0.0, trace, run.SMOKE)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = DEFINITION["per_layer" if trace else "end_to_end"]
    reported = {key: m["unit"] for key, m in result["metrics"].items()}
    assert reported == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        assert (work_dir / f"trace-{name}-{run.DEFAULT_SEED}.jsonl").is_file()


def swap_first_two(out):
    derivs = out["derivs"]
    assert len(derivs) >= 2
    return {**out, "derivs": [derivs[1], derivs[0], *derivs[2:]]}


def nudge_log_prob(out):
    return {**out, "log_prob": math.nextafter(out["log_prob"], 0.0)}


def nudge_inside(out):
    return {**out, "inside": out["inside"] * (1 + 1e-6)}


def mark_skipped(out):
    header, *rows = out["report"].splitlines()
    rows[-1] = rows[-1][: rows[-1].rindex(",")] + ",1"
    return {**out, "report": "\n".join([header, *rows]) + "\n"}


def nudge_objective(out):
    header, first, *rows = out["report"].splitlines()
    fields = first.split(",")
    fields[1] = repr(float(fields[1]) * (1 + 1e-6))
    return {**out, "report": "\n".join([header, ",".join(fields), *rows]) + "\n"}


@pytest.mark.parametrize(
    "name, corrupt",
    [
        ("parse", nudge_log_prob),
        ("parse", nudge_inside),
        ("nbest", swap_first_two),
        ("train", mark_skipped),
        ("train", nudge_objective),
    ],
)
def test_a_corrupted_output_counts_as_failed(name, corrupt, work_dir):
    workload = workloads.WORKLOADS[name]
    inputs = workload.prepare(random.Random(run.DEFAULT_SEED), work_dir, run.SMOKE.blocks[name])
    reference = workloads.load_reference(run.REFERENCE, name, inputs)
    state = workload.load(inputs)
    # the first item whose output the corruption applies to
    i, out = next(
        (i, out)
        for i, out in ((i, workload.run(state, i)) for i in range(len(inputs.items)))
        if name != "nbest" or len(out["derivs"]) >= 2
    )
    honest = workloads.Checker(workload, state, inputs, reference)
    assert honest(i, out, None), honest.problems
    checker = workloads.Checker(workload, state, inputs, reference)
    assert not checker(i, corrupt(out), None)
    assert checker.problems


def test_tracer_folds_recursion_skips_missing_names_and_restores():
    def countdown(n):
        return 0 if n == 0 else 1 + module.countdown(n - 1)

    def outer(n):
        return module.countdown(n)

    module = SimpleNamespace(countdown=countdown, outer=outer)
    tracer = Tracer()
    tracer.install(module, "countdown", "inner")
    tracer.install(module, "outer", "outer")
    tracer.install(module, "renamed_away", "gone")
    assert module.outer(5) == 5
    tracer.uninstall()
    assert module.countdown is countdown and module.outer is outer
    assert tracer.calls() == {"outer": 1, "inner": 1}
    outer_span, inner_span = tracer.spans
    assert inner_span[3] == 0 and outer_span[3] == -1
    self_s = tracer.self_seconds()
    assert self_s["outer"] + self_s["inner"] == pytest.approx(outer_span[2] - outer_span[1])
