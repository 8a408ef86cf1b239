"""Record the default seed's outputs of every workload to reference.json.

Run from the repository root, on a commit whose outputs are known good:

    python3 perfbench/record_reference.py

The corpus entries a full-scale traced run covers, which are also the first
ones every run meets, are run once and must pass their output checks.  The
file keeps digests of the derivations (which must later match exactly) and
the floating-point results that may move by rounding (compared within a
relative 1e-9).
"""
from __future__ import annotations

import json
import random
import shutil
import sys
import tempfile
from pathlib import Path

import run


def record(name: str) -> dict:
    import workloads

    workload = workloads.WORKLOADS[name]
    run.WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"ref-{name}-", dir=run.WORK))
    try:
        inputs = workload.prepare(random.Random(run.DEFAULT_SEED), workdir, run.FULL.blocks[name])
        state = workload.load(inputs)
        items = []
        count = run.FULL.trace_blocks[name] * workload.block_items
        for i, text in enumerate(inputs.items[:count]):
            out = workload.run(state, i)
            problems = workload.check(state, i, out)
            if problems:
                raise SystemExit(f"error: {name} item {i}: {'; '.join(problems)}")
            items.append({"input": workloads.digest(text), **workload.reference_entry(out)})
        grammar = workloads.digest(inputs.grammar.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"grammar": grammar, "items": items}


def dump(document: dict) -> str:
    """JSON with one work item per line."""
    parts = []
    for name, recorded in document["workloads"].items():
        items = ",\n".join(json.dumps(item, separators=(",", ":")) for item in recorded["items"])
        parts.append(f'"{name}": {{"grammar": "{recorded["grammar"]}", "items": [\n{items}]}}')
    return f'{{"seed": {document["seed"]}, "workloads": {{\n' + ",\n".join(parts) + "}}\n"


def main() -> int:
    run.bootstrap()
    import workloads

    recorded = {name: record(name) for name in workloads.WORKLOADS}
    document = {"seed": run.DEFAULT_SEED, "workloads": recorded}
    run.REFERENCE.write_text(dump(document), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
