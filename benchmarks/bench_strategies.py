"""Benchmark: the evolutionary strategy vs the cold multiresolution grid.

Runs the paper's Table 4 IIR scenario (the real evaluator — filter
design, quantization measurement, synthesis estimation) once per
strategy in ``STRATEGIES`` and writes ``BENCH_strategies.json`` at the
repo root:

- ``grid``   — the cold multiresolution baseline;
- ``evolve`` — seeded tournament selection + mutation + polish.

The hard gate (the contract in ``docs/search-strategies.md``): every
strategy beside the grid must select a design **no worse** than the
grid's while spending **at most half** of the grid's evaluator calls.

Run with::

    PYTHONPATH=src python benchmarks/bench_strategies.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.core import STRATEGIES, SearchConfig
from repro.iir import IIRMetaCore, IIRSpec

#: Evaluator-call ceiling relative to the grid baseline.
MAX_EVAL_FRACTION = 0.5


def run_strategy(strategy: str):
    """One Table 4 search; returns (SearchResult, wall_seconds)."""
    metacore = IIRMetaCore(
        IIRSpec.paper(4.0),
        config=SearchConfig(
            max_resolution=3, refine_top_k=4, strategy=strategy
        ),
    )
    start = time.perf_counter()
    result = metacore.search()
    return result, time.perf_counter() - start


def main() -> int:
    repo_root = Path(__file__).resolve().parent.parent
    results = {}
    for strategy in STRATEGIES:
        result, wall_s = run_strategy(strategy)
        assert result.feasible, f"{strategy} found no feasible design"
        results[strategy] = {
            "evaluations": result.log.n_evaluations,
            "evals_saved": result.evals_saved,
            "area_mm2": result.best_metrics["area_mm2"],
            "best_point": result.best_point,
            "wall_s": round(wall_s, 4),
        }

    grid = results["grid"]
    failures = []
    for strategy in STRATEGIES:
        if strategy == "grid":
            continue
        row = results[strategy]
        row["eval_fraction"] = round(
            row["evaluations"] / grid["evaluations"], 4
        )
        if row["area_mm2"] > grid["area_mm2"]:
            failures.append(
                f"{strategy} selected a worse design "
                f"({row['area_mm2']} vs grid {grid['area_mm2']})"
            )
        if row["evaluations"] > MAX_EVAL_FRACTION * grid["evaluations"]:
            failures.append(
                f"{strategy} spent {row['evaluations']} evaluations; "
                f"gate is {MAX_EVAL_FRACTION:.0%} of grid's "
                f"{grid['evaluations']}"
            )

    report = {
        "benchmark": "Table 4 IIR search, grid vs evolve",
        "gate": f"no-worse selection at <={MAX_EVAL_FRACTION:.0%} "
        "of the grid's evaluator calls",
        "results": results,
    }
    out = repo_root / "BENCH_strategies.json"
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report, indent=2))
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
