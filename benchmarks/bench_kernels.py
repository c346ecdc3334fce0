"""Benchmark: compiled decode loops vs the reference loops.

Times one *cold* Table-3-style cost evaluation — a full BER-curve
Monte-Carlo run through :class:`ViterbiMetacoreEvaluator` — twice, for
a classic (single-resolution) point and for a multiresolution point,
and writes ``BENCH_kernels.json`` at the repo root.

The reference run unloads the compiled library for its duration, so
decoders run the step-by-step reference loops exactly as on a host
without a C compiler; the ratio is that host against this one, on the
same machine.  The reference run goes first; the fused timing therefore
*includes* building the combo lookup tables, which is the honest
cold-start accounting.  Both runs must produce bit-identical metrics —
any divergence fails the benchmark before any speedup is considered.

Run with::

    PYTHONPATH=src python benchmarks/bench_kernels.py           # full
    PYTHONPATH=src python benchmarks/bench_kernels.py --quick   # CI smoke

Full mode evaluates at the top Monte-Carlo fidelity and requires a
>= 5x speedup on the classic point (and >= 2.5x on the multiresolution
point, whose reference loop spends a larger share of its time in real
arithmetic).  Both runs group frame batches the same way, so the ratio
is the decode loops' alone.  Quick mode evaluates at fidelity 1 and
only requires that the compiled loops are not slower.

Without a C compiler there are no compiled loops, and both runs would
take the reference loops: the script says so and measures nothing
(exit 0 in quick mode, 1 in full mode, which cannot write a report).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, Tuple

from repro.core import BERThresholdCurve
from repro.viterbi import ViterbiMetacoreEvaluator, ViterbiSpec
from repro.viterbi import kernels

#: Table-3-style specification: 1 Mb/s at BER <= 1e-5 (Es/N0 = 2 dB),
#: one of the paper's Table-3 rows.  The tight threshold drives the
#: top-fidelity bit budget to its cap, which is exactly the cold
#: evaluation that dominates a production search's wall-clock.
SPEC_THROUGHPUT_BPS = 1e6
SPEC_ES_N0_DB = 2.0
SPEC_BER_THRESHOLD = 1e-5

#: Classic soft-decision decoder: strong code, no multiresolution.
CLASSIC_POINT = {
    "K": 7, "L_mult": 5, "G": "standard", "R1": 3,
    "R2": 3, "Q": "adaptive", "N": 1, "M": 0,
}

#: Multiresolution decoder: 1-bit trellis plus 3-bit recomputation on
#: the M best paths (the paper's Sec. 3.3 algorithm).
MULTIRES_POINT = {
    "K": 7, "L_mult": 5, "G": "standard", "R1": 1,
    "R2": 3, "Q": "adaptive", "N": 1, "M": 16,
}

FULL_FIDELITY = 3
QUICK_FIDELITY = 1

MIN_SPEEDUP_CLASSIC = 5.0
MIN_SPEEDUP_MULTIRES = 2.5
MIN_SPEEDUP_QUICK = 1.0


def _spec() -> ViterbiSpec:
    return ViterbiSpec(
        throughput_bps=SPEC_THROUGHPUT_BPS,
        ber_curve=BERThresholdCurve.single(SPEC_ES_N0_DB, SPEC_BER_THRESHOLD),
    )


def time_evaluation(
    compiled: bool, point: Dict[str, object], fidelity: int
) -> Tuple[Dict[str, float], float]:
    """One cold BER-curve evaluation; returns (metrics, seconds).

    Times ``ViterbiMetacoreEvaluator._ber_metrics`` — the Monte-Carlo
    BER-curve pricing that the decode loops dominate — on a fresh
    evaluator, with the compiled library loaded or, for
    ``compiled=False``, with its memo set to ``None`` as on a host
    without ``cc``.  The VLIW machine pricing that a full ``evaluate``
    adds on top is the same work either way and would only dilute the
    A/B ratio, so it is excluded.
    """
    evaluator = ViterbiMetacoreEvaluator(_spec())
    saved = kernels._native
    if not compiled:
        kernels._native = None
    try:
        start = time.perf_counter()
        metrics = evaluator._ber_metrics(point, fidelity)
        return metrics, time.perf_counter() - start
    finally:
        kernels._native = saved


def run_workload(
    name: str, point: Dict[str, object], fidelity: int
) -> Dict[str, object]:
    reference_metrics, reference_s = time_evaluation(False, point, fidelity)
    fused_metrics, fused_s = time_evaluation(True, point, fidelity)
    if fused_metrics != reference_metrics:
        diverged = {
            key: (fused_metrics.get(key), reference_metrics.get(key))
            for key in set(fused_metrics) | set(reference_metrics)
            if fused_metrics.get(key) != reference_metrics.get(key)
        }
        raise AssertionError(
            f"{name}: fused metrics diverged from reference: {diverged}"
        )
    speedup = reference_s / fused_s if fused_s > 0 else float("inf")
    report = {
        "workload": name,
        "point": point,
        "fidelity": fidelity,
        "ber_bits": reference_metrics.get("ber_bits"),
        "ber": reference_metrics.get("ber"),
        "reference_s": round(reference_s, 4),
        "fused_s": round(fused_s, 4),
        "speedup": round(speedup, 2),
        "metrics_identical": True,
    }
    print(
        f"{name}: reference {reference_s:.3f}s, fused {fused_s:.3f}s "
        f"-> {speedup:.2f}x (bit-identical)"
    )
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: low fidelity, only assert bit-identity and "
        "fused-not-slower; does not write the JSON report",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="report path (default: BENCH_kernels.json at the repo root "
        "in full mode, nowhere in quick mode)",
    )
    args = parser.parse_args(argv)

    if kernels.native_library() is None:
        print(
            "compiled loops unavailable (no C compiler): fused decodes run "
            "the reference loops, so there is nothing to compare"
        )
        return 0 if args.quick else 1

    fidelity = QUICK_FIDELITY if args.quick else FULL_FIDELITY
    classic = run_workload("classic", CLASSIC_POINT, fidelity)
    multires = run_workload("multires", MULTIRES_POINT, fidelity)

    if args.quick:
        floors = {"classic": MIN_SPEEDUP_QUICK, "multires": MIN_SPEEDUP_QUICK}
    else:
        floors = {
            "classic": MIN_SPEEDUP_CLASSIC,
            "multires": MIN_SPEEDUP_MULTIRES,
        }
    failures = [
        f"{report['workload']}: {report['speedup']:.2f}x < "
        f"{floors[report['workload']]:.1f}x"
        for report in (classic, multires)
        if report["speedup"] < floors[report["workload"]]
    ]

    report = {
        "benchmark": "fused decode kernels, cold Table-3-style evaluation",
        "mode": "quick" if args.quick else "full",
        "spec": {
            "throughput_bps": SPEC_THROUGHPUT_BPS,
            "es_n0_db": SPEC_ES_N0_DB,
            "ber_threshold": SPEC_BER_THRESHOLD,
        },
        "workloads": [classic, multires],
        "floors": floors,
    }
    out = args.out
    if out is None and not args.quick:
        out = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"
    if out is not None:
        out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {out}")

    if failures:
        print("FAIL: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
