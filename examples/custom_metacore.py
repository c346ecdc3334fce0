"""Building a user-defined MetaCore by registering one definition.

The MetaCore methodology is not Viterbi-specific: any parameterized
algorithm with a cost evaluator can use the multiresolution search.
This example defines a toy "FIR decimator" MetaCore from scratch:

- degrees of freedom: number of taps, coefficient word length,
  polyphase decomposition on/off, oversampling ratio;
- cost model: a simple analytic area/throughput/attenuation estimate
  with fidelity-dependent noise (standing in for short vs long
  simulations);
- goal: minimize area subject to a stop-band attenuation floor and a
  throughput floor.

All of it goes into one :class:`~repro.core.metacore.MetaCoreDefinition`.
Once registered, the generic :class:`~repro.core.metacore.MetaCore`
facade searches it and the evaluation service serves it, with no code
in ``repro`` that knows about FIR decimators.

Run:  python examples/custom_metacore.py
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Dict, Optional

from repro.core import (
    Constraint,
    Correlation,
    DesignGoal,
    DesignSpace,
    DiscreteParameter,
    MetaCore,
    MetaCoreDefinition,
    Objective,
    RandomSearch,
    SearchConfig,
    register_metacore,
)
from repro.serve import spec_to_payload
from repro.utils.rng import spawn_rng


@dataclass
class FIRSpec:
    """A user specification: attenuation and throughput floors."""

    min_attenuation_db: float = 60.0
    min_throughput_sps: float = 5e6

    def goal(self) -> DesignGoal:
        return DesignGoal(
            objectives=[Objective("area_mm2")],
            constraints=[
                Constraint("attenuation_db", lower=self.min_attenuation_db),
                Constraint("throughput_sps", lower=self.min_throughput_sps),
            ],
        )


def build_space(fixed: Optional[Dict[str, object]] = None) -> DesignSpace:
    return DesignSpace(
        [
            DiscreteParameter(
                "taps", tuple(range(8, 129, 8)), Correlation.MONOTONIC,
                "FIR filter length",
            ),
            DiscreteParameter(
                "word_length", tuple(range(6, 21)), Correlation.MONOTONIC,
                "coefficient bits",
            ),
            DiscreteParameter(
                "polyphase", (False, True), Correlation.NONE,
                "polyphase decomposition",
            ),
            DiscreteParameter(
                "ratio", (2, 4, 8), Correlation.MONOTONIC,
                "decimation ratio",
            ),
        ]
    ).pinned(fixed)


class FIREvaluator:
    """Analytic cost model with fidelity-dependent measurement noise."""

    max_fidelity = 2

    def __init__(self, spec: FIRSpec) -> None:
        self.spec = spec

    def fingerprint(self) -> str:
        # The cost model does not read the spec, so every spec shares
        # one cache namespace.
        return "fir-decimator:v1"

    def evaluate(self, point, fidelity) -> dict:
        taps = int(point["taps"])
        word = int(point["word_length"])
        ratio = int(point["ratio"])
        polyphase = bool(point["polyphase"])
        # Attenuation: ~0.9 dB per tap at 16 bits, capped by quantization
        # noise floor at ~6 dB per coefficient bit.
        attenuation = min(0.9 * taps, 6.0 * (word - 1))
        # Short "simulations" (low fidelity) measure attenuation noisily.
        noise_db = {0: 4.0, 1: 1.0, 2: 0.0}[min(fidelity, 2)]
        rng = spawn_rng(42, tuple(sorted(point.items())), fidelity)
        measured = attenuation + rng.normal(0.0, noise_db)
        # Area: multiplies per output sample x word-dependent multiplier.
        macs = taps / (ratio if polyphase else 1)
        area = 0.002 * macs * word + 0.1 * math.sqrt(taps)
        # Throughput: polyphase runs at the low rate.
        throughput = 200e6 / (taps / ratio if polyphase else taps)
        return {
            "area_mm2": area,
            "attenuation_db": measured,
            "throughput_sps": throughput,
        }


FIR_DEFINITION = register_metacore(
    MetaCoreDefinition(
        kind="fir",
        spec_type=FIRSpec,
        encode=asdict,
        decode=lambda payload: FIRSpec(
            float(payload["min_attenuation_db"]),
            float(payload["min_throughput_sps"]),
        ),
        design_space=build_space,
        evaluator=FIREvaluator,
        build=lambda spec, point: (
            f"{point['taps']}-tap {point['word_length']}-bit FIR, "
            f"decimate by {point['ratio']}"
            + (" (polyphase)" if point["polyphase"] else "")
        ),
    )
)


def main() -> None:
    spec = FIRSpec()
    metacore = MetaCore(
        spec, config=SearchConfig(max_resolution=3, refine_top_k=3)
    )
    print(metacore.design_space().describe())
    result = metacore.search()
    print("\n--- multiresolution search ---")
    print(result.summary())

    random_result = RandomSearch(
        metacore.design_space(), spec.goal(), FIREvaluator(spec)
    ).run(n_samples=result.log.n_evaluations, seed=3)
    print("\n--- random search at the same budget ---")
    print(random_result.summary())

    if result.feasible and random_result.feasible:
        ours = result.best_metrics["area_mm2"]
        theirs = random_result.best_metrics["area_mm2"]
        print(
            f"\nmultiresolution {ours:.3f} mm^2 vs random {theirs:.3f} mm^2 "
            f"({100 * (theirs - ours) / theirs:+.1f}% smaller)"
        )
    if not result.feasible:
        return
    print(f"\nwinner: {metacore.build(result.best_point)}")

    # The registered definition is all the service needs: the spec
    # travels as a wire payload and the server builds its evaluator.
    with metacore.serve() as handle, handle.client() as client:
        served = client.eval(
            result.best_point, fidelity=2, spec=spec_to_payload(spec)
        )
    direct = FIREvaluator(spec).evaluate(result.best_point, 2)
    print(f"served evaluation matches in-process: {served == direct}")


if __name__ == "__main__":
    main()
