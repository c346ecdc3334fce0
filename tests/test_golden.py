"""Golden-vector conformance suite.

Frozen reference vectors for every stage of both MetaCore pipelines
live under ``tests/golden/`` as exact-value JSON (Python floats
round-trip through JSON ``repr`` exactly, so ``==`` below is a
*bit-for-bit* comparison, not a tolerance check).  Any refactor of the
encoder, quantizers, decoder, BER simulator, filter design, fixed-point
measurement, or synthesis estimator that changes a single mantissa bit
fails here first — which is the point: the serving layer's
bit-identical guarantee (``docs/serving.md``) rests on these stages
being deterministic functions of (seed, point, fidelity).

An *intentional* numeric change is blessed with::

    PYTHONPATH=src python -m pytest tests/test_golden.py --regen-golden

then reviewed as a diff of the JSON fixtures (see
``tests/golden/README.md``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict

import numpy as np
import pytest

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Seed shared by every generator (the repo-wide default seed).
SEED = 20010618


def _to_jsonable(value: Any) -> Any:
    """Convert numpy containers/scalars to exact plain-JSON values."""
    if isinstance(value, np.ndarray):
        return [_to_jsonable(item) for item in value.tolist()]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, dict):
        return {str(key): _to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(item) for item in value]
    return value


def check_golden(
    name: str, generated: Dict[str, Any], regen: bool
) -> None:
    """Compare ``generated`` against the frozen fixture (or rewrite it)."""
    path = GOLDEN_DIR / f"{name}.json"
    generated = _to_jsonable(generated)
    if regen:
        path.write_text(
            json.dumps(generated, indent=1, sort_keys=True) + "\n"
        )
        pytest.skip(f"regenerated {path.name}")
    if not path.exists():
        pytest.fail(
            f"golden fixture {path.name} missing; generate it with "
            "--regen-golden and commit the file"
        )
    frozen = json.loads(path.read_text())
    assert generated == frozen, (
        f"{path.name} drifted from the frozen reference; if the "
        "numeric change is intentional, regenerate with --regen-golden "
        "and review the fixture diff"
    )


# ---------------------------------------------------------------------------
# Viterbi pipeline: encode -> AWGN -> quantize -> decode -> BER
# ---------------------------------------------------------------------------


def _viterbi_pipeline_vectors() -> Dict[str, Any]:
    from repro.viterbi import (
        AdaptiveQuantizer,
        BERSimulator,
        ConvolutionalEncoder,
        HardQuantizer,
        Trellis,
        ViterbiDecoder,
        bpsk_modulate,
    )
    from repro.viterbi.channels import AWGNChannel

    encoder = ConvolutionalEncoder(3)
    rng = np.random.default_rng(SEED)
    bits = rng.integers(0, 2, size=48, dtype=np.int8)
    encoded = encoder.encode(bits)
    channel = AWGNChannel(2.0)
    noisy = channel.transmit(encoded, rng=np.random.default_rng(SEED + 1))
    quantizer = AdaptiveQuantizer(3)
    quantized = quantizer.quantize(noisy, sigma=channel.sigma)
    decoder = ViterbiDecoder(
        Trellis.from_encoder(encoder), HardQuantizer(), 6 * 3
    )
    decoded = decoder.decode(bpsk_modulate(encoded), sigma=channel.sigma)
    simulator = BERSimulator(
        encoder, frame_length=256, frames_per_batch=8, seed=SEED
    )
    points = [
        simulator.measure(
            decoder, es_n0_db, max_bits=4096, target_errors=None
        )
        for es_n0_db in (0.0, 2.0)
    ]
    return {
        "bits": bits,
        "encoded": encoded,
        "noisy": noisy,
        "quantized": quantized,
        "decoded": decoded,
        "ber_points": [
            {
                "es_n0_db": point.es_n0_db,
                "bits": point.bits,
                "errors": point.errors,
                "ber": point.ber,
            }
            for point in points
        ],
    }


def _viterbi_search_selection() -> Dict[str, Any]:
    from repro.core import BERThresholdCurve, SearchConfig
    from repro.viterbi import ViterbiMetaCore, ViterbiSpec

    metacore = ViterbiMetaCore(
        ViterbiSpec(
            throughput_bps=1e6,
            ber_curve=BERThresholdCurve.single(2.0, 1e-2),
        ),
        fixed={"G": "standard", "N": 1, "K": 3, "Q": "hard"},
        config=SearchConfig(max_resolution=1, refine_top_k=1),
    )
    result = metacore.search()
    return {
        "feasible": result.feasible,
        "best_point": result.best_point,
        "best_metrics": result.best_metrics,
        "n_evaluations": result.log.n_evaluations,
    }


def _viterbi_recommend_selection(atlas_path: str) -> Dict[str, Any]:
    """Populate a fresh atlas with one cold search, then answer a
    constraint query from it — the frozen vector pins both the chosen
    design and the zero-evaluation contract of a library hit."""
    from repro.core import BERThresholdCurve, SearchConfig
    from repro.viterbi import ViterbiMetaCore, ViterbiSpec

    metacore = ViterbiMetaCore(
        ViterbiSpec(
            throughput_bps=1e6,
            ber_curve=BERThresholdCurve.single(2.0, 1e-2),
        ),
        fixed={"G": "standard", "N": 1, "K": 3, "Q": "hard"},
        config=SearchConfig(max_resolution=1, refine_top_k=1),
        atlas_path=atlas_path,
    )
    metacore.search()
    recommendation = metacore.recommend({"area_mm2": 50.0})
    return {
        "source": recommendation.source,
        "n_evaluations": recommendation.n_evaluations,
        "feasible": recommendation.feasible,
        "point": recommendation.point,
        "metrics": recommendation.metrics,
    }


def _evolve_search_selection() -> Dict[str, Any]:
    """The seeded evolutionary strategy on the small Viterbi slice.

    Freezes the full selection (point, metrics, evaluation count,
    evaluations saved) — tournament selection, mutation draws, and the
    polish walk are all driven by the spawned strategy RNG, so any
    change to the breeding order or seeding shows up here first.
    """
    from repro.core import BERThresholdCurve, SearchConfig
    from repro.viterbi import ViterbiMetaCore, ViterbiSpec

    metacore = ViterbiMetaCore(
        ViterbiSpec(
            throughput_bps=1e6,
            ber_curve=BERThresholdCurve.single(2.0, 1e-2),
        ),
        fixed={"G": "standard", "N": 1, "K": 3, "Q": "hard"},
        config=SearchConfig(
            max_resolution=1, refine_top_k=1, strategy="evolve"
        ),
    )
    result = metacore.search()
    return {
        "strategy": result.strategy,
        "feasible": result.feasible,
        "best_point": result.best_point,
        "best_metrics": result.best_metrics,
        "n_evaluations": result.log.n_evaluations,
        "evals_saved": result.evals_saved,
    }


# ---------------------------------------------------------------------------
# IIR pipeline: design -> realize -> quantize -> measure -> synthesize
# ---------------------------------------------------------------------------


def _iir_pipeline_vectors() -> Dict[str, Any]:
    from repro.hardware.synthesis import estimate_iir_implementation
    from repro.iir import (
        check_quantized,
        design_filter,
        paper_bandpass_spec,
        realize,
    )

    spec = paper_bandpass_spec()
    tf = design_filter(spec, "elliptic").to_tf()
    realization = realize("cascade", tf)
    report = check_quantized(realization, spec, 12, grid_points=256)
    estimate = estimate_iir_implementation(
        realization.dataflow(), 12, 4.0, feature_um=1.2
    )
    return {
        "b": tf.b,
        "a": tf.a,
        "report": {
            "word_length": report.word_length,
            "stable": report.stable,
            "passband_ripple": report.passband_ripple,
            "stopband_level": report.stopband_level,
            "realizable": report.realizable,
        },
        "estimate": {
            "clock_ns": estimate.clock_ns,
            "cycles_per_sample": estimate.cycles_per_sample,
            "latency_cycles": estimate.latency_cycles,
            "n_multipliers": estimate.n_multipliers,
            "n_adders": estimate.n_adders,
            "n_registers": estimate.n_registers,
            "area_mm2": estimate.area_mm2,
            "throughput_samples_per_s": estimate.throughput_samples_per_s,
        },
    }


def _iir_search_selection() -> Dict[str, Any]:
    from repro.core import SearchConfig
    from repro.iir import IIRMetaCore, IIRSpec

    metacore = IIRMetaCore(
        IIRSpec.paper(4.0),
        config=SearchConfig(max_resolution=1, refine_top_k=2),
    )
    result = metacore.search()
    return {
        "feasible": result.feasible,
        "best_point": result.best_point,
        "best_metrics": result.best_metrics,
        "n_evaluations": result.log.n_evaluations,
    }


def _golden_specs() -> Dict[str, Any]:
    """Specs of both kinds (both IIR filter types), power off and on."""
    from repro.core import BERThresholdCurve
    from repro.iir import IIRSpec
    from repro.iir.design import LowpassSpec
    from repro.power import PowerConfig
    from repro.viterbi import ViterbiSpec

    lowpass = LowpassSpec(0.2, 0.3, 0.05, 0.01)
    power = PowerConfig(tech_node_um=0.18, vdd_v=1.5, max_power_mw=80.0)
    specs: Dict[str, Any] = {}
    for label, config in (("off", None), ("on", power)):
        specs[f"viterbi_power_{label}"] = ViterbiSpec(
            throughput_bps=2e6,
            ber_curve=BERThresholdCurve(points=((1.0, 5e-2), (3.0, 1e-3))),
            power=config,
        )
        specs[f"iir_bandpass_power_{label}"] = IIRSpec.paper(1.5, power=config)
        specs[f"iir_lowpass_power_{label}"] = IIRSpec(
            filter_spec=lowpass, sample_period_us=0.75, power=config
        )
    return specs


def _spec_payload_vectors() -> Dict[str, Any]:
    from repro.serve import (
        fingerprint_for_payload,
        spec_from_payload,
        spec_to_payload,
    )

    vectors: Dict[str, Any] = {}
    for label, spec in _golden_specs().items():
        payload = spec_to_payload(spec)
        wire = json.dumps(payload, separators=(",", ":"), sort_keys=True)
        decoded = spec_from_payload(json.loads(wire))
        vectors[label] = {
            "payload": wire,
            "fingerprint": fingerprint_for_payload(payload),
            "round_trip_equal": decoded == spec,
            "round_trip_payload": json.dumps(
                spec_to_payload(decoded), separators=(",", ":"), sort_keys=True
            ),
        }
    return vectors


# ---------------------------------------------------------------------------
# The conformance gates
# ---------------------------------------------------------------------------


class TestGoldenViterbi:
    def test_pipeline_vectors(self, regen_golden):
        check_golden(
            "viterbi_pipeline", _viterbi_pipeline_vectors(), regen_golden
        )

    def test_search_selection(self, regen_golden):
        check_golden(
            "viterbi_search", _viterbi_search_selection(), regen_golden
        )

    def test_recommend_selection(self, regen_golden, tmp_path):
        check_golden(
            "viterbi_recommend",
            _viterbi_recommend_selection(str(tmp_path / "atlas.jsonl")),
            regen_golden,
        )


class TestGoldenStrategies:
    """Frozen selections for the pluggable search strategies."""

    def test_evolve_selection(self, regen_golden):
        check_golden(
            "evolve_search", _evolve_search_selection(), regen_golden
        )


class TestGoldenIIR:
    def test_pipeline_vectors(self, regen_golden):
        check_golden("iir_pipeline", _iir_pipeline_vectors(), regen_golden)

    def test_search_selection(self, regen_golden):
        check_golden("iir_search", _iir_search_selection(), regen_golden)


class TestGoldenServe:
    """The serving layer answers with the frozen pipeline numbers too."""

    def test_serve_matches_golden_metrics(self, regen_golden):
        from repro.serve import ServeHandle, ServiceConfig, spec_to_payload
        from repro.core import BERThresholdCurve
        from repro.viterbi import ViterbiSpec

        frozen = _viterbi_search_selection()
        spec = ViterbiSpec(
            throughput_bps=1e6,
            ber_curve=BERThresholdCurve.single(2.0, 1e-2),
        )
        handle = ServeHandle(ServiceConfig(max_batch=4))
        with handle:
            with handle.client() as client:
                served = client.eval(
                    frozen["best_point"],
                    fidelity=0,
                    spec=spec_to_payload(spec),
                )
        # The BER metrics of the frozen selection were measured at the
        # search's top fidelity; re-measure the point serially at
        # fidelity 0 to compare like with like.
        from repro.viterbi.metacore import ViterbiMetacoreEvaluator

        serial = ViterbiMetacoreEvaluator(spec).evaluate(
            frozen["best_point"], 0
        )
        assert served == serial


class TestGoldenSpecPayloads:
    """Wire payloads and fingerprints of specs stay byte-identical."""

    def test_payloads_and_fingerprints(self, regen_golden):
        check_golden("spec_payloads", _spec_payload_vectors(), regen_golden)
