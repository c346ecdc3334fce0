"""The Viterbi MetaCore (paper Sec. 4.1/4.2 and 5.2).

Bundles the four MetaCore components for the Viterbi driver:

- the 8-dimensional design space of Table 2 (K, L, G, R1, R2, Q, N, M);
- objectives/constraints: minimize area at a fixed throughput subject
  to a BER threshold curve;
- the cost-evaluation engine: union-bound BER estimation at the lowest
  fidelity, Monte-Carlo simulation with growing bit budgets above it,
  and the Trimaran-stand-in machine model for area/throughput;
- the concrete decoder for any design point.

:data:`VITERBI_DEFINITION` registers the bundle under the kind
``"viterbi"``; :class:`ViterbiMetaCore` binds the generic
:class:`~repro.core.metacore.MetaCore` facade to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.metacore import MetaCore, MetaCoreDefinition, register_metacore
from repro.core.objectives import (
    BERThresholdCurve,
    Constraint,
    DesignGoal,
    Objective,
)
from repro.core.parameters import (
    Correlation,
    DesignSpace,
    DiscreteParameter,
    Point,
)
from repro.errors import ConfigurationError, SynthesisError
from repro.hardware.trace import ViterbiInstanceParams, viterbi_program
from repro.hardware.vliw import ImplementationEstimate, optimize_machine
from repro.observability.metrics import get_registry
from repro.power import PowerConfig, PowerModel
from repro.viterbi.ber import BERSimulator, DEFAULT_SEED
from repro.viterbi.bounds import estimate_ber
from repro.viterbi.decoder import ViterbiDecoder
from repro.viterbi.encoder import ConvolutionalEncoder
from repro.viterbi.multires import MultiresolutionViterbiDecoder
from repro.viterbi.polynomials import default_polynomials
from repro.viterbi.quantize import HardQuantizer, make_quantizer
from repro.viterbi.trellis import trellis_for

#: Es/N0 penalty (dB) of fixed relative to adaptive quantization in the
#: analytic estimate (the fixed decision level is mistuned off its
#: design SNR; calibrated against Monte-Carlo runs).
FIXED_QUANTIZATION_PENALTY_DB = 0.3

#: Monte-Carlo budgets per fidelity level: (max bits, target errors).
#: Level 0 is analytic (no simulation).
FIDELITY_BUDGETS: Tuple[Tuple[int, int], ...] = (
    (0, 0),
    (24_000, 60),
    (80_000, 120),
    (240_000, 250),
)

#: At the top fidelity the bit budget also adapts to the BER threshold
#: under test: enough bits for ~TOP_FIDELITY_ERRORS_AT_THRESHOLD errors
#: at threshold-level BER, capped to keep a single confirmation bounded.
TOP_FIDELITY_ERRORS_AT_THRESHOLD = 25
TOP_FIDELITY_MAX_BITS = 2_500_000


def viterbi_design_space(
    fixed: Optional[Dict[str, object]] = None,
) -> DesignSpace:
    """The Table-2 design space.

    ``fixed`` pins parameters to single values (the paper fixes G and N
    "to speedup the search process"); pass e.g. ``{"Q": "adaptive"}``.
    ``M = 0`` encodes pure (non-multiresolution) decoding; positive M
    is the number of recomputed high-resolution paths.
    """
    return DesignSpace(
        [
            DiscreteParameter(
                "K", (3, 4, 5, 6, 7), Correlation.MONOTONIC,
                "constraint length",
            ),
            DiscreteParameter(
                "L_mult",
                (1, 2, 3, 4, 5, 6, 7),
                Correlation.MONOTONIC,
                "trace-back depth in multiples of K",
            ),
            DiscreteParameter(
                "G",
                ("standard",),
                Correlation.NONE,
                "encoder polynomials (standard = best-known for K)",
            ),
            DiscreteParameter(
                "R1", (1, 2, 3), Correlation.MONOTONIC, "low-resolution bits"
            ),
            DiscreteParameter(
                "R2", (2, 3, 4, 5), Correlation.MONOTONIC,
                "high-resolution bits",
            ),
            DiscreteParameter(
                "Q",
                ("hard", "fixed", "adaptive"),
                Correlation.NONE,
                "quantization method",
            ),
            DiscreteParameter(
                "N", (1, 2, 3, 4), Correlation.MONOTONIC,
                "normalization branches",
            ),
            DiscreteParameter(
                "M",
                (0, 1, 2, 4, 8, 16, 32, 64),
                Correlation.MONOTONIC,
                "multiresolution paths (0 = pure decoding)",
            ),
        ]
    ).pinned(fixed)


def normalize_viterbi_point(point: Point) -> Point:
    """Canonicalize the dependent Table-2 parameters.

    The axes are not independent (M <= 2**(K-1), R2 > R1, N <= M, hard
    decoding implies 1-bit R1 and no recomputation); grid points are
    repaired to the nearest valid configuration so that every point the
    search generates is evaluable, and equivalent configurations
    collapse to one canonical form (deduplicated by the search cache).
    """
    repaired = dict(point)
    k = int(repaired["K"])
    max_paths = 1 << (k - 1)
    if repaired["Q"] == "hard":
        repaired["R1"] = 1
        repaired["M"] = 0
    # Clamp the path count to the trellis size (M = 2**(K-1) recomputes
    # every state, i.e. behaves like full soft decoding at R2).
    m = min(int(repaired["M"]), max_paths)
    repaired["M"] = m
    if m == 0:
        # Pure decoding: R2 and N are inert; pin them to canonical values.
        repaired["R2"] = 2
        repaired["N"] = 1
        if int(repaired["R1"]) == 1:
            repaired["Q"] = "hard"
    else:
        if int(repaired["R2"]) <= int(repaired["R1"]):
            repaired["R2"] = int(repaired["R1"]) + 1
        repaired["N"] = min(int(repaired["N"]), m)
        if repaired["Q"] == "hard":
            repaired["Q"] = "adaptive"
    return repaired


def traceback_depth(point: Point) -> int:
    """L = L_mult * K (the paper searches L in multiples of K)."""
    return int(point["L_mult"]) * int(point["K"])


def polynomials_for_point(point: Point) -> Tuple[int, ...]:
    """Generator polynomials a point decodes with."""
    if point["G"] != "standard":
        raise ConfigurationError(f"unknown polynomial choice {point['G']!r}")
    return default_polynomials(int(point["K"]))


def instance_params(point: Point) -> ViterbiInstanceParams:
    """Hardware-model parameters of a (normalized) design point."""
    point = normalize_viterbi_point(point)
    n_symbols = len(polynomials_for_point(point))
    multires = int(point["M"]) > 0
    return ViterbiInstanceParams(
        constraint_length=int(point["K"]),
        traceback_depth=traceback_depth(point),
        low_resolution_bits=int(point["R1"]),
        n_symbols=n_symbols,
        high_resolution_bits=int(point["R2"]) if multires else None,
        multires_paths=int(point["M"]) if multires else None,
        normalization_count=int(point["N"]) if multires else 0,
    )


def build_decoder(point: Point) -> ViterbiDecoder:
    """Construct the concrete decoder a design point describes."""
    point = normalize_viterbi_point(point)
    k = int(point["K"])
    trellis = trellis_for(k, polynomials_for_point(point))
    depth = traceback_depth(point)
    r1 = int(point["R1"])
    method = str(point["Q"])
    if int(point["M"]) > 0:
        low = HardQuantizer() if r1 == 1 else make_quantizer(method, r1)
        high = make_quantizer(method, int(point["R2"]))
        return MultiresolutionViterbiDecoder(
            trellis,
            low,
            high,
            depth,
            multires_paths=int(point["M"]),
            normalization_count=int(point["N"]),
        )
    quantizer = HardQuantizer() if r1 == 1 else make_quantizer(method, r1)
    return ViterbiDecoder(trellis, quantizer, depth)


def describe_point(point: Point) -> str:
    """A Table-3 style row for a design point."""
    point = normalize_viterbi_point(point)
    polys = ",".join(format(p, "o") for p in polynomials_for_point(point))
    multires = int(point["M"]) > 0
    return (
        f"K={point['K']} L={point['L_mult']}*K G=({polys}) "
        f"R1={point['R1']} "
        f"R2={point['R2'] if multires else 'NA'} "
        f"Q={str(point['Q'])[0].upper()} "
        f"N={point['N'] if multires else 'NA'} "
        f"M={point['M'] if multires else 'NA'}"
    )


# ---------------------------------------------------------------------------
# Specification + evaluator
# ---------------------------------------------------------------------------


@dataclass
class ViterbiSpec:
    """A user specification: throughput plus a BER threshold curve."""

    throughput_bps: float
    ber_curve: BERThresholdCurve
    feature_um: float = 0.25
    seed: int = DEFAULT_SEED
    #: Opt-in power pricing (see :mod:`repro.power`); None keeps the
    #: classic 2-metric cost engine and its fingerprints untouched.
    power: Optional[PowerConfig] = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.throughput_bps) or self.throughput_bps <= 0:
            raise ConfigurationError("throughput must be positive and finite")

    def goal(self) -> DesignGoal:
        """Minimize area subject to the specification's BER curve.

        With power pricing enabled, energy per decoded bit joins the
        objectives (unless configured constraint-only) and the
        configured energy/power caps become constraints — the goal is
        then genuinely 3-objective: area, energy, BER feasibility.
        """
        objectives = [Objective("area_mm2")]
        constraints = []
        if self.power is not None:
            if self.power.objective:
                objectives.append(Objective("energy_nj_per_bit"))
            if self.power.max_energy_nj is not None:
                constraints.append(
                    Constraint(
                        "energy_nj_per_bit", upper=self.power.max_energy_nj
                    )
                )
            if self.power.max_power_mw is not None:
                constraints.append(
                    Constraint("power_mw", upper=self.power.max_power_mw)
                )
        return DesignGoal(
            objectives=objectives,
            constraints=constraints,
            ber_curve=self.ber_curve,
        )


class ViterbiMetacoreEvaluator:
    """Cost-evaluation engine for the Viterbi MetaCore.

    Fidelity 0 prices BER with the union-bound estimator; fidelities
    1..3 run Monte-Carlo simulation with growing bit budgets (the
    paper's "more accurate simulation results (longer run times)" on
    finer grids).  Area/throughput always go through the machine model,
    which is cheap and deterministic.
    """

    def __init__(self, spec: ViterbiSpec) -> None:
        self.spec = spec
        self.max_fidelity = len(FIDELITY_BUDGETS) - 1
        self._simulators: Dict[Tuple[int, Tuple[int, ...]], BERSimulator] = {}
        self._power_model: Optional[PowerModel] = (
            PowerModel.for_spec(spec.feature_um, spec.power)
            if spec.power is not None
            else None
        )
        #: DVFS clock ratio; exactly 1.0 with power off or nominal Vdd,
        #: keeping non-energy metrics bit-identical in both cases.
        self._freq_scale: float = (
            self._power_model.frequency_scale
            if self._power_model is not None
            else 1.0
        )

    def fingerprint(self) -> str:
        """Cross-run cache key: everything that can change a metric.

        Covers the code version, the Monte-Carlo seed, the fidelity
        budgets, and the full specification (throughput, feature size,
        BER curve) — a change to any of these must orphan cached
        evaluations.
        """
        import repro

        curve = ";".join(
            f"{es:.6g}:{thr:.6g}" for es, thr in self.spec.ber_curve.points
        )
        # Power pricing adds energy metrics (and can rescale the clock),
        # so enabled configs get their own cache namespace; the default
        # power-off fingerprint is byte-identical to the pre-power one.
        power = (
            self.spec.power.fingerprint_fragment()
            if self.spec.power is not None
            else ""
        )
        return (
            f"viterbi:v{repro.__version__}"
            f":seed={self.spec.seed}"
            f":budgets={FIDELITY_BUDGETS}"
            f":top=({TOP_FIDELITY_ERRORS_AT_THRESHOLD},{TOP_FIDELITY_MAX_BITS})"
            f":fixed_penalty={FIXED_QUANTIZATION_PENALTY_DB}"
            f":throughput={self.spec.throughput_bps:.6g}"
            f":feature={self.spec.feature_um:.6g}"
            f":curve={curve}"
            f"{power}"
        )

    # -- BER ------------------------------------------------------------

    def _simulator(self, point: Point) -> BERSimulator:
        k = int(point["K"])
        polys = polynomials_for_point(point)
        key = (k, polys)
        if key not in self._simulators:
            self._simulators[key] = BERSimulator(
                ConvolutionalEncoder(k, polys),
                seed=self.spec.seed,
            )
        return self._simulators[key]

    def _analytic_ber(self, point: Point, es_n0_db: float) -> float:
        multires = int(point["M"]) > 0
        effective = es_n0_db
        if point["Q"] == "fixed":
            effective -= FIXED_QUANTIZATION_PENALTY_DB
        return estimate_ber(
            int(point["K"]),
            polynomials_for_point(point),
            effective,
            quantizer_bits=int(point["R1"]),
            traceback_depth=traceback_depth(point),
            high_bits=int(point["R2"]) if multires else None,
            multires_paths=int(point["M"]) if multires else None,
        )

    def _ber_metrics(self, point: Point, fidelity: int) -> Dict[str, float]:
        """Worst-margin BER metrics over the specified threshold curve."""
        curve = self.spec.ber_curve
        metrics: Dict[str, float] = {}
        worst_violation = -math.inf
        binding: Optional[Dict[str, float]] = None
        decoder = None
        for es_n0_db, threshold in curve.points:
            if fidelity == 0:
                ber = self._analytic_ber(point, es_n0_db)
                errors = bits = None
            else:
                if decoder is None:
                    decoder = build_decoder(point)
                max_bits, target_errors = FIDELITY_BUDGETS[fidelity]
                if fidelity == self.max_fidelity:
                    # Resolve the threshold: enough bits to expect a
                    # meaningful error count at threshold-level BER.
                    needed = int(
                        TOP_FIDELITY_ERRORS_AT_THRESHOLD / threshold
                    )
                    max_bits = min(
                        max(max_bits, needed), TOP_FIDELITY_MAX_BITS
                    )
                measured = self._simulator(point).measure(
                    decoder, es_n0_db, max_bits=max_bits, target_errors=target_errors
                )
                ber = max(measured.errors, 0.5) / measured.bits
                errors, bits = measured.errors, measured.bits
            violation = math.log10(max(ber, 1e-300) / threshold)
            if violation > worst_violation:
                worst_violation = violation
                binding = {
                    "ber": ber,
                    "ber_threshold": threshold,
                    "ber_es_n0_db": es_n0_db,
                }
                if errors is not None:
                    binding["ber_errors"] = float(errors)
                    binding["ber_bits"] = float(bits)
        assert binding is not None
        metrics.update(binding)
        metrics["ber_violation"] = max(0.0, worst_violation)
        return metrics

    # -- area / throughput ----------------------------------------------

    def _hardware_metrics(self, point: Point) -> Dict[str, float]:
        program = viterbi_program(instance_params(point))
        # At a non-nominal supply every machine clocks freq_scale times
        # its nominal rate, so the nominal-clock optimizer must hit the
        # correspondingly rescaled throughput target (exact no-op at
        # freq_scale == 1.0, i.e. power off or nominal Vdd).
        freq_scale = self._freq_scale
        try:
            estimate: ImplementationEstimate = optimize_machine(
                program,
                self.spec.throughput_bps / freq_scale,
                feature_um=self.spec.feature_um,
            )
        except SynthesisError:
            dead = {
                "area_mm2": math.inf,
                "throughput_bps": 0.0,
                "hw_feasible": 0.0,
            }
            if self._power_model is not None:
                dead["energy_nj_per_bit"] = math.inf
                dead["power_mw"] = math.inf
            return dead
        throughput = estimate.throughput_bps * freq_scale
        metrics = {
            "area_mm2": estimate.area_mm2,
            "throughput_bps": throughput,
            "cycles_per_bit": estimate.schedule.cycles,
            "n_alus": float(estimate.machine.n_alus),
            "hw_feasible": 1.0,
        }
        if self._power_model is not None:
            report = self._power_model.viterbi_report(
                program, estimate.machine, bits_per_s=throughput
            )
            metrics["energy_nj_per_bit"] = report.energy_nj
            metrics["power_mw"] = report.power_mw
        return metrics

    # -- evaluator protocol ----------------------------------------------

    def evaluate(self, point: Point, fidelity: int) -> Dict[str, float]:
        """Price one design point: hardware first, then BER metrics."""
        if not 0 <= fidelity <= self.max_fidelity:
            raise ConfigurationError(f"fidelity {fidelity} out of range")
        point = normalize_viterbi_point(point)
        if self._power_model is not None:
            registry = get_registry()
            registry.counter("power.priced").inc()
            registry.counter(f"power.priced.f{fidelity}").inc()
        metrics = self._hardware_metrics(point)
        if math.isinf(metrics["area_mm2"]):
            # No machine reaches the throughput: skip the (expensive)
            # BER work, the point is dead either way.
            metrics["ber_violation"] = math.inf
            return metrics
        metrics.update(self._ber_metrics(point, fidelity))
        return metrics


# ---------------------------------------------------------------------------
# Definition + facade binding
# ---------------------------------------------------------------------------


def _encode_spec(spec: ViterbiSpec) -> Dict[str, Any]:
    payload: Dict[str, Any] = {
        "throughput_bps": spec.throughput_bps,
        "ber_curve": [list(pair) for pair in spec.ber_curve.points],
        "feature_um": spec.feature_um,
        "seed": spec.seed,
    }
    # Only power-enabled specs carry the key: the power-off wire
    # format stays byte-identical to pre-power clients/servers.
    if spec.power is not None:
        payload["power"] = spec.power.to_payload()
    return payload


def _decode_spec(payload: Dict[str, Any]) -> ViterbiSpec:
    curve_points = payload.get("ber_curve")
    if not curve_points:
        raise ConfigurationError("viterbi spec needs ber_curve points")
    curve = BERThresholdCurve(
        points=tuple((float(es), float(thr)) for es, thr in curve_points)
    )
    return ViterbiSpec(
        throughput_bps=float(payload["throughput_bps"]),
        ber_curve=curve,
        feature_um=float(payload.get("feature_um", 0.25)),
        seed=int(payload.get("seed", DEFAULT_SEED)),
        power=PowerConfig.from_payload(payload.get("power")),
    )


def _spec_features(spec: ViterbiSpec) -> Dict[str, float]:
    """Throughput and BER curve; rates and BERs enter in log10."""
    features = {
        "log10_throughput": math.log10(spec.throughput_bps),
        "feature_um": float(spec.feature_um),
    }
    for index, (es_n0_db, ber) in enumerate(spec.ber_curve.points):
        features[f"es_n0_db_{index}"] = float(es_n0_db)
        features[f"log10_ber_{index}"] = math.log10(ber)
    return features


def _cli_spec(
    args: Any, power: Optional[PowerConfig], ber: float, throughput: float
) -> ViterbiSpec:
    return ViterbiSpec(
        throughput_bps=throughput,
        ber_curve=BERThresholdCurve.single(args.es_n0_db, ber),
        feature_um=args.feature_um,
        seed=getattr(args, "seed", DEFAULT_SEED),
        power=power,
    )


def _spec_from_args(args: Any, power: Optional[PowerConfig]) -> ViterbiSpec:
    if args.ber is None or args.throughput is None:
        raise ConfigurationError("viterbi specs need --ber and --throughput")
    return _cli_spec(args, power, args.ber, args.throughput)


def _sweep_from_args(
    args: Any, power: Optional[PowerConfig]
) -> Tuple[List[ViterbiSpec], List[str]]:
    if not args.specs:
        raise ConfigurationError("viterbi sweeps need --specs BER:THROUGHPUT ...")
    specs, labels = [], []
    for token in args.specs:
        ber_s, sep, throughput_s = token.partition(":")
        if not sep:
            raise ConfigurationError(f"spec {token!r} is not BER:THROUGHPUT")
        ber, throughput = float(ber_s), float(throughput_s)
        specs.append(_cli_spec(args, power, ber, throughput))
        labels.append(f"{ber:g}@{throughput / 1e6:g}Mbps")
    return specs, labels


def point_from_args(args: Any) -> Point:
    """The (normalized) design point of the ``--k/--l-mult/...`` flags."""
    return normalize_viterbi_point(
        {
            "K": args.k,
            "L_mult": args.l_mult,
            "G": "standard",
            "R1": args.r1,
            "R2": args.r2,
            "Q": args.q,
            "N": args.n,
            "M": args.m,
        }
    )


VITERBI_DEFINITION = register_metacore(
    MetaCoreDefinition(
        kind="viterbi",
        spec_type=ViterbiSpec,
        encode=_encode_spec,
        decode=_decode_spec,
        design_space=viterbi_design_space,
        evaluator=ViterbiMetacoreEvaluator,
        build=lambda spec, point: build_decoder(point),
        normalizer=normalize_viterbi_point,
        features=_spec_features,
        # The paper fixes G and N "to speedup the search process".
        default_fixed={"G": "standard", "N": 1},
        spec_from_args=_spec_from_args,
        sweep_from_args=_sweep_from_args,
        point_from_args=point_from_args,
        describe=describe_point,
    )
)


class ViterbiMetaCore(MetaCore):
    """Facade: specification in, optimized decoder instance out."""
