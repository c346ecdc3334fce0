"""The IIR MetaCore — the paper's validation example (Sec. 4.5, 5.3).

Design space: realization structure, filter family (which sets the
order / number of stages for the spec), coefficient word length, and
the ripple allocation — how much of the specified ripple budget the
nominal design consumes, leaving the rest as quantization margin.

The cost-evaluation engine designs the filter, realizes it in the
chosen structure, quantizes the coefficients, measures the quantized
response against the full specification (SPW's role in the paper), and
prices the implementation with the HYPER-style synthesis estimator.

:data:`IIR_DEFINITION` registers the bundle under the kind ``"iir"``;
:class:`IIRMetaCore` binds the generic
:class:`~repro.core.metacore.MetaCore` facade to it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.metacore import MetaCore, MetaCoreDefinition, register_metacore
from repro.core.objectives import Constraint, DesignGoal, Objective
from repro.core.parameters import (
    ContinuousParameter,
    Correlation,
    DesignSpace,
    DiscreteParameter,
    Point,
)
from repro.errors import ConfigurationError, FilterDesignError, SynthesisError
from repro.hardware.synthesis import SynthesisEstimate, estimate_iir_implementation
from repro.iir.design import (
    BandpassSpec,
    FilterSpec,
    LowpassSpec,
    design_filter,
    paper_bandpass_spec,
)
from repro.iir.fixedpoint import check_quantized
from repro.iir.structures.base import Realization, available_structures, realize
from repro.observability.metrics import get_registry
from repro.power import PowerConfig, PowerModel

#: Frequency-grid density per evaluation fidelity (the paper's "longer
#: run times" on finer search grids).
FIDELITY_GRID_POINTS: Tuple[int, ...] = (128, 256, 512)

#: Word lengths the design space exposes.
WORD_LENGTHS: Tuple[int, ...] = tuple(range(6, 25))

FAMILIES: Tuple[str, ...] = (
    "elliptic",
    "chebyshev1",
    "chebyshev2",
    "butterworth",
)


def iir_design_space(fixed: Optional[Dict[str, object]] = None) -> DesignSpace:
    """Structure x family x word length x ripple allocation."""
    return DesignSpace(
        [
            DiscreteParameter(
                "structure",
                tuple(available_structures()),
                Correlation.NONE,
                "realization topology",
            ),
            DiscreteParameter(
                "family",
                FAMILIES,
                Correlation.NONE,
                "approximation family (sets order/stages)",
            ),
            DiscreteParameter(
                "word_length",
                WORD_LENGTHS,
                Correlation.MONOTONIC,
                "coefficient word length (bits)",
            ),
            ContinuousParameter(
                "ripple_allocation",
                0.3,
                0.9,
                Correlation.QUADRATIC,
                "fraction of the ripple budget spent by the nominal design",
            ),
        ]
    ).pinned(fixed)


@dataclass
class IIRSpec:
    """A user specification: filter spec plus sample period."""

    filter_spec: FilterSpec
    sample_period_us: float
    feature_um: float = 1.2
    #: Opt-in power pricing (see :mod:`repro.power`); None keeps the
    #: classic cost engine and its fingerprints untouched.
    power: Optional[PowerConfig] = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.sample_period_us) or self.sample_period_us <= 0:
            raise ConfigurationError("sample period must be positive and finite")

    @classmethod
    def paper(
        cls,
        sample_period_us: float,
        power: Optional[PowerConfig] = None,
    ) -> "IIRSpec":
        """The Sec. 5.3 band-pass spec at a Table-4 sample period."""
        return cls(
            filter_spec=paper_bandpass_spec(),
            sample_period_us=sample_period_us,
            power=power,
        )

    def goal(self) -> DesignGoal:
        """Minimize area subject to meeting the frequency-domain spec.

        With power pricing enabled, energy per output sample joins the
        objectives (unless configured constraint-only) and the
        configured energy/power caps become constraints.
        """
        objectives = [Objective("area_mm2")]
        constraints = [Constraint("spec_violation", upper=0.0)]
        if self.power is not None:
            if self.power.objective:
                objectives.append(Objective("energy_nj_per_sample"))
            if self.power.max_energy_nj is not None:
                constraints.append(
                    Constraint(
                        "energy_nj_per_sample",
                        upper=self.power.max_energy_nj,
                    )
                )
            if self.power.max_power_mw is not None:
                constraints.append(
                    Constraint("power_mw", upper=self.power.max_power_mw)
                )
        return DesignGoal(objectives=objectives, constraints=constraints)


def _margin_spec(spec: FilterSpec, allocation: float) -> FilterSpec:
    """The tighter spec the nominal design targets.

    Designing to ``allocation * ripple`` leaves ``1 - allocation`` of
    the budget for coefficient quantization.
    """
    if not 0.05 <= allocation <= 1.0:
        raise ConfigurationError("ripple allocation out of (0.05, 1]")
    return dataclasses.replace(
        spec,
        passband_ripple=allocation * spec.passband_ripple,
        stopband_ripple=allocation * spec.stopband_ripple,
    )


class IIRMetacoreEvaluator:
    """Cost-evaluation engine for the IIR MetaCore."""

    def __init__(self, spec: IIRSpec) -> None:
        self.spec = spec
        self.max_fidelity = len(FIDELITY_GRID_POINTS) - 1
        self._realizations: Dict[Tuple[str, str, float], Realization] = {}
        self._power_model: Optional[PowerModel] = (
            PowerModel.for_spec(spec.feature_um, spec.power)
            if spec.power is not None
            else None
        )
        #: DVFS delay stretch (1 / clock ratio); exactly 1.0 with power
        #: off or nominal Vdd, keeping non-energy metrics bit-identical.
        self._delay_scale: float = (
            1.0 / self._power_model.frequency_scale
            if self._power_model is not None
            else 1.0
        )

    def fingerprint(self) -> str:
        """Cross-run cache key over the spec and evaluation settings."""
        import repro

        # Enabled power configs get their own cache namespace; the
        # default power-off fingerprint stays byte-identical.
        power = (
            self.spec.power.fingerprint_fragment()
            if self.spec.power is not None
            else ""
        )
        return (
            f"iir:v{repro.__version__}"
            f":grids={FIDELITY_GRID_POINTS}"
            f":period={self.spec.sample_period_us:.6g}"
            f":feature={self.spec.feature_um:.6g}"
            f":spec={self.spec.filter_spec!r}"
            f"{power}"
        )

    # ------------------------------------------------------------------

    def _realization(
        self, structure: str, family: str, allocation: float
    ) -> Realization:
        """Design + realize, cached (designs are deterministic)."""
        key = (structure, family, round(allocation, 4))
        if key not in self._realizations:
            margin = _margin_spec(self.spec.filter_spec, allocation)
            tf = design_filter(margin, family).to_tf()
            self._realizations[key] = realize(structure, tf)
        return self._realizations[key]

    def evaluate(self, point: Point, fidelity: int) -> Dict[str, float]:
        """Design, realize, quantize, measure, and synthesize one candidate."""
        if not 0 <= fidelity <= self.max_fidelity:
            raise ConfigurationError(f"fidelity {fidelity} out of range")
        grid_points = FIDELITY_GRID_POINTS[fidelity]
        structure = str(point["structure"])
        family = str(point["family"])
        word_length = int(point["word_length"])
        allocation = float(point["ripple_allocation"])
        if self._power_model is not None:
            registry = get_registry()
            registry.counter("power.priced").inc()
            registry.counter(f"power.priced.f{fidelity}").inc()
        dead = {
            "area_mm2": math.inf,
            "spec_violation": math.inf,
            "throughput_samples_per_s": 0.0,
        }
        if self._power_model is not None:
            dead["energy_nj_per_sample"] = math.inf
            dead["power_mw"] = math.inf
        try:
            realization = self._realization(structure, family, allocation)
        except FilterDesignError:
            return dead
        report = check_quantized(
            realization, self.spec.filter_spec, word_length, grid_points
        )
        violation = report.violation(self.spec.filter_spec)
        stats = realization.dataflow()
        try:
            estimate: SynthesisEstimate = estimate_iir_implementation(
                stats,
                word_length,
                self.spec.sample_period_us,
                feature_um=self.spec.feature_um,
                delay_scale=self._delay_scale,
            )
        except SynthesisError:
            return dead
        metrics = {
            "area_mm2": estimate.area_mm2,
            "spec_violation": violation,
            "passband_ripple": report.passband_ripple,
            "stopband_level": report.stopband_level,
            "n_multipliers": float(estimate.n_multipliers),
            "n_adders": float(estimate.n_adders),
            "n_registers": float(estimate.n_registers),
            "clock_ns": estimate.clock_ns,
            "throughput_samples_per_s": estimate.throughput_samples_per_s,
            "latency_us": estimate.latency_us,
        }
        if self._power_model is not None:
            power = self._power_model.iir_report(
                stats, word_length, estimate
            )
            metrics["energy_nj_per_sample"] = power.energy_nj
            metrics["power_mw"] = power.power_mw
        return metrics


# ---------------------------------------------------------------------------
# Definition + facade binding
# ---------------------------------------------------------------------------


#: Filter spec types by their wire ``"type"`` tag.
_FILTER_TYPES = {"lowpass": LowpassSpec, "bandpass": BandpassSpec}


def _encode_spec(spec: IIRSpec) -> Dict[str, Any]:
    filter_spec = spec.filter_spec
    for filter_type, cls in _FILTER_TYPES.items():
        if isinstance(filter_spec, cls):
            break
    else:
        raise ConfigurationError(
            f"unsupported filter spec {type(filter_spec).__name__}"
        )
    payload: Dict[str, Any] = {
        "sample_period_us": spec.sample_period_us,
        "feature_um": spec.feature_um,
        "filter": {"type": filter_type, **dataclasses.asdict(filter_spec)},
    }
    if spec.power is not None:
        payload["power"] = spec.power.to_payload()
    return payload


def _decode_spec(payload: Dict[str, Any]) -> IIRSpec:
    filter_payload = payload.get("filter")
    if not isinstance(filter_payload, dict):
        raise ConfigurationError("iir spec needs a filter object")
    filter_type = filter_payload.get("type")
    cls = _FILTER_TYPES.get(filter_type)
    if cls is None:
        raise ConfigurationError(f"unknown filter spec type {filter_type!r}")
    return IIRSpec(
        filter_spec=cls(
            *(float(filter_payload[f.name]) for f in dataclasses.fields(cls))
        ),
        sample_period_us=float(payload["sample_period_us"]),
        feature_um=float(payload.get("feature_um", 1.2)),
        power=PowerConfig.from_payload(payload.get("power")),
    )


def _spec_features(spec: IIRSpec) -> Dict[str, float]:
    """Sample period and filter edges; the period and ripples in log10."""
    filter_spec = spec.filter_spec
    if not isinstance(filter_spec, tuple(_FILTER_TYPES.values())):
        raise TypeError(
            f"no feature extractor for filter spec {type(filter_spec).__name__}"
        )
    features = {
        "log10_period_us": math.log10(spec.sample_period_us),
        "feature_um": float(spec.feature_um),
    }
    for name, value in dataclasses.asdict(filter_spec).items():
        if name.endswith("_ripple"):
            features[f"log10_{name}"] = math.log10(value)
        else:
            features[name] = value
    return features


def _spec_from_args(args: Any, power: Optional[PowerConfig]) -> IIRSpec:
    if args.period_us is None:
        raise ConfigurationError("iir specs need --period-us")
    return IIRSpec.paper(args.period_us, power=power)


def _sweep_from_args(
    args: Any, power: Optional[PowerConfig]
) -> Tuple[List[IIRSpec], List[str]]:
    if not args.periods:
        raise ConfigurationError("iir sweeps need --periods ...")
    specs = [IIRSpec.paper(period, power=power) for period in args.periods]
    return specs, [f"{period:g} us" for period in args.periods]


def _point_from_args(args: Any) -> Point:
    return {
        "structure": args.structure,
        "family": args.family,
        "word_length": args.word,
        "ripple_allocation": args.allocation,
    }


def build_realization(spec: IIRSpec, point: Point) -> Realization:
    """The quantized realization a design point describes."""
    realization = IIRMetacoreEvaluator(spec)._realization(
        str(point["structure"]),
        str(point["family"]),
        float(point["ripple_allocation"]),
    )
    return realization.quantized(int(point["word_length"]))


IIR_DEFINITION = register_metacore(
    MetaCoreDefinition(
        kind="iir",
        spec_type=IIRSpec,
        encode=_encode_spec,
        decode=_decode_spec,
        design_space=iir_design_space,
        evaluator=IIRMetacoreEvaluator,
        build=build_realization,
        features=_spec_features,
        spec_from_args=_spec_from_args,
        sweep_from_args=_sweep_from_args,
        point_from_args=_point_from_args,
    )
)


class IIRMetaCore(MetaCore):
    """Facade: specification in, optimized realization out."""
