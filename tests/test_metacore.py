"""Tests of the MetaCore definition registry and the generic facade."""

from __future__ import annotations

import dataclasses
import math
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import BERThresholdCurve
from repro.core.metacore import (
    MetaCore,
    MetaCoreDefinition,
    definition_for_spec,
    metacore_definition,
    metacore_kinds,
    register_metacore,
)
from repro.errors import ConfigurationError
from repro.iir import IIRMetaCore, IIRSpec
from repro.iir.design import LowpassSpec
from repro.resilience import RoundBudgetExceeded
from repro.serve import (
    ServeHandle,
    ServiceConfig,
    fingerprint_for_payload,
    spec_from_payload,
    spec_to_payload,
)
from repro.viterbi import ViterbiMetaCore, ViterbiSpec

SRC = Path(__file__).resolve().parents[1] / "src"

VITERBI_PAYLOAD = {
    "kind": "viterbi",
    "throughput_bps": 1e6,
    "ber_curve": [[2.0, 1e-2]],
}
IIR_PAYLOAD = {
    "kind": "iir",
    "sample_period_us": 1.0,
    "filter": {
        "type": "lowpass",
        "passband_edge": 0.2,
        "stopband_edge": 0.3,
        "passband_ripple": 0.05,
        "stopband_ripple": 0.01,
    },
}


def _without(payload, key):
    return {k: v for k, v in payload.items() if k != key}


def _with_filter(**fields):
    return {**IIR_PAYLOAD, "filter": {**IIR_PAYLOAD["filter"], **fields}}


MALFORMED = {
    "viterbi-no-throughput": _without(VITERBI_PAYLOAD, "throughput_bps"),
    "viterbi-short-pair": {**VITERBI_PAYLOAD, "ber_curve": [[2.0]]},
    "viterbi-non-numeric": {**VITERBI_PAYLOAD, "throughput_bps": "fast"},
    "viterbi-null-seed": {**VITERBI_PAYLOAD, "seed": None},
    "viterbi-nan-throughput": {**VITERBI_PAYLOAD, "throughput_bps": math.nan},
    "iir-no-period": _without(IIR_PAYLOAD, "sample_period_us"),
    "iir-no-filter-field": _with_filter(stopband_edge=None),
    "iir-missing-edge": {
        **IIR_PAYLOAD,
        "filter": _without(IIR_PAYLOAD["filter"], "passband_edge"),
    },
    "iir-non-numeric": {**IIR_PAYLOAD, "sample_period_us": "slow"},
    "iir-inf-period": {**IIR_PAYLOAD, "sample_period_us": math.inf},
    "unknown-kind": {**VITERBI_PAYLOAD, "kind": "fir"},
    "unhashable-kind": {**VITERBI_PAYLOAD, "kind": ["viterbi"]},
}


class TestRegistry:
    def test_builtin_kinds(self):
        assert metacore_kinds()[:2] == ("viterbi", "iir")
        assert metacore_definition("viterbi").spec_type is ViterbiSpec
        assert metacore_definition("iir").spec_type is IIRSpec

    def test_spec_lookup(self):
        assert definition_for_spec(IIRSpec.paper(1.0)).kind == "iir"
        with pytest.raises(ConfigurationError):
            definition_for_spec(object())

    @pytest.mark.parametrize("payload", [VITERBI_PAYLOAD, IIR_PAYLOAD])
    def test_round_trip(self, payload):
        spec = spec_from_payload(payload)
        again = spec_from_payload(spec_to_payload(spec))
        assert again == spec

    @pytest.mark.parametrize("label", sorted(MALFORMED))
    def test_malformed_payload_is_configuration_error(self, label):
        payload = MALFORMED[label]
        with pytest.raises(ConfigurationError):
            spec_from_payload(payload)
        with pytest.raises(ConfigurationError):
            fingerprint_for_payload(payload)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ViterbiSpec(math.nan, BERThresholdCurve.single(2.0, 1e-2)),
            lambda: ViterbiSpec(math.inf, BERThresholdCurve.single(2.0, 1e-2)),
            lambda: IIRSpec(LowpassSpec(0.2, 0.3, 0.05, 0.01), math.nan),
            lambda: IIRSpec(LowpassSpec(0.2, 0.3, 0.05, 0.01), -math.inf),
        ],
    )
    def test_specs_reject_non_finite_rates(self, build):
        with pytest.raises(ConfigurationError):
            build()


class TestBindings:
    """The thin bindings keep their constructor fields and defaults."""

    COMMON = {
        "fixed": {},
        "config": None,
        "workers": 1,
        "cache_path": None,
        "checkpoint_path": None,
        "resume": False,
        "max_rounds": None,
        "resilient": False,
        "atlas_path": None,
    }

    @staticmethod
    def _defaults(facade) -> dict:
        instance = facade(spec=None)
        return {
            f.name: getattr(instance, f.name)
            for f in dataclasses.fields(facade)
            if f.name != "spec"
        }

    def test_viterbi_fields(self):
        assert self._defaults(ViterbiMetaCore) == self.COMMON

    def test_iir_fields(self):
        assert self._defaults(IIRMetaCore) == self.COMMON

    def test_generic_facade_resolves_definition(self):
        spec = IIRSpec.paper(1.0)
        assert MetaCore(spec).definition.kind == "iir"
        assert MetaCore(spec).design_space().names == (
            IIRMetaCore(spec).design_space().names
        )


@dataclasses.dataclass
class _ToySpec:
    offset: float

    def goal(self):
        from repro.core import DesignGoal, Objective

        return DesignGoal(objectives=[Objective("cost")])


class _ToyEvaluator:
    max_fidelity = 0

    def __init__(self, spec: _ToySpec) -> None:
        self.spec = spec

    def fingerprint(self) -> str:
        return f"toy:{self.spec.offset!r}"

    def evaluate(self, point, fidelity):
        return {"cost": (float(point["x"]) - self.spec.offset) ** 2}


class _PoisonedToyEvaluator(_ToyEvaluator):
    """Raises on one point, the way a crashing simulation would."""

    def evaluate(self, point, fidelity):
        if point["x"] == 6:
            raise RuntimeError("simulator crashed on x=6")
        return super().evaluate(point, fidelity)


def _toy_space(fixed=None):
    from repro.core import Correlation, DesignSpace, DiscreteParameter

    return DesignSpace(
        [DiscreteParameter("x", tuple(range(8)), Correlation.MONOTONIC)]
    ).pinned(fixed)


TOY = MetaCoreDefinition(
    kind="toy",
    spec_type=_ToySpec,
    encode=dataclasses.asdict,
    decode=lambda payload: _ToySpec(float(payload["offset"])),
    design_space=_toy_space,
    evaluator=_ToyEvaluator,
    build=lambda spec, point: int(point["x"]),
)


class TestCustomDefinition:
    """A registered definition is searched and served with no other code."""

    @pytest.fixture(autouse=True)
    def registered(self):
        from repro.core import metacore

        register_metacore(TOY)
        yield
        metacore._REGISTRY.pop("toy", None)

    def test_search_and_build(self):
        facade = MetaCore(_ToySpec(5.0))
        result = facade.search()
        assert result.best_point == {"x": 5}
        assert facade.build(result.best_point) == 5

    def test_resilient_search_quarantines_without_a_checkpoint(self):
        register_metacore(
            dataclasses.replace(TOY, evaluator=_PoisonedToyEvaluator)
        )
        with pytest.raises(RuntimeError, match="x=6"):
            MetaCore(_ToySpec(5.0)).search()
        facade = MetaCore(_ToySpec(5.0), resilient=True)
        assert facade.search().best_point == {"x": 5}
        session = facade.search_session()
        assert session.result.best_point == {"x": 5}
        (quarantined,) = session.quarantined
        assert "x=6" in quarantined
        assert session.n_retries == 2
        assert "session:" not in session.summary()
        assert "quarantined points (1):" in session.summary()

    def test_quarantined_points_are_not_persisted(self, tmp_path):
        """A quarantined point's failure answer stays in its run: the
        next healthy run on the same cache and atlas selects as a cold
        run does."""
        from repro.atlas import DesignAtlas
        from repro.core.evaluation import FAILED_METRIC

        stores = dict(
            cache_path=str(tmp_path / "cache.jsonl"),
            atlas_path=str(tmp_path / "atlas.jsonl"),
        )
        cold = MetaCore(_ToySpec(6.0)).search()
        assert cold.best_point == {"x": 6}
        register_metacore(
            dataclasses.replace(TOY, evaluator=_PoisonedToyEvaluator)
        )
        poisoned = MetaCore(_ToySpec(6.0), resilient=True, **stores)
        session = poisoned.search_session()
        assert session.quarantined and session.result.best_point != {"x": 6}
        register_metacore(TOY)
        atlas = DesignAtlas(stores["atlas_path"])
        (fingerprint,) = atlas.fingerprints()
        assert not [
            record
            for record in atlas.replay(fingerprint)
            if FAILED_METRIC in record.metrics
        ]
        healthy = MetaCore(_ToySpec(6.0), **stores).search()
        assert healthy.best_point == cold.best_point
        assert healthy.best_metrics == cold.best_metrics

    def test_checkpoint_resilient_and_workers_compose(self, tmp_path):
        register_metacore(
            dataclasses.replace(TOY, evaluator=_PoisonedToyEvaluator)
        )
        checkpoint = str(tmp_path / "run.ckpt")
        layers = dict(resilient=True, workers=2, checkpoint_path=checkpoint)
        reference = MetaCore(_ToySpec(5.0), resilient=True).search()
        with pytest.raises(RoundBudgetExceeded):
            MetaCore(_ToySpec(5.0), max_rounds=1, **layers).search()
        session = MetaCore(
            _ToySpec(5.0), resume=True, **layers
        ).search_session()
        assert session.restored_rounds == 1
        assert session.rounds_completed > 1
        assert session.result.best_point == reference.best_point
        assert session.result.best_metrics == reference.best_metrics

    def test_served_eval_and_search(self):
        payload = spec_to_payload(_ToySpec(3.0))
        assert payload == {"kind": "toy", "offset": 3.0}
        with ServeHandle(ServiceConfig()) as handle:
            with handle.client() as client:
                assert client.eval({"x": 1}, spec=payload) == {"cost": 4.0}
                result = client.search(spec=payload)
        assert result["best_point"] == {"x": 3}


def test_iir_only_serving_imports_no_viterbi_module():
    """Serving IIR specs must not pull in the Viterbi package."""
    script = (
        "import sys\n"
        "import repro.serve, repro.cluster\n"
        "from repro.iir.metacore import IIRSpec\n"
        "from repro.serve import ServiceConfig, ServeHandle, spec_to_payload\n"
        "from repro.atlas import spec_features\n"
        "payload = spec_to_payload(IIRSpec.paper(1.0))\n"
        "repro.serve.fingerprint_for_payload(payload)\n"
        "spec_features(IIRSpec.paper(1.0))\n"
        "with ServeHandle(ServiceConfig()) as handle:\n"
        "    handle.service.session_for_spec(payload)\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('repro.viterbi'))\n"
        "print(loaded)\n"
        "sys.exit(1 if loaded else 0)\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env={"PYTHONPATH": str(SRC), "PATH": ""},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
