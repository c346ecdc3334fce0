"""The MetaCore bundle: one definition per core, one facade for all.

In the paper a MetaCore is one bundle (Sec. 1): a parameterized
algorithm with its design space, objectives and constraints, a
cost-evaluation engine, and the multiresolution search that drives it.
A :class:`MetaCoreDefinition` records the part that differs from core
to core — spec type, wire codec, atlas features, design space, point
normalizer, evaluator factory, builder, CLI wiring — and
:class:`MetaCore` is the one facade that runs any registered
definition: search, checkpointed and resilient searches, serving, atlas
recommendation, portfolio sweeps.  Serving, the atlas and the CLI look
definitions up here, by kind or by spec type, instead of branching per
core; adding a core means writing one definition and passing it to
:func:`register_metacore`.

The built-in definitions load lazily: looking up ``"iir"`` imports
:mod:`repro.iir.metacore` alone, so a process that serves only IIR
specs never imports the Viterbi package.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.evalcache import PersistentEvalCache, evaluator_fingerprint
from repro.core.parallel import evaluator_stack
from repro.core.parameters import DesignSpace, Point
from repro.core.search import MetacoreSearch, SearchConfig, SearchResult
from repro.errors import ConfigurationError

#: Modules that register the built-in definitions when imported.
_BUILTIN_MODULES: Dict[str, str] = {
    "viterbi": "repro.viterbi.metacore",
    "iir": "repro.iir.metacore",
}

_REGISTRY: Dict[str, "MetaCoreDefinition"] = {}


@dataclass(frozen=True)
class MetaCoreDefinition:
    """Everything one MetaCore family contributes; the rest is generic.

    ``encode``/``decode`` map a spec to its wire-payload fields and back
    (the ``"kind"`` key is added and dispatched on by
    :func:`repro.serve.spec_to_payload` / ``spec_from_payload``);
    ``design_space`` takes the pinned ``fixed`` parameters;
    ``evaluator`` builds the cost-evaluation engine for a spec;
    ``build(spec, point)`` constructs the implementation a design point
    describes.
    """

    kind: str
    spec_type: type
    encode: Callable[[Any], Dict[str, Any]]
    decode: Callable[[Dict[str, Any]], Any]
    design_space: Callable[[Optional[Dict[str, object]]], DesignSpace]
    evaluator: Callable[[Any], Any]
    build: Callable[[Any, Point], Any]
    #: Canonicalizes generated grid points (None = use them as is).
    normalizer: Optional[Callable[[Point], Point]] = None
    #: Atlas similarity features of a spec (None = exact-fingerprint
    #: warm starts only).
    features: Optional[Callable[[Any], Dict[str, float]]] = None
    #: Pinned parameters the CLI and served searches use by default.
    default_fixed: Mapping[str, object] = field(default_factory=dict)
    #: CLI wiring of ``--metacore KIND``: the spec the flags describe
    #: (``(args, power) -> spec``), a ``sweep`` portfolio
    #: (``(args, power) -> (specs, labels)``), and a ``client eval``
    #: design point (``args -> point``).
    spec_from_args: Optional[Callable[[Any, Any], Any]] = None
    sweep_from_args: Optional[
        Callable[[Any, Any], Tuple[List[Any], List[str]]]
    ] = None
    point_from_args: Optional[Callable[[Any], Point]] = None
    #: One-line report of a design point (None = the point dict).
    describe: Optional[Callable[[Point], str]] = None


def register_metacore(definition: MetaCoreDefinition) -> MetaCoreDefinition:
    """Make a definition available to serving, the atlas and the facade."""
    _REGISTRY[definition.kind] = definition
    return definition


def metacore_definition(kind: object) -> MetaCoreDefinition:
    """The definition registered under ``kind`` (loading a built-in)."""
    if not isinstance(kind, str):
        raise ConfigurationError(f"unknown spec kind {kind!r}")
    if kind not in _REGISTRY and kind in _BUILTIN_MODULES:
        importlib.import_module(_BUILTIN_MODULES[kind])
    try:
        return _REGISTRY[kind]
    except KeyError:
        raise ConfigurationError(f"unknown spec kind {kind!r}") from None


def definition_for_spec(spec: object) -> MetaCoreDefinition:
    """The registered definition whose spec type ``spec`` is."""
    for definition in tuple(_REGISTRY.values()):
        if isinstance(spec, definition.spec_type):
            return definition
    raise ConfigurationError(
        f"no MetaCore definition for specification of type "
        f"{type(spec).__name__}"
    )


def metacore_kinds() -> Tuple[str, ...]:
    """Kinds of the built-in and registered definitions."""
    return tuple(dict.fromkeys([*_BUILTIN_MODULES, *_REGISTRY]))


@dataclass
class MetaCore:
    """Facade: specification in, optimized implementation out.

    Runs whichever registered definition :attr:`spec` belongs to.
    """

    spec: Any
    fixed: Dict[str, object] = field(default_factory=dict)
    config: Optional[SearchConfig] = None
    #: Worker processes for grid evaluation (1 = serial in-process).
    workers: int = 1
    #: Path of the persistent cross-run evaluation cache (None = cold).
    cache_path: Optional[str] = None
    #: Crash-tolerant session checkpoint (see :mod:`repro.resilience`).
    checkpoint_path: Optional[str] = None
    #: Resume from an existing checkpoint instead of starting cold.
    resume: bool = False
    #: Abort (checkpoint intact) after this many computed rounds.
    max_rounds: Optional[int] = None
    #: Wrap the evaluator in the retry/quarantine shim.
    resilient: bool = False
    #: Path of the persistent design atlas (None = no library): searches
    #: warm-start from it and ingest their logs back into it.
    atlas_path: Optional[str] = None

    @property
    def definition(self) -> MetaCoreDefinition:
        """The registered definition :attr:`spec` belongs to."""
        return definition_for_spec(self.spec)

    def _engine(self):
        """A fresh cost-evaluation engine for :attr:`spec`."""
        return self.definition.evaluator(self.spec)

    def design_space(self) -> DesignSpace:
        """The definition's space with this MetaCore's fixed parameters."""
        return self.definition.design_space(self.fixed)

    def _search_with(self, evaluator, engine, atlas=None, store=None):
        """Run one search on ``evaluator``; every search is built here.

        ``engine`` is the base engine under ``evaluator``: its
        fingerprint keys the atlas scenario.  With an open ``atlas`` the
        search warm-starts from it and its log is ingested back into
        it; ``store`` is the persistent cross-run cache.  The facade's
        entry points and the service's searches all run through here.
        """
        # Imported lazily: repro.atlas looks definitions up here.
        from repro.atlas import ingest_result, seeder_for

        goal = self.spec.goal()
        seeder = None
        if atlas is not None:
            seeder = seeder_for(
                atlas, engine, self.definition.kind, self.spec, goal
            )
        result = MetacoreSearch(
            self.design_space(),
            goal,
            evaluator,
            config=self.config,
            normalizer=self.definition.normalizer,
            store=store,
            atlas=seeder,
        ).run()
        if seeder is not None:
            ingest_result(
                atlas, seeder, result.log.records, engine.max_fidelity
            )
        return result

    def _recommend_with(self, atlas, fingerprint, constraints, search):
        """Answer ``constraints`` from ``atlas``; call ``search()`` on a miss.

        ``fingerprint`` is the base engine's; ``search`` runs
        :meth:`_search_with` on the same open atlas.
        """
        from repro.atlas import recommend

        goal = self.spec.goal()
        return recommend(atlas, fingerprint, goal, constraints, search)

    def _run(self, atlas=None):
        """Run one search through the facade's evaluator chain.

        Builds the engine, the evaluator chain (pool, retry/quarantine
        shim, checkpoint) and the persistent store, opens the atlas at
        :attr:`atlas_path` unless an open one is passed, runs
        :meth:`_search_with`, and closes what it opened.  Returns
        ``(result, checkpointer, shim)``, the last two None when absent.
        """
        engine = self._engine()
        if atlas is None and self.atlas_path:
            from repro.atlas import DesignAtlas

            atlas = DesignAtlas(self.atlas_path)
        # No worker starts before the first batch, inside the try below.
        stack = evaluator_stack(
            engine, workers=self.workers, resilient=self.resilient
        )
        store: Optional[PersistentEvalCache] = None
        try:
            evaluator = stack.evaluator
            checkpointer = None
            if self.checkpoint_path:
                # Imported lazily: repro.resilience depends on the drivers.
                from repro.resilience.session import CheckpointingEvaluator

                evaluator = checkpointer = CheckpointingEvaluator(
                    evaluator,
                    self.checkpoint_path,
                    resume=self.resume,
                    max_rounds=self.max_rounds,
                )
            if self.cache_path:
                store = PersistentEvalCache(self.cache_path)
            result = self._search_with(evaluator, engine, atlas, store)
            return result, checkpointer, stack.shim
        finally:
            stack.close()
            if store is not None:
                store.close()

    def search(self) -> SearchResult:
        """Run the multiresolution search for this specification."""
        return self._run()[0]

    def search_session(self):
        """Run the search and report its crash-tolerance accounting.

        Returns a :class:`~repro.resilience.session.SessionResult`:
        rounds restored and computed when :attr:`checkpoint_path` is
        set, retries and quarantined points when :attr:`resilient` is.
        """
        from repro.resilience.session import SessionResult

        return SessionResult.of(*self._run())

    def serve(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: Optional[str] = None,
        config: Optional[object] = None,
        replicas: int = 1,
    ):
        """Serve this MetaCore's evaluation engine to concurrent clients.

        Starts the asyncio evaluation service (socket server on a
        background thread) with this facade's ``workers`` /
        ``cache_path`` / ``resilient`` settings and a session already
        registered for this specification (its worker pool starts on
        the first batch); returns a started
        :class:`~repro.serve.server.ServeHandle` (context manager).
        Results are bit-identical to one-shot evaluation — see
        ``docs/serving.md``.

        With ``replicas > 1`` this becomes cluster mode: N replica
        services plus a fingerprint-sharded router front door, returned
        as a started :class:`~repro.cluster.handle.ClusterHandle` with
        the same ``client()``/``stop()`` surface.  Replicas share the
        design atlas; results stay bit-identical — see
        ``docs/cluster.md``.
        """
        # Imported lazily: repro.serve depends on this module.
        from repro.serve import ServeHandle, ServiceConfig, spec_to_payload

        if config is None:
            config = ServiceConfig(
                workers=self.workers,
                cache_path=self.cache_path,
                resilient=self.resilient,
                atlas_path=self.atlas_path,
            )
        if replicas > 1:
            from repro.cluster import ClusterHandle

            cluster = ClusterHandle(
                config, replicas=replicas, host=host, port=port
            )
            cluster.start()
            cluster.register_spec(self.spec)
            return cluster
        handle = ServeHandle(
            config, host=host, port=port, unix_path=unix_path
        )
        handle.start()
        handle.service.session_for_spec(spec_to_payload(self.spec))
        return handle

    def recommend(self, constraints: Optional[Dict[str, float]] = None):
        """Answer a constraint query from the design atlas.

        ``constraints`` are extra per-query upper bounds on metrics
        (e.g. ``{"area_mm2": 40.0}``) tightening the specification's
        goal.  A stored frontier design covering the query is returned
        with **zero evaluations**; a library miss falls back to a
        (warm-started) :meth:`search`, whose log is ingested so the
        next nearby query hits.  Requires :attr:`atlas_path`; returns a
        :class:`~repro.atlas.recommend.Recommendation`.
        """
        if not self.atlas_path:
            raise ConfigurationError("recommend requires atlas_path")
        from repro.atlas import DesignAtlas

        atlas = DesignAtlas(self.atlas_path)
        return self._recommend_with(
            atlas,
            evaluator_fingerprint(self._engine()),
            constraints,
            lambda: self._run(atlas)[0],
        )

    def sweep(
        self,
        specs: Sequence[object],
        labels: Optional[Sequence[str]] = None,
    ):
        """Search a portfolio of specifications into one atlas.

        Each spec runs through a copy of this facade (same fixed
        parameters, config, workers, cache, atlas); returns a
        :class:`~repro.atlas.sweep.SweepOutcome`.
        """
        from repro.atlas import run_sweep

        metacores = [replace(self, spec=spec) for spec in specs]
        return run_sweep(metacores, labels=labels)

    def build(self, point: Point):
        """Construct the implementation a design point describes."""
        return self.definition.build(self.spec, point)
