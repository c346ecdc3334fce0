"""Design-space parameterization (paper Sec. 4.1 and 4.4).

A MetaCore's optimization degrees of freedom form a multi-dimensional
design space.  The paper classifies parameters as (i) discrete or
continuous and (ii) correlated or non-correlated, further tagging
correlated parameters with their structure (monotonic, linear,
quadratic, probabilistic).  The search exploits this classification:
smooth correlated metrics may be interpolated between grid points,
probabilistic ones go through the Bayesian predictor, and
non-correlated parameters are enumerated rather than refined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError, DesignSpaceError

ParameterValue = Union[int, float, str]
Point = Dict[str, ParameterValue]


class Correlation(Enum):
    """How a parameter relates to the design metrics (Sec. 4.4)."""

    NONE = "non-correlated"
    MONOTONIC = "monotonic"
    LINEAR = "linear"
    QUADRATIC = "quadratic"
    PROBABILISTIC = "probabilistic"

    @property
    def is_correlated(self) -> bool:
        return self is not Correlation.NONE


@dataclass(frozen=True)
class DiscreteParameter:
    """An ordered finite set of values (e.g. K in {3,...,9}).

    Categorical parameters (e.g. the quantization method Q) are
    discrete parameters whose order carries no meaning; mark them
    ``Correlation.NONE`` so the search enumerates instead of refining.
    """

    name: str
    values: Tuple[ParameterValue, ...]
    correlation: Correlation = Correlation.MONOTONIC
    description: str = ""

    def __post_init__(self) -> None:
        if not self.values:
            raise DesignSpaceError(f"parameter {self.name}: no values")
        if len(set(self.values)) != len(self.values):
            raise DesignSpaceError(f"parameter {self.name}: duplicate values")

    @property
    def size(self) -> int:
        return len(self.values)

    @property
    def is_fixed(self) -> bool:
        return self.size == 1

    def index_of(self, value: ParameterValue) -> int:
        try:
            return self.values.index(value)
        except ValueError as exc:
            raise DesignSpaceError(
                f"parameter {self.name}: {value!r} not among {self.values}"
            ) from exc

    def sample_indices(self, lo: int, hi: int, count: int) -> List[int]:
        """Up to ``count`` evenly spaced indices within [lo, hi]."""
        if not 0 <= lo <= hi < self.size:
            raise DesignSpaceError(
                f"parameter {self.name}: bad index range [{lo}, {hi}]"
            )
        span = hi - lo
        count = min(count, span + 1)
        if count == 1:
            return [(lo + hi) // 2]
        return sorted({lo + round(i * span / (count - 1)) for i in range(count)})


@dataclass(frozen=True)
class ContinuousParameter:
    """A real interval (e.g. a ripple allocation).

    The search samples it at its grid resolution; refinement shrinks the
    interval around promising samples.
    """

    name: str
    lower: float
    upper: float
    correlation: Correlation = Correlation.MONOTONIC
    description: str = ""

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise DesignSpaceError(f"parameter {self.name}: non-finite bounds")
        if self.lower > self.upper:
            raise DesignSpaceError(f"parameter {self.name}: lower > upper")

    @property
    def is_fixed(self) -> bool:
        return self.lower == self.upper

    def sample(self, lo: float, hi: float, count: int) -> List[float]:
        """``count`` evenly spaced values within [lo, hi]."""
        lo = max(lo, self.lower)
        hi = min(hi, self.upper)
        if lo > hi:
            raise DesignSpaceError(f"parameter {self.name}: empty range")
        if count == 1 or lo == hi:
            return [(lo + hi) / 2.0]
        step = (hi - lo) / (count - 1)
        return [lo + i * step for i in range(count)]


Parameter = Union[DiscreteParameter, ContinuousParameter]


@dataclass
class DesignSpace:
    """The full solution space of a MetaCore (e.g. Table 2's 8 axes)."""

    parameters: List[Parameter] = field(default_factory=list)

    def __post_init__(self) -> None:
        names = [p.name for p in self.parameters]
        if len(set(names)) != len(names):
            raise DesignSpaceError("duplicate parameter names")

    @property
    def names(self) -> List[str]:
        return [p.name for p in self.parameters]

    @property
    def dimensions(self) -> int:
        return len(self.parameters)

    def __getitem__(self, name: str) -> Parameter:
        for parameter in self.parameters:
            if parameter.name == name:
                return parameter
        raise DesignSpaceError(f"no parameter named {name!r}")

    def __contains__(self, name: str) -> bool:
        return any(p.name == name for p in self.parameters)

    def pinned(
        self, fixed: Optional[Mapping[str, ParameterValue]] = None
    ) -> "DesignSpace":
        """This space with the ``fixed`` parameters pinned to one value.

        The paper pins G and N "to speedup the search process"; a pinned
        discrete value must be one of the parameter's values, a pinned
        continuous value a number.  An unknown name or a bad value
        raises :class:`ConfigurationError`.
        """
        fixed = dict(fixed or {})
        unknown = sorted(set(fixed) - set(self.names))
        if unknown:
            raise ConfigurationError(f"unknown fixed parameters: {unknown}")
        parameters: List[Parameter] = []
        for parameter in self.parameters:
            if parameter.name in fixed:
                value = fixed[parameter.name]
                try:
                    if isinstance(parameter, DiscreteParameter):
                        parameter.index_of(value)  # raises if absent
                        parameter = replace(parameter, values=(value,))
                    else:
                        value = float(value)
                        parameter = replace(parameter, lower=value, upper=value)
                except (DesignSpaceError, TypeError, ValueError) as exc:
                    raise ConfigurationError(
                        f"fixed parameter {parameter.name}: {exc}"
                    ) from None
            parameters.append(parameter)
        return DesignSpace(parameters)

    def validate_point(self, point: Mapping[str, ParameterValue]) -> Point:
        """Check a point names every parameter with an in-range value."""
        missing = set(self.names) - set(point)
        extra = set(point) - set(self.names)
        if missing or extra:
            raise DesignSpaceError(
                f"point keys mismatch (missing={sorted(missing)}, "
                f"extra={sorted(extra)})"
            )
        validated: Point = {}
        for parameter in self.parameters:
            value = point[parameter.name]
            if isinstance(parameter, DiscreteParameter):
                parameter.index_of(value)  # raises if absent
            else:
                value = float(value)
                if not parameter.lower <= value <= parameter.upper:
                    raise DesignSpaceError(
                        f"parameter {parameter.name}: {value} outside "
                        f"[{parameter.lower}, {parameter.upper}]"
                    )
            validated[parameter.name] = value
        return validated

    def size(self) -> float:
        """Number of distinct points (inf with continuous parameters).

        For the paper's Viterbi space this is the "roughly 10**8
        distinct points" that motivates multiresolution search.
        """
        total = 1.0
        for parameter in self.parameters:
            if isinstance(parameter, DiscreteParameter):
                total *= parameter.size
            elif not parameter.is_fixed:
                return math.inf
        return total

    def iter_points(self) -> Iterator[Point]:
        """Exhaustive enumeration (discrete parameters only)."""
        for parameter in self.parameters:
            if isinstance(parameter, ContinuousParameter) and not parameter.is_fixed:
                raise DesignSpaceError(
                    "cannot enumerate a space with free continuous parameters"
                )

        def recurse(index: int, partial: Point) -> Iterator[Point]:
            if index == len(self.parameters):
                yield dict(partial)
                return
            parameter = self.parameters[index]
            if isinstance(parameter, DiscreteParameter):
                values: Sequence[ParameterValue] = parameter.values
            else:
                values = [parameter.lower]
            for value in values:
                partial[parameter.name] = value
                yield from recurse(index + 1, partial)

        yield from recurse(0, {})

    def describe(self) -> str:
        """A Table-2 style listing of the space."""
        lines = [f"Design space: {self.dimensions} dimensions"]
        for parameter in self.parameters:
            if isinstance(parameter, DiscreteParameter):
                domain = "{" + ", ".join(str(v) for v in parameter.values) + "}"
            else:
                domain = f"[{parameter.lower}, {parameter.upper}]"
            tag = parameter.correlation.value
            fixed = " (fixed)" if parameter.is_fixed else ""
            desc = f" — {parameter.description}" if parameter.description else ""
            lines.append(f"  {parameter.name}: {domain} [{tag}]{fixed}{desc}")
        return "\n".join(lines)


def frozen_point(point: Mapping[str, ParameterValue]) -> Tuple[Tuple[str, ParameterValue], ...]:
    """A hashable form of a point, used as cache key."""
    return tuple(sorted(point.items()))
