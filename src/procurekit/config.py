"""YAML run configuration: model parameters, seeding, and scenario selection.

A config file is one YAML document with sections mirroring the model types:
``market``, ``suppliers``, ``demand``, plus ``seed``, ``replications``, and
an optional ``scenario`` section for a custom parameter study. The keys of
``market``, of each ``suppliers`` entry, of ``demand`` and of
``scenario.dynamic`` are the fields of their model type (``MarketEconomics``,
``SupplierProfile``, ``TruncatedNormal``, ``DynamicSpec``), read in
declaration order, so the dataclasses are the schema. Every section is
optional; omitted sections fall back to the shipped baseline. This module
checks only structure (YAML syntax, mappings and lists, unknown and missing
keys); each value goes as written to its model type, and each axis to
``scenarios._validate_axis``, which check it as they check Python input.
Validation errors carry the source file and the line of the nearest
enclosing mapping.
"""

from __future__ import annotations

import dataclasses
import functools
import re
from dataclasses import dataclass
from pathlib import Path

from .baseline import (
    BASELINE_DEMAND,
    BASELINE_MARKET,
    BASELINE_SUPPLIERS,
    DEFAULT_REPLICATIONS,
    DEFAULT_SEED,
)
from .demand import TruncatedNormal
from .economics import MarketEconomics, SupplierProfile
from .errors import ValidationError
from .scenarios import DynamicSpec, ScenarioSpec, _check_run, _validate_axis

_LINE_KEY = "__line__"


@functools.cache
def _tracked_loader() -> type:
    """A yaml SafeLoader that stamps each mapping with its 1-based source line.

    Built on first use, so that solving without a config file never imports
    yaml.
    """
    import yaml

    class TrackedLoader(yaml.SafeLoader):
        pass

    def construct_tracked_mapping(loader: TrackedLoader, node: yaml.MappingNode) -> dict:
        mapping = loader.construct_mapping(node, deep=True)
        mapping[_LINE_KEY] = node.start_mark.line + 1
        return mapping

    TrackedLoader.add_constructor(yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, construct_tracked_mapping)
    # YAML 1.1 floats with an exponent need a decimal point and a signed
    # exponent; read 1e3, 2.5e3 and .5e3 as floats too.
    TrackedLoader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
        list("-+.0123456789"),
    )
    return TrackedLoader


def _unstamped(value):
    """A YAML value as written, without the loader's line stamps."""
    if isinstance(value, dict):
        return {k: _unstamped(v) for k, v in value.items() if k != _LINE_KEY}
    if isinstance(value, list):
        return [_unstamped(v) for v in value]
    return value


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run settings: model, seeding, optional scenario."""

    market: MarketEconomics
    suppliers: tuple[SupplierProfile, ...]
    demand: TruncatedNormal
    seed: int = DEFAULT_SEED
    replications: int = DEFAULT_REPLICATIONS
    scenario: ScenarioSpec | None = None

    def __post_init__(self) -> None:
        _check_run(self.market, self.suppliers, self.demand, self.seed, self.replications)
        if not (self.scenario is None or isinstance(self.scenario, ScenarioSpec)):
            raise ValidationError(f"scenario must be a ScenarioSpec or None, got {self.scenario!r}")


def baseline_config() -> RunConfig:
    """The shipped baseline parameterization with default seeding."""
    return RunConfig(
        market=BASELINE_MARKET,
        suppliers=BASELINE_SUPPLIERS,
        demand=BASELINE_DEMAND,
    )


def load_config(path: str | Path) -> RunConfig:
    """Read and validate a YAML config file."""
    path = Path(path)
    return parse_config(path.read_text(encoding="utf-8"), source=str(path))


def parse_config(text: str, source: str = "<config>") -> RunConfig:
    """Validate YAML config text; ``source`` labels error messages."""
    import yaml

    try:
        raw = yaml.load(text, Loader=_tracked_loader())
    except yaml.MarkedYAMLError as exc:
        line = exc.problem_mark.line + 1 if exc.problem_mark else 0
        raise ValidationError(f"{source}:{line}: invalid YAML: {exc.problem}") from exc
    except yaml.YAMLError as exc:
        raise ValidationError(f"{source}: invalid YAML: {exc}") from exc
    except ValueError as exc:
        # A scalar that resolves to a type but not a value: a date such as
        # 2020-13-01, or an integer of more digits than int() converts.
        raise ValidationError(f"{source}: invalid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    root = _Section("config", raw, source, line=1)

    config = root.build(
        RunConfig,
        market=_parse_record(root, "market", MarketEconomics, BASELINE_MARKET),
        suppliers=_parse_suppliers(root),
        demand=_parse_record(root, "demand", TruncatedNormal, BASELINE_DEMAND),
        seed=root.get("seed", DEFAULT_SEED),
        replications=root.get("replications", DEFAULT_REPLICATIONS),
    )
    # The scenario inherits the checked seed and replications as defaults.
    scenario = _parse_scenario(root, config)
    root.reject_unknown_keys(
        ("market", "suppliers", "demand", "seed", "replications", "scenario")
    )
    return config if scenario is None else dataclasses.replace(config, scenario=scenario)


def apply_overrides(
    config: RunConfig, seed: int | None = None, replications: int | None = None
) -> RunConfig:
    """Return a copy with command-line seed/replications applied throughout."""
    if seed is None and replications is None:
        return config
    # The rebuilt ScenarioSpec and RunConfig check the new values.
    updates = {name: value for name, value in (("seed", seed), ("replications", replications)) if value is not None}
    if config.scenario is not None:
        updates["scenario"] = dataclasses.replace(config.scenario, **updates)
    return dataclasses.replace(config, **updates)


@dataclass
class _Section:
    """One YAML mapping plus the context needed for precise error messages."""

    name: str
    data: dict
    source: str
    line: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.data, dict):
            raise ValidationError(
                f"{self.source}:{self.line}: {self.name} must be a mapping, "
                f"got {type(self.data).__name__}"
            )
        self.line = self.data.get(_LINE_KEY, self.line)

    def error(self, message: str) -> ValidationError:
        return ValidationError(f"{self.source}:{self.line}: {self.name}: {message}")

    def keys(self) -> list[str]:
        return [k for k in self.data if k != _LINE_KEY]

    def reject_unknown_keys(self, known: tuple[str, ...]) -> None:
        unknown = [k for k in self.keys() if k not in known]
        if unknown:
            raise self.error(f"unknown keys {unknown}; expected a subset of {list(known)}")

    def subsection(self, key: str) -> "_Section | None":
        if key not in self.data:
            return None
        return _Section(f"{self.name}.{key}", self.data[key], self.source, self.line)

    def get(self, key: str, default=None):
        """The value under ``key`` as written, or ``default`` if absent (no default: required).
        Config checks only the key; the model type the value goes to checks the value."""
        if key not in self.data:
            if default is None:
                raise self.error(f"missing required key {key!r}")
            return default
        return _unstamped(self.data[key])

    def build(self, factory, **kwargs):
        """Construct a model type, prefixing its validation errors with context."""
        try:
            return factory(**kwargs)
        except ValidationError as exc:
            raise self.error(str(exc)) from exc

    def record(self, cls, defaults=None):
        """Build dataclass ``cls`` from this mapping, one key per field.

        Fields are read in declaration order; ``defaults`` (an instance of
        ``cls``) supplies omitted keys, and without it every field is
        required. ``cls`` checks the values.
        """
        names = tuple(field.name for field in dataclasses.fields(cls))
        self.reject_unknown_keys(names)
        return self.build(
            cls,
            **{
                name: self.get(name, getattr(defaults, name, None))
                for name in names
            },
        )


def _parse_record(parent: _Section, key: str, cls, defaults):
    """Section ``key`` as a ``cls`` record; ``defaults`` if the section is absent."""
    section = parent.subsection(key)
    return defaults if section is None else section.record(cls, defaults)


def _parse_suppliers(root: _Section) -> tuple[SupplierProfile, ...]:
    if "suppliers" not in root.data:
        return BASELINE_SUPPLIERS
    entries = root.data["suppliers"]
    if not isinstance(entries, list) or not entries:
        raise root.error("suppliers must be a nonempty list of mappings")
    return tuple(
        _Section(f"suppliers[{position}]", entry, root.source, root.line).record(SupplierProfile)
        for position, entry in enumerate(entries)
    )


def _parse_scenario(root: _Section, config: RunConfig) -> ScenarioSpec | None:
    section = root.subsection("scenario")
    if section is None:
        return None
    section.reject_unknown_keys(
        ("id", "axes", "sampler", "lhs_samples", "dynamic", "seed", "replications")
    )
    axes = []
    raw_axes = section.data.get("axes", [])
    if not isinstance(raw_axes, list):
        raise section.error("axes must be a list of {path, values} mappings")
    sampler = section.get("sampler", "grid")
    for position, entry in enumerate(raw_axes):
        axis = _Section(f"{section.name}.axes[{position}]", entry, root.source, section.line)
        axis.reject_unknown_keys(("path", "values"))
        path = axis.get("path")
        axes.append((path, axis.build(_validate_axis, path=path, values=axis.get("values"), sampler=sampler)))
    return section.build(
        ScenarioSpec,
        id=section.get("id"),
        market=config.market,
        suppliers=config.suppliers,
        demand=config.demand,
        axes=tuple(axes),
        sampler=sampler,
        lhs_samples=section.get("lhs_samples", 0),
        replications=section.get("replications", config.replications),
        seed=section.get("seed", config.seed),
        dynamic=_parse_record(section, "dynamic", DynamicSpec, None),
    )
