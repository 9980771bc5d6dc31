"""Declarative study specifications: the serializable input of a study.

A :class:`StudySpec` is the single description of a paper-style study --
a grid of (application targets) x (fault models) x (fault scenarios)
campaigns plus its scale (runs, seed) -- as *pure data*: every field is
a scalar, a tuple, or a nested spec of scalars, so a spec round-trips
through ``dict`` and TOML losslessly and two equal specs plan identical
studies.  How to execute a study (workers, checkpoint file, resume,
hosts) is never part of the spec: those are arguments of
:meth:`repro.study.study.StudyPlan.execute`.  Compilation to the
campaign engine lives in :mod:`repro.study.study`; this module is
dependency-light by design so loading and validating specs never
imports an application.

Grid semantics
==============

* Each **target** names an application (by registry id, see
  :mod:`repro.study.apps`) plus an optional injection phase.  A target
  of ``kind="metadata"`` contributes one byte-exhaustive metadata-sweep
  cell instead of crossing with the model/scenario axes.
* **models** and **scenarios** are the other two grid axes; a fault
  target produces one campaign cell per (model, scenario) pair.
* ``order`` fixes cell enumeration: ``"target"`` iterates targets
  outermost (``for target: for model: for scenario``), ``"model"``
  iterates models outermost -- the order Fig. 7 uses.
* Every cell's key is the ``-``-join of the non-empty axis labels, so
  a label of ``""`` drops that axis from the key (e.g. the multifault
  study keys its cells ``NYX-k4``, omitting its single fault model).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigError

#: Cell-enumeration orders (which axis iterates outermost).
ORDERS = ("target", "model")

#: Metadata-target sweep modes (mirrors ``MetadataCampaign`` plus the
#: targeted per-field mode used by Table IV).
METADATA_MODES = ("random-bit", "all-bits", "targeted")


def _as_tuple(value: Any) -> tuple:
    if isinstance(value, tuple):
        return value
    if isinstance(value, (list, Sequence)) and not isinstance(value, (str, bytes)):
        return tuple(value)
    raise ConfigError(f"expected a sequence, got {value!r}")


@dataclass(frozen=True)
class TargetSpec:
    """One application target of a study grid.

    ``label`` is the target's cell-key part (default: the app id);
    ``phase`` restricts injection to one named application phase.  A
    ``kind="metadata"`` target plans a per-byte metadata sweep
    (``mode``/``stride``) or, with ``mode="targeted"``, the explicit
    ``bits`` list of ``(field-substring, byte-in-field, bit)`` targets.
    """

    app: str
    label: Optional[str] = None
    phase: Optional[str] = None
    kind: str = "fault"
    mode: str = "random-bit"
    stride: int = 1
    bits: Optional[Tuple[Tuple[str, int, int], ...]] = None

    def __post_init__(self) -> None:
        if not self.app:
            raise ConfigError("target needs a non-empty app id")
        if self.kind not in ("fault", "metadata"):
            raise ConfigError(
                f"target kind must be 'fault' or 'metadata', got {self.kind!r}")
        if self.mode not in METADATA_MODES:
            raise ConfigError(
                f"metadata mode must be one of {METADATA_MODES}, "
                f"got {self.mode!r}")
        if self.stride < 1:
            raise ConfigError(f"stride must be >= 1, got {self.stride}")
        if self.bits is not None:
            try:
                normalized = tuple(
                    (str(name), int(byte), int(bit))
                    for name, byte, bit in (_as_tuple(b)
                                            for b in _as_tuple(self.bits)))
            except (TypeError, ValueError) as exc:
                raise ConfigError(
                    "bits entries must be (field-substring, byte, bit) "
                    f"triplets, got {self.bits!r}: {exc}") from None
            object.__setattr__(self, "bits", normalized)
        if self.kind == "fault":
            if self.bits is not None:
                raise ConfigError("bits applies to metadata targets only")
            if self.mode != "random-bit":
                raise ConfigError("mode applies to metadata targets only")
            if self.stride != 1:
                raise ConfigError("stride applies to metadata targets only")
        else:
            if self.phase is not None:
                raise ConfigError(
                    "a metadata target sweeps one specific write; "
                    "phase does not apply")
            if self.mode == "targeted" and not self.bits:
                raise ConfigError("mode='targeted' needs a non-empty bits list")
            if self.mode != "targeted" and self.bits is not None:
                raise ConfigError("bits requires mode='targeted'")

    @property
    def key_part(self) -> str:
        return self.app if self.label is None else self.label


@dataclass(frozen=True)
class ModelSpec:
    """One fault-model axis value (name + keyword parameters).

    ``params`` is stored as a sorted tuple of ``(key, value)`` pairs so
    specs stay hashable and equality ignores dict ordering; pass a
    mapping and it is normalized.  ``label=None`` uses the model name in
    cell keys, ``label=""`` omits the model from them.
    """

    model: str = "BF"
    label: Optional[str] = None
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        raw = self.params
        if isinstance(raw, Mapping):
            raw = tuple(sorted(raw.items()))
        else:
            raw = tuple(sorted((str(k), v) for k, v in _as_tuple(raw)))
        object.__setattr__(self, "params", raw)
        from repro.core.fault_models import make_fault_model

        try:
            make_fault_model(self.model, **dict(self.params))
        except Exception as exc:
            raise ConfigError(
                f"invalid fault model spec {self.model!r} "
                f"{dict(self.params)!r}: {exc}") from None

    @property
    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    @property
    def key_part(self) -> str:
        return self.model if self.label is None else self.label


@dataclass(frozen=True)
class ScenarioSpec:
    """One fault-scenario axis value, as a scenario grammar string.

    The string uses the :func:`repro.core.scenario.parse_scenario`
    grammar (``single``, ``k=K[,window=W]``, ``burst=N``,
    ``decay[:...]``) so specs stay serializable.  ``label=None`` derives
    the cell-key part from the scenario (empty for the legacy single
    fault, the stamp otherwise).
    """

    scenario: str = "single"
    label: Optional[str] = None

    def __post_init__(self) -> None:
        self.parsed()  # validate eagerly; raises ConfigError on bad specs

    def parsed(self):
        from repro.core.scenario import parse_scenario

        return parse_scenario(self.scenario)

    @property
    def key_part(self) -> str:
        if self.label is not None:
            return self.label
        parsed = self.parsed()
        return "" if parsed.legacy else parsed.stamp()


@dataclass(frozen=True)
class CellSpec:
    """One enumerated cell of a study grid (key + its axis values).

    ``model``/``scenario`` are ``None`` for metadata cells, which do not
    cross with those axes.
    """

    key: str
    target: TargetSpec
    model: Optional[ModelSpec] = None
    scenario: Optional[ScenarioSpec] = None


@dataclass(frozen=True)
class StudySpec:
    """A complete, serializable study: axes and scale.

    ``runs=None`` defers the campaign size to the environment-scaled
    experiment default (``REPRO_FI_RUNS``) at plan time; a concrete
    ``runs`` pins it.  Execution knobs belong to the execute call
    (:meth:`repro.study.study.StudyPlan.execute`), not to the spec.
    """

    name: str = "study"
    targets: Tuple[TargetSpec, ...] = ()
    models: Tuple[ModelSpec, ...] = (ModelSpec(),)
    scenarios: Tuple[ScenarioSpec, ...] = (ScenarioSpec(),)
    order: str = "target"
    runs: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("targets", "models", "scenarios"):
            object.__setattr__(self, name, _as_tuple(getattr(self, name)))
        if not self.targets:
            raise ConfigError("a study needs at least one target")
        if any(t.kind == "fault" for t in self.targets):
            if not self.models:
                raise ConfigError("fault targets need at least one model")
            if not self.scenarios:
                raise ConfigError("fault targets need at least one scenario")
        if self.order not in ORDERS:
            raise ConfigError(
                f"order must be one of {ORDERS}, got {self.order!r}")
        if self.runs is not None and self.runs < 1:
            raise ConfigError(f"runs must be >= 1, got {self.runs}")
        keys = [cell.key for cell in self.cells()]
        dupes = sorted({k for k in keys if keys.count(k) > 1})
        if dupes:
            raise ConfigError(
                f"study {self.name!r} enumerates duplicate cell keys "
                f"{dupes}; give the colliding axis values distinct labels")

    # -- grid enumeration -------------------------------------------------------

    def _cell(self, target: TargetSpec, model: Optional[ModelSpec],
              scenario: Optional[ScenarioSpec]) -> CellSpec:
        parts = [target.key_part]
        if model is not None:
            parts.append(model.key_part)
        if scenario is not None:
            parts.append(scenario.key_part)
        key = "-".join(p for p in parts if p)
        return CellSpec(key=key, target=target, model=model, scenario=scenario)

    def cells(self) -> Tuple[CellSpec, ...]:
        """Every cell of the grid, in execution (and checkpoint) order.

        Metadata targets contribute one cell each; in ``model`` order
        they enumerate first (in target order) since they do not vary
        along the model axis.
        """
        fault = [t for t in self.targets if t.kind == "fault"]
        metadata = [t for t in self.targets if t.kind == "metadata"]
        out: List[CellSpec] = []
        if self.order == "target":
            for target in self.targets:
                if target.kind == "metadata":
                    out.append(self._cell(target, None, None))
                    continue
                for model in self.models:
                    for scenario in self.scenarios:
                        out.append(self._cell(target, model, scenario))
        else:
            out.extend(self._cell(t, None, None) for t in metadata)
            for model in self.models:
                for target in fault:
                    for scenario in self.scenarios:
                        out.append(self._cell(target, model, scenario))
        return tuple(out)

    def app_ids(self) -> Tuple[str, ...]:
        """Distinct application ids, in first-use order."""
        return tuple(dict.fromkeys(t.app for t in self.targets))

    def describe(self) -> str:
        """A human-readable cell listing straight from the spec (pure
        data: nothing is resolved or executed; the CLI ``study plan``
        view).  Fault cells show the per-cell run count (``runs`` or the
        ``REPRO_FI_RUNS`` deferral); metadata cells sweep bytes/stride,
        so their size is only known once the write is located.
        """
        from repro.analysis.tables import render_table

        runs_text = (str(self.runs) if self.runs is not None
                     else "REPRO_FI_RUNS")
        rows = []
        for cell in self.cells():
            if cell.target.kind == "metadata":
                what = f"metadata[{cell.target.mode}]"
                scenario = "-"
                runs = f"bytes/{cell.target.stride}"
            else:
                what = cell.model.model
                scenario = cell.scenario.scenario
                runs = runs_text
            rows.append([cell.key, cell.target.app, what,
                         cell.target.phase or "-", scenario, runs])
        return render_table(
            ["cell", "app", "model", "phase", "scenario", "runs"], rows,
            title=f"study {self.name!r}: {len(rows)} cells")

    def with_knobs(self, runs: Optional[int] = None,
                   seed: Optional[int] = None) -> "StudySpec":
        """A copy with the scale (``runs``/``seed``) overridden where given."""
        changes: Dict[str, Any] = {}
        if runs is not None:
            changes["runs"] = runs
        if seed is not None:
            changes["seed"] = seed
        return replace(self, **changes) if changes else self

    # -- dict round-trip --------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A plain nested-dict form (``None`` values omitted: TOML has
        no null, and every omitted key defaults back to ``None``)."""

        def prune(raw: Dict[str, Any]) -> Dict[str, Any]:
            return {k: v for k, v in raw.items() if v is not None}

        out = prune({
            "name": self.name, "order": self.order, "runs": self.runs,
            "seed": self.seed,
        })
        out["targets"] = [prune({
            "app": t.app, "label": t.label, "phase": t.phase,
            "kind": t.kind, "mode": t.mode, "stride": t.stride,
            "bits": None if t.bits is None else [list(b) for b in t.bits],
        }) for t in self.targets]
        out["models"] = [prune({
            "model": m.model, "label": m.label,
            "params": dict(m.params) if m.params else None,
        }) for m in self.models]
        out["scenarios"] = [prune({
            "scenario": s.scenario, "label": s.label,
        }) for s in self.scenarios]
        return out

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "StudySpec":
        """Inverse of :meth:`to_dict`; unknown keys are errors."""

        def build(klass, data: Mapping[str, Any]):
            known = {f.name for f in fields(klass)}
            unknown = set(data) - known
            if unknown:
                raise ConfigError(
                    f"unknown {klass.__name__} keys: {sorted(unknown)}")
            return klass(**data)

        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown StudySpec keys: {sorted(unknown)}")
        data = dict(raw)
        data["targets"] = tuple(build(TargetSpec, t)
                                for t in data.get("targets", ()))
        if "models" in data:
            data["models"] = tuple(build(ModelSpec, m) for m in data["models"])
        if "scenarios" in data:
            data["scenarios"] = tuple(build(ScenarioSpec, s)
                                      for s in data["scenarios"])
        return cls(**data)

    # -- TOML round-trip --------------------------------------------------------

    def to_toml(self) -> str:
        """The spec as a TOML document (the CLI/file interchange form)."""
        raw = self.to_dict()
        lines: List[str] = []
        for key in ("name", "order", "runs", "seed"):
            if key in raw:
                lines.append(f"{key} = {_toml_value(raw[key])}")
        for section in ("targets", "models", "scenarios"):
            for entry in raw[section]:
                lines.append("")
                lines.append(f"[[{section}]]")
                for key, value in entry.items():
                    lines.append(f"{key} = {_toml_value(value)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_toml(cls, text: str) -> "StudySpec":
        tomllib = _toml_reader()
        try:
            raw = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise ConfigError(f"invalid study TOML: {exc}") from None
        return cls.from_dict(raw)


def _toml_reader():
    """The TOML parser: stdlib ``tomllib`` (3.11+) or the API-compatible
    ``tomli`` backport on older interpreters."""
    try:
        import tomllib
    except ImportError:  # pragma: no cover - exercised on Python < 3.11
        try:
            import tomli as tomllib
        except ImportError:
            raise ConfigError(
                "reading TOML study specs needs Python >= 3.11 (tomllib) "
                "or the tomli package") from None
    return tomllib


def _toml_value(value: Any) -> str:
    """Serialize one spec value to TOML (the restricted types specs use)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_value(v) for v in value) + "]"
    if isinstance(value, Mapping):
        body = ", ".join(f"{k} = {_toml_value(v)}" for k, v in value.items())
        return "{" + body + "}"
    raise ConfigError(f"cannot serialize {value!r} to TOML")


def load_spec(path: str) -> StudySpec:
    """Load a :class:`StudySpec` from a TOML file."""
    with open(path, "r", encoding="utf-8") as f:
        return StudySpec.from_toml(f.read())
