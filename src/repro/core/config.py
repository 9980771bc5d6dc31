"""User configuration of a fault-injection campaign (Fig. 4's input)."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, Optional, Union

from repro.core.fault_models import make_fault_model
from repro.core.scenario import FaultScenario, as_scenario
from repro.core.signature import FaultSignature
from repro.errors import ConfigError


@dataclass
class CampaignConfig:
    """Everything a user specifies to launch a campaign.

    ``fault_model`` accepts the short or long names ("BF"/"BIT_FLIP", ...)
    and ``model_params`` the model's keyword arguments (``n_bits``,
    ``fraction``, ``tail_policy``).  ``phase`` restricts injection to one
    named application phase (Montage MT1..MT4); ``None`` targets every
    dynamic instance of the primitive uniformly (requirement R4).

    ``scenario`` selects how many injection points each run plans: a
    :class:`repro.core.scenario.FaultScenario` instance or a spec string
    (``"single"``, ``"k=3,window=16"``, ``"burst=4"``,
    ``"decay:bytes=8"``).  ``None``/``"single"`` is the paper's
    single-fault model, bit-identical to the pre-scenario engine.

    The config says *what* to inject, never how to execute it: the
    execution knobs (``workers``, ``results_path``, ``resume``) are
    arguments of :meth:`repro.core.campaign.Campaign.run`, and prefix
    replay is switched off only by ``REPRO_NO_REPLAY``.
    """

    fault_model: str = "BF"
    model_params: Dict[str, Any] = field(default_factory=dict)
    primitive: str = "ffis_write"
    n_runs: int = 1000
    seed: int = 0
    phase: Optional[str] = None
    scenario: Union[None, str, FaultScenario] = None

    def __post_init__(self) -> None:
        self.scenario = as_scenario(self.scenario)
        if self.n_runs < 1:
            raise ConfigError(f"n_runs must be >= 1, got {self.n_runs}")

    def signature(self) -> FaultSignature:
        model = make_fault_model(self.fault_model, **self.model_params)
        primitive = self.primitive
        if model.name == "RC" and primitive == "ffis_write":
            # Read-path corruption targets reads; steer the default there
            # so `fault_model="RC"` alone does the expected thing.
            primitive = "ffis_read"
        return FaultSignature(model=model, primitive=primitive)

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "CampaignConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
        return cls(**raw)
