"""FFIS: the fault-injection framework (the paper's primary contribution).

Names are resolved lazily (PEP 562): importing a leaf module (e.g.
:mod:`repro.core.outcomes` from an application definition) no longer
executes the whole framework import graph, which both keeps startup
cheap and breaks the ``apps <-> core`` import cycle that an eager
package init would re-introduce.
"""

from typing import Dict, Tuple

from repro.util.lazy import lazy_exports

#: Exported name -> (module, attribute), resolved on first access.
_EXPORTS: Dict[str, Tuple[str, str]] = {
    "Outcome": ("repro.core.outcomes", "Outcome"),
    "OutcomeTally": ("repro.core.outcomes", "OutcomeTally"),
    "RunRecord": ("repro.core.outcomes", "RunRecord"),
    "BitFlipFault": ("repro.core.fault_models", "BitFlipFault"),
    "DroppedWriteFault": ("repro.core.fault_models", "DroppedWriteFault"),
    "FaultModel": ("repro.core.fault_models", "FaultModel"),
    "ReadCorruptionFault": ("repro.core.fault_models", "ReadCorruptionFault"),
    "SECTOR_SIZE": ("repro.core.fault_models", "SECTOR_SIZE"),
    "ShornWriteFault": ("repro.core.fault_models", "ShornWriteFault"),
    "make_fault_model": ("repro.core.fault_models", "make_fault_model"),
    "FaultSignature": ("repro.core.signature", "FaultSignature"),
    "CampaignConfig": ("repro.core.config", "CampaignConfig"),
    "FaultGenerator": ("repro.core.generator", "FaultGenerator"),
    "IOProfiler": ("repro.core.profiler", "IOProfiler"),
    "ProfileResult": ("repro.core.profiler", "ProfileResult"),
    "FaultInjector": ("repro.core.injector", "FaultInjector"),
    "InjectionHook": ("repro.core.injector", "InjectionHook"),
    "MultiShotHook": ("repro.core.injector", "MultiShotHook"),
    "AtRestDecay": ("repro.core.scenario", "AtRestDecay"),
    "BurstFault": ("repro.core.scenario", "BurstFault"),
    "FaultScenario": ("repro.core.scenario", "FaultScenario"),
    "KFaults": ("repro.core.scenario", "KFaults"),
    "SingleFault": ("repro.core.scenario", "SingleFault"),
    "parse_scenario": ("repro.core.scenario", "parse_scenario"),
    "Campaign": ("repro.core.campaign", "Campaign"),
    "CampaignResult": ("repro.core.campaign", "CampaignResult"),
    "InjectionContext": ("repro.core.campaign", "InjectionContext"),
    "MetadataCampaign": ("repro.core.metadata_campaign", "MetadataCampaign"),
    "MetadataCampaignResult": ("repro.core.metadata_campaign",
                               "MetadataCampaignResult"),
    "MetadataWriteInfo": ("repro.core.metadata_campaign", "MetadataWriteInfo"),
    "ByteCorruptionContext": ("repro.core.metadata_campaign",
                              "ByteCorruptionContext"),
    "ExecutionContext": ("repro.core.engine", "ExecutionContext"),
    "Executor": ("repro.core.engine", "Executor"),
    "JsonlSink": ("repro.core.engine", "JsonlSink"),
    "ParallelExecutor": ("repro.core.engine", "ParallelExecutor"),
    "ProfileGoldenCache": ("repro.core.engine", "ProfileGoldenCache"),
    "RunPlan": ("repro.core.engine", "RunPlan"),
    "RunSpec": ("repro.core.engine", "RunSpec"),
    "SerialExecutor": ("repro.core.engine", "SerialExecutor"),
    "SweepCell": ("repro.core.engine", "SweepCell"),
    "SweepPlan": ("repro.core.engine", "SweepPlan"),
    "SweepResult": ("repro.core.engine", "SweepResult"),
    "execute_run_spec": ("repro.core.engine", "execute_run_spec"),
    "execute_sweep": ("repro.core.engine", "execute_sweep"),
    "load_records": ("repro.core.engine", "load_records"),
    "load_records_by_campaign": ("repro.core.engine",
                                 "load_records_by_campaign"),
    "make_executor": ("repro.core.engine", "make_executor"),
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
