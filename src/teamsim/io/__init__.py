"""Input/output: ticket data, scenario files, and report emission."""

from .report import (
    emit_des_report,
    emit_fit_report,
    emit_hybrid_report,
    emit_sd_report,
    write_event_log_ndjson,
)
from .scenario import (
    ENV_PREFIX,
    Scenario,
    apply_env_overrides,
    default_scenario,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from .tickets import (
    TICKET_COLUMNS,
    ClassObservations,
    IngestResult,
    RateFit,
    SynthClass,
    SynthSpec,
    fit_rate,
    generate_synthetic,
    ingest_tickets,
    synth_spec_from_dict,
)

__all__ = [
    "ENV_PREFIX",
    "TICKET_COLUMNS",
    "ClassObservations",
    "IngestResult",
    "RateFit",
    "Scenario",
    "SynthClass",
    "SynthSpec",
    "apply_env_overrides",
    "default_scenario",
    "emit_des_report",
    "emit_fit_report",
    "emit_hybrid_report",
    "emit_sd_report",
    "fit_rate",
    "generate_synthetic",
    "ingest_tickets",
    "load_scenario",
    "save_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "synth_spec_from_dict",
    "write_event_log_ndjson",
]
