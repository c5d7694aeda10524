"""teamsim: hybrid discrete-event / stock-and-flow model of a skill-based team.

An event-driven engine tracks individual work items moving through a
prioritized, skill-matched team; a stock-and-flow engine tracks the
aggregate pressure, fatigue, and rework dynamics the item flow induces;
a coupling layer runs them in alternating cycles so each calibrates the
other.  See the README for the scenario format and CLI.
"""

from .des import (
    DesConfig,
    DesModifiers,
    DesStats,
    GeneratorConfig,
    merge_stats,
    run_des,
    run_des_replicated,
    sample_interarrival,
)
from .domain import (
    Affinity,
    Engineer,
    Priority,
    SkillSpec,
    WorkItem,
    WorkQueue,
    WorkType,
)
from .errors import (
    ConfigurationError,
    DataError,
    EngineError,
    StructuralError,
    TeamsimError,
)
from .hybrid import (
    FeedForward,
    HybridReport,
    apply_feedforward,
    extract_feedback,
    extract_feedforward,
    run_hybrid,
)
from .io import (
    Scenario,
    default_scenario,
    fit_rate,
    generate_synthetic,
    ingest_tickets,
    load_scenario,
    save_scenario,
)
from .sd import (
    SdParams,
    SdState,
    SdTrajectory,
    auxiliaries,
    mass_residuals,
    run_sd,
    sd_step,
)

__version__ = "0.1.0"

__all__ = [
    "Affinity",
    "ConfigurationError",
    "DataError",
    "DesConfig",
    "DesModifiers",
    "DesStats",
    "EngineError",
    "Engineer",
    "FeedForward",
    "GeneratorConfig",
    "HybridReport",
    "Priority",
    "Scenario",
    "SdParams",
    "SdState",
    "SdTrajectory",
    "SkillSpec",
    "StructuralError",
    "TeamsimError",
    "WorkItem",
    "WorkQueue",
    "WorkType",
    "apply_feedforward",
    "auxiliaries",
    "default_scenario",
    "extract_feedback",
    "extract_feedforward",
    "fit_rate",
    "generate_synthetic",
    "ingest_tickets",
    "load_scenario",
    "mass_residuals",
    "merge_stats",
    "run_des",
    "run_des_replicated",
    "run_hybrid",
    "run_sd",
    "sample_interarrival",
    "save_scenario",
    "sd_step",
    "__version__",
]
