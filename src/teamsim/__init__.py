"""teamsim: hybrid discrete-event / stock-and-flow model of a skill-based team.

An event-driven engine tracks individual work items moving through a
prioritized, skill-matched team; a stock-and-flow engine tracks the
aggregate pressure, fatigue, and rework dynamics the item flow induces;
a coupling layer runs them in alternating cycles so each calibrates the
other.  Each public name is imported from its module (``teamsim.des``,
``teamsim.hybrid``, ``teamsim.io.report``, ...); the package re-exports
none.  See the README for the scenario format and CLI.
"""

__version__ = "0.1.0"
