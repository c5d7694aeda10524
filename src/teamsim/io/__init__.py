"""Input/output: ticket data, scenario files, and report emission."""
