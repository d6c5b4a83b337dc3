"""Measurement suite: every table, figure, and in-text number."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "deployment": (
        "DeploymentPoint", "DeploymentSweep", "run_deployment_sweep",
    ),
    "figure3": (
        "Figure3Panel", "Figure3Series", "compute_figure3a",
        "compute_figure3b", "render_panel",
    ),
    "hijack_eval": ("HijackStudyResult", "run_hijack_study"),
    "measurements": ("Section6Measurements", "measure_section6"),
    "overhead": ("OverheadMeasurement", "measure_compression_overhead"),
    "table1": ("PAPER_TABLE1", "Table1", "Table1Row", "compute_table1"),
    "timeline": ("TimelinePoint", "VulnerabilityTimeline", "compute_timeline"),
})
