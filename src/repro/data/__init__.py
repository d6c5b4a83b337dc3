"""Synthetic data: AS graphs, allocations, BGP tables, RPKI contents.

Substitutes for the paper's RouteViews and RPKI-repository archives —
see DESIGN.md §2 for the substitution rationale and the calibration
arithmetic behind :class:`GeneratorConfig`'s defaults.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "allocation": ("AddressAllocator", "Allocation", "AllocationError"),
    "asgraph": ("TopologyProfile", "generate_topology"),
    "caida": (
        "CaidaFormatError", "read_caida", "read_caida_compiled",
        "write_caida",
    ),
    "distributions": ("capped_pareto_int", "geometric_int", "weighted_choice"),
    "internet": ("GeneratorConfig", "InternetSnapshot", "generate_snapshot"),
    "routeviews": (
        "RibFormatError", "read_origin_pairs", "read_rib",
        "write_origin_pairs", "write_rib",
    ),
    "rpki_archive": ("ArchiveFormatError", "read_vrp_csv", "write_vrp_csv"),
    "snapshots": ("SeriesConfig", "WEEKLY_LABELS", "generate_weekly_series"),
})
