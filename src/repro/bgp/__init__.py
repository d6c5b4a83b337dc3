"""BGP substrate: announcements, RIBs, validation, propagation, attacks."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "announcement": ("Announcement", "AnnouncementError"),
    "attack_kind": ("AttackKind",),
    "attacks": (
        "AttackOutcome", "AttackScenario", "evaluate_attack",
        "evaluate_attack_seeds",
    ),
    "fastprop": ("PropagationWorkspace",),
    "message": (
        "AsPathSegment", "BgpHeader", "BgpMessage", "BgpMessageError",
        "KeepaliveMessage", "NotificationMessage", "OpenMessage",
        "UpdateMessage", "announcement_to_update", "decode_message",
        "encode_message", "update_to_announcements",
    ),
    "origin_validation": (
        "ValidationState", "VrpIndex", "validate_announcement",
    ),
    "rib": ("AdjRibIn", "Rib"),
    "session": ("BgpSessionError", "BgpSpeaker"),
    "simulation": (
        "Route", "RouteClass", "Seed", "SimulationError", "propagate_prefix",
        "reference_attack_seeds", "tie_rank", "tie_winner",
    ),
    "topology": (
        "AsTopology", "CompiledTopology", "Relationship", "TopologyError",
    ),
})
