"""The four attack variants the paper contrasts, as a value type.

Apart from :mod:`repro.bgp.attacks` because the spec and job codecs
(:mod:`repro.exper.scenarios`) name an attack by its kind alone: they
load this enum, not the propagation engine the attacks run on.
"""

from __future__ import annotations

import enum

from ..netbase.errors import ReproError

__all__ = ["AttackKind"]


class AttackKind(str, enum.Enum):
    """The four attack variants, as a real enum.

    The string mixin keeps the historical wire/CLI names working:
    ``AttackKind("forged-origin")`` parses, members compare equal to
    their name strings, and formatting yields the bare name.
    """

    PREFIX_HIJACK = "prefix-hijack"
    SUBPREFIX_HIJACK = "subprefix-hijack"
    FORGED_ORIGIN = "forged-origin"
    FORGED_ORIGIN_SUBPREFIX = "forged-origin-subprefix"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def coerce(cls, value: "AttackKind | str") -> "AttackKind":
        """Parse a member from itself or its name; loud on unknowns."""
        try:
            return cls(value)
        except ValueError:
            raise ReproError(
                f"unknown attack kind {value!r}; expected one of "
                f"{[member.value for member in cls]}"
            ) from None

    @property
    def forges_origin(self) -> bool:
        """Does the announcement end in the victim's AS number?"""
        return self in (
            AttackKind.FORGED_ORIGIN,
            AttackKind.FORGED_ORIGIN_SUBPREFIX,
        )

    @property
    def is_subprefix(self) -> bool:
        """Does the attacker announce a strict subprefix?"""
        return self in (
            AttackKind.SUBPREFIX_HIJACK,
            AttackKind.FORGED_ORIGIN_SUBPREFIX,
        )
