"""The synthetic Internet: coordinated BGP tables and RPKI contents.

This generator replaces the paper's two data sources — RouteViews RIB
dumps and the validated contents of the RPKI repositories — with a
single coherent model, because every §6–§7 measurement couples the two:
whether a ROA is *minimal* depends on what its AS announces, and the
compression ratios depend on the sibling structure of announcements.

Per-AS behavior model
---------------------

Every AS holds one or more allocated blocks (heavy-tailed count).  Each
block is announced by one of three BGP patterns:

* **atom** — announce the allocation, nothing else (the overwhelming
  majority: the paper's bound works out to 6.2% *because* "most ASes do
  not send BGP announcements for subprefixes of their prefixes");
* **full de-aggregation** — announce the block plus *both* halves (and
  sometimes all four quarters): traffic engineering on contiguous
  space, the source of the ≈6% lossless compressibility;
* **partial de-aggregation** — announce the block plus one lone deeper
  subprefix: rare, and the reason the paper's software lands at 6.1%
  against the 6.2% bound rather than exactly on it.

RPKI adopters additionally issue one ROA, in one of five styles whose
population sizes are calibrated to the paper's 2017-06-01 dataset
(≈7.5k ROAs, ≈40k tuples, ≈12% maxLength use, 84% of it vulnerable,
15.9% status-quo compressibility, +32% tuples under minimal
conversion — see DESIGN.md for the arithmetic):

* ``exact``       — a minimal ROA listing exactly the announced set;
* ``sibling_enum``— enumerates the block and both halves without
  maxLength although only the block is announced (compressible, not
  maxLength-vulnerable);
* ``ml_loose_cover``   — (p, maxLength 24) while announcing p only:
  the classic vulnerable misconfiguration;
* ``ml_loose_scatter`` — (p, maxLength 24) while announcing a handful
  of scattered /24s and *not* p: vulnerable, and the main source of
  the "13K additional prefixes" a minimal conversion must add;
* ``ml_tight``    — (p, maxLength len+1) with all of p, p0, p1
  genuinely announced: the rare *minimal* use of maxLength (the
  paper's 16%).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterator, Optional

from ..netbase.prefix import AF_INET, AF_INET6, Prefix
from ..rpki.roa import Roa, RoaPrefix, scan_roa_payloads
from ..rpki.vrp import Vrp
from .allocation import AddressAllocator
from .distributions import capped_pareto_int, geometric_int

__all__ = ["GeneratorConfig", "InternetSnapshot", "generate_snapshot"]

#: (prefix, origin AS) — one BGP routing-table entry's validation view.
OriginPair = tuple[Prefix, int]


@dataclass(frozen=True)
class GeneratorConfig:
    """All generator knobs.  Defaults describe the 2017-06-01 dataset.

    The full-size dataset does not generate yet: at the default scale
    1.0 :class:`~repro.data.allocation.AddressAllocator` runs out of
    IPv4 space (``AllocationError: IPv4 pools exhausted``), because the
    alignment padding its cursor skips is never reused.  Scale 0.75
    generates.

    Counts marked "at scale 1.0" shrink proportionally with ``scale``,
    which keeps every *ratio* the paper reports (the measurements are
    scale-free) while letting tests run on 1% of the Internet.
    """

    seed: int = 20170601
    scale: float = 1.0
    label: str = "2017-06-01"

    # Population (at scale 1.0).
    n_ases: int = 99_000
    alloc_alpha: float = 1.04
    alloc_cap: int = 1500
    ipv6_fraction: float = 0.065

    # BGP behavior.
    full_deagg_prob: float = 0.0435
    deep_deagg_prob: float = 0.15
    partial_deagg_prob: float = 0.0016
    adopter_full_deagg_prob: float = 0.033

    # RPKI adopter style populations (at scale 1.0).
    adopters_exact: int = 5_900
    adopters_sibling_enum: int = 400
    adopters_ml_loose_scatter: int = 650
    adopters_ml_loose_cover: int = 110
    adopters_ml_tight: int = 145
    adopter_alloc_mean: float = 5.0
    adopter_alloc_cap: int = 40

    # Style details.
    scatter_low: int = 3
    scatter_high: int = 10
    loose_max_length: int = 24

    # Non-adopter announcements that collide with someone else's ROA
    # (RPKI-invalid routes, for origin-validation realism).
    misconfig_invalid_pairs: int = 2_000

    def scaled(self, value: int) -> int:
        return max(1, round(value * self.scale))

    def at_scale(self, scale: float, **overrides: object) -> "GeneratorConfig":
        return replace(self, scale=scale, **overrides)  # type: ignore[arg-type]


@dataclass
class InternetSnapshot:
    """One dated (BGP table, RPKI contents) pair.

    Attributes:
        label: dataset date, e.g. "2017-06-01".
        announced: every (prefix, origin AS) pair in the BGP tables.
        roas: the validated ROA payloads in the RPKI.
        adopter_ases: ASes that issued ROAs.
        config: the generator configuration that produced it.
    """

    label: str
    announced: list[OriginPair]
    roas: list[Roa]
    adopter_ases: set[int]
    config: GeneratorConfig

    @cached_property
    def vrps(self) -> list[Vrp]:
        """The VRP tuples today's RPKI yields (the "status quo" row)."""
        return scan_roa_payloads(self.roas)

    @cached_property
    def announced_set(self) -> set[OriginPair]:
        return set(self.announced)

    def ipv4_pairs(self) -> Iterator[OriginPair]:
        return ((p, a) for p, a in self.announced if p.family == AF_INET)

    def ipv6_pairs(self) -> Iterator[OriginPair]:
        return ((p, a) for p, a in self.announced if p.family == AF_INET6)

    def __repr__(self) -> str:
        return (
            f"<InternetSnapshot {self.label}: {len(self.announced)} pairs, "
            f"{len(self.roas)} ROAs>"
        )


class _Generator:
    """Single-use generation state (kept off the public API)."""

    def __init__(self, config: GeneratorConfig) -> None:
        self.config = config
        self.rng = random.Random(config.seed)
        self.allocator = AddressAllocator()
        self.announced: list[OriginPair] = []
        self.roas: list[Roa] = []
        self.adopters: set[int] = set()

    # ------------------------------------------------------------------
    # BGP-side building blocks
    # ------------------------------------------------------------------

    def _family(self) -> int:
        if self.rng.random() < self.config.ipv6_fraction:
            return AF_INET6
        return AF_INET

    def _routable_depth(self, prefix: Prefix) -> int:
        """Longest announceable subprefix: /24 (IPv4) or /48 (IPv6).

        Routers commonly discard longer announcements (§3 footnote), so
        the generator never produces them.
        """
        return 24 if prefix.family == AF_INET else 48

    def _announce_block(
        self, prefix: Prefix, asn: int, full_deagg_prob: Optional[float] = None
    ) -> list[Prefix]:
        """Announce one allocation per the BGP behavior model.

        Returns the full list of prefixes announced for the block.
        """
        rng = self.rng
        config = self.config
        if full_deagg_prob is None:
            full_deagg_prob = config.full_deagg_prob
        depth_limit = self._routable_depth(prefix)
        announced = [prefix]
        roll = rng.random()
        if roll < full_deagg_prob and prefix.length + 2 <= depth_limit:
            announced.append(prefix.left_child())
            announced.append(prefix.right_child())
            if rng.random() < config.deep_deagg_prob:
                announced.extend(prefix.subprefixes(prefix.length + 2))
        elif (
            roll < full_deagg_prob + config.partial_deagg_prob
            and prefix.length + 2 <= depth_limit
        ):
            depth = min(prefix.length + rng.randint(2, 4), depth_limit)
            announced.append(self._random_subprefix(prefix, depth))
        for announced_prefix in announced:
            self.announced.append((announced_prefix, asn))
        return announced

    def _random_subprefix(self, prefix: Prefix, length: int) -> Prefix:
        offset = self.rng.randrange(1 << (length - prefix.length))
        step = 1 << (prefix.max_family_length - length)
        return Prefix(prefix.family, prefix.value + offset * step, length)

    def _allocate_blocks(self, count: int, profile: str = "fringe") -> list[Prefix]:
        return [
            self.allocator.allocate_random_size(self._family(), self.rng, profile)
            for _ in range(count)
        ]

    # ------------------------------------------------------------------
    # Adopter styles
    # ------------------------------------------------------------------

    def _adopter_blocks(self, profile: str = "adopter") -> list[Prefix]:
        count = geometric_int(
            self.rng, self.config.adopter_alloc_mean, self.config.adopter_alloc_cap
        )
        return self._allocate_blocks(count, profile=profile)

    def _style_exact(self, asn: int) -> Roa:
        entries: list[RoaPrefix] = []
        for block in self._adopter_blocks():
            announced = self._announce_block(
                block, asn, self.config.adopter_full_deagg_prob
            )
            for announced_prefix in announced:
                entries.append(RoaPrefix(announced_prefix))
        return Roa(asn, entries)

    def _style_sibling_enum(self, asn: int) -> Roa:
        entries: list[RoaPrefix] = []
        for block in self._adopter_blocks():
            self.announced.append((block, asn))  # block only, no de-agg
            entries.append(RoaPrefix(block))
            entries.append(RoaPrefix(block.left_child()))
            entries.append(RoaPrefix(block.right_child()))
        return Roa(asn, entries)

    def _loose_max_length(self, block: Prefix) -> int:
        if block.family == AF_INET6:
            return min(48, block.length + 8)
        return max(self.config.loose_max_length, block.length + 1)

    def _style_ml_loose_cover(self, asn: int) -> Roa:
        entries = []
        for block in self._adopter_blocks():
            self.announced.append((block, asn))
            entries.append(RoaPrefix(block, self._loose_max_length(block)))
        return Roa(asn, entries)

    def _style_ml_loose_scatter(self, asn: int) -> Roa:
        entries = []
        for block in self._adopter_blocks(profile="scatter"):
            max_length = self._loose_max_length(block)
            scatter = self.rng.randint(self.config.scatter_low,
                                       self.config.scatter_high)
            seen: set[Prefix] = set()
            for _ in range(scatter):
                sub = self._random_subprefix(block, max_length)
                if sub not in seen:
                    seen.add(sub)
                    self.announced.append((sub, asn))
            entries.append(RoaPrefix(block, max_length))
        return Roa(asn, entries)

    def _style_ml_tight(self, asn: int) -> Roa:
        entries = []
        for block in self._adopter_blocks():
            self.announced.append((block, asn))
            self.announced.append((block.left_child(), asn))
            self.announced.append((block.right_child(), asn))
            entries.append(RoaPrefix(block, block.length + 1))
        return Roa(asn, entries)

    # ------------------------------------------------------------------
    # Orchestration
    # ------------------------------------------------------------------

    def run(self) -> InternetSnapshot:
        config = self.config
        styles = (
            [self._style_exact] * config.scaled(config.adopters_exact)
            + [self._style_sibling_enum] * config.scaled(config.adopters_sibling_enum)
            + [self._style_ml_loose_scatter]
            * config.scaled(config.adopters_ml_loose_scatter)
            + [self._style_ml_loose_cover]
            * config.scaled(config.adopters_ml_loose_cover)
            + [self._style_ml_tight] * config.scaled(config.adopters_ml_tight)
        )
        self.rng.shuffle(styles)

        total_ases = max(config.scaled(config.n_ases), len(styles) + 1)
        next_asn = 100
        for style in styles:
            asn = next_asn
            next_asn += 1
            self.adopters.add(asn)
            self.roas.append(style(asn))

        for _ in range(total_ases - len(styles)):
            asn = next_asn
            next_asn += 1
            block_count = capped_pareto_int(
                self.rng, config.alloc_alpha, self._fringe_cap()
            )
            for block in self._allocate_blocks(block_count):
                self._announce_block(block, asn)

        self._add_invalid_announcements(next_asn)
        return InternetSnapshot(
            label=config.label,
            announced=self.announced,
            roas=self.roas,
            adopter_ases=self.adopters,
            config=config,
        )

    def _fringe_cap(self) -> int:
        """The per-AS allocation cap, shrunk at small scales.

        The fringe tail is what makes single giant ASes dominate a tiny
        snapshot; capping it proportionally keeps the *relative*
        variance of scaled datasets comparable to the full-size one.
        (At scale >= 0.2 the configured cap applies unchanged.)
        """
        config = self.config
        return max(30, round(config.alloc_cap * min(1.0, config.scale * 5)))

    def _add_invalid_announcements(self, next_asn: int) -> None:
        """Non-adopters originating inside others' ROA space (invalid)."""
        if not self.roas:
            return
        for _ in range(self.config.scaled(self.config.misconfig_invalid_pairs)):
            roa = self.rng.choice(self.roas)
            entry = self.rng.choice(roa.prefixes)
            depth_limit = self._routable_depth(entry.prefix)
            if entry.prefix.length + 1 > depth_limit:
                continue
            depth = min(entry.prefix.length + self.rng.randint(1, 4),
                        depth_limit)
            hijacker = next_asn + self.rng.randrange(5_000)
            self.announced.append(
                (self._random_subprefix(entry.prefix, depth), hijacker)
            )


def generate_snapshot(config: GeneratorConfig = GeneratorConfig()) -> InternetSnapshot:
    """Generate one dated synthetic (BGP, RPKI) snapshot."""
    return _Generator(config).run()
