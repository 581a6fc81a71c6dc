"""Memory RAS: SEC-DED ECC, retention-aware scrubbing, spare remapping.

Two cooperating pieces close the gap between fault *injection*
(:mod:`repro.faults.inject`) and a PIM part that *survives* its own
DRAM physics:

* :class:`SecDedCode` — an extended-Hamming SEC-DED code over the
  32-bit RNS limb-plane words the PIM banks store.  Single-bit flips
  are corrected exactly; double-bit flips are detected and **never**
  miscorrected (a provable property of the extended code, pinned by a
  Hypothesis test); three or more flips can slip through or miscorrect,
  and those escapes are exactly what the existing residue-checksum
  guard (:mod:`repro.faults.checksum`) catches — the two layers
  compose into a detection story with no silent gap for any
  single-word corruption.

* :class:`RasEngine` — drives the retention/wear model of
  :class:`repro.dram.reliability.ReliabilityConfig` on the simulated
  clock inside :class:`~repro.core.scheduler.ResilientScheduler`:
  errors accrue per region with time-since-scrub and wear, a scrubber
  sweeps every region each ``scrub_interval_s`` (idle-opportunistic
  passes ride PIM-idle windows for free; the rest are charged through
  :mod:`repro.dram.timing`), ECC corrections/detections/escapes are
  resolved per kernel access, and regions that leak correctable errors
  past ``remap_threshold`` are predictively migrated to spare regions
  (migration charged on the timeline, stuck-at faults in the retired
  region neutralized).  Sustained uncorrectable rates feed the
  :class:`~repro.serving.health.HealthMonitor` memory-pressure input
  and degrade PIM -> GPU like any other fault storm.

The engine is a pure function of its config and the kernel schedule:
per-region RNG streams are consumed in timeline order, so same-seed
runs are byte-identical for any worker count.  Scrub, repair,
correction, and migration charge simulated *time* only (no energy
model is attached to maintenance traffic).
"""

from __future__ import annotations

from repro.dram.reliability import RegionState, ReliabilityConfig
from repro.dram.timing import HBM2_TIMING, DramTiming

__all__ = ["SecDedCode", "RasEngine"]


class SecDedCode:
    """Extended Hamming SEC-DED over ``data_bits``-bit words.

    The codeword has ``data_bits`` data bits at the non-power-of-two
    positions ``1..n``, Hamming check bits at the power-of-two
    positions, and an overall-parity bit at position 0 — 39 bits total
    for the default 32-bit RNS residue word.  :meth:`decode` returns
    ``(word, status)`` with status one of ``"ok"``, ``"corrected"``,
    or ``"detected"``.
    """

    def __init__(self, data_bits: int = 32):
        if data_bits < 1:
            raise ValueError("data_bits must be >= 1")
        self.data_bits = data_bits
        r = 0
        while (1 << r) < data_bits + r + 1:
            r += 1
        self.check_bits = r
        #: Hamming length: positions 1..n carry data + check bits.
        self.n = data_bits + r
        #: Total codeword width including the overall-parity bit.
        self.codeword_bits = self.n + 1
        self._data_pos = tuple(
            p for p in range(1, self.n + 1) if p & (p - 1) != 0)
        self._check_pos = tuple(1 << i for i in range(r))

    def encode(self, word: int) -> int:
        """Codeword for ``word`` (bit i of the result = position i)."""
        if not 0 <= word < (1 << self.data_bits):
            raise ValueError(
                f"word out of range for {self.data_bits}-bit code")
        cw = 0
        for i, pos in enumerate(self._data_pos):
            if (word >> i) & 1:
                cw |= 1 << pos
        for check in self._check_pos:
            parity = 0
            for pos in range(1, self.n + 1):
                if pos & check and pos != check and (cw >> pos) & 1:
                    parity ^= 1
            cw |= parity << check
        overall = 0
        for pos in range(1, self.n + 1):
            overall ^= (cw >> pos) & 1
        return cw | overall

    def _extract(self, cw: int) -> int:
        word = 0
        for i, pos in enumerate(self._data_pos):
            if (cw >> pos) & 1:
                word |= 1 << i
        return word

    def decode(self, cw: int) -> "tuple[int, str]":
        """Decode a possibly corrupted codeword.

        * 0 flips -> ``("ok", word)``.
        * 1 flip  -> corrected exactly.
        * 2 flips -> ``"detected"`` always (even parity rules out the
          single-error hypothesis, so the decoder never miscorrects).
        * >= 3 flips -> may miscorrect (odd counts) or report
          ``"detected"``; either way the returned word can be wrong —
          the residue-checksum guard is the backstop.
        """
        syndrome = 0
        for pos in range(1, self.n + 1):
            if (cw >> pos) & 1:
                syndrome ^= pos
        parity = 0
        for pos in range(0, self.n + 1):
            parity ^= (cw >> pos) & 1
        if syndrome == 0 and parity == 0:
            return self._extract(cw), "ok"
        if parity == 1:
            # Odd flip count: assume a single error at the syndrome
            # position (0 means the overall-parity bit itself).
            if syndrome <= self.n:
                return self._extract(cw ^ (1 << syndrome)), "corrected"
            return self._extract(cw), "detected"
        return self._extract(cw), "detected"


class RasEngine:
    """Clock-driven retention, scrubbing, ECC, and spare remapping.

    One engine instance serves one scheduler run; the scheduler calls
    :meth:`before_kernel` ahead of every PIM kernel (scrubs due,
    operand-fetch ECC resolution, remap checks), :meth:`note_idle` for
    every GPU execution window (feeding the idle-opportunistic scrub
    budget), and :meth:`repair_items` when the checksum guard catches
    an ECC escape after execution.  All methods return
    ``(name, seconds)`` timeline items the scheduler charges as PIM
    segments.
    """

    def __init__(self, config: ReliabilityConfig,
                 timing: DramTiming = HBM2_TIMING,
                 metrics=None):
        self.config = config
        self.timing = timing
        self.injector = None
        self.health = None
        self._m_corrected = None
        if metrics is not None:
            self._m_corrected = metrics.counter(
                "anaheim_ecc_corrected_total",
                "Single-bit errors corrected by SEC-DED")
            self._m_detected = metrics.counter(
                "anaheim_ecc_detected_total",
                "Double-bit errors detected (uncorrectable) by SEC-DED")
            self._m_scrubs = metrics.counter(
                "anaheim_scrub_passes_total",
                "Scrub passes by kind", labelnames=("kind",))
            self._m_remaps = metrics.counter(
                "anaheim_remap_total",
                "Region migrations to spares", labelnames=("reason",))
        self._regions: "dict[int, RegionState]" = {}
        self._next_scrub_s = config.scrub_interval_s
        self._idle_budget_s = 0.0
        self._pending_escapes: "dict[int, int]" = {}
        self._spares_flagged: "set[int]" = set()
        self.errors_total = 0
        self.corrected = 0
        self.detected = 0
        self.escaped = 0
        self.spares_used = 0
        self.spares_exhausted = 0
        self.scrub_passes = {"periodic": 0, "idle": 0, "demand": 0}
        self.remaps = {"predictive": 0, "uncorrectable": 0}
        self.remapped_sites: "list[int]" = []
        self.scrub_time_s = 0.0
        self.repair_time_s = 0.0
        self.correct_time_s = 0.0
        self.migration_time_s = 0.0
        self.idle_absorbed_s = 0.0

    def bind(self, injector, health) -> None:
        """Attach the run's fault injector (stuck-region neutralization
        on remap) and health monitor (memory-pressure input)."""
        self.injector = injector
        self.health = health

    # -- Error accrual -------------------------------------------------------

    def _region(self, site: int) -> RegionState:
        state = self._regions.get(site)
        if state is None:
            state = RegionState(stream=self.config.rng("region", site))
            self._regions[site] = state
        return state

    def _live_sites(self) -> "list[int]":
        return sorted(set(range(self.config.n_regions)) | set(self._regions))

    def _observe(self, site: int, now: float) -> "tuple[int, int, int]":
        """Draw the errors accrued in the region since it was last
        known clean, classify them, and reset its window."""
        cfg = self.config
        state = self._region(site)
        dt = now - state.last_clean_s
        state.last_clean_s = now
        if dt <= 0.0:
            return 0, 0, 0
        lam = cfg.retention_rate * dt * (1.0 + cfg.wear_factor * state.wear)
        n = int(state.stream.poisson(lam))
        if n == 0:
            return 0, 0, 0
        u = state.stream.random(n)
        escapes = int((u < cfg.escape_fraction).sum())
        doubles = int(((u >= cfg.escape_fraction)
                       & (u < cfg.escape_fraction
                          + cfg.multi_bit_fraction)).sum())
        singles = n - doubles - escapes
        state.corrected += singles
        state.detected += doubles
        state.escaped += escapes
        self.errors_total += n
        self.corrected += singles
        self.detected += doubles
        self.escaped += escapes
        if self._m_corrected is not None:
            if singles:
                self._m_corrected.inc(singles)
            if doubles:
                self._m_detected.inc(doubles)
        if self.health is not None:
            for _ in range(doubles + escapes):
                self.health.note_uncorrectable(site, now)
        return singles, doubles, escapes

    # -- Maintenance actions -------------------------------------------------

    def _count_scrub(self, kind: str, passes: int = 1) -> None:
        self.scrub_passes[kind] += passes
        if self._m_corrected is not None:
            self._m_scrubs.inc(passes, kind=kind)

    def _repair(self, items: list) -> None:
        """One demand rewrite of a region from redundant data."""
        cost = self.config.scrub_pass_s(self.timing)
        self.repair_time_s += cost
        items.append(("ras.repair", cost))
        self._count_scrub("demand")

    def _maybe_remap(self, site: int, now: float, items: list) -> None:
        cfg = self.config
        state = self._region(site)
        if state.corrected >= cfg.remap_threshold:
            reason = "predictive"
        elif state.uncorrectable >= cfg.uncorrectable_remap_threshold:
            reason = "uncorrectable"
        else:
            return
        if self.spares_used >= cfg.spare_regions:
            if site not in self._spares_flagged:
                self._spares_flagged.add(site)
                self.spares_exhausted += 1
            return
        cost = cfg.migration_s(self.timing)
        self.migration_time_s += cost
        items.append(("ras.remap", cost))
        self.spares_used += 1
        self.remaps[reason] += 1
        self.remapped_sites.append(site)
        if self._m_corrected is not None:
            self._m_remaps.inc(reason=reason)
        if self.injector is not None:
            self.injector.retire_site(site)
        # The spare starts fresh: health counters and wear reset, the
        # remapped flag records that this logical region now lives in
        # a spare physical region.
        state.wear = 0
        state.corrected = 0
        state.detected = 0
        state.escaped = 0
        state.remapped = True
        state.last_clean_s = now

    def _scrub_due(self, now: float, items: list) -> None:
        """Run every full scrub pass due at or before ``now``.  Passes
        that fit in the accumulated PIM-idle budget are free
        (``kind="idle"``); the rest charge the timeline."""
        cfg = self.config
        per_region = cfg.scrub_pass_s(self.timing)
        while self._next_scrub_s <= now:
            pass_time = self._next_scrub_s
            self._next_scrub_s += cfg.scrub_interval_s
            sites = self._live_sites()
            cost = per_region * len(sites)
            for site in sites:
                singles, doubles, escapes = self._observe(site, pass_time)
                # Scrub corrects singles in-stream; doubles are
                # rewritten from redundancy; the end-of-pass checksum
                # audit catches anything the ECC miscorrected.
                if doubles or escapes:
                    self._repair(items)
                self._maybe_remap(site, pass_time, items)
            absorbed = min(self._idle_budget_s, cost)
            self._idle_budget_s -= absorbed
            self.idle_absorbed_s += absorbed
            charged = cost - absorbed
            if charged > 0.0:
                self.scrub_time_s += charged
                items.append(("ras.scrub", charged))
                self._count_scrub("periodic")
            else:
                self._count_scrub("idle")

    # -- Scheduler hooks -----------------------------------------------------

    def note_idle(self, seconds: float) -> None:
        """PIM banks idled for ``seconds`` (a GPU execution window);
        grow the opportunistic scrub budget.  The bank is capped at one
        full sweep — idle time cannot be hoarded across passes, so
        aggressive scrub intervals show up as charged periodic time."""
        cap = (self.config.n_regions
               * self.config.scrub_pass_s(self.timing))
        self._idle_budget_s = min(self._idle_budget_s + seconds, cap)

    def before_kernel(self, site: int, now: float):
        """Maintenance due before a PIM kernel touches ``site``.

        Returns ``(items, escape)``: timeline items to charge, and
        whether an ECC escape corrupted the operands — the caller must
        re-execute after the checksum guard flags the result and then
        charge :meth:`repair_items`.
        """
        items: "list[tuple[str, float]]" = []
        self._scrub_due(now, items)
        state = self._region(site)
        state.wear += 1
        singles, doubles, escapes = self._observe(site, now)
        if singles:
            cost = singles * self.config.correction_time_s
            self.correct_time_s += cost
            items.append(("ras.correct", cost))
        if doubles:
            # ECC flags the operand fetch before execution starts: the
            # region is rewritten from redundancy and the kernel
            # proceeds on clean data — no recompute needed.
            self._repair(items)
        if escapes:
            self._pending_escapes[site] = (
                self._pending_escapes.get(site, 0) + escapes)
        self._maybe_remap(site, now, items)
        return items, bool(escapes)

    def repair_items(self, site: int, now: float):
        """Recovery charged after the checksum guard catches an ECC
        escape: rewrite the region, then the caller re-executes."""
        items: "list[tuple[str, float]]" = []
        self._pending_escapes.pop(site, None)
        self._repair(items)
        self._maybe_remap(site, now, items)
        return items

    # -- Reporting -----------------------------------------------------------

    def summary(self) -> dict:
        uncorrected = sum(self._pending_escapes.values())
        return {
            "config": self.config.canonical(),
            "config_digest": self.config.digest(),
            "errors_total": self.errors_total,
            "corrected": self.corrected,
            "detected": self.detected,
            "escaped": self.escaped,
            "uncorrected": uncorrected,
            "scrub_passes": dict(self.scrub_passes),
            "remaps": dict(self.remaps),
            "remapped_sites": list(self.remapped_sites),
            "spares_used": self.spares_used,
            "spares_total": self.config.spare_regions,
            "spares_exhausted": self.spares_exhausted,
            "scrub_time_s": self.scrub_time_s,
            "repair_time_s": self.repair_time_s,
            "correct_time_s": self.correct_time_s,
            "migration_time_s": self.migration_time_s,
            "idle_absorbed_s": self.idle_absorbed_s,
            "ras_time_s": (self.scrub_time_s + self.repair_time_s
                           + self.correct_time_s + self.migration_time_s),
        }
