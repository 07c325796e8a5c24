"""The conventional set-associative BTB the paper compares against.

Section 2 / Figure 2: an 8-way, 4096-entry BTB.  Each entry stores a
1-bit process ID, a 12-bit partial tag (hashed, so aliasing forces a
resteer but never breaks correctness), the full 57-bit target, 3 SRRIP
bits and a 2-bit confidence counter -- 75 bits per entry, 37.5 KiB total.

Confidence counters arbitrate target replacement for branches (mostly
indirect ones) whose target changes: a mispredicted target first drains
confidence before the stored target is overwritten.

Storage is flat (``set * ways + way`` indexing) with a ``-1`` tag
sentinel in invalid slots so the tag match is one ``list.index`` call;
see :mod:`repro.core.pdede` for the layout rationale.  The baseline
never invalidates entries, so only allocation writes tags.
"""

from __future__ import annotations

from repro.branch.address import ADDRESS_BITS, hash_pc
from repro.branch.types import BranchEvent
from repro.btb.base import BTBLookup, BranchTargetPredictor
from repro.btb.replacement import make_replacement_policy
from repro.checks.sanitizer import sanitizer_step

_NO_TAG = -1


class BaselineBTB(BranchTargetPredictor):
    """Set-associative BTB with partial tags and confidence counters.

    Args:
        entries: total entry count (power of two).
        ways: set associativity.
        tag_bits: width of the hashed partial tag.
        target_bits: stored target width (57 for 5-level paging).
        conf_bits: confidence-counter width.
        replacement: replacement policy name (``srrip`` by default).
        srrip_bits: RRPV width when SRRIP is selected.
        pid_bits: process-ID bits per entry.
        latency: lookup latency in cycles.
        store_kinds: when False, ``update`` ignores indirect branches
            (Section 5.6 runs with indirects served by ITTAGE instead).
    """

    def __init__(
        self,
        entries: int = 4096,
        ways: int = 8,
        tag_bits: int = 12,
        target_bits: int = ADDRESS_BITS,
        conf_bits: int = 2,
        replacement: str = "srrip",
        srrip_bits: int = 3,
        pid_bits: int = 1,
        latency: int = 1,
        allocate_indirect: bool = True,
    ) -> None:
        super().__init__()
        if entries <= 0:
            raise ValueError("entries must be positive")
        if entries % ways:
            raise ValueError("entries must be divisible by ways")
        self.entries = entries
        self.ways = ways
        self.sets = entries // ways
        self.tag_bits = tag_bits
        self.target_bits = target_bits
        self.conf_bits = conf_bits
        self._conf_max = (1 << conf_bits) - 1
        self.srrip_bits = srrip_bits
        self.pid_bits = pid_bits
        self.latency = latency
        self.allocate_indirect = allocate_indirect
        self._sets_pow2 = self.sets & (self.sets - 1) == 0
        self._index_mask = self.sets - 1
        self._tag_mask = (1 << tag_bits) - 1
        self.replacement_name = replacement
        repl_kwargs = {"m": srrip_bits} if replacement == "srrip" else {}
        self._policies = [
            make_replacement_policy(replacement, ways, **repl_kwargs)
            for _ in range(self.sets)
        ]
        size = self.sets * ways
        self._valid = [False] * size
        self._tags = [_NO_TAG] * size
        self._targets = [0] * size
        self._conf = [0] * size
        #: Mutation journal for the vector engine's struct-of-arrays
        #: mirrors: every write to lookup-visible state (tags/targets)
        #: appends its flat slot here while a vector run is active.
        self._vec_journal: list[int] | None = None

    # -- address mapping ---------------------------------------------------

    def _index(self, pc: int) -> int:
        # Index and tag come from disjoint ranges of an avalanche hash,
        # so structured code addresses do not alias systematically.
        hashed = hash_pc(pc)
        if self._sets_pow2:
            return hashed & self._index_mask
        return hashed % self.sets

    def _tag(self, pc: int) -> int:
        return (hash_pc(pc) >> 40) & self._tag_mask

    def _slot(self, pc: int) -> tuple[int, int]:
        """(set index, tag) from a single hash (hot path)."""
        hashed = hash_pc(pc)
        index = hashed & self._index_mask if self._sets_pow2 else hashed % self.sets
        return index, (hashed >> 40) & self._tag_mask

    def _find_way(self, index: int, tag: int) -> int | None:
        base = index * self.ways
        try:
            return self._tags.index(tag, base, base + self.ways) - base
        except ValueError:
            return None

    # -- BranchTargetPredictor API ------------------------------------------

    def lookup(self, pc: int) -> BTBLookup:
        index, tag = self._slot(pc)
        way = self._find_way(index, tag)
        if way is None:
            return BTBLookup(hit=False, target=None, latency=self.latency)
        self._policies[index].on_hit(way)
        return BTBLookup(
            hit=True,
            target=self._targets[index * self.ways + way],
            latency=self.latency,
            provider="btb",
        )

    def update(self, event: BranchEvent) -> None:
        self.stats.updates += 1
        sanitizer_step(self)
        if not event.taken:
            return
        if event.kind.is_indirect and not self.allocate_indirect:
            return
        index, tag = self._slot(event.pc)
        way = self._find_way(index, tag)
        if way is not None:
            self._train_existing(index, way, event.target)
            return
        self._allocate(index, tag, event.target)

    # -- fast hooks (decoded-trace engine) -----------------------------------

    def lookup_fast(self, pc: int, hashed: int) -> tuple[int | None, bool, int]:
        """`lookup` on a precomputed hash; ``(target, hit, latency)``."""
        index = hashed & self._index_mask if self._sets_pow2 else hashed % self.sets
        base = index * self.ways
        try:
            slot = self._tags.index((hashed >> 40) & self._tag_mask, base, base + self.ways)
        except ValueError:
            return (None, False, self.latency)
        self._policies[index].on_hit(slot - base)
        return (self._targets[slot], True, self.latency)

    def update_fast(
        self,
        pc: int,
        target: int,
        taken: bool,
        is_indirect: bool,
        hashed: int,
        is_same_page: bool,
    ) -> None:
        """`update` on a precomputed hash (no event object, no sanitizer)."""
        self.stats.updates += 1
        if not taken:
            return
        if is_indirect and not self.allocate_indirect:
            return
        index = hashed & self._index_mask if self._sets_pow2 else hashed % self.sets
        tag = (hashed >> 40) & self._tag_mask
        way = self._find_way(index, tag)
        if way is not None:
            self._train_existing(index, way, target)
            return
        self._allocate(index, tag, target)

    def observe_fast(
        self,
        pc: int,
        target: int,
        taken: bool,
        is_indirect: bool,
        hashed: int,
        is_same_page: bool,
    ) -> tuple[int | None, bool, int]:
        """Combined lookup+update sharing one tag match.

        Lookup mutates only replacement state, which cannot change the
        tag match, so the update half reuses the found way.
        """
        index = hashed & self._index_mask if self._sets_pow2 else hashed % self.sets
        tag = (hashed >> 40) & self._tag_mask
        base = index * self.ways
        try:
            slot = self._tags.index(tag, base, base + self.ways)
        except ValueError:
            self.stats.updates += 1
            if taken and not (is_indirect and not self.allocate_indirect):
                self._allocate(index, tag, target)
            return (None, False, self.latency)
        way = slot - base
        ltarget = self._targets[slot]
        self._policies[index].on_hit(way)
        self.stats.updates += 1
        if taken and not (is_indirect and not self.allocate_indirect):
            self._train_existing(index, way, target)
        return (ltarget, True, self.latency)

    def _train_existing(self, index: int, way: int, target: int) -> None:
        slot = index * self.ways + way
        if self._targets[slot] == target:
            if self._conf[slot] < self._conf_max:
                self._conf[slot] += 1
        elif self._conf[slot] > 0:
            # Keep the incumbent target until confidence drains.
            self._conf[slot] -= 1
        else:
            self._targets[slot] = target
            if self._vec_journal is not None:
                self._vec_journal.append(slot)
        self._policies[index].on_hit(way)

    def _allocate(self, index: int, tag: int, target: int) -> None:
        policy = self._policies[index]
        base = index * self.ways
        way = policy.victim(self._valid[base:base + self.ways])
        slot = base + way
        if self._valid[slot]:
            self.stats.evictions += 1
        self._valid[slot] = True
        self._tags[slot] = tag
        self._targets[slot] = target
        self._conf[slot] = 0
        if self._vec_journal is not None:
            self._vec_journal.append(slot)
        policy.on_insert(way)
        self.stats.allocations += 1

    def storage_bits(self) -> int:
        per_entry = (
            self.pid_bits
            + self.tag_bits
            + self.target_bits
            + self.conf_bits
            + self._policies[0].metadata_bits_per_entry()
        )
        return self.entries * per_entry

    # -- introspection helpers (tests, characterisation) --------------------

    def occupancy(self) -> int:
        """Number of valid entries currently stored."""
        return sum(self._valid)

    def metrics(self) -> dict:
        data = super().metrics()
        data["btb_entries"] = self.entries
        data["btb_ways"] = self.ways
        return data

    def contains(self, pc: int) -> bool:
        return self._find_way(self._index(pc), self._tag(pc)) is not None
