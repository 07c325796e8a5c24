"""Two-level BTB hierarchy (Section 5.9).

A small Level-0 BTB answers in 1 cycle; on an L0 miss a larger Level-1
BTB answers in 2 cycles and fills the L0.  Section 5.9 keeps a
conventional L0 and re-architects only the L1 with PDede, which is why
this wrapper is generic over any two :class:`BranchTargetPredictor`
instances -- the paper's configuration is
``TwoLevelBTB(BaselineBTB(l0_entries), PDedeBTB(...))``.
"""

from __future__ import annotations

from repro.branch.types import BranchEvent
from repro.btb.base import BTBLookup, BranchTargetPredictor
from repro.checks.sanitizer import sanitizer_step


class TwoLevelBTB(BranchTargetPredictor):
    """L0 + L1 hierarchy with fill-on-L1-hit.

    Args:
        level0: the fast first-level predictor.
        level1: the large second-level predictor.
        l1_extra_latency: cycles added on top of ``level1``'s own lookup
            latency to model the hierarchy traversal (paper: L1 answers
            at 2 cycles total for a conventional L1).
    """

    def __init__(
        self,
        level0: BranchTargetPredictor,
        level1: BranchTargetPredictor,
        l1_extra_latency: int = 1,
    ) -> None:
        super().__init__()
        self.level0 = level0
        self.level1 = level1
        self.l1_extra_latency = l1_extra_latency
        self.l0_hits = 0
        self.l1_hits = 0

    def lookup(self, pc: int) -> BTBLookup:
        l0_result = self.level0.lookup(pc)
        if l0_result.hit:
            self.l0_hits += 1
            return BTBLookup(
                hit=True,
                target=l0_result.target,
                latency=l0_result.latency,
                provider="l0." + l0_result.provider,
            )
        l1_result = self.level1.lookup(pc)
        if l1_result.hit or l1_result.target is not None:
            self.l1_hits += 1
            return BTBLookup(
                hit=l1_result.hit,
                target=l1_result.target,
                latency=l1_result.latency + self.l1_extra_latency,
                provider="l1." + l1_result.provider,
            )
        return BTBLookup(
            hit=False,
            target=None,
            latency=l1_result.latency + self.l1_extra_latency,
            provider="miss",
        )

    def update(self, event: BranchEvent) -> None:
        self.stats.updates += 1
        sanitizer_step(self)
        # The resolved branch trains both levels; the L0 thereby serves as
        # a fill target for anything the L1 can provide next time.
        self.level0.update(event)
        self.level1.update(event)

    # -- fast hooks (decoded-trace engine) -----------------------------------

    def observe_fast(
        self,
        pc: int,
        target: int,
        taken: bool,
        is_indirect: bool,
        hashed: int,
        is_same_page: bool,
    ) -> tuple[int | None, bool, int]:
        """Combined lookup+update over the levels' split fast hooks.

        The hierarchy cannot share one tag match across lookup and
        update (the L1 is only *looked up* on an L0 miss but always
        *updated*), so it composes the levels' ``lookup_fast`` /
        ``update_fast`` in the seed call order.
        """
        l0_target, l0_hit, l0_latency = self.level0.lookup_fast(pc, hashed)
        if l0_hit:
            self.l0_hits += 1
            ltarget, lhit, latency = l0_target, True, l0_latency
        else:
            l1_target, l1_hit, l1_latency = self.level1.lookup_fast(pc, hashed)
            if l1_hit or l1_target is not None:
                self.l1_hits += 1
                ltarget, lhit, latency = (
                    l1_target,
                    l1_hit,
                    l1_latency + self.l1_extra_latency,
                )
            else:
                ltarget, lhit, latency = (
                    None,
                    False,
                    l1_latency + self.l1_extra_latency,
                )
        self.stats.updates += 1
        self.level0.update_fast(pc, target, taken, is_indirect, hashed, is_same_page)
        self.level1.update_fast(pc, target, taken, is_indirect, hashed, is_same_page)
        return (ltarget, lhit, latency)

    def storage_bits(self) -> int:
        return self.level0.storage_bits() + self.level1.storage_bits()

    @property
    def name(self) -> str:
        return f"TwoLevel({self.level0.name}+{self.level1.name})"
