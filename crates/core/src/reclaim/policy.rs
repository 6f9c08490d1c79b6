//! Pluggable victim-selection policies (`EP₁`).
//!
//! A policy answers one question — *is this candidate worth keeping
//! resident for another round?* — by testing **and aging** the page's
//! reference state. The accounting structure decides *which* candidates
//! are inspected and in what order (its partition count is the other
//! victim-selection knob); the policy decides their fate. The split
//! mirrors Linux: `isolate_lru_pages` picks candidates, the reference
//! check decides reactivation.
//!
//! Two mechanisms ship. [`Fifo`] evicts in scan order with no recheck —
//! MAGE-Lnx's FIFO queues (§5.1). Every other built-in
//! [`EvictionPolicyKind`](crate::config::EvictionPolicyKind) is a preset
//! of one counter mechanism (`CounterPolicy` below): a grace byte per
//! local frame, charged when the accessed bit is set, decremented by a
//! cold scan, and the page is evicted at zero. The presets differ only
//! in the charge rule, the cap and whether a ghost hit recharges:
//!
//! | kind | increment | cap | refault recharge |
//! |---|---|---|---|
//! | `SecondChance` (default) | no | 0 | no |
//! | `AgingClock { hot_rounds: h }` | no | `h.max(1) - 1` | no |
//! | `ApproxLru` | no | 7 | no |
//! | `S3Fifo` | yes | 3 | yes |
//!
//! Cap 0 is the paper's second-chance test. An NFU aging register
//! (`age = age >> 1 | accessed << 7`) always evicts on the 8th cold scan
//! after the last hit, so the LRU approximation is cap 7. The S3-FIFO
//! filter (SOSP '23) is a 2-bit saturating frequency; a policy that
//! recharges on a ghost hit also asks the accounting structure to admit
//! ghost hits to its protected list
//! ([`EvictionPolicy::promotes_ghost_hits`]), which is S3-FIFO's
//! small/main/ghost queue rule.
//! New policies implement [`EvictionPolicy`] and plug in through
//! [`EvictionPolicyKind::Custom`](crate::config::EvictionPolicyKind) —
//! no engine edits.
//!
//! ## Ghost-feedback contract
//!
//! The engine notifies the policy via [`EvictionPolicy::note_refault`]
//! whenever a fault-in (or an eviction cancel) hits the accounting
//! ghost list — i.e. the page was evicted recently enough that evicting
//! it was probably a mistake. Both call sites run after the page's PTE
//! is present again. Policies may use the signal to bias victim
//! selection away from such pages; the default is a no-op, so policies
//! that ignore it (and the pinned default paths) pay nothing.

use std::cell::RefCell;

use mage_mmu::PageTable;

/// Victim-selection policy: test-and-age one eviction candidate.
pub trait EvictionPolicy {
    /// Display name (for reports and examples).
    fn name(&self) -> &'static str;

    /// Tests candidate `vpn` and ages its reference state; `true` keeps
    /// the page resident for another round (it is reactivated by the
    /// accounting structure), `false` hands it to the evictor.
    ///
    /// Implementations that consult the hardware-accessed bit must clear
    /// it here, so the next round observes only newer accesses.
    fn test_and_age(&self, pt: &PageTable, vpn: u64) -> bool;

    /// Called when a fault-in for `vpn` hits the accounting ghost list
    /// (the page is back shortly after being evicted), once its PTE is
    /// present again. Policies may bias future
    /// [`test_and_age`](Self::test_and_age) decisions in its favour; the
    /// default ignores the signal.
    fn note_refault(&self, _pt: &PageTable, _vpn: u64) {}

    /// Called by forced pageout just before it unmaps `vpn` — the one
    /// eviction that does not ask [`test_and_age`](Self::test_and_age)
    /// first. Policies drop any state the page still holds; the default
    /// ignores the signal.
    fn note_pageout(&self, _pt: &PageTable, _vpn: u64) {}

    /// Whether the accounting structure should admit a page that faults
    /// back while still on its ghost list straight to the protected list,
    /// skipping probation. Asked once at machine launch; the default
    /// keeps ghost hits on probation.
    fn promotes_ghost_hits(&self) -> bool {
        false
    }
}

/// Strict FIFO: candidates are evicted in scan order with no reference
/// recheck at all — MAGE-Lnx's FIFO queues (§5.1). The accessed bit is
/// neither read nor cleared: only policies read it.
#[derive(Default)]
pub struct Fifo;

impl EvictionPolicy for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn test_and_age(&self, _pt: &PageTable, _vpn: u64) -> bool {
        false
    }
}

/// The counter mechanism behind every built-in policy except [`Fifo`].
///
/// A scan that finds the accessed bit set charges the page's counter —
/// to `cap`, or by one up to `cap` when `increment` is set — and keeps
/// the page. A cold scan keeps the page while the counter is above zero,
/// decrementing it, and evicts at zero. With `refault_recharge`, a ghost
/// hit charges the counter to `cap`.
///
/// **Frame keying.** Counters live in one byte per local frame, indexed
/// by the PTE's frame number and grown on first touch, so the state is
/// O(local frames). A frame's counter is always zero when the frame
/// changes owner:
/// - a page leaves residency through a scan only after its probe
///   returned `false`, and that verdict leaves the counter at zero;
/// - forced pageout, the one eviction without a probe, zeroes it first
///   ([`EvictionPolicy::note_pageout`]);
/// - eviction cancels and requeued victims re-map the same frame.
pub(crate) struct CounterPolicy {
    name: &'static str,
    increment: bool,
    cap: u8,
    refault_recharge: bool,
    counters: RefCell<Vec<u8>>,
}

impl CounterPolicy {
    /// A counter policy with every counter at zero.
    pub(crate) fn new(
        name: &'static str,
        increment: bool,
        cap: u8,
        refault_recharge: bool,
    ) -> Self {
        CounterPolicy {
            name,
            increment,
            cap,
            refault_recharge,
            counters: RefCell::new(Vec::new()),
        }
    }

    /// Sets the counter of the frame behind `vpn`, if the page is
    /// resident.
    fn set(&self, pt: &PageTable, vpn: u64, value: u8) {
        let pte = pt.get(vpn);
        if pte.is_present() {
            *slot(&mut self.counters.borrow_mut(), pte.payload()) = value;
        }
    }
}

/// The counter of `frame`, growing the array on first touch.
fn slot(counters: &mut Vec<u8>, frame: u64) -> &mut u8 {
    let i = usize::try_from(frame).expect("frame number fits in usize");
    if i >= counters.len() {
        counters.resize(i + 1, 0);
    }
    &mut counters[i]
}

impl EvictionPolicy for CounterPolicy {
    fn name(&self) -> &'static str {
        self.name
    }

    fn test_and_age(&self, pt: &PageTable, vpn: u64) -> bool {
        let old = pt.update(vpn, |p| p.with_accessed(false));
        if self.cap == 0 || !old.is_present() {
            // No grace to count (second chance), or a candidate that
            // forced pageout took while a scan held it: the accessed bit
            // decides.
            return old.accessed();
        }
        let mut counters = self.counters.borrow_mut();
        let c = slot(&mut counters, old.payload());
        if old.accessed() {
            *c = if self.increment {
                (*c + 1).min(self.cap)
            } else {
                self.cap
            };
            true
        } else if *c > 0 {
            *c -= 1;
            true
        } else {
            false
        }
    }

    fn note_refault(&self, pt: &PageTable, vpn: u64) {
        if self.refault_recharge {
            self.set(pt, vpn, self.cap);
        }
    }

    fn note_pageout(&self, pt: &PageTable, vpn: u64) {
        if self.cap > 0 {
            self.set(pt, vpn, 0);
        }
    }

    fn promotes_ghost_hits(&self) -> bool {
        self.refault_recharge
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EvictionPolicyKind;
    use mage_mmu::Pte;

    fn table_with(vpn: u64, accessed: bool) -> PageTable {
        let pt = PageTable::new();
        pt.set(vpn, Pte::present(1).with_accessed(accessed));
        pt
    }

    #[test]
    fn second_chance_clears_and_reports() {
        let pt = table_with(9, true);
        let p = EvictionPolicyKind::SecondChance.build();
        assert!(p.test_and_age(&pt, 9), "hot on first test");
        assert!(!pt.get(9).accessed(), "bit cleared by the test");
        assert!(!p.test_and_age(&pt, 9), "cold on second test");
    }

    #[test]
    fn fifo_never_reactivates() {
        let pt = table_with(9, true);
        let p = Fifo;
        assert!(!p.test_and_age(&pt, 9), "no recheck");
        assert!(pt.get(9).accessed(), "the accessed bit is left alone");
    }

    #[test]
    fn aging_clock_grants_grace_rounds() {
        let pt = table_with(9, true);
        let p = EvictionPolicyKind::AgingClock { hot_rounds: 3 }.build();
        assert!(p.test_and_age(&pt, 9), "hit: recharged");
        // Two further cold scans survive on the counter, the third evicts
        // (three survivals per hit in total with hot_rounds = 3).
        assert!(p.test_and_age(&pt, 9));
        assert!(p.test_and_age(&pt, 9));
        assert!(!p.test_and_age(&pt, 9), "grace exhausted");
        assert!(!p.test_and_age(&pt, 9), "stays cold");
    }

    #[test]
    fn s3fifo_caps_frequency_and_decays() {
        let pt = table_with(9, true);
        let p = EvictionPolicyKind::S3Fifo.build();
        assert!(p.test_and_age(&pt, 9), "hit: freq -> 1");
        assert!(!pt.get(9).accessed(), "bit cleared by the test");
        assert!(p.test_and_age(&pt, 9), "cold: last grace unit spent");
        assert!(!p.test_and_age(&pt, 9), "cold again: evicted");
        // Repeated hits saturate at the cap instead of growing forever.
        for _ in 0..10 {
            pt.set(9, pt.get(9).with_accessed(true));
            assert!(p.test_and_age(&pt, 9));
        }
        let survives = (0..8).take_while(|_| p.test_and_age(&pt, 9)).count();
        assert_eq!(survives, 3, "decay bounded by the 2-bit cap");
    }

    #[test]
    fn s3fifo_refault_signal_recharges() {
        let pt = table_with(9, false);
        let p = EvictionPolicyKind::S3Fifo.build();
        assert!(!p.test_and_age(&pt, 9), "unknown cold page evicts");
        p.note_refault(&pt, 9);
        assert!(p.test_and_age(&pt, 9), "ghost hit grants full grace");
        assert!(p.test_and_age(&pt, 9));
        assert!(p.test_and_age(&pt, 9));
        assert!(!p.test_and_age(&pt, 9), "grace exhausted");
    }

    #[test]
    fn approx_lru_age_byte_decays_over_eight_scans() {
        let pt = table_with(9, true);
        let p = EvictionPolicyKind::ApproxLru.build();
        assert!(p.test_and_age(&pt, 9), "hit: byte = 0x80");
        let survives = (0..10).take_while(|_| p.test_and_age(&pt, 9)).count();
        assert_eq!(survives, 7, "seven further survivals as the byte shifts out");
        assert!(!p.test_and_age(&pt, 9), "stays cold");
    }

    #[test]
    fn approx_lru_ranks_recent_over_stale() {
        let pt = PageTable::new();
        pt.set(1, Pte::present(1).with_accessed(true));
        pt.set(2, Pte::present(2).with_accessed(true));
        let p = EvictionPolicyKind::ApproxLru.build();
        // Page 1 touched long ago, page 2 touched every scan: after a few
        // rounds page 1 decays out first.
        assert!(p.test_and_age(&pt, 1));
        for _ in 0..8 {
            assert!(p.test_and_age(&pt, 2));
            pt.set(2, pt.get(2).with_accessed(true));
            if !p.test_and_age(&pt, 1) {
                return; // page 1 evicted while page 2 still protected
            }
        }
        panic!("stale page never decayed out");
    }

    #[test]
    fn default_note_refault_is_a_no_op() {
        let pt = table_with(9, false);
        let p = EvictionPolicyKind::SecondChance.build();
        p.note_refault(&pt, 9);
        assert!(!p.test_and_age(&pt, 9), "second-chance ignores the signal");
    }

    #[test]
    fn aging_clock_recharges_on_rehit() {
        let pt = table_with(9, true);
        let p = EvictionPolicyKind::AgingClock { hot_rounds: 2 }.build();
        assert!(p.test_and_age(&pt, 9));
        pt.set(9, pt.get(9).with_accessed(true)); // page touched again
        assert!(p.test_and_age(&pt, 9), "recharged by the new hit");
        assert!(p.test_and_age(&pt, 9), "counter full again");
        assert!(!p.test_and_age(&pt, 9));
    }

    #[test]
    fn pageout_leaves_no_grace_for_the_next_owner() {
        let pt = table_with(9, true);
        let p = EvictionPolicyKind::ApproxLru.build();
        assert!(p.test_and_age(&pt, 9), "hit: grace charged on frame 1");
        p.note_pageout(&pt, 9);
        pt.set(9, Pte::remote(0));
        // A different page lands on the freed frame, cold.
        pt.set(4, Pte::present(1));
        assert!(!p.test_and_age(&pt, 4), "frame 1 kept its grace");
    }
}
