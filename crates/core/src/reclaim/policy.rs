//! The victim-selection policy (`EP₁`).
//!
//! A policy answers one question — *is this candidate worth keeping
//! resident for another round?* — by testing **and aging** the page's
//! reference state. The accounting structure decides *which* candidates
//! are inspected and in what order (its partition count is the other
//! victim-selection knob); the policy decides their fate. The split
//! mirrors Linux: `isolate_lru_pages` picks candidates, the reference
//! check decides reactivation.
//!
//! Every built-in [`EvictionPolicyKind`](crate::config::EvictionPolicyKind)
//! is a preset of one [`VictimPolicy`]. `Fifo` evicts in scan order with
//! no recheck — MAGE-Lnx's FIFO queues (§5.1). Every other preset is a
//! counter: a grace byte per local frame, charged when the accessed bit
//! is set, decremented by a cold scan, and the page is evicted at zero.
//! The counter presets differ only in the charge rule, the cap and
//! whether a ghost hit recharges:
//!
//! | kind | increment | cap | refault recharge |
//! |---|---|---|---|
//! | `SecondChance` (default) | no | 0 | no |
//! | `AgingClock` | no | 2 | no |
//! | `ApproxLru` | no | 7 | no |
//! | `S3Fifo` | yes | 3 | yes |
//!
//! Cap 0 is the paper's second-chance test. An NFU aging register
//! (`age = age >> 1 | accessed << 7`) always evicts on the 8th cold scan
//! after the last hit, so the LRU approximation is cap 7. The S3-FIFO
//! filter (SOSP '23) is a 2-bit saturating frequency; a policy that
//! recharges on a ghost hit also asks the accounting structure to admit
//! ghost hits to its protected list
//! ([`VictimPolicy::promotes_ghost_hits`]), which is S3-FIFO's
//! small/main/ghost queue rule.
//!
//! ## Ghost-feedback contract
//!
//! The engine calls [`VictimPolicy::note_refault`] whenever a fault-in
//! (or an eviction cancel) hits the accounting ghost list — i.e. the
//! page was evicted recently enough that evicting it was probably a
//! mistake. Both call sites run after the page's PTE is present again.
//! Only a recharging preset (`S3Fifo`) acts on the signal; for the
//! others it is a no-op, so the pinned default paths pay nothing.

use std::cell::RefCell;

use mage_mmu::PageTable;

/// The victim-selection policy: test-and-age one eviction candidate.
///
/// With `recheck` off (`Fifo`) every candidate is evicted and the
/// accessed bit is neither read nor cleared: only a rechecking policy
/// reads it. Otherwise a scan that finds the accessed bit set charges
/// the page's counter — to `cap`, or by one up to `cap` when `increment`
/// is set — and keeps the page. A cold scan keeps the page while the
/// counter is above zero, decrementing it, and evicts at zero. With
/// `refault_recharge`, a ghost hit charges the counter to `cap`.
///
/// **Frame keying.** Counters live in one byte per local frame, indexed
/// by the PTE's frame number and grown on first touch, so the state is
/// O(local frames). A frame's counter is always zero when the frame
/// changes owner:
/// - a page leaves residency through a scan only after its probe
///   returned `false`, and that verdict leaves the counter at zero;
/// - forced pageout, the one eviction without a probe, zeroes it first
///   ([`VictimPolicy::note_pageout`]);
/// - eviction cancels and requeued victims re-map the same frame.
pub struct VictimPolicy {
    name: &'static str,
    recheck: bool,
    increment: bool,
    cap: u8,
    refault_recharge: bool,
    counters: RefCell<Vec<u8>>,
}

impl VictimPolicy {
    /// Strict FIFO: evicts every candidate in scan order.
    pub(crate) fn fifo(name: &'static str) -> Self {
        VictimPolicy {
            recheck: false,
            ..VictimPolicy::counter(name, false, 0, false)
        }
    }

    /// A counter policy with every counter at zero.
    pub(crate) fn counter(
        name: &'static str,
        increment: bool,
        cap: u8,
        refault_recharge: bool,
    ) -> Self {
        VictimPolicy {
            name,
            recheck: true,
            increment,
            cap,
            refault_recharge,
            counters: RefCell::new(Vec::new()),
        }
    }

    /// Display name (for reports).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Tests candidate `vpn` and ages its reference state; `true` keeps
    /// the page resident for another round (it is reactivated by the
    /// accounting structure), `false` hands it to the evictor. A
    /// rechecking policy clears the accessed bit, so the next round
    /// observes only newer accesses.
    pub fn test_and_age(&self, pt: &PageTable, vpn: u64) -> bool {
        if !self.recheck {
            return false;
        }
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

    /// Called when a fault-in for `vpn` hits the accounting ghost list
    /// (the page is back shortly after being evicted), once its PTE is
    /// present again. A recharging policy charges the page's counter to
    /// the cap.
    pub fn note_refault(&self, pt: &PageTable, vpn: u64) {
        if self.refault_recharge {
            self.set(pt, vpn, self.cap);
        }
    }

    /// Called by forced pageout just before it unmaps `vpn` — the one
    /// eviction that does not ask [`test_and_age`](Self::test_and_age)
    /// first. Zeroes the page's counter.
    pub fn note_pageout(&self, pt: &PageTable, vpn: u64) {
        if self.cap > 0 {
            self.set(pt, vpn, 0);
        }
    }

    /// Whether the accounting structure should admit a page that faults
    /// back while still on its ghost list straight to the protected list,
    /// skipping probation. Asked once at machine launch.
    pub fn promotes_ghost_hits(&self) -> bool {
        self.refault_recharge
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
        let p = EvictionPolicyKind::Fifo.build();
        assert!(!p.test_and_age(&pt, 9), "no recheck");
        assert!(pt.get(9).accessed(), "the accessed bit is left alone");
    }

    #[test]
    fn aging_clock_grants_grace_rounds() {
        let pt = table_with(9, true);
        let p = EvictionPolicyKind::AgingClock.build();
        assert!(p.test_and_age(&pt, 9), "hit: recharged");
        // Two further cold scans survive on the counter, the third evicts
        // (three survivals per hit in total: three grace rounds).
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
    fn second_chance_ignores_the_refault_signal() {
        let pt = table_with(9, false);
        let p = EvictionPolicyKind::SecondChance.build();
        p.note_refault(&pt, 9);
        assert!(!p.test_and_age(&pt, 9), "second-chance ignores the signal");
    }

    #[test]
    fn aging_clock_recharges_on_rehit() {
        let pt = table_with(9, true);
        let p = EvictionPolicyKind::AgingClock.build();
        assert!(p.test_and_age(&pt, 9));
        assert!(p.test_and_age(&pt, 9), "one grace round spent");
        pt.set(9, pt.get(9).with_accessed(true)); // page touched again
        assert!(p.test_and_age(&pt, 9), "recharged by the new hit");
        // The counter is full again: two more cold survivals, not one.
        assert!(p.test_and_age(&pt, 9));
        assert!(p.test_and_age(&pt, 9));
        assert!(!p.test_and_age(&pt, 9), "grace exhausted");
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
