//! Background evictor threads: the sequential loop, MAGE's cross-batch
//! pipelined evictor (P2) and Hermit's feedback-directed scaling
//! controller.
//!
//! The **sequential** evictor (Hermit/DiLOS) performs steps ①–⑦ of §4.1
//! for one batch before starting the next. The **pipelined** evictor
//! (MAGE) uses the waiting periods of steps ③ and ⑥ to advance other
//! batches: up to three batches are in flight, and the evictor's event
//! loop harvests whichever stage completed first.
//!
//! Safety invariant (checked in debug builds in
//! [`finalize_batch`](super::batch)): a frame is reclaimed only after
//! every core's TLB entry for the page is gone *and* the page's backend
//! copy is durable.

use std::collections::VecDeque;
use std::rc::Rc;

use mage_mmu::{CoreId, FlushTicket};
use mage_sim::time::Nanos;

use crate::machine::FarMemory;
use crate::reclaim::batch::{EvictPage, WritebackSet};

/// How long an evictor sleeps when it finds no work (no deficit, empty
/// scan, stalled pipeline). A polling cadence, not a service time, so
/// the ideal model keeps it too: idle evictors must not spin without
/// advancing time.
const EVICTOR_IDLE_NS: Nanos = 10_000;

/// Sleep of a parked evictor (beyond the active pool) between checks for
/// having been scaled back in.
const EVICTOR_PARKED_NS: Nanos = 100_000;

/// Poll interval of the feedback-directed scaling controller
/// (Hermit-style dynamic evictor pools).
const SCALING_POLL_NS: Nanos = 100_000;

/// In-flight state of a pipelined evictor: the TSB and RSB of §4.1.
pub(crate) struct Pipeline {
    /// Batches whose shootdown is in flight (TLB staging buffer).
    tsb: VecDeque<(Vec<EvictPage>, FlushTicket)>,
    /// Batches whose writebacks are in flight (RDMA staging buffer).
    rsb: VecDeque<(Vec<EvictPage>, WritebackSet)>,
}

impl Pipeline {
    pub(crate) fn new() -> Self {
        Pipeline {
            tsb: VecDeque::new(),
            rsb: VecDeque::new(),
        }
    }

    fn depth(&self) -> usize {
        self.tsb.len() + self.rsb.len()
    }

    /// Pages currently unmapped but not yet reclaimed.
    fn in_flight_pages(&self) -> usize {
        self.tsb.iter().map(|(b, _)| b.len()).sum::<usize>()
            + self.rsb.iter().map(|(b, _)| b.len()).sum::<usize>()
    }
}

impl FarMemory {
    /// Background evictor thread `id`. Only the first
    /// `active_evictors` threads do work (feedback-directed scaling).
    pub(crate) async fn evictor_main(self: Rc<Self>, id: usize) {
        let core = self.evictor_cores[id % self.evictor_cores.len()];
        let mut round = id; // staggered start (§4.2.2)
        let mut pipe = Pipeline::new();
        loop {
            if self.stop_flag.get() {
                break;
            }
            if id >= self.active_evictors.get() {
                self.sim.sleep(EVICTOR_PARKED_NS).await;
                continue;
            }
            // A stalled allocator is a deficit even above the watermark:
            // `free_frames` counts frames stranded in *other* cores'
            // per-CPU caches, which the waiter cannot reach. Without this
            // (the Linux failed-allocation-wakes-kswapd rule) a thread
            // can park on the free list forever while the evictors idle —
            // a liveness bug found by mage-check's schedule exploration.
            let deficit = self.alloc.free_frames() < self.high_watermark
                || !self.free_waiters.is_empty();
            if self.cfg.pipelined_eviction {
                let progressed = self
                    .pipeline_step(core, id, &mut round, &mut pipe, deficit)
                    .await;
                if !progressed {
                    self.sim.sleep(EVICTOR_IDLE_NS).await;
                }
            } else {
                if !deficit {
                    self.sim.sleep(EVICTOR_IDLE_NS).await;
                    continue;
                }
                let outcome = self
                    .evict_batch(core, id, round, self.cfg.eviction_batch, false)
                    .await;
                round += 1;
                if outcome.pages == 0 {
                    self.sim.sleep(EVICTOR_IDLE_NS).await;
                }
            }
        }
    }

    /// Hermit's feedback-directed controller: doubles the evictor pool
    /// when free pages run low, halves it when pressure subsides.
    pub(crate) async fn scaling_controller(self: Rc<Self>) {
        loop {
            if self.stop_flag.get() {
                break;
            }
            self.sim.sleep(SCALING_POLL_NS).await;
            let free = self.alloc.free_frames();
            let active = self.active_evictors.get();
            if free < self.low_watermark && active < self.cfg.max_evictors {
                self.active_evictors
                    .set((active * 2).min(self.cfg.max_evictors));
            } else if free > self.high_watermark && active > self.cfg.evictors {
                self.active_evictors
                    .set((active / 2).max(self.cfg.evictors));
            }
        }
    }

    /// One event-loop step of the pipelined evictor. Returns whether any
    /// stage made progress (if not, the caller idles briefly).
    pub(crate) async fn pipeline_step(
        &self,
        core: CoreId,
        evictor_id: usize,
        round: &mut usize,
        pipe: &mut Pipeline,
        deficit: bool,
    ) -> bool {
        let now = self.sim.now();
        let mut progressed = false;

        // Steps ⑥–⑦: settle and harvest write-complete batches from the
        // RSB (retrying failed writebacks and requeueing victims whose
        // write could not be made durable).
        while pipe
            .rsb
            .front()
            .is_some_and(|(_, wb)| wb.done_at().is_none_or(|t| t <= now))
        {
            let (batch, wb) = pipe.rsb.pop_front().expect("checked non-empty");
            let survivors = self.settle_writebacks(core, &batch, &wb).await;
            self.finalize_batch(core, &survivors, false).await;
            progressed = true;
        }

        // Steps ④–⑤: move TLB-acked batches from the TSB to the RSB.
        while pipe.tsb.front().is_some_and(|(_, t)| t.done_at() <= now) {
            let (batch, _) = pipe.tsb.pop_front().expect("checked non-empty");
            let wb = self.post_writebacks(&batch).await;
            pipe.rsb.push_back((batch, wb));
            progressed = true;
        }

        // Steps ①–②: start a fresh batch while there is memory pressure
        // and pipeline capacity (three batches in flight, §4.1). Pace the
        // refill to the actual free-page deficit: firing the whole
        // pipeline the instant the watermark is crossed produces periodic
        // IPI storms that needlessly spike application tail latency.
        let mut shortfall = self.high_watermark.saturating_sub(self.alloc.free_frames()) as usize;
        if !self.free_waiters.is_empty() {
            // Stalled allocators need reclaimed frames routed through the
            // shared queue no matter what the raw free count says.
            shortfall = shortfall.max(self.cfg.eviction_batch);
        }
        if deficit && pipe.depth() < 3 && pipe.in_flight_pages() < shortfall {
            let t_scan = self.sim.now();
            let (batch, _acct) = self
                .scan_and_unmap(evictor_id, *round, self.cfg.eviction_batch)
                .await;
            self.trace_evt(
                core.0,
                "evict",
                "scan",
                t_scan,
                Some(("pages", batch.len() as u64)),
            );
            *round += 1;
            if !batch.is_empty() {
                let ticket = self.send_shootdown(core, &batch).await;
                pipe.tsb.push_back((batch, ticket));
                progressed = true;
            }
        }

        if !progressed {
            // Steps ③/⑥: sleep until the earliest in-flight completion
            // instead of spinning.
            let next_tlb = pipe.tsb.front().map(|(_, t)| t.done_at());
            let next_rdma = pipe.rsb.front().and_then(|(_, wb)| wb.done_at());
            let next = match (next_tlb, next_rdma) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            if let Some(t) = next {
                self.sim.sleep_until(t).await;
                return true;
            }
        }
        progressed
    }
}
