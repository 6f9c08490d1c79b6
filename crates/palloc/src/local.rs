//! Local frame-allocator stacks: global buddy, per-CPU caches, and MAGE's
//! three-level hierarchy.
//!
//! All three designs share the same underlying [`BuddyAllocator`]; they
//! differ in the concurrency structure in front of it, which is exactly
//! the paper's Challenge 3 (§3.3.3): the *placement of work under locks*
//! determines how allocation latency scales with thread count.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::ops::Range;

use mage_sim::sync::SimMutex;
use mage_sim::time::Nanos;
use mage_sim::SimHandle;

use crate::buddy::BuddyAllocator;

/// Which allocator stack fronts the buddy allocator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LocalAllocatorKind {
    /// Every operation goes through the global buddy lock (DiLOS §3.2).
    GlobalBuddy,
    /// Linux-style per-CPU page caches refilled in batches (Hermit).
    PcpuCache,
    /// MAGE's hierarchy: per-core cache → shared concurrent queue →
    /// buddy fallback (§5.2). Evictors free into the shared queue.
    MultiLayer,
}

/// Service-time constants for allocator operations (virtual ns).
#[derive(Clone, Debug)]
pub struct LocalAllocCosts {
    /// Per-CPU cache pop/push.
    pub cache_op_ns: Nanos,
    /// Shared-queue batch operation (lock hold time).
    pub queue_op_ns: Nanos,
    /// Buddy alloc/free of one block (lock hold time).
    pub buddy_op_ns: Nanos,
    /// Per-frame cost of a bulk buddy operation (amortized split/merge).
    pub buddy_bulk_per_frame_ns: Nanos,
    /// Frames moved per refill/drain batch.
    pub batch: usize,
}

impl Default for LocalAllocCosts {
    fn default() -> Self {
        LocalAllocCosts {
            cache_op_ns: 40,
            queue_op_ns: 200,
            buddy_op_ns: 300,
            buddy_bulk_per_frame_ns: 120,
            batch: 32,
        }
    }
}

/// An asynchronous frame allocator with a configurable concurrency stack.
///
/// `alloc` returns `None` only when the pool is *globally* exhausted; the
/// caller (fault path or evictor) decides whether to wait or reclaim.
pub struct LocalAllocator {
    sim: SimHandle,
    kind: LocalAllocatorKind,
    costs: LocalAllocCosts,
    buddy: SimMutex<BuddyAllocator>,
    per_core: Vec<RefCell<Vec<u64>>>,
    shared_queue: SimMutex<VecDeque<u64>>,
    /// Frames free anywhere in the hierarchy: on hardware a relaxed
    /// counter, racy by design, read only as a watermark.
    free_count: Cell<u64>,
}

impl LocalAllocator {
    /// Creates an allocator over `nframes` frames for `cores` cores.
    pub fn new(
        sim: SimHandle,
        kind: LocalAllocatorKind,
        costs: LocalAllocCosts,
        nframes: u64,
        cores: usize,
    ) -> Self {
        let buddy = BuddyAllocator::new(nframes);
        LocalAllocator {
            kind,
            buddy: SimMutex::new("palloc.buddy", buddy),
            per_core: (0..cores).map(|_| RefCell::new(Vec::new())).collect(),
            shared_queue: SimMutex::new("palloc.shared-queue", VecDeque::new()),
            free_count: Cell::new(nframes),
            costs,
            sim,
        }
    }

    /// The stack in use.
    pub fn kind(&self) -> LocalAllocatorKind {
        self.kind
    }

    /// Frames currently free anywhere in the hierarchy.
    pub fn free_frames(&self) -> u64 {
        self.free_count.get()
    }

    /// Synchronously takes up to `n` frames from the buddy allocator for
    /// initial page placement, as runs of consecutive frames in the order
    /// `n` single-frame allocations would return them
    /// ([`BuddyAllocator::alloc_runs`]); fewer only if the buddy runs dry
    /// (setup only; no virtual time passes).
    pub fn seed_frames(&self, n: u64) -> Vec<Range<u64>> {
        let runs = self.buddy.with_sync(|b| b.alloc_runs(n));
        let taken: u64 = runs.iter().map(|r| r.end - r.start).sum();
        self.free_count.set(self.free_count.get() - taken);
        runs
    }

    /// Allocates one frame on behalf of `core`.
    pub async fn alloc(&self, core: usize) -> Option<u64> {
        let frame = match self.kind {
            LocalAllocatorKind::GlobalBuddy => self.alloc_global().await,
            LocalAllocatorKind::PcpuCache => self.alloc_cached(core, false).await,
            LocalAllocatorKind::MultiLayer => self.alloc_cached(core, true).await,
        };
        if frame.is_some() {
            self.free_count.set(self.free_count.get() - 1);
        }
        frame
    }

    async fn alloc_global(&self) -> Option<u64> {
        let mut buddy = self.buddy.lock().await;
        self.sim.sleep(self.costs.buddy_op_ns).await;
        buddy.alloc(0)
    }

    async fn alloc_cached(&self, core: usize, use_shared_queue: bool) -> Option<u64> {
        // Fast path: the core-local cache. Under the hermit preset,
        // evictors free into caches they share with app threads.
        self.sim.sleep(self.costs.cache_op_ns).await;
        if let Some(f) = self.per_core[core].borrow_mut().pop() {
            return Some(f);
        }
        // Middle layer: batch-pop from the shared concurrent queue.
        if use_shared_queue {
            let mut grabbed: Vec<u64> = Vec::new();
            {
                let mut q = self.shared_queue.lock().await;
                self.sim.sleep(self.costs.queue_op_ns).await;
                for _ in 0..self.costs.batch {
                    match q.pop_front() {
                        Some(f) => grabbed.push(f),
                        None => break,
                    }
                }
            }
            if !grabbed.is_empty() {
                let first = grabbed.pop().expect("non-empty");
                self.per_core[core].borrow_mut().extend(grabbed);
                return Some(first);
            }
        }
        // Slow path: bulk refill from the buddy allocator.
        let mut refill = Vec::new();
        {
            let mut buddy = self.buddy.lock().await;
            let bulk = self.costs.buddy_op_ns
                + self.costs.buddy_bulk_per_frame_ns * self.costs.batch as u64;
            self.sim.sleep(bulk).await;
            buddy.alloc_batch(self.costs.batch, &mut refill);
        }
        let first = refill.pop()?;
        self.per_core[core].borrow_mut().extend(refill);
        Some(first)
    }

    /// Returns a batch of frames to the pool on behalf of `core`.
    ///
    /// Eviction threads call this with whole reclaimed batches; the path
    /// taken depends on the stack (buddy lock, per-CPU cache with drain,
    /// or MAGE's shared queue).
    pub async fn free_batch(&self, core: usize, frames: &[u64]) {
        if frames.is_empty() {
            return;
        }
        match self.kind {
            LocalAllocatorKind::GlobalBuddy => {
                let mut buddy = self.buddy.lock().await;
                let cost = self.costs.buddy_op_ns
                    + self.costs.buddy_bulk_per_frame_ns * frames.len() as u64;
                self.sim.sleep(cost).await;
                buddy.free_batch(frames);
            }
            LocalAllocatorKind::PcpuCache => {
                // Free into the local cache, then drain the excess to the
                // buddy (Linux pcp high-watermark behaviour).
                self.sim.sleep(self.costs.cache_op_ns).await;
                let drain: Vec<u64> = {
                    let mut cache = self.per_core[core].borrow_mut();
                    cache.extend_from_slice(frames);
                    let high = self.costs.batch * 2;
                    if cache.len() > high {
                        let keep = self.costs.batch;
                        cache.split_off(keep)
                    } else {
                        Vec::new()
                    }
                };
                if !drain.is_empty() {
                    let mut buddy = self.buddy.lock().await;
                    let cost = self.costs.buddy_op_ns
                        + self.costs.buddy_bulk_per_frame_ns * drain.len() as u64;
                    self.sim.sleep(cost).await;
                    buddy.free_batch(&drain);
                }
            }
            LocalAllocatorKind::MultiLayer => {
                // One short lock hold pushes the whole batch.
                let mut q = self.shared_queue.lock().await;
                self.sim.sleep(self.costs.queue_op_ns).await;
                q.extend(frames.iter().copied());
            }
        }
        self.free_count
            .set(self.free_count.get() + frames.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mage_sim::Simulation;
    use std::rc::Rc;

    fn alloc_rig(
        kind: LocalAllocatorKind,
        nframes: u64,
        cores: usize,
    ) -> (Simulation, Rc<LocalAllocator>) {
        let sim = Simulation::new();
        let a = Rc::new(LocalAllocator::new(
            sim.handle(),
            kind,
            LocalAllocCosts::default(),
            nframes,
            cores,
        ));
        (sim, a)
    }

    /// One `alloc` on `core` and the virtual time it charged.
    async fn timed_alloc(a: &LocalAllocator, core: usize) -> (Option<u64>, u64) {
        let t0 = a.sim.now();
        let frame = a.alloc(core).await;
        (frame, a.sim.now().saturating_since(t0))
    }

    #[test]
    fn global_buddy_allocates_distinct_frames() {
        let (sim, a) = alloc_rig(LocalAllocatorKind::GlobalBuddy, 64, 2);
        let a2 = Rc::clone(&a);
        let frames = sim.block_on(async move {
            let mut v = Vec::new();
            for _ in 0..64 {
                v.push(a2.alloc(0).await.expect("available"));
            }
            assert!(a2.alloc(0).await.is_none(), "pool exhausted");
            v
        });
        let set: std::collections::BTreeSet<_> = frames.iter().collect();
        assert_eq!(set.len(), 64);
        assert_eq!(a.free_frames(), 0);
    }

    #[test]
    fn seed_frames_stop_when_the_pool_is_empty() {
        // 7 frames: free blocks [0,4), [4,6) and [6,7), taken smallest
        // order first, and [4,6) split because one frame is left to take.
        let (_sim, a) = alloc_rig(LocalAllocatorKind::MultiLayer, 7, 2);
        assert_eq!(a.seed_frames(2), vec![6..7, 4..5]);
        assert_eq!(a.free_frames(), 5);
        assert_eq!(a.seed_frames(9), vec![5..6, 0..4]);
        assert_eq!(a.free_frames(), 0);
        assert!(a.seed_frames(1).is_empty());
        assert_eq!(a.free_frames(), 0);
    }

    #[test]
    fn pcpu_cache_hits_after_refill() {
        let (sim, a) = alloc_rig(LocalAllocatorKind::PcpuCache, 256, 2);
        let a2 = Rc::clone(&a);
        let c = LocalAllocCosts::default();
        let hit = c.cache_op_ns;
        let refill = c.cache_op_ns + c.buddy_op_ns + c.buddy_bulk_per_frame_ns * c.batch as u64;
        let (frames, charged): (Vec<_>, Vec<_>) = sim.block_on(async move {
            let mut allocs = Vec::new();
            for _ in 0..=c.batch {
                allocs.push(timed_alloc(&a2, 0).await);
            }
            allocs.into_iter().unzip()
        });
        // The first alloc refills the cache from the buddy, the next
        // (batch-1) hit the cache, and the one after refills again.
        assert_eq!(charged[0], refill, "first refill");
        assert_eq!(charged[1..c.batch], vec![hit; c.batch - 1], "cache hits");
        assert_eq!(charged[c.batch], refill, "second refill");
        assert!(frames.iter().all(Option::is_some));
    }

    #[test]
    fn multilayer_evictor_free_feeds_app_alloc() {
        let (sim, a) = alloc_rig(LocalAllocatorKind::MultiLayer, 64, 4);
        let a2 = Rc::clone(&a);
        sim.block_on(async move {
            // Drain the pool completely.
            let mut held = Vec::new();
            while let Some(f) = a2.alloc(1).await {
                held.push(f);
            }
            assert_eq!(held.len(), 64);
            // Evictor on core 3 returns a batch through the shared queue.
            let batch: Vec<u64> = held.drain(..16).collect();
            a2.free_batch(3, &batch).await;
            assert_eq!(a2.free_frames(), 16);
            // App thread on core 0 can allocate again via the queue: one
            // cache miss plus one shared-queue batch pop, no buddy refill.
            let c = LocalAllocCosts::default();
            let (frame, ns) = timed_alloc(&a2, 0).await;
            assert!(frame.is_some());
            assert_eq!(ns, c.cache_op_ns + c.queue_op_ns, "refilled from the queue");
            // The rest of the batch now sits in core 0's cache.
            assert_eq!(timed_alloc(&a2, 0).await.1, c.cache_op_ns, "cache hit");
        });
    }

    #[test]
    fn conservation_across_stacks() {
        for kind in [
            LocalAllocatorKind::GlobalBuddy,
            LocalAllocatorKind::PcpuCache,
            LocalAllocatorKind::MultiLayer,
        ] {
            let (sim, a) = alloc_rig(kind, 128, 2);
            let a2 = Rc::clone(&a);
            sim.block_on(async move {
                let mut held = Vec::new();
                for i in 0..100 {
                    if let Some(f) = a2.alloc(i % 2).await {
                        held.push(f);
                    }
                }
                assert_eq!(a2.free_frames(), 128 - held.len() as u64);
                a2.free_batch(0, &held).await;
                assert_eq!(a2.free_frames(), 128, "kind {kind:?}");
            });
        }
    }

    #[test]
    fn multilayer_is_cheaper_than_global_under_contention() {
        // 16 faulting threads + 1 evictor recycling frames: the
        // multi-layer stack must finish sooner than the global-lock buddy.
        fn run(kind: LocalAllocatorKind) -> u64 {
            let (sim, a) = alloc_rig(kind, 512, 17);
            let h = sim.handle();
            for core in 0..16usize {
                let (a, h) = (Rc::clone(&a), h.clone());
                sim.spawn(async move {
                    let mut held = Vec::new();
                    for _ in 0..100 {
                        if let Some(f) = a.alloc(core).await {
                            held.push(f);
                        }
                        h.sleep(50).await;
                        if held.len() >= 20 {
                            a.free_batch(core, &held).await;
                            held.clear();
                        }
                    }
                });
            }
            sim.run().as_nanos()
        }
        let global = run(LocalAllocatorKind::GlobalBuddy);
        let multi = run(LocalAllocatorKind::MultiLayer);
        assert!(
            multi < global,
            "multi-layer {multi} not faster than global {global}"
        );
    }
}
