//! Hot-path fixture, path-suffix half: an ordered map in a file whose
//! path ends in `accounting/src/lib.rs`. The page accounting lists run
//! on every fault and every eviction, so `simlint` must reject this even
//! though `lib.rs` alone names no hot path; ci.sh asserts this fixture
//! still fails.

use std::collections::BTreeSet;

pub struct GhostList {
    members: BTreeSet<u64>,
}
