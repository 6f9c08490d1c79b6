//! One use of each banned path; none of this may pass the lint.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
use std::task::Wake;

pub fn wall_clock() -> std::time::SystemTime {
    let _start = std::time::Instant::now();
    std::time::UNIX_EPOCH
}

pub fn host_thread() {
    std::thread::spawn(|| {}).join().unwrap();
}

pub struct Shared {
    pub map: HashMap<u64, u64>,
    pub set: HashSet<u64>,
    pub lock: Mutex<u64>,
    pub count: AtomicU64,
    pub shared: Arc<u64>,
}

pub struct ThreadWaker;

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {}
}

#[expect(clippy::disallowed_types)]
pub type Unexplained = Mutex<()>;
