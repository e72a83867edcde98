//! The background scrub scheduler: periodic end-to-end verification
//! with automatic repair enqueueing.
//!
//! A [`ScrubScheduler`] owns one thread that wakes every `interval`,
//! runs [`Cluster::scrub`], and immediately repairs every damaged
//! object it found ([`Cluster::repair_object`]). Cycle outcomes are
//! recorded and queryable; [`ScrubScheduler::stop`] (or drop) shuts the
//! thread down promptly via a condvar, not a sleep.

use crate::cluster::{Cluster, ClusterScrubReport, RepairOutcome};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;
use xor_runtime::lock_unpoisoned as lock;

/// Outcome of one scrub-and-repair cycle.
#[derive(Debug)]
pub enum ScrubCycle {
    /// The scrub ran; damaged objects were repaired (outcomes listed,
    /// including failed attempts with their reason).
    Ran {
        scrub: ClusterScrubReport,
        repairs: Vec<RepairOutcome>,
    },
    /// The scrub itself failed (e.g. no node reachable).
    Failed(String),
}

/// Retained cycle outcomes: a fire-and-forget embedder that never
/// drains the log must not grow memory without bound.
const MAX_CYCLES: usize = 64;

struct Shared {
    stop: Mutex<bool>,
    wake: Condvar,
    cycles: Mutex<VecDeque<ScrubCycle>>,
}

/// Handle of the background scrubber; dropping it stops the thread.
pub struct ScrubScheduler {
    shared: Arc<Shared>,
    thread: Option<thread::JoinHandle<()>>,
}

impl ScrubScheduler {
    /// Start scrubbing `cluster` every `interval`. The first cycle runs
    /// one `interval` after the start (a freshly started cluster is
    /// trivially clean).
    pub fn start(cluster: Arc<Cluster>, interval: Duration) -> ScrubScheduler {
        let shared = Arc::new(Shared {
            stop: Mutex::new(false),
            wake: Condvar::new(),
            cycles: Mutex::new(VecDeque::new()),
        });
        let thread = {
            let shared = shared.clone();
            thread::Builder::new()
                .name("store-scrub".into())
                .spawn(move || scrub_loop(&cluster, &shared, interval))
                .expect("spawning scrub thread")
        };
        ScrubScheduler { shared, thread: Some(thread) }
    }

    /// Completed cycles so far (drains the log; only the most recent
    /// `MAX_CYCLES` are retained between drains).
    pub fn take_cycles(&self) -> Vec<ScrubCycle> {
        lock(&self.shared.cycles).drain(..).collect()
    }

    /// Stop the scrubber and join its thread.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        *lock(&self.shared.stop) = true;
        self.shared.wake.notify_all();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ScrubScheduler {
    fn drop(&mut self) {
        self.halt();
    }
}

fn scrub_loop(cluster: &Cluster, shared: &Shared, interval: Duration) {
    loop {
        // Interruptible sleep: `stop()` flips the flag and notifies.
        {
            let mut stop = lock(&shared.stop);
            while !*stop {
                let (guard, timeout) = shared
                    .wake
                    .wait_timeout(stop, interval)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                stop = guard;
                if timeout.timed_out() {
                    break;
                }
            }
            if *stop {
                return;
            }
        }
        let cycle = match cluster.scrub_and_repair() {
            Ok((scrub, repairs)) => ScrubCycle::Ran { scrub, repairs },
            Err(e) => ScrubCycle::Failed(e.to_string()),
        };
        let mut cycles = lock(&shared.cycles);
        if cycles.len() >= MAX_CYCLES {
            cycles.pop_front();
        }
        cycles.push_back(cycle);
    }
}
