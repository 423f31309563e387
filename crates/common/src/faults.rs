//! Deterministic fault injection for the serving and persistence stacks.
//!
//! Production builds compile none of the machinery: the registry only
//! exists under the `fault-injection` cargo feature, and the crates that
//! host injection sites call through a no-op shim when the feature is
//! off. What is always present are the [`site`] name constants, so call
//! sites and tests share one vocabulary.
//!
//! With the feature on, a test [`install`]s a [`FaultPlan`] — a map from
//! *(site name, hit index)* to a [`Fault`] — and every instrumented code
//! path calls [`fire`] with its site name. The registry counts hits per
//! site and executes the planned fault (an injected panic, or a delay)
//! exactly at the planned hit index. Plans are deterministic by
//! construction: the same plan against the same serialized request
//! sequence faults the same operations.
//!
//! The registry is process-global (the engine's worker threads must see
//! it without any plumbing through constructors), so tests that install
//! plans must serialize themselves — see `tests/chaos_serving.rs`.

/// Canonical injection-site names, shared by instrumented crates and
/// chaos tests. The constants exist without the `fault-injection`
/// feature so instrumented call sites compile unconditionally.
pub mod site {
    /// Entry of an admission-queue drain, *before* the queue is touched:
    /// a panic here kills the applier without consuming any staged batch,
    /// exercising the respawn path losslessly.
    pub const APPLIER_DRAIN: &str = "applier::drain";
    /// Inside the applier's guarded apply step: a panic here faults the
    /// drained batches (their tickets resolve with a write fault).
    pub const APPLIER_APPLY: &str = "applier::apply";
    /// Inside a read worker's guarded answer step: a panic here faults
    /// the read batch (its ticket resolves with a read fault).
    pub const READ_WORKER: &str = "read_worker::answer";
    /// Entry of an epoch commit, before the publication lock is taken: a
    /// panic here aborts the publication with nothing published.
    pub const PUBLISH_COMMIT: &str = "publish::commit";
    /// Inside a parallel snapshot-encode worker.
    pub const SNAPSHOT_ENCODE: &str = "snapshot::encode";
    /// Inside a parallel snapshot-decode worker.
    pub const SNAPSHOT_DECODE: &str = "snapshot::decode";
}

#[cfg(feature = "fault-injection")]
pub use registry::{hits, install, Fault, FaultGuard, FaultPlan};

#[cfg(feature = "fault-injection")]
mod registry {
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;
    use std::time::Duration;

    use crate::sync::lock_recover;

    /// What happens when a planned hit fires.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Fault {
        /// Panic with a message naming the site and hit index.
        Panic,
        /// Sleep for the given duration, then continue normally.
        Delay(Duration),
    }

    /// A deterministic fault schedule: per site name, the hit indices
    /// (0-based, counted per [`install`]) at which to inject which fault.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct FaultPlan {
        planned: BTreeMap<String, BTreeMap<u64, Fault>>,
    }

    impl FaultPlan {
        /// An empty plan (injects nothing).
        pub fn new() -> Self {
            FaultPlan::default()
        }

        /// Plans `fault` at the `hit`-th execution of `site`.
        pub fn fault_at(mut self, site: &str, hit: u64, fault: Fault) -> Self {
            self.planned
                .entry(site.to_string())
                .or_default()
                .insert(hit, fault);
            self
        }

        /// Plans an injected panic at the `hit`-th execution of `site`.
        pub fn panic_at(self, site: &str, hit: u64) -> Self {
            self.fault_at(site, hit, Fault::Panic)
        }

        /// Plans a delay at the `hit`-th execution of `site`.
        pub fn delay_at(self, site: &str, hit: u64, delay: Duration) -> Self {
            self.fault_at(site, hit, Fault::Delay(delay))
        }

        /// True if the plan schedules no faults at all.
        pub fn is_empty(&self) -> bool {
            self.planned.values().all(BTreeMap::is_empty)
        }
    }

    struct Registry {
        planned: BTreeMap<String, BTreeMap<u64, Fault>>,
        counters: BTreeMap<String, u64>,
    }

    static ARMED: AtomicBool = AtomicBool::new(false);
    static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
        planned: BTreeMap::new(),
        counters: BTreeMap::new(),
    });

    /// Arms `plan` globally; the returned guard disarms and clears the
    /// registry on drop. Installing while another guard is live replaces
    /// the previous plan (tests must serialize regardless — the registry
    /// is process-global).
    pub fn install(plan: FaultPlan) -> FaultGuard {
        {
            let mut reg = lock_recover(&REGISTRY);
            reg.planned = plan.planned;
            reg.counters.clear();
        }
        ARMED.store(true, Ordering::SeqCst);
        FaultGuard { _priv: () }
    }

    /// Disarms fault injection when dropped.
    #[derive(Debug)]
    pub struct FaultGuard {
        _priv: (),
    }

    impl Drop for FaultGuard {
        fn drop(&mut self) {
            ARMED.store(false, Ordering::SeqCst);
            let mut reg = lock_recover(&REGISTRY);
            reg.planned.clear();
            reg.counters.clear();
        }
    }

    /// How many times `site` has fired under the currently-installed plan
    /// (0 when nothing is installed).
    pub fn hits(site: &str) -> u64 {
        lock_recover(&REGISTRY)
            .counters
            .get(site)
            .copied()
            .unwrap_or(0)
    }

    /// An instrumented code path announces it reached `site`. Counts the
    /// hit and executes the planned fault for this index, if any. No-op
    /// (one relaxed atomic load) while no plan is armed.
    pub fn fire(site: &str) {
        if !ARMED.load(Ordering::Relaxed) {
            return;
        }
        // Resolve the fault under the lock, execute it outside: a Delay
        // must not stall other sites, and a Panic must not poison the
        // registry (lock_recover would handle it, but cleanliness first).
        let fault = {
            let mut reg = lock_recover(&REGISTRY);
            let counter = reg.counters.entry(site.to_string()).or_insert(0);
            let hit = *counter;
            *counter += 1;
            reg.planned
                .get(site)
                .and_then(|hits| hits.get(&hit))
                .cloned()
                .map(|fault| (fault, hit))
        };
        match fault {
            Some((Fault::Panic, hit)) => panic!("injected fault: panic at {site} (hit {hit})"),
            Some((Fault::Delay(delay), _)) => std::thread::sleep(delay),
            None => {}
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        // One lock for this module's tests: the registry is global.
        static SERIAL: Mutex<()> = Mutex::new(());

        #[test]
        fn fire_is_inert_without_a_plan() {
            let _serial = lock_recover(&SERIAL);
            super::fire("nowhere");
            assert_eq!(hits("nowhere"), 0, "unarmed fire must not count");
        }

        #[test]
        fn planned_panic_fires_at_the_exact_hit() {
            let _serial = lock_recover(&SERIAL);
            let _guard = install(FaultPlan::new().panic_at("x", 2));
            super::fire("x");
            super::fire("x");
            let boom = catch_unwind(AssertUnwindSafe(|| super::fire("x")));
            assert!(boom.is_err(), "third hit must panic");
            super::fire("x");
            assert_eq!(hits("x"), 4);
        }

        #[test]
        fn guard_drop_disarms() {
            let _serial = lock_recover(&SERIAL);
            {
                let _guard = install(FaultPlan::new().panic_at("y", 0));
            }
            super::fire("y"); // must not panic
            assert_eq!(hits("y"), 0);
        }
    }
}

#[cfg(not(feature = "fault-injection"))]
pub use stub::fire;

#[cfg(feature = "fault-injection")]
pub use registry::fire;

#[cfg(not(feature = "fault-injection"))]
mod stub {
    /// No-op stand-in compiled when the `fault-injection` feature is off;
    /// instrumented call sites cost nothing in production builds.
    #[inline(always)]
    pub fn fire(_site: &str) {}
}
