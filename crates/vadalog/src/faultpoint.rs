//! Deterministic fault injection (fail-point style), feature-gated.
//!
//! With the `faultpoints` cargo feature enabled, tests arm a
//! `FaultPlan` (exported only with the feature) that fires a fault the
//! *n*-th time execution reaches a
//! named point. The engine and the [`checkpoint`](crate::checkpoint)
//! module consult these points at their safe points and around every
//! durable I/O step, so recovery paths can be exercised deterministically:
//! a plan is a pure function of (point name, hit count), never of timing
//! or scheduling.
//!
//! Four fault kinds exist:
//!
//! * [`FaultKind::Crash`] — simulated process death: panics with the
//!   dedicated [`FaultCrash`] payload, which the engine's worker-panic
//!   isolation deliberately re-raises instead of catching, so the panic
//!   escapes the run like a `kill -9` would end it. Tests catch it with
//!   `std::panic::catch_unwind` and then recover from the last snapshot.
//! * [`FaultKind::Panic`] — an ordinary panic (string payload), used to
//!   exercise the worker-panic isolation itself
//!   ([`ChaseError::WorkerPanic`](crate::error::ChaseError)).
//! * [`FaultKind::IoError`] — makes the guarded I/O step return
//!   `std::io::Error`, surfacing as
//!   [`CheckpointError::Io`](crate::checkpoint::CheckpointError).
//! * [`FaultKind::Sleep`] — stalls the hit for a fixed number of
//!   milliseconds before continuing: slow-handler / slow-worker
//!   injection for the serving layer's overload and deadline tests.
//!
//! Without the feature, the hooks compile to empty inlined functions:
//! zero cost, no global state.
//!
//! ## Instrumented points
//!
//! | point | location |
//! |---|---|
//! | `chase.round` | top of every evaluation round (after the budget check) |
//! | `chase.commit_rule` | between per-rule commits of the sequential phase |
//! | `chase.match_chunk` | before a worker evaluates a match chunk |
//! | `checkpoint.write` | before writing the temp snapshot file |
//! | `checkpoint.sync` | before fsyncing the temp snapshot file |
//! | `checkpoint.commit` | after fsync, before the atomic rename |
//! | `checkpoint.rename` | the atomic rename itself |
//! | `checkpoint.read` | before reading a snapshot file |
//! | `serve.worker` | before an explain worker evaluates a job (`crates/serve`) |
//! | `serve.handler` | top of every HTTP connection handler (`crates/serve`) |
//!
//! The `serve.*` points live outside this crate; they reach the armed
//! plan through the public [`hit`] hook.

/// Panic payload of a [`FaultKind::Crash`]: simulated process death.
///
/// The engine's worker-panic isolation re-raises this payload instead of
/// converting it to `ChaseError::WorkerPanic`, so an injected crash always
/// terminates the run the way a real crash would.
#[derive(Debug)]
pub struct FaultCrash {
    /// The fault point that fired.
    pub point: &'static str,
}

/// The kind of fault a plan entry injects.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// Simulated process death ([`FaultCrash`] panic payload).
    Crash,
    /// An ordinary panic with a string payload.
    Panic,
    /// An injected `std::io::Error` at an I/O fault point.
    IoError,
    /// A stall: the hit sleeps for the given milliseconds, then
    /// continues normally (slow-handler / slow-worker injection).
    Sleep(u64),
}

#[cfg(feature = "faultpoints")]
pub use active::{arm, ArmedFaults, FaultPlan};

#[cfg(feature = "faultpoints")]
mod active {
    use super::{FaultCrash, FaultKind};
    use std::collections::HashMap;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// One entry of a plan: fire `kind` on the `nth` (1-based) hit of
    /// `point`.
    #[derive(Clone, Debug)]
    struct Entry {
        point: String,
        kind: FaultKind,
        nth: u64,
    }

    /// A deterministic fault schedule: entries fire on exact hit counts
    /// of named points.
    #[derive(Clone, Debug, Default)]
    pub struct FaultPlan {
        entries: Vec<Entry>,
    }

    impl FaultPlan {
        /// An empty plan.
        pub fn new() -> FaultPlan {
            FaultPlan::default()
        }

        /// Simulates process death on the `nth` (1-based) hit of `point`.
        pub fn crash_at(mut self, point: &str, nth: u64) -> FaultPlan {
            self.entries.push(Entry {
                point: point.to_string(),
                kind: FaultKind::Crash,
                nth,
            });
            self
        }

        /// Injects an ordinary panic on the `nth` (1-based) hit of
        /// `point`.
        pub fn panic_at(mut self, point: &str, nth: u64) -> FaultPlan {
            self.entries.push(Entry {
                point: point.to_string(),
                kind: FaultKind::Panic,
                nth,
            });
            self
        }

        /// Fails the guarded I/O step on the `nth` (1-based) hit of
        /// `point`.
        pub fn io_error_at(mut self, point: &str, nth: u64) -> FaultPlan {
            self.entries.push(Entry {
                point: point.to_string(),
                kind: FaultKind::IoError,
                nth,
            });
            self
        }

        /// Stalls the `nth` (1-based) hit of `point` for `millis`
        /// milliseconds before letting it continue.
        pub fn sleep_at(mut self, point: &str, nth: u64, millis: u64) -> FaultPlan {
            self.entries.push(Entry {
                point: point.to_string(),
                kind: FaultKind::Sleep(millis),
                nth,
            });
            self
        }

        /// Stalls *every* hit of `point` from the `from`-th (1-based)
        /// onwards for `millis` milliseconds: sustained slow-handler
        /// injection for overload tests. Internally unrolled to `count`
        /// per-hit entries starting at `from`.
        pub fn sleep_from(mut self, point: &str, from: u64, count: u64, millis: u64) -> FaultPlan {
            for nth in from..from + count {
                self.entries.push(Entry {
                    point: point.to_string(),
                    kind: FaultKind::Sleep(millis),
                    nth,
                });
            }
            self
        }
    }

    struct Active {
        plan: FaultPlan,
        hits: HashMap<String, u64>,
    }

    fn registry() -> &'static Mutex<Option<Active>> {
        static REGISTRY: OnceLock<Mutex<Option<Active>>> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(None))
    }

    /// Serializes tests that arm fault plans: the registry is
    /// process-global, so two concurrently-armed plans would interfere.
    fn test_lock() -> &'static Mutex<()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
    }

    /// Guard of an armed plan: the plan stays active (and other armings
    /// block) until the guard is dropped.
    pub struct ArmedFaults {
        _exclusive: MutexGuard<'static, ()>,
    }

    impl std::fmt::Debug for ArmedFaults {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("ArmedFaults").finish_non_exhaustive()
        }
    }

    impl Drop for ArmedFaults {
        fn drop(&mut self) {
            if let Ok(mut slot) = registry().lock() {
                *slot = None;
            }
        }
    }

    /// Arms `plan` process-wide, returning a guard that disarms it on
    /// drop. Blocks while another plan is armed (a panicking armed test
    /// poisons neither lock: poisoning is recovered into the inner
    /// value).
    pub fn arm(plan: FaultPlan) -> ArmedFaults {
        let exclusive = match test_lock().lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let mut slot = match registry().lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        *slot = Some(Active {
            plan,
            hits: HashMap::new(),
        });
        drop(slot);
        ArmedFaults {
            _exclusive: exclusive,
        }
    }

    /// Records a hit of `point` and returns the fault to fire, if any.
    fn check(point: &str) -> Option<FaultKind> {
        let mut slot = match registry().lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let active = slot.as_mut()?;
        let count = active.hits.entry(point.to_string()).or_insert(0);
        *count += 1;
        let count = *count;
        active
            .plan
            .entries
            .iter()
            .find(|e| e.point == point && e.nth == count)
            .map(|e| e.kind)
    }

    /// A non-I/O fault point: panics (crash or plain) or stalls when the
    /// armed plan schedules a fault for this hit.
    pub(crate) fn trigger(point: &'static str) {
        match check(point) {
            Some(FaultKind::Crash) => {
                std::panic::panic_any(FaultCrash { point });
            }
            Some(FaultKind::Panic) => {
                panic!("injected panic at fault point `{point}`");
            }
            Some(FaultKind::Sleep(millis)) => {
                std::thread::sleep(std::time::Duration::from_millis(millis));
            }
            Some(FaultKind::IoError) | None => {}
        }
    }

    /// An I/O fault point: returns an injected error (or panics/stalls,
    /// for the other kinds) when the armed plan schedules a fault for
    /// this hit.
    pub(crate) fn io(point: &'static str) -> std::io::Result<()> {
        match check(point) {
            Some(FaultKind::IoError) => Err(std::io::Error::other(format!(
                "injected I/O failure at fault point `{point}`"
            ))),
            Some(FaultKind::Crash) => {
                std::panic::panic_any(FaultCrash { point });
            }
            Some(FaultKind::Panic) => {
                panic!("injected panic at fault point `{point}`");
            }
            Some(FaultKind::Sleep(millis)) => {
                std::thread::sleep(std::time::Duration::from_millis(millis));
                Ok(())
            }
            None => Ok(()),
        }
    }
}

/// A non-I/O fault point (disabled: the `faultpoints` feature is off, the
/// call is a no-op the optimizer removes).
#[cfg(not(feature = "faultpoints"))]
#[inline(always)]
pub(crate) fn trigger(_point: &'static str) {}

/// An I/O fault point (disabled: always `Ok`).
#[cfg(not(feature = "faultpoints"))]
#[inline(always)]
pub(crate) fn io(_point: &'static str) -> std::io::Result<()> {
    Ok(())
}

#[cfg(feature = "faultpoints")]
pub(crate) use active::{io, trigger};

/// Public non-I/O fault hook for instrumented points living outside
/// this crate (the serving layer's `serve.*` points): records a hit of
/// `point` and fires the armed fault, if any. A no-op without the
/// `faultpoints` feature.
#[inline]
pub fn hit(point: &'static str) {
    trigger(point)
}

#[cfg(all(test, feature = "faultpoints"))]
mod tests {
    use super::*;

    #[test]
    fn faults_fire_on_exact_hit_counts() {
        let _armed = arm(FaultPlan::new().io_error_at("t.io", 2));
        assert!(io("t.io").is_ok());
        assert!(io("t.io").is_err());
        assert!(io("t.io").is_ok());
    }

    #[test]
    fn crash_payload_names_the_point() {
        let _armed = arm(FaultPlan::new().crash_at("t.crash", 1));
        let err = std::panic::catch_unwind(|| trigger("t.crash")).unwrap_err();
        let crash = err
            .downcast_ref::<FaultCrash>()
            .expect("FaultCrash payload");
        assert_eq!(crash.point, "t.crash");
    }

    #[test]
    fn unarmed_points_are_inert() {
        trigger("t.unarmed");
        assert!(io("t.unarmed").is_ok());
    }

    #[test]
    fn sleep_faults_stall_then_continue() {
        let _armed = arm(FaultPlan::new().sleep_at("t.sleep", 1, 30));
        let start = std::time::Instant::now();
        hit("t.sleep");
        assert!(start.elapsed() >= std::time::Duration::from_millis(30));
        // Second hit is unscheduled: no stall.
        let start = std::time::Instant::now();
        hit("t.sleep");
        assert!(start.elapsed() < std::time::Duration::from_millis(30));
    }

    #[test]
    fn sleep_from_unrolls_a_hit_range() {
        let _armed = arm(FaultPlan::new().sleep_from("t.range", 2, 2, 20));
        let timed = |point| {
            let start = std::time::Instant::now();
            assert!(io(point).is_ok());
            start.elapsed()
        };
        assert!(timed("t.range") < std::time::Duration::from_millis(20)); // hit 1
        assert!(timed("t.range") >= std::time::Duration::from_millis(20)); // hit 2
        assert!(timed("t.range") >= std::time::Duration::from_millis(20)); // hit 3
        assert!(timed("t.range") < std::time::Duration::from_millis(20)); // hit 4
    }
}
