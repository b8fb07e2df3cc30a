#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! # `mdf-chaos` — deterministic fault injection
//!
//! A [`FaultPlan`] describes faults as *(site, kind, trigger-count)*
//! triples: "the third time execution passes the named site, fire this
//! fault". Host crates consult the plan at named **sites** threaded through
//! the pipeline (`constraint.solve.round`, `planner.retiming`,
//! `sim.barrier`, `kernel.chunk.mid`, …); the full registry is [`SITES`].
//!
//! Design constraints, in priority order:
//!
//! 1. **Zero cost when disabled.** The fast path of [`hit`] is a single
//!    relaxed atomic load; host crates additionally gate every call behind
//!    a plain `bool` on their budget, so unrelated runs in the same
//!    process never even reach that load.
//! 2. **Deterministic.** A plan fires on exact hit counts, never on time
//!    or randomness at fire-time.
//! 3. **Process-wide exclusivity.** Arming returns a [`ChaosGuard`] that
//!    holds a global gate mutex: concurrent chaos users serialize instead
//!    of observing each other's faults. The guard disarms on drop — also
//!    on unwind, so an injected panic cannot leave the process armed.
//!
//! The crate is dependency-free and knows nothing about the rest of the
//! pipeline; mapping a [`FaultKind`] to a concrete failure (a typed error,
//! a panic, a corrupted retiming vector) is the host crate's job.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

/// The failure a fault site simulates when its trigger count is reached.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// A worker thread panics mid-chunk (caught by supervisors, or by the
    /// CLI's top-level isolation).
    WorkerPanic,
    /// The constraint solver reports its round budget exhausted.
    SolverExhaustion,
    /// The wall-clock deadline reports as expired.
    DeadlineExpiry,
    /// A memory allocation is refused (cell budget reports exhausted).
    AllocRefusal,
    /// A computed retiming vector is corrupted in flight (must be caught
    /// by plan verification, never silently executed).
    CorruptRetiming,
}

impl FaultKind {
    /// Stable lower-case name used in reports and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::WorkerPanic => "worker-panic",
            FaultKind::SolverExhaustion => "solver-exhaustion",
            FaultKind::DeadlineExpiry => "deadline-expiry",
            FaultKind::AllocRefusal => "alloc-refusal",
            FaultKind::CorruptRetiming => "corrupt-retiming",
        }
    }
}

/// A named injection point plus the fault kinds that are sound there.
///
/// Kind restrictions are semantic, not cosmetic: e.g. `kernel.chunk.mid`
/// fires *after* a chunk has partially written memory, so only a panic
/// (which supervisors recover by restoring their base image and replaying
/// the barriers after it) is sound — returning a typed "deadline expired"
/// there would hand the caller a partial result whose memory image is
/// ahead of its checkpoint.
#[derive(Clone, Copy, Debug)]
pub struct SiteInfo {
    /// Dotted site name, unique in [`SITES`].
    pub name: &'static str,
    /// Fault kinds that may fire at this site.
    pub kinds: &'static [FaultKind],
}

/// Registry of every fault site threaded through the pipeline.
pub const SITES: &[SiteInfo] = &[
    SiteInfo {
        name: "constraint.solve.round",
        kinds: &[FaultKind::SolverExhaustion, FaultKind::WorkerPanic],
    },
    SiteInfo {
        name: "planner.retiming",
        kinds: &[FaultKind::CorruptRetiming],
    },
    SiteInfo {
        name: "sim.alloc",
        kinds: &[FaultKind::AllocRefusal],
    },
    SiteInfo {
        name: "sim.barrier",
        kinds: &[FaultKind::DeadlineExpiry, FaultKind::WorkerPanic],
    },
    SiteInfo {
        name: "kernel.alloc",
        kinds: &[FaultKind::AllocRefusal],
    },
    SiteInfo {
        name: "kernel.barrier",
        kinds: &[FaultKind::DeadlineExpiry, FaultKind::WorkerPanic],
    },
    SiteInfo {
        name: "kernel.chunk.mid",
        kinds: &[FaultKind::WorkerPanic],
    },
    // Service-layer sites (`mdf-service`). Connection-handling faults are
    // panics: the daemon must isolate them per connection (typed error or
    // close, never a wedge or a dead acceptor). The cache site corrupts a
    // cached plan in place; retrieval-time revalidation must reject the
    // poisoned entry and fall back to fresh planning.
    SiteInfo {
        name: "service.accept",
        kinds: &[FaultKind::WorkerPanic],
    },
    SiteInfo {
        name: "service.read",
        kinds: &[FaultKind::WorkerPanic],
    },
    SiteInfo {
        name: "service.write",
        kinds: &[FaultKind::WorkerPanic],
    },
    SiteInfo {
        name: "service.cache",
        kinds: &[FaultKind::CorruptRetiming],
    },
    // Router-layer sites (`mdf-router`). `router.shard` stops the owner
    // shard just before a request is forwarded to it (the forward fails,
    // the request reroutes, and the health loop must respawn the shard);
    // `router.ring` spuriously marks a live shard dead on the hash
    // ring (requests reroute, the health loop revives it in place);
    // `router.batch` stalls a batch-coalescing window past its bound
    // (the batch must still flush — late, never never).
    SiteInfo {
        name: "router.shard",
        kinds: &[FaultKind::WorkerPanic],
    },
    SiteInfo {
        name: "router.ring",
        kinds: &[FaultKind::WorkerPanic],
    },
    SiteInfo {
        name: "router.batch",
        kinds: &[FaultKind::DeadlineExpiry],
    },
    // Persistence-layer sites (`mdf-service`'s plan-cache store).
    // `persist.append` panics mid-record append — the bytes already
    // written model a torn write whose tail the next load must discard;
    // `persist.compact` panics between writing the snapshot tmp file and
    // the atomic rename — a kill mid-compaction that must leave either
    // the old or the new snapshot, never a mix; `persist.load` corrupts
    // a record during load — the per-record checksum must reject it and
    // the entry must be evicted silently, never trusted.
    SiteInfo {
        name: "persist.append",
        kinds: &[FaultKind::WorkerPanic],
    },
    SiteInfo {
        name: "persist.compact",
        kinds: &[FaultKind::WorkerPanic],
    },
    SiteInfo {
        name: "persist.load",
        kinds: &[FaultKind::CorruptRetiming],
    },
];

/// Looks a site up in [`SITES`].
pub fn site_info(name: &str) -> Option<&'static SiteInfo> {
    SITES.iter().find(|s| s.name == name)
}

/// One scheduled fault: fire `kind` on the `trigger`-th hit of `site`
/// (1-based), then stay spent — so a retried chunk passes the site clean,
/// modelling a transient failure.
#[derive(Clone, Copy, Debug)]
struct Fault {
    /// Site name from [`SITES`].
    site: &'static str,
    /// What to simulate.
    kind: FaultKind,
    /// 1-based hit count at which the fault fires.
    trigger: u64,
}

/// A deterministic schedule of faults. Inert until [`FaultPlan::arm`]ed.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// A plan with no faults. Armed, it still counts site hits — used to
    /// probe how many times each site is reached by a clean run.
    pub fn probe() -> Self {
        FaultPlan::default()
    }

    /// A single-fault plan. Panics if `site` is not in [`SITES`] or `kind`
    /// is not sound there (programmer error, not an injectable fault).
    pub fn single(site: &'static str, kind: FaultKind, trigger: u64) -> Self {
        let info = match site_info(site) {
            Some(info) => info,
            None => panic!("unknown fault site {site:?}"),
        };
        assert!(
            info.kinds.contains(&kind),
            "fault kind {:?} is not sound at site {site:?}",
            kind
        );
        assert!(trigger >= 1, "fault triggers are 1-based");
        FaultPlan {
            faults: vec![Fault {
                site,
                kind,
                trigger,
            }],
        }
    }

    /// Arms this plan process-wide. Blocks until any other armed plan is
    /// dropped; the returned guard disarms on drop.
    pub fn arm(self) -> ChaosGuard {
        let gate = lock_unpoisoned(&GATE);
        *lock_unpoisoned(&ACTIVE) = Some(ActivePlan {
            faults: self
                .faults
                .into_iter()
                .map(|fault| FaultState {
                    fault,
                    spent: false,
                })
                .collect(),
            hits: BTreeMap::new(),
            injected: 0,
        });
        ARMED.store(true, Ordering::SeqCst);
        ChaosGuard { _gate: gate }
    }
}

struct FaultState {
    fault: Fault,
    spent: bool,
}

struct ActivePlan {
    faults: Vec<FaultState>,
    hits: BTreeMap<&'static str, u64>,
    injected: u64,
}

static ARMED: AtomicBool = AtomicBool::new(false);
static GATE: Mutex<()> = Mutex::new(());
static ACTIVE: Mutex<Option<ActivePlan>> = Mutex::new(None);

/// Injected panics unwind through guard scopes and poison these mutexes;
/// the data (hit counters) stays consistent because every critical
/// section is a handful of integer updates, so recover the guard.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Holds the armed plan; dropping (including on unwind) disarms it.
/// While alive, exposes the plan's observability counters.
#[must_use = "dropping the guard disarms the fault plan"]
pub struct ChaosGuard {
    _gate: MutexGuard<'static, ()>,
}

impl ChaosGuard {
    /// Faults fired since arming.
    pub fn injected(&self) -> u64 {
        lock_unpoisoned(&ACTIVE).as_ref().map_or(0, |p| p.injected)
    }

    /// Times `site` has been hit since arming (fired or not).
    pub fn hits(&self, site: &str) -> u64 {
        lock_unpoisoned(&ACTIVE)
            .as_ref()
            .and_then(|p| p.hits.get(site).copied())
            .unwrap_or(0)
    }

    /// All site hit counts since arming, in site-name order.
    pub fn all_hits(&self) -> Vec<(&'static str, u64)> {
        lock_unpoisoned(&ACTIVE)
            .as_ref()
            .map(|p| p.hits.iter().map(|(s, c)| (*s, *c)).collect())
            .unwrap_or_default()
    }
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        ARMED.store(false, Ordering::SeqCst);
        *lock_unpoisoned(&ACTIVE) = None;
    }
}

/// Records a hit of `site` against the armed plan and returns the fault to
/// simulate, if one fires now. The disabled fast path is one relaxed
/// atomic load.
#[inline]
pub fn hit(site: &'static str) -> Option<FaultKind> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    hit_slow(site)
}

#[cold]
fn hit_slow(site: &'static str) -> Option<FaultKind> {
    let mut slot = lock_unpoisoned(&ACTIVE);
    let plan = slot.as_mut()?;
    let count = {
        let c = plan.hits.entry(site).or_insert(0);
        *c += 1;
        *c
    };
    for f in &mut plan.faults {
        if !f.spent && f.fault.site == site && f.fault.trigger == count {
            f.spent = true;
            plan.injected += 1;
            return Some(f.fault.kind);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_hits_are_noops() {
        // Hold the arming gate so no other test's plan is armed meanwhile
        // (and so these hits never land in one).
        let _gate = lock_unpoisoned(&GATE);
        assert_eq!(hit("kernel.barrier"), None);
        assert_eq!(hit("kernel.barrier"), None);
    }

    #[test]
    fn fires_exactly_on_trigger_then_stays_spent() {
        let guard = FaultPlan::single("kernel.barrier", FaultKind::DeadlineExpiry, 3).arm();
        assert_eq!(hit("kernel.barrier"), None);
        assert_eq!(hit("kernel.barrier"), None);
        assert_eq!(hit("kernel.barrier"), Some(FaultKind::DeadlineExpiry));
        assert_eq!(hit("kernel.barrier"), None, "fault is spent after firing");
        assert_eq!(guard.injected(), 1);
        assert_eq!(guard.hits("kernel.barrier"), 4);
        drop(guard);
        let _gate = lock_unpoisoned(&GATE);
        assert_eq!(hit("kernel.barrier"), None, "disarmed on drop");
    }

    #[test]
    fn other_sites_do_not_fire() {
        let guard = FaultPlan::single("sim.barrier", FaultKind::WorkerPanic, 1).arm();
        assert_eq!(hit("kernel.barrier"), None);
        assert_eq!(hit("sim.barrier"), Some(FaultKind::WorkerPanic));
        assert_eq!(guard.hits("kernel.barrier"), 1, "probe counts every site");
    }

    #[test]
    fn probe_counts_without_firing() {
        let guard = FaultPlan::probe().arm();
        for _ in 0..5 {
            assert_eq!(hit("sim.alloc"), None);
        }
        assert_eq!(guard.hits("sim.alloc"), 5);
        assert_eq!(guard.injected(), 0);
        assert_eq!(guard.all_hits(), vec![("sim.alloc", 5)]);
    }

    #[test]
    #[should_panic(expected = "unknown fault site")]
    fn unknown_sites_are_programmer_errors() {
        let _ = FaultPlan::single("no.such.site", FaultKind::WorkerPanic, 1);
    }

    #[test]
    #[should_panic(expected = "not sound at site")]
    fn unsound_kinds_are_programmer_errors() {
        let _ = FaultPlan::single("kernel.chunk.mid", FaultKind::DeadlineExpiry, 1);
    }
}
