//! The LRU plan cache.
//!
//! Keyed by [`mdf_graph::canonical_fingerprint`], so two submissions of
//! the same graph with nodes or edges declared in a different order share
//! one entry. A hit skips planning *and* certification — but never
//! *verification*: the cached artifact is label-keyed retiming offsets,
//! rebuilt against the requesting graph's own `NodeId`s and re-checked
//! with [`mdf_core::verify_plan`] on every hit. That revalidation is the
//! whole soundness story:
//!
//! * a 64-bit fingerprint **collision** hands the requester a plan for a
//!   different graph — label mismatch or verification failure rejects it,
//!   and the request falls back to a fresh plan;
//! * a **poisoned** entry (the `service.cache` chaos site corrupts a
//!   stored offset in place) is caught by an integrity checksum taken at
//!   insert and re-checked on every probe, then evicted. The checksum
//!   matters because legality alone is not enough: on loosely
//!   constrained graphs a corrupted offset can stay *legal* while
//!   inflating the retimed iteration space by six orders of magnitude —
//!   a plan that verifies but burns the request's whole deadline;
//! * and because any plan that *passes* both checks is byte-identical to
//!   one the planner produced and verified, the worst a bad cache entry
//!   can ever cost is one replan — never a wrong answer.
//!
//! Only fully fused plans are cached; partial-fusion fallbacks are cheap
//! to recompute and rare in service traffic.

use std::collections::HashMap;

use mdf_core::{verify_plan, FullParallelMethod, FusionPlan};
use mdf_graph::{IVec2, Mldg};
use mdf_kernel::{BytecodeCert, VmMode};
use mdf_retime::{Retiming, Wavefront};

/// The per-plan payload: enough to rebuild a [`FusionPlan`] for any graph
/// with the same node labels. `pub(crate)` so the persistent store can
/// encode and decode entries without a parallel type.
#[derive(Clone, Debug)]
pub(crate) struct CachedPlan {
    /// Per-node retiming offsets, keyed by node label (labels are unique
    /// in any parsed graph — the text formats reject duplicates).
    pub(crate) offsets: Vec<(String, IVec2)>,
    pub(crate) shape: CachedShape,
    /// Bytecode certificate from the last kernel execution of this plan,
    /// attached after a successful `arm`. A cached cert is only a *hint*:
    /// the kernel re-derives its VM image and `arm_with_cert` rejects any
    /// cert whose bounds or checksum disagree, so a stale or corrupted
    /// cert costs one fresh verification, never unchecked execution.
    pub(crate) cert: Option<BytecodeCert>,
    /// Integrity checksum over `offsets`, `shape` and `cert`, taken at
    /// insert (and re-taken whenever a cert is attached).
    pub(crate) sum: u64,
    /// Provenance: `true` when this entry was restored from the
    /// persistent store rather than planned in this process. Not folded
    /// into `sum` — it describes where the entry came from, not what it
    /// says — and it feeds the warm-vs-cold hit counters.
    pub(crate) warm: bool,
}

#[derive(Clone, Copy, Debug)]
pub(crate) enum CachedShape {
    FullParallel { method: FullParallelMethod },
    Hyperplane { wavefront: Wavefront },
}

/// What a cache probe produced.
#[derive(Clone, Debug)]
pub enum CacheLookup {
    /// A stored plan that revalidated against the requesting graph,
    /// together with any bytecode certificate attached on a prior kernel
    /// run (to be revalidated by `CompiledKernel::arm_with_cert`) and
    /// whether the entry was warm-loaded from the persistent store.
    Hit(FusionPlan, Option<BytecodeCert>, bool),
    /// An entry existed but failed revalidation (fingerprint collision or
    /// poison); it has been evicted and the caller must replan.
    Rejected,
    /// No entry.
    Miss,
}

/// A bounded LRU cache of fusion plans keyed by canonical fingerprint.
pub struct PlanCache {
    cap: usize,
    /// Most-recently-used first. Linear scan is fine at service cache
    /// sizes (tens of entries); the work a hit skips is milliseconds of
    /// planning, not nanoseconds of lookup.
    entries: Vec<(u64, CachedPlan)>,
}

impl PlanCache {
    /// An empty cache holding at most `cap` plans (minimum 1).
    pub fn new(cap: usize) -> PlanCache {
        PlanCache {
            cap: cap.max(1),
            entries: Vec::new(),
        }
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Stores `plan` (computed for `g`) under `key`, evicting the
    /// least-recently-used entry if the cache is full.
    pub fn insert(&mut self, key: u64, g: &Mldg, plan: &FusionPlan) {
        let mut offsets: Vec<(String, IVec2)> = g
            .node_ids()
            .map(|n| (g.label(n).to_string(), plan.retiming().get(n)))
            .collect();
        offsets.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let shape = match plan {
            FusionPlan::FullParallel { method, .. } => {
                CachedShape::FullParallel { method: *method }
            }
            FusionPlan::Hyperplane { wavefront, .. } => CachedShape::Hyperplane {
                wavefront: *wavefront,
            },
        };
        let sum = integrity(&offsets, &shape, None);
        self.entries.retain(|(k, _)| *k != key);
        self.entries.insert(
            0,
            (
                key,
                CachedPlan {
                    offsets,
                    shape,
                    cert: None,
                    sum,
                    warm: false,
                },
            ),
        );
        self.entries.truncate(self.cap);
    }

    /// Restores an entry decoded from the persistent store, marking it
    /// warm. The entry is trusted no further than a live insert: its
    /// stored checksum must match a fresh fold of its content (a
    /// bit-flipped record dies here), and every later hit still runs the
    /// full rebuild + `verify_plan` + cert-revalidation gauntlet. Returns
    /// whether the entry was accepted. Restored entries go to the LRU
    /// tail so live traffic immediately outranks them.
    pub(crate) fn restore(&mut self, key: u64, mut plan: CachedPlan) -> bool {
        if integrity(&plan.offsets, &plan.shape, plan.cert.as_ref()) != plan.sum {
            return false;
        }
        if self.entries.iter().any(|(k, _)| *k == key) {
            return false;
        }
        if self.entries.len() >= self.cap {
            return false;
        }
        plan.warm = true;
        self.entries.push((key, plan));
        true
    }

    /// Read-only view of the entries, MRU first — the snapshot writer's
    /// input.
    pub(crate) fn entries(&self) -> &[(u64, CachedPlan)] {
        &self.entries
    }

    /// The entry under `key`, if any (no LRU promotion) — what the
    /// append path persists after an insert or cert attach.
    pub(crate) fn peek(&self, key: u64) -> Option<&CachedPlan> {
        self.entries.iter().find(|(k, _)| *k == key).map(|(_, p)| p)
    }

    /// Attaches a bytecode certificate to the entry under `key`, refolding
    /// the integrity checksum so the cert is covered by the same poison
    /// detection as the offsets. A later cert for the same key replaces
    /// the earlier one (the entry keeps the bounds most recently run).
    /// No-op when `key` is absent; returns whether an entry was updated.
    pub fn attach_cert(&mut self, key: u64, cert: BytecodeCert) -> bool {
        let Some((_, entry)) = self.entries.iter_mut().find(|(k, _)| *k == key) else {
            return false;
        };
        entry.cert = Some(cert);
        entry.sum = integrity(&entry.offsets, &entry.shape, entry.cert.as_ref());
        true
    }

    /// Probes for `key` and revalidates any stored plan against `g`.
    ///
    /// When `chaos` is set, the `service.cache` fault site may corrupt
    /// the entry in place before revalidation — which is exactly the
    /// scenario revalidation exists to absorb.
    pub fn lookup(&mut self, key: u64, g: &Mldg, chaos: bool) -> CacheLookup {
        let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) else {
            return CacheLookup::Miss;
        };
        if chaos && mdf_chaos::hit("service.cache") == Some(mdf_chaos::FaultKind::CorruptRetiming) {
            // Poison the stored artifact, not the lookup path: the entry
            // now holds offsets that certify nothing.
            if let Some((_, first)) = self.entries[pos].1.offsets.first_mut() {
                first.x += 1_000_003;
                first.y -= 999_983;
            }
        }
        let entry = &self.entries[pos].1;
        if integrity(&entry.offsets, &entry.shape, entry.cert.as_ref()) != entry.sum {
            // The stored bytes are not what the planner produced. Even a
            // corruption that happens to stay *legal* must go: on loosely
            // constrained graphs a huge bogus offset verifies fine yet
            // inflates the retimed bounds until the request's deadline.
            self.entries.remove(pos);
            return CacheLookup::Rejected;
        }
        let rebuilt = rebuild(&self.entries[pos].1, g);
        match rebuilt {
            Some(plan) if verify_plan(g, &plan).is_ok() => {
                let e = self.entries.remove(pos);
                let cert = e.1.cert;
                let warm = e.1.warm;
                self.entries.insert(0, e);
                CacheLookup::Hit(plan, cert, warm)
            }
            _ => {
                // Collision or poison: drop the entry so it cannot tax
                // every future request with a failed revalidation.
                self.entries.remove(pos);
                CacheLookup::Rejected
            }
        }
    }
}

/// splitmix64-fold checksum over a cached plan's content. Not
/// cryptographic — it guards against in-process corruption (the chaos
/// poison site, stray writes), not an adversary with cache access.
fn integrity(offsets: &[(String, IVec2)], shape: &CachedShape, cert: Option<&BytecodeCert>) -> u64 {
    let mut state = 0x6d64_6675_7365_6421u64; // "mdfuse!"
    let mut fold = |w: u64| {
        state = state.wrapping_add(w).wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        state = z ^ (z >> 31);
    };
    for (label, v) in offsets {
        for b in label.as_bytes() {
            fold(u64::from(*b));
        }
        fold(v.x as u64);
        fold(v.y as u64);
    }
    match shape {
        CachedShape::FullParallel { method } => {
            fold(1);
            fold(*method as u64);
        }
        CachedShape::Hyperplane { wavefront } => {
            fold(2);
            fold(wavefront.schedule.x as u64);
            fold(wavefront.schedule.y as u64);
            fold(wavefront.hyperplane.x as u64);
            fold(wavefront.hyperplane.y as u64);
        }
    }
    match cert {
        None => fold(0),
        Some(c) => {
            fold(3);
            match c.mode {
                VmMode::Serial => fold(1),
                VmMode::Rows => fold(2),
                // 4 was the retired untiled wavefront; the surviving
                // constants keep their values so stored sums still refold.
                VmMode::WavefrontTiled { schedule } => {
                    fold(5);
                    fold(schedule.0 as u64);
                    fold(schedule.1 as u64);
                }
            }
            fold(c.n as u64);
            fold(c.m as u64);
            fold(c.loops as u64);
            fold(c.instrs);
            fold(c.loads_checked);
            fold(c.pairs_checked);
            fold(c.checksum);
        }
    }
    state
}

/// Re-indexes a cached plan onto `g`'s own `NodeId`s. `None` when the
/// label sets differ (a fingerprint collision with a different graph).
fn rebuild(cached: &CachedPlan, g: &Mldg) -> Option<FusionPlan> {
    if cached.offsets.len() != g.node_count() {
        return None;
    }
    let by_label: HashMap<&str, IVec2> = cached
        .offsets
        .iter()
        .map(|(l, v)| (l.as_str(), *v))
        .collect();
    if by_label.len() != cached.offsets.len() {
        return None;
    }
    let mut offsets = vec![IVec2::ZERO; g.node_count()];
    for n in g.node_ids() {
        offsets[n.index()] = *by_label.get(g.label(n))?;
    }
    let retiming = Retiming::from_offsets(offsets);
    Some(match cached.shape {
        CachedShape::FullParallel { method } => FusionPlan::FullParallel { retiming, method },
        CachedShape::Hyperplane { wavefront } => FusionPlan::Hyperplane {
            retiming,
            wavefront,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdf_core::plan_fusion;
    use mdf_graph::canonical_fingerprint;
    use mdf_graph::paper::{figure14, figure2, figure8};

    fn plan(g: &Mldg) -> FusionPlan {
        match plan_fusion(g) {
            Ok(p) => p,
            Err(e) => panic!("paper graph failed to plan: {e}"),
        }
    }

    #[test]
    fn hit_returns_a_verified_plan() {
        let g = figure2();
        let key = canonical_fingerprint(&g);
        let mut cache = PlanCache::new(8);
        cache.insert(key, &g, &plan(&g));
        match cache.lookup(key, &g, false) {
            CacheLookup::Hit(p, _, _) => verify_plan(&g, &p).unwrap(),
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn hit_survives_node_permutation() {
        // The same graph submitted with nodes declared in reverse order:
        // same fingerprint, different NodeId assignment. The label-keyed
        // rebuild must still produce a plan that verifies.
        let g = figure8();
        let text = mdf_graph::textfmt::to_text(&g, "g");
        let mut lines: Vec<&str> = text.lines().collect();
        let nodes: Vec<usize> = (0..lines.len())
            .filter(|&i| lines[i].starts_with("node "))
            .collect();
        let (first, last) = (nodes[0], nodes[nodes.len() - 1]);
        lines.swap(first, last);
        let (g2, _) = mdf_graph::textfmt::parse(&lines.join("\n")).unwrap();
        assert_eq!(canonical_fingerprint(&g2), canonical_fingerprint(&g));

        let mut cache = PlanCache::new(8);
        cache.insert(canonical_fingerprint(&g), &g, &plan(&g));
        match cache.lookup(canonical_fingerprint(&g2), &g2, false) {
            CacheLookup::Hit(p, _, _) => verify_plan(&g2, &p).unwrap(),
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn collision_with_different_graph_is_rejected_not_wrong() {
        // Force a "collision" by inserting figure2's plan under a key we
        // then look up with figure14 (different labels and node count).
        let g2 = figure2();
        let g14 = figure14();
        let mut cache = PlanCache::new(8);
        cache.insert(42, &g2, &plan(&g2));
        match cache.lookup(42, &g14, false) {
            CacheLookup::Rejected => {}
            other => panic!("expected rejection, got {other:?}"),
        }
        // The bad entry is gone: the next probe is a clean miss.
        assert!(matches!(cache.lookup(42, &g14, false), CacheLookup::Miss));
    }

    #[test]
    fn poisoned_entry_is_rejected_and_evicted() {
        let g = figure2();
        let key = canonical_fingerprint(&g);
        let mut cache = PlanCache::new(8);
        cache.insert(key, &g, &plan(&g));
        let guard =
            mdf_chaos::FaultPlan::single("service.cache", mdf_chaos::FaultKind::CorruptRetiming, 1)
                .arm();
        let looked = cache.lookup(key, &g, true);
        assert_eq!(guard.hits("service.cache"), 1);
        drop(guard);
        match looked {
            CacheLookup::Rejected => {}
            other => panic!("poisoned entry should be rejected, got {other:?}"),
        }
        assert!(matches!(cache.lookup(key, &g, false), CacheLookup::Miss));
    }

    fn sample_cert() -> BytecodeCert {
        BytecodeCert {
            mode: VmMode::Rows,
            n: 8,
            m: 8,
            loops: 1,
            instrs: 3,
            loads_checked: 2,
            pairs_checked: 1,
            checksum: 0xdead_beef,
        }
    }

    #[test]
    fn attached_cert_comes_back_on_a_hit() {
        let g = figure2();
        let key = canonical_fingerprint(&g);
        let mut cache = PlanCache::new(8);
        cache.insert(key, &g, &plan(&g));
        // A fresh entry carries no cert.
        match cache.lookup(key, &g, false) {
            CacheLookup::Hit(_, cert, _) => assert!(cert.is_none()),
            other => panic!("expected hit, got {other:?}"),
        }
        assert!(cache.attach_cert(key, sample_cert()));
        assert!(!cache.attach_cert(key ^ 1, sample_cert()), "absent key");
        match cache.lookup(key, &g, false) {
            CacheLookup::Hit(_, Some(c), _) => {
                assert_eq!(c.checksum, 0xdead_beef);
                assert_eq!(c.mode, VmMode::Rows);
            }
            other => panic!("expected hit with cert, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_cert_fails_integrity_and_evicts_the_entry() {
        let g = figure2();
        let key = canonical_fingerprint(&g);
        let mut cache = PlanCache::new(8);
        cache.insert(key, &g, &plan(&g));
        assert!(cache.attach_cert(key, sample_cert()));
        // Flip one cert bit behind the checksum's back: the entry must be
        // rejected and evicted, exactly like a poisoned offset.
        if let Some(c) = &mut cache.entries[0].1.cert {
            c.checksum ^= 1;
        }
        match cache.lookup(key, &g, false) {
            CacheLookup::Rejected => {}
            other => panic!("corrupted cert should reject, got {other:?}"),
        }
        assert!(matches!(cache.lookup(key, &g, false), CacheLookup::Miss));
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let g2 = figure2();
        let g8 = figure8();
        let g14 = figure14();
        let (k2, k8, k14) = (
            canonical_fingerprint(&g2),
            canonical_fingerprint(&g8),
            canonical_fingerprint(&g14),
        );
        let mut cache = PlanCache::new(2);
        cache.insert(k2, &g2, &plan(&g2));
        cache.insert(k8, &g8, &plan(&g8));
        // Touch figure2 so figure8 is now the LRU entry.
        assert!(matches!(cache.lookup(k2, &g2, false), CacheLookup::Hit(..)));
        cache.insert(k14, &g14, &plan(&g14));
        assert_eq!(cache.len(), 2);
        assert!(matches!(cache.lookup(k8, &g8, false), CacheLookup::Miss));
        assert!(matches!(cache.lookup(k2, &g2, false), CacheLookup::Hit(..)));
        assert!(matches!(
            cache.lookup(k14, &g14, false),
            CacheLookup::Hit(..)
        ));
    }
}
