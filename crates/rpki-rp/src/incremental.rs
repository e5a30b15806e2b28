//! Incremental revalidation: memoized subtree walks and VRP deltas.
//!
//! The campaign harness revalidates the whole RPKI every round, yet a
//! fault window usually touches one publication point. Production
//! validators exploit that: unchanged publication points are not
//! re-fetched, re-parsed, or re-verified. [`ValidationState`] brings
//! the same economy to the model: it memoizes each CA's subtree result
//! keyed by everything the result is a function of, and
//! [`Validator::run_incremental`] replays cached results for unchanged
//! subtrees while re-walking only what changed.
//!
//! # Cache key and invalidation
//!
//! A publication point's validation output is a pure function of:
//!
//! - the **directory content** — captured by
//!   [`SyncOutcome::content_digest`](rpki_repo::SyncOutcome::content_digest)
//!   over the sorted `(name, digest)` pairs plus the missing/corrupted
//!   name lists;
//! - the **CA certificate bytes** (digest of the encoded certificate —
//!   key, subject, validity, SIA all included);
//! - the **effective resources** handed down by the parent (whacking an
//!   ancestor changes these without touching the child's directory);
//! - the **depth** and the policy knobs ([`IncompletePolicy`],
//!   [`OverclaimPolicy`], `max_depth`);
//! - the **validation time**, only through threshold comparisons: each
//!   decoded object contributes its `not_before` / `not_after + 1` (or
//!   `next_update + 1`) as a boundary, so a cache entry stores the
//!   half-open window `[lo, hi)` of times at which every comparison
//!   comes out the same way. Collecting a superset of boundaries is
//!   safe — it only narrows the window and forces an extra re-walk;
//! - the **ancestor key set**, only through loop detection: an entry
//!   records every certificate subject key seen in the directory and is
//!   replayed only for chains whose ancestor set is disjoint from it.
//!   Walks that actually hit a [`Issue::CertificateLoop`] are never
//!   cached.
//!
//! All signature checks are deterministic functions of the bytes (the
//! crypto-sim's `key_id` pins the registry secret), so equal inputs
//! replay equal outputs, byte for byte.
//!
//! # Determinism and modes
//!
//! [`RevalidationMode::Full`] loads every directory exactly as a cold
//! walk would — identical network traffic, identical fault-dice
//! consumption — and uses the digest only to skip decode/verify work.
//! Output (including trace events) is therefore byte-identical to
//! [`Validator::run`] under *any* seeded campaign. In
//! [`RevalidationMode::Probe`] a cached subtree is first checked with a
//! LIST-only [`ObjectSource::probe_dir`]; a digest match skips the file
//! transfers entirely. That is the cheap mode, but because a probe
//! exchanges different frames than a full sync, probabilistic fault
//! scenarios consume their dice differently — Probe equivalence is only
//! guaranteed against deterministic transports.
//!
//! Each run also leaves a [`VrpDelta`] (announce/withdraw against the
//! previous run) in the state, ready to feed
//! [`RtrServer::publish`](crate::rtr::RtrServer::publish) so an
//! RTR serial bump carries a real delta instead of a recomputed set.

use std::collections::{BTreeMap, BTreeSet};

use ipres::ResourceSet;
use rpki_objects::{Encode, Moment, Validity};
use rpki_obs::Recorder;
use rpki_repo::Freshness;
use rpkisim_crypto::{sha256, Digest, KeyId};
use serde::Serialize;

use crate::source::ObjectSource;
use crate::validation::{
    Diagnostic, IncompletePolicy, OverclaimPolicy, RejectedCa, ValidatedCa, ValidationRun,
    Validator, VrpRecord, WorkItem,
};
use crate::vrp::Vrp;

#[cfg(doc)]
use crate::validation::Issue;

/// How [`Validator::run_incremental`] checks cached subtrees for
/// staleness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum RevalidationMode {
    /// Sync every directory exactly as a cold walk would and use the
    /// content digest only to skip re-validation work. Network
    /// behaviour — and therefore every seeded fault outcome — is
    /// byte-identical to [`Validator::run`].
    Full,
    /// Probe cached subtrees with a LIST-only exchange first and skip
    /// the file transfers on a digest match. Cheapest, but the changed
    /// traffic pattern perturbs probabilistic fault dice, so exact
    /// equivalence holds only over deterministic transports.
    Probe,
}

/// Facts collected while processing one publication point that decide
/// how long (and for which chains) the memoized result stays valid.
pub(crate) struct ProcessObservations {
    now: u64,
    lo: u64,
    hi: u64,
    child_keys: BTreeSet<KeyId>,
    loop_seen: bool,
}

impl ProcessObservations {
    /// A collector for a walk validating at time `now`.
    pub(crate) fn at(now: u64) -> Self {
        ProcessObservations {
            now,
            lo: 0,
            hi: u64::MAX,
            child_keys: BTreeSet::new(),
            loop_seen: false,
        }
    }

    /// Registers a time at which some comparison against "now" flips.
    fn boundary(&mut self, at: u64) {
        if at <= self.now {
            self.lo = self.lo.max(at);
        } else {
            self.hi = self.hi.min(at);
        }
    }

    /// An object validity window: comparisons flip at `not_before` and
    /// just past `not_after`.
    pub(crate) fn validity(&mut self, v: Validity) {
        self.boundary(v.not_before.0);
        self.boundary(v.not_after.0.saturating_add(1));
    }

    /// A manifest/CRL `next_update`: staleness begins just past it.
    pub(crate) fn next_update(&mut self, at: Moment) {
        self.boundary(at.0.saturating_add(1));
    }

    /// A certificate subject key seen in the directory (loop-detection
    /// precondition for replay).
    pub(crate) fn child_key(&mut self, key: KeyId) {
        self.child_keys.insert(key);
    }

    /// A [`Issue::CertificateLoop`] fired: the result depends on the
    /// chain's ancestry, so it must not be memoized.
    pub(crate) fn saw_loop(&mut self) {
        self.loop_seen = true;
    }

    /// The half-open `[lo, hi)` window of validation times over which
    /// every observed comparison keeps its outcome.
    fn window(&self) -> (u64, u64) {
        (self.lo, self.hi)
    }
}

/// The change in the validated VRP set between two consecutive runs.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct VrpDelta {
    /// VRPs present now but not in the previous run, sorted.
    pub announce: Vec<Vrp>,
    /// VRPs present in the previous run but not now, sorted.
    pub withdraw: Vec<Vrp>,
}

impl VrpDelta {
    /// The delta taking sorted, deduplicated `old` to sorted,
    /// deduplicated `new` (a linear merge — both inputs come from
    /// [`ValidationRun::vrps`], which is sorted and deduplicated).
    pub fn between(old: &[Vrp], new: &[Vrp]) -> Self {
        let mut announce = Vec::new();
        let mut withdraw = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < old.len() && j < new.len() {
            match old[i].cmp(&new[j]) {
                std::cmp::Ordering::Less => {
                    withdraw.push(old[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    announce.push(new[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        withdraw.extend_from_slice(&old[i..]);
        announce.extend_from_slice(&new[j..]);
        VrpDelta { announce, withdraw }
    }

    /// Whether the two runs validated the same VRP set.
    pub fn is_empty(&self) -> bool {
        self.announce.is_empty() && self.withdraw.is_empty()
    }

    /// Applies this delta to a VRP set in place.
    pub fn apply(&self, set: &mut BTreeSet<Vrp>) {
        for vrp in &self.announce {
            set.insert(*vrp);
        }
        for vrp in &self.withdraw {
            set.remove(vrp);
        }
    }
}

/// What one incremental run did, for benchmarking and observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct RevalidationStats {
    /// Publication points replayed from cache.
    pub subtrees_reused: u64,
    /// Publication points processed in full (cold, changed, or
    /// uncacheable).
    pub subtrees_rewalked: u64,
    /// LIST-only probes attempted (Probe mode only).
    pub probes: u64,
    /// Probes whose digest matched the cache, skipping the transfer.
    pub probe_hits: u64,
    /// VRPs announced by this run's delta.
    pub announced: u64,
    /// VRPs withdrawn by this run's delta.
    pub withdrawn: u64,
}

impl RevalidationStats {
    /// Emits this run's incremental counters and delta-size histograms
    /// into `rec` at simulated time `at`.
    pub fn emit(&self, rec: &Recorder, at: u64) {
        if !rec.is_enabled() {
            return;
        }
        rec.count("rp.incremental.runs", 1);
        rec.count("rp.incremental.subtrees_reused", self.subtrees_reused);
        rec.count("rp.incremental.subtrees_rewalked", self.subtrees_rewalked);
        rec.count("rp.incremental.probes", self.probes);
        rec.count("rp.incremental.probe_hits", self.probe_hits);
        rec.observe("rp.incremental.delta_announced", self.announced);
        rec.observe("rp.incremental.delta_withdrawn", self.withdrawn);
        rec.event(at, "rp", "incremental")
            .u64("reused", self.subtrees_reused)
            .u64("rewalked", self.subtrees_rewalked)
            .u64("probes", self.probes)
            .u64("probe_hits", self.probe_hits)
            .u64("announced", self.announced)
            .u64("withdrawn", self.withdrawn)
            .emit();
    }
}

/// One memoized publication-point walk: the full key it was computed
/// under plus everything processing pushed into the run.
#[derive(Debug, Clone)]
struct CacheEntry {
    cert_digest: Digest,
    effective: ResourceSet,
    depth: usize,
    incomplete: IncompletePolicy,
    overclaim: OverclaimPolicy,
    max_depth: usize,
    dir: String,
    dir_digest: Digest,
    /// `[lo, hi)` of validation times preserving every time comparison.
    window: (u64, u64),
    /// Certificate subject keys seen in the directory: replay requires
    /// the chain's ancestors to be disjoint from these.
    child_keys: BTreeSet<KeyId>,
    ca: ValidatedCa,
    diagnostics: Vec<Diagnostic>,
    accepted_roas: Vec<(String, String)>,
    vrps: Vec<Vrp>,
    vrp_records: Vec<VrpRecord>,
    revocations: Vec<(KeyId, u64)>,
    rejected_cas: Vec<RejectedCa>,
    /// Child CAs in the order processing queued them, each with its
    /// cert digest precomputed so replayed subtrees never re-encode or
    /// re-hash certificates.
    children: Vec<(rpki_objects::ResourceCert, ResourceSet, Digest)>,
}

/// Persistent memory of an incremental relying party: the per-CA
/// subtree cache, the previous run's VRP set, and the last run's delta
/// and statistics. Owned by the experiment and lent to
/// [`Validator::run_incremental`] each revalidation.
#[derive(Debug)]
pub struct ValidationState {
    mode: RevalidationMode,
    entries: BTreeMap<KeyId, CacheEntry>,
    last_vrps: Option<Vec<Vrp>>,
    last_delta: VrpDelta,
    stats: RevalidationStats,
}

impl ValidationState {
    /// Fresh state revalidating in `mode`.
    pub fn new(mode: RevalidationMode) -> Self {
        ValidationState {
            mode,
            entries: BTreeMap::new(),
            last_vrps: None,
            last_delta: VrpDelta::default(),
            stats: RevalidationStats::default(),
        }
    }

    /// Fresh state in [`RevalidationMode::Full`] (campaign-safe:
    /// byte-identical network behaviour).
    pub fn full() -> Self {
        ValidationState::new(RevalidationMode::Full)
    }

    /// Fresh state in [`RevalidationMode::Probe`] (cheapest; exact
    /// equivalence over deterministic transports only).
    pub fn probe() -> Self {
        ValidationState::new(RevalidationMode::Probe)
    }

    /// The revalidation mode in force.
    pub fn mode(&self) -> RevalidationMode {
        self.mode
    }

    /// Number of publication points currently memoized.
    pub fn cached_subtrees(&self) -> usize {
        self.entries.len()
    }

    /// Statistics of the most recent [`Validator::run_incremental`].
    pub fn stats(&self) -> RevalidationStats {
        self.stats
    }

    /// The VRP delta the most recent run produced against the one
    /// before it (everything is an announce on the first run).
    pub fn last_delta(&self) -> &VrpDelta {
        &self.last_delta
    }

    /// Drops all memoized subtrees and the previous VRP set; the next
    /// run walks cold and announces everything.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.last_vrps = None;
        self.last_delta = VrpDelta::default();
        self.stats = RevalidationStats::default();
    }

    /// Closes a walk: records its delta against the previous run's
    /// (sorted, deduplicated) VRP set and its statistics.
    pub(crate) fn record(&mut self, vrps: &[Vrp], mut stats: RevalidationStats) {
        let prev = self.last_vrps.take().unwrap_or_default();
        let delta = VrpDelta::between(&prev, vrps);
        stats.announced = delta.announce.len() as u64;
        stats.withdrawn = delta.withdraw.len() as u64;
        self.last_vrps = Some(vrps.to_vec());
        self.last_delta = delta;
        self.stats = stats;
    }
}

impl Validator {
    /// Processes one queued CA: replay from cache when the key matches,
    /// full walk (and re-memoization) otherwise.
    pub(crate) fn step(
        &self,
        source: &mut dyn ObjectSource,
        item: WorkItem,
        run: &mut ValidationRun,
        queue: &mut Vec<WorkItem>,
        state: &mut ValidationState,
        stats: &mut RevalidationStats,
    ) {
        let config = self.config();
        // Depth-exceeded items never touch the directory; processing
        // them is cheaper than caching them.
        if item.depth >= config.max_depth {
            stats.subtrees_rewalked += 1;
            self.process_ca(source, item, run, queue, None);
            return;
        }

        let key = item.cert.data().subject_key.id();
        let cert_digest = item.digest.unwrap_or_else(|| sha256(&item.cert.to_bytes()));
        let now = config.now.0;
        let usable = state.entries.get(&key).is_some_and(|e| {
            e.cert_digest == cert_digest
                && e.effective == item.effective
                && e.depth == item.depth
                && e.incomplete == config.incomplete
                && e.overclaim == config.overclaim
                && e.max_depth == config.max_depth
                && e.window.0 <= now
                && now < e.window.1
                && e.child_keys.is_disjoint(&item.ancestors)
        });
        let dir = item.cert.data().sia.clone();

        if usable && state.mode == RevalidationMode::Probe {
            if let Some(probe) = source.probe_dir(&dir) {
                stats.probes += 1;
                // Internal invariant, not remote-reachable: `usable`
                // was computed from this same map entry above and
                // nothing has removed it since.
                let entry = state.entries.get(&key).expect("usable entry present");
                if probe.listed && probe.content_digest() == Some(entry.dir_digest) {
                    stats.probe_hits += 1;
                    stats.subtrees_reused += 1;
                    Self::replay(entry, Freshness::Fresh, &item, run, queue);
                    return;
                }
            }
        }

        let outcome = source.load_dir(&dir);
        let dir_digest = outcome.content_digest();
        if usable {
            // Internal invariant, not remote-reachable (see above).
            let entry = state.entries.get(&key).expect("usable entry present");
            if dir_digest == Some(entry.dir_digest) {
                stats.subtrees_reused += 1;
                Self::replay(entry, outcome.freshness, &item, run, queue);
                return;
            }
        }

        // Miss: walk the publication point for real, observing what the
        // result depends on, then memoize by slicing off what this walk
        // appended to the run and the queue.
        stats.subtrees_rewalked += 1;
        let ca_mark = run.cas.len();
        let diag_mark = run.diagnostics.len();
        let roa_mark = run.accepted_roas.len();
        let vrp_mark = run.vrps.len();
        let rec_mark = run.vrp_records.len();
        let rev_mark = run.revocations.len();
        let rej_mark = run.rejected_cas.len();
        let queue_mark = queue.len();
        let mut obs = ProcessObservations::at(now);
        let depth = item.depth;
        let effective = item.effective.clone();

        run.cas.push(Validator::validated_ca(&item));
        self.process_pubpoint(item, outcome, run, queue, Some(&mut obs));

        // Unlisted directories have no content digest to key on, and
        // walks that hit a certificate loop depend on this particular
        // chain's ancestry: neither is memoized.
        let Some(dir_digest) = dir_digest else {
            state.entries.remove(&key);
            return;
        };
        if obs.loop_seen {
            state.entries.remove(&key);
            return;
        }
        let entry = CacheEntry {
            cert_digest,
            effective,
            depth,
            incomplete: config.incomplete,
            overclaim: config.overclaim,
            max_depth: config.max_depth,
            dir: dir.to_string(),
            dir_digest,
            window: obs.window(),
            child_keys: obs.child_keys,
            ca: run.cas[ca_mark].clone(),
            diagnostics: run.diagnostics[diag_mark..].to_vec(),
            accepted_roas: run.accepted_roas[roa_mark..].to_vec(),
            vrps: run.vrps[vrp_mark..].to_vec(),
            vrp_records: run.vrp_records[rec_mark..].to_vec(),
            revocations: run.revocations[rev_mark..].to_vec(),
            rejected_cas: run.rejected_cas[rej_mark..].to_vec(),
            children: queue[queue_mark..]
                .iter()
                .map(|w| {
                    let digest = w.digest.unwrap_or_else(|| sha256(&w.cert.to_bytes()));
                    (w.cert.clone(), w.effective.clone(), digest)
                })
                .collect(),
        };
        state.entries.insert(key, entry);
    }

    /// Replays a memoized walk: pushes the stored outputs in their
    /// original order and re-queues the child CAs exactly as the full
    /// walk queued them, so the overall traversal — and therefore every
    /// order-sensitive output vector — is identical. Freshness is live:
    /// it reports how *this* round obtained (or confirmed) the data.
    fn replay(
        entry: &CacheEntry,
        freshness: Freshness,
        item: &WorkItem,
        run: &mut ValidationRun,
        queue: &mut Vec<WorkItem>,
    ) {
        run.cas.push(entry.ca.clone());
        run.freshness.push((entry.dir.clone(), freshness));
        run.diagnostics.extend(entry.diagnostics.iter().cloned());
        run.accepted_roas.extend(entry.accepted_roas.iter().cloned());
        run.vrps.extend_from_slice(&entry.vrps);
        run.vrp_records.extend_from_slice(&entry.vrp_records);
        run.revocations.extend(entry.revocations.iter().cloned());
        run.rejected_cas.extend(entry.rejected_cas.iter().cloned());
        let mut ancestors = item.ancestors.clone();
        ancestors.insert(entry.ca.key);
        for (cert, effective, digest) in &entry.children {
            queue.push(WorkItem {
                cert: cert.clone(),
                effective: effective.clone(),
                depth: entry.depth + 1,
                ancestors: ancestors.clone(),
                digest: Some(*digest),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_between_and_apply_roundtrip() {
        let v = |n: u8| Vrp::new(format!("10.{n}.0.0/16").parse().unwrap(), 16, ipres::Asn(1));
        let old = vec![v(1), v(2), v(3)];
        let new = vec![v(2), v(3), v(4), v(5)];
        let delta = VrpDelta::between(&old, &new);
        assert_eq!(delta.announce, vec![v(4), v(5)]);
        assert_eq!(delta.withdraw, vec![v(1)]);
        assert!(!delta.is_empty());
        let mut set: BTreeSet<Vrp> = old.into_iter().collect();
        delta.apply(&mut set);
        assert_eq!(set.into_iter().collect::<Vec<_>>(), new);
        assert!(VrpDelta::between(&new, &new).is_empty());
    }

    #[test]
    fn time_window_brackets_now() {
        let mut obs = ProcessObservations::at(100);
        obs.validity(Validity::new(Moment(10), Moment(500)));
        obs.next_update(Moment(300));
        assert_eq!(obs.window(), (10, 301));
        // A boundary exactly at now lands in the lower bound.
        obs.validity(Validity::new(Moment(100), Moment(10_000)));
        assert_eq!(obs.window(), (100, 301));
    }
}
