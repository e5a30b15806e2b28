//! Top-down chain validation.
//!
//! Starting from the configured trust anchors, the [`Validator`] walks
//! publication points, verifying at every hop:
//!
//! - **signatures** — each object under its issuer's key;
//! - **time** — validity windows contain "now"; manifests and CRLs are
//!   not stale;
//! - **revocation** — serials against the issuer's CRL;
//! - **resources** — strict RFC 3779 containment: a child claiming
//!   anything outside its parent's allocation is rejected along with
//!   its entire subtree (this is the rule a whacking manipulator turns
//!   into a weapon: shrink the parent, and the target below becomes the
//!   over-claimer);
//! - **completeness** — manifest hash checks detect missing and
//!   corrupted files. What to *do* about an incomplete publication
//!   point is deliberately a policy knob ([`IncompletePolicy`]),
//!   because the RFCs leave it to local policy and the paper shows the
//!   stakes of each choice.
//!
//! Every rejection is recorded as a [`Diagnostic`] — experiments assert
//! on these, and the `rpki-attacks` monitor consumes them.

use std::collections::BTreeSet;

use ipres::ResourceSet;
use rpki_objects::{Decode, Moment, RepoUri, ResourceCert, RpkiObject, TrustAnchorLocator};
use rpki_obs::Recorder;
use rpki_repo::{Freshness, SyncOutcome};
use rpkisim_crypto::{sha256, Digest, KeyId};
use serde::Serialize;

use crate::incremental::{ProcessObservations, RevalidationStats, ValidationState};
use crate::source::ObjectSource;
use crate::vrp::{Vrp, VrpCache};

/// Sanity cap on manifest listings. No modelled publication point
/// comes near this; a listing above it is adversarial (an oversize
/// listing floods the walk with per-file bookkeeping) and the manifest
/// is discarded as [`Issue::MalformedObject`].
pub const MAX_MANIFEST_ENTRIES: usize = 10_000;

/// What to do when a publication point cannot be proven complete
/// (manifest missing, stale, or unverifiable; or listed files missing
/// or hash-mismatched).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum IncompletePolicy {
    /// Use every object that independently verifies. Maximises routing
    /// protection but accepts whatever subset an attacker or fault left
    /// behind — the paper's Side Effect 6 exposure.
    AcceptPartial,
    /// Discard the whole publication point unless provably complete.
    /// Immune to partial-deletion games, but one corrupted file takes
    /// down every ROA the CA issued.
    RejectPublicationPoint,
}

/// How to treat a child certificate claiming resources outside its
/// parent's allocation.
///
/// The choice changes the economics of whacking (see the
/// `ablation_depth_sweep` experiment): under [`OverclaimPolicy::Trim`],
/// shrinking an ancestor RC no longer invalidates intermediate CAs, so
/// deep whacks need **no** suspicious make-before-break reissues — the
/// robustness fix makes the targeted attack *stealthier*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum OverclaimPolicy {
    /// RFC 6487: an over-claiming certificate is invalid, and its whole
    /// subtree with it.
    Strict,
    /// RFC 8360 "validation reconsidered": the certificate stays valid
    /// with its resources trimmed to the intersection with its
    /// parent's; only objects that actually need the lost space fail.
    Trim,
}

/// What to do about *unsafe VRPs*: VRPs whose prefix overlaps the
/// resources of a CA that was rejected somewhere in the walk.
///
/// The concern (borrowed from routinator's `--unsafe-vrps` option) is
/// that a rejected CA may have held a ROA for the overlapping space;
/// with that ROA gone, a same-space VRP surviving elsewhere can flip
/// the victim's announcements from unknown to invalid — Side Effect 6
/// territory. The flip side is the new attack this knob opens: under
/// [`UnsafeVrpPolicy::Reject`] a misbehaving parent only has to get a
/// bogus child certificate rejected over a victim's space to suppress
/// the victim's perfectly legitimate more-specific VRP.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub enum UnsafeVrpPolicy {
    /// Take no special action; unsafe-VRP analysis is skipped entirely
    /// (the production default).
    #[default]
    Accept,
    /// Flag unsafe VRPs in [`ValidationRun::unsafe_vrps`] but keep them
    /// in the validated set.
    Warn,
    /// Flag unsafe VRPs *and* drop them from the validated set.
    Reject,
}

impl UnsafeVrpPolicy {
    /// A short machine-readable label for traces and metrics.
    pub fn label(&self) -> &'static str {
        match self {
            UnsafeVrpPolicy::Accept => "accept",
            UnsafeVrpPolicy::Warn => "warn",
            UnsafeVrpPolicy::Reject => "reject",
        }
    }
}

/// Validator configuration.
#[derive(Debug, Clone, Copy)]
pub struct ValidationConfig {
    /// The validation time.
    pub now: Moment,
    /// Incomplete-publication-point policy.
    pub incomplete: IncompletePolicy,
    /// Over-claim handling.
    pub overclaim: OverclaimPolicy,
    /// Maximum CA chain depth (cycle/runaway guard).
    pub max_depth: usize,
    /// Unsafe-VRP handling.
    pub unsafe_vrps: UnsafeVrpPolicy,
}

impl ValidationConfig {
    /// Defaults: accept-partial, strict over-claim handling, depth 32,
    /// unsafe VRPs accepted.
    pub fn at(now: Moment) -> Self {
        ValidationConfig {
            now,
            incomplete: IncompletePolicy::AcceptPartial,
            overclaim: OverclaimPolicy::Strict,
            max_depth: 32,
            unsafe_vrps: UnsafeVrpPolicy::default(),
        }
    }

    /// Same, with the given unsafe-VRP policy.
    pub fn with_unsafe_policy(self, policy: UnsafeVrpPolicy) -> Self {
        ValidationConfig { unsafe_vrps: policy, ..self }
    }

    /// Same, with the strict completeness policy.
    pub fn strict_at(now: Moment) -> Self {
        ValidationConfig { incomplete: IncompletePolicy::RejectPublicationPoint, ..Self::at(now) }
    }

    /// Same as [`ValidationConfig::at`], with RFC 8360 trimming.
    pub fn reconsidered_at(now: Moment) -> Self {
        ValidationConfig { overclaim: OverclaimPolicy::Trim, ..Self::at(now) }
    }
}

/// Why an object or publication point was rejected (or noted).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum Issue {
    /// The repository hosting the directory could not be reached or
    /// listed.
    UnreachableRepo,
    /// The trust-anchor certificate was absent or failed the TAL check.
    TalRejected,
    /// No manifest at the publication point.
    MissingManifest,
    /// Manifest signature failed.
    BadManifestSignature,
    /// Manifest past its `next_update`.
    StaleManifest,
    /// No CRL at the publication point.
    MissingCrl,
    /// CRL signature failed.
    BadCrlSignature,
    /// CRL past its `next_update`.
    StaleCrl,
    /// A manifest-listed file never arrived.
    MissingFile(String),
    /// A file's bytes do not match the manifest hash (corruption, or a
    /// repository serving stale/tampered data).
    HashMismatch(String),
    /// A file arrived from the transport with bytes failing the
    /// *listing's* digest (in-flight corruption caught by the sync
    /// layer before the manifest check ever ran).
    CorruptedFile(String),
    /// A file failed to decode.
    DecodeFailed(String),
    /// An object's signature failed under its issuer's key.
    BadSignature(String),
    /// An object is outside its validity window.
    Expired(String),
    /// An object is not yet valid.
    NotYetValid(String),
    /// An object's serial is on the issuer's CRL.
    Revoked(String),
    /// A child claimed resources outside its parent's allocation; the
    /// subtree is rejected (strict policy).
    OverClaim(String),
    /// A child claimed resources outside its parent's allocation and
    /// was trimmed to the intersection (RFC 8360 policy).
    TrimmedOverClaim(String),
    /// The publication point was discarded under
    /// [`IncompletePolicy::RejectPublicationPoint`].
    RejectedPublicationPoint,
    /// A file present in the directory but absent from the manifest
    /// (ignored; noted for monitoring).
    UnlistedFile(String),
    /// Chain depth exceeded [`ValidationConfig::max_depth`].
    DepthExceeded,
    /// A CA key appeared twice on one chain (certificate loop).
    CertificateLoop(String),
    /// An object decoded but violated a structural sanity bound (e.g. a
    /// manifest listing more entries than any plausible publication
    /// point holds). The object is discarded; the walk continues.
    MalformedObject(String),
}

/// One validator finding, attributed to the publication point it arose
/// at.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Diagnostic {
    /// Handle of the CA whose publication point was being processed.
    pub ca: String,
    /// The directory.
    pub dir: String,
    /// What happened.
    pub issue: Issue,
}

/// A CA accepted onto the validated tree.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ValidatedCa {
    /// Subject handle (reporting only).
    pub handle: String,
    /// Subject key id.
    #[serde(skip)]
    pub key: KeyId,
    /// Depth below the trust anchor (TA = 0).
    pub depth: usize,
    /// The CA's validated resources, as display strings.
    pub resources: Vec<String>,
}

/// Provenance of one VRP: everything a fail-safe layer (such as
/// [Suspenders]) needs to judge a later disappearance.
///
/// [Suspenders]: https://datatracker.ietf.org/doc/draft-kent-sidr-suspenders/
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct VrpRecord {
    /// The payload.
    pub vrp: Vrp,
    /// When the underlying ROA's validity ends.
    pub not_after: Moment,
    /// The issuing CA's key.
    #[serde(skip)]
    pub issuer: KeyId,
    /// The ROA's EE serial (what a CRL would revoke).
    pub serial: u64,
}

/// A CA certificate (or whole publication point) dropped during the
/// walk, with the resources it claimed — the raw material of
/// unsafe-VRP analysis: any surviving VRP overlapping these resources
/// may have lost a competing or covering ROA with the rejection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RejectedCa {
    /// Subject handle of the dropped CA (reporting only).
    pub ca: String,
    /// The publication directory the rejection is attributed to.
    pub dir: String,
    /// The resources the dropped certificate claimed (for a dropped
    /// publication point: the CA's effective resources).
    pub resources: ResourceSet,
}

/// The output of one validation run.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct ValidationRun {
    /// Every validated ROA payload.
    pub vrps: Vec<Vrp>,
    /// Provenance for every VRP (aligned set, not order): validity end,
    /// issuer, serial.
    pub vrp_records: Vec<VrpRecord>,
    /// Every CA accepted onto the tree.
    pub cas: Vec<ValidatedCa>,
    /// Accepted ROAs, as `(issuing CA handle, ROA display string)`.
    pub accepted_roas: Vec<(String, String)>,
    /// Serials observed as revoked, per issuing CA key — the audit
    /// trail that distinguishes transparent revocation from stealthy
    /// removal.
    pub revocations: Vec<(KeyId, u64)>,
    /// Everything that went wrong or was noteworthy.
    pub diagnostics: Vec<Diagnostic>,
    /// Data provenance per publication point processed: fresh from the
    /// wire, served stale from a snapshot, or absent entirely.
    pub freshness: Vec<(String, Freshness)>,
    /// CAs (or whole publication points) dropped during the walk, in
    /// traversal order, with the resources they claimed. Always
    /// recorded, regardless of [`UnsafeVrpPolicy`].
    pub rejected_cas: Vec<RejectedCa>,
    /// VRPs overlapping a rejected CA's resources, sorted. Empty under
    /// [`UnsafeVrpPolicy::Accept`] (analysis skipped); under
    /// [`UnsafeVrpPolicy::Reject`] these have additionally been removed
    /// from [`ValidationRun::vrps`] and
    /// [`ValidationRun::vrp_records`].
    pub unsafe_vrps: Vec<Vrp>,
}

impl ValidationRun {
    /// The VRPs as a queryable cache.
    pub fn vrp_cache(&self) -> VrpCache {
        self.vrps.iter().copied().collect()
    }

    /// Whether any diagnostic carries the given issue.
    pub fn has_issue(&self, issue: &Issue) -> bool {
        self.diagnostics.iter().any(|d| &d.issue == issue)
    }

    /// Emits this run's outcome into an observability recorder at
    /// simulated time `at`: one `validation` summary event, one
    /// `freshness` provenance event per publication point (in the
    /// run's sorted order), and the matching counters/histograms.
    pub fn emit(&self, rec: &Recorder, at: u64) {
        if !rec.is_enabled() {
            return;
        }
        let mut fresh = 0u64;
        let mut stale = 0u64;
        let mut absent = 0u64;
        for (dir, provenance) in &self.freshness {
            let (label, age) = match provenance {
                Freshness::Fresh => {
                    fresh += 1;
                    ("fresh", 0)
                }
                Freshness::Stale { age } => {
                    stale += 1;
                    ("stale", *age)
                }
                Freshness::Absent => {
                    absent += 1;
                    ("absent", 0)
                }
            };
            rec.event(at, "rp", "freshness")
                .str("dir", dir)
                .str("state", label)
                .u64("age", age)
                .emit();
        }
        rec.count("rp.validation_runs", 1);
        rec.observe("rp.vrps_per_run", self.vrps.len() as u64);
        rec.event(at, "rp", "validation")
            .u64("vrps", self.vrps.len() as u64)
            .u64("cas", self.cas.len() as u64)
            .u64("roas", self.accepted_roas.len() as u64)
            .u64("revocations", self.revocations.len() as u64)
            .u64("diagnostics", self.diagnostics.len() as u64)
            .u64("fresh_dirs", fresh)
            .u64("stale_dirs", stale)
            .u64("absent_dirs", absent)
            .u64("rejected_cas", self.rejected_cas.len() as u64)
            .u64("unsafe_vrps", self.unsafe_vrps.len() as u64)
            .emit();
    }
}

/// The chain validator.
#[derive(Debug, Clone, Copy)]
pub struct Validator {
    config: ValidationConfig,
}

pub(crate) struct WorkItem {
    pub(crate) cert: ResourceCert,
    /// The resources this CA may actually speak for: its certificate's
    /// set under [`OverclaimPolicy::Strict`], possibly an intersection
    /// under [`OverclaimPolicy::Trim`].
    pub(crate) effective: ResourceSet,
    pub(crate) depth: usize,
    /// Keys of every CA above this one (loop detection).
    pub(crate) ancestors: BTreeSet<KeyId>,
    /// Digest of the encoded certificate, when a cache already knows it
    /// (replayed subtrees); `None` means compute on demand.
    pub(crate) digest: Option<Digest>,
}

impl Validator {
    /// A validator with the given configuration.
    pub fn new(config: ValidationConfig) -> Self {
        Validator { config }
    }

    /// Runs validation from `tals` over `source`.
    pub fn run(&self, source: &mut dyn ObjectSource, tals: &[TrustAnchorLocator]) -> ValidationRun {
        self.walk(source, tals, None)
    }

    /// Runs validation from `tals` over `source`, reusing `state`'s
    /// memoized subtrees where their cache key still matches and
    /// re-walking the rest. Output is byte-identical to
    /// [`Validator::run`] over the same world (see the
    /// [`incremental`](crate::incremental) module docs for the
    /// Probe-mode caveat); afterwards `state` holds the VRP delta
    /// against the previous run and this run's
    /// [`RevalidationStats`].
    pub fn run_incremental(
        &self,
        source: &mut dyn ObjectSource,
        tals: &[TrustAnchorLocator],
        state: &mut ValidationState,
    ) -> ValidationRun {
        self.walk(source, tals, Some(state))
    }

    /// The one validation walk: seeds the queue from the TALs, pops it
    /// depth-first (LIFO, so later-pushed siblings go first), and
    /// canonicalises the run once at the end. With `state`, each CA
    /// goes through the memo cache and the run's delta is recorded.
    fn walk(
        &self,
        source: &mut dyn ObjectSource,
        tals: &[TrustAnchorLocator],
        mut state: Option<&mut ValidationState>,
    ) -> ValidationRun {
        let mut run = ValidationRun::default();
        let mut queue: Vec<WorkItem> = Vec::new();
        let mut stats = RevalidationStats::default();

        for tal in tals {
            match self.fetch_ta(source, tal) {
                Some(cert) => {
                    let effective = cert.data().resources.clone();
                    queue.push(WorkItem {
                        cert,
                        effective,
                        depth: 0,
                        ancestors: BTreeSet::new(),
                        digest: None,
                    })
                }
                None => run.diagnostics.push(Diagnostic {
                    ca: "(trust anchor)".to_owned(),
                    dir: tal.uri.to_string(),
                    issue: Issue::TalRejected,
                }),
            }
        }

        while let Some(item) = queue.pop() {
            match state.as_deref_mut() {
                Some(state) => self.step(source, item, &mut run, &mut queue, state, &mut stats),
                None => self.process_ca(source, item, &mut run, &mut queue, None),
            }
        }

        self.finish(&mut run);
        if let Some(state) = state {
            state.record(&run.vrps, stats);
        }
        run
    }

    /// The configuration this validator runs under.
    pub(crate) fn config(&self) -> ValidationConfig {
        self.config
    }

    /// Final canonicalisation of a walk: the order-insensitive vectors
    /// are sorted and deduplicated, then the unsafe-VRP policy is
    /// applied as a pure post-pass over the rejected-CA record (so cold
    /// and incremental runs reach the identical verdict from identical
    /// walk outputs).
    fn finish(&self, run: &mut ValidationRun) {
        run.vrps.sort_unstable();
        run.vrps.dedup();
        run.vrp_records.sort_unstable_by_key(|r| (r.vrp, r.serial));
        run.vrp_records.dedup();
        run.revocations.sort_unstable();
        run.revocations.dedup();
        run.freshness.sort_unstable();

        if self.config.unsafe_vrps == UnsafeVrpPolicy::Accept {
            return;
        }
        let mut rejected = ResourceSet::empty();
        for r in &run.rejected_cas {
            rejected = rejected.union(&r.resources);
        }
        if rejected.is_empty() {
            return;
        }
        run.unsafe_vrps =
            run.vrps.iter().copied().filter(|v| rejected.overlaps_prefix(v.prefix)).collect();
        if self.config.unsafe_vrps == UnsafeVrpPolicy::Reject {
            run.vrps.retain(|v| !rejected.overlaps_prefix(v.prefix));
            run.vrp_records.retain(|r| !rejected.overlaps_prefix(r.vrp.prefix));
        }
    }

    fn fetch_ta(
        &self,
        source: &mut dyn ObjectSource,
        tal: &TrustAnchorLocator,
    ) -> Option<ResourceCert> {
        let file = tal.uri.file_name()?.to_owned();
        let parent_components: Vec<&str> =
            tal.uri.path().iter().take(tal.uri.path().len() - 1).map(String::as_str).collect();
        let dir = RepoUri::new(tal.uri.host(), &parent_components);
        let outcome = source.load_dir(&dir);
        let bytes = outcome.files.get(&file)?;
        let obj = RpkiObject::from_bytes(bytes).ok()?;
        let RpkiObject::Cert(cert) = obj else { return None };
        if !tal.accepts(&cert) {
            return None;
        }
        if !cert.data().validity.contains(self.config.now) {
            return None;
        }
        Some(cert)
    }

    /// Describes `item`'s CA as the [`ValidatedCa`] entry that
    /// processing it pushes first.
    pub(crate) fn validated_ca(item: &WorkItem) -> ValidatedCa {
        ValidatedCa {
            handle: item.cert.data().subject.clone(),
            key: item.cert.data().subject_key.id(),
            depth: item.depth,
            resources: item.effective.to_prefixes().iter().map(|p| p.to_string()).collect(),
        }
    }

    pub(crate) fn process_ca(
        &self,
        source: &mut dyn ObjectSource,
        item: WorkItem,
        run: &mut ValidationRun,
        queue: &mut Vec<WorkItem>,
        obs: Option<&mut ProcessObservations>,
    ) {
        run.cas.push(Self::validated_ca(&item));

        if item.depth >= self.config.max_depth {
            let dir = item.cert.data().sia.clone();
            run.diagnostics.push(Diagnostic {
                ca: item.cert.data().subject.clone(),
                dir: dir.to_string(),
                issue: Issue::DepthExceeded,
            });
            run.rejected_cas.push(RejectedCa {
                ca: item.cert.data().subject.clone(),
                dir: dir.to_string(),
                resources: item.effective.clone(),
            });
            return;
        }

        let outcome: SyncOutcome = source.load_dir(&item.cert.data().sia.clone());
        self.process_pubpoint(item, outcome, run, queue, obs);
    }

    /// Processes one publication point against an already fetched sync
    /// outcome. The caller has pushed the [`ValidatedCa`] entry and
    /// handled the depth guard; everything else — freshness, manifest,
    /// CRL, objects — happens here. `obs`, when present, collects the
    /// facts the incremental cache needs to judge how long the result
    /// stays valid.
    pub(crate) fn process_pubpoint(
        &self,
        item: WorkItem,
        outcome: SyncOutcome,
        run: &mut ValidationRun,
        queue: &mut Vec<WorkItem>,
        mut obs: Option<&mut ProcessObservations>,
    ) {
        let cert = &item.cert;
        let handle = cert.data().subject.clone();
        let dir = cert.data().sia.clone();
        let dir_s = dir.to_string();
        let key = cert.data().subject_key;
        let resources = item.effective.clone();

        let diag = |run: &mut ValidationRun, issue: Issue| {
            run.diagnostics.push(Diagnostic { ca: handle.clone(), dir: dir_s.clone(), issue });
        };

        let reject_ca = |run: &mut ValidationRun, resources: &ResourceSet| {
            run.rejected_cas.push(RejectedCa {
                ca: handle.clone(),
                dir: dir_s.clone(),
                resources: resources.clone(),
            });
        };

        run.freshness.push((dir_s.clone(), outcome.freshness));
        if !outcome.listed {
            diag(run, Issue::UnreachableRepo);
            reject_ca(run, &resources);
            return;
        }
        for name in &outcome.missing {
            diag(run, Issue::MissingFile(name.clone()));
        }
        for name in &outcome.corrupted {
            diag(run, Issue::CorruptedFile(name.clone()));
        }

        // --- Manifest ---
        let mft_name = format!("{}.mft", key.id().short());
        let manifest = match outcome.files.get(&mft_name) {
            None => {
                diag(run, Issue::MissingManifest);
                None
            }
            Some(bytes) => match RpkiObject::from_bytes(bytes) {
                Ok(RpkiObject::Manifest(m)) => {
                    if let Some(o) = obs.as_deref_mut() {
                        o.next_update(m.data().next_update);
                    }
                    if m.data().entries.len() > MAX_MANIFEST_ENTRIES {
                        // An adversarial listing can flood the walk
                        // with MissingFile work; cap it and treat the
                        // manifest as absent.
                        diag(run, Issue::MalformedObject(mft_name.clone()));
                        None
                    } else if m.verify(&key).is_err() {
                        diag(run, Issue::BadManifestSignature);
                        None
                    } else if m.is_stale_at(self.config.now) {
                        diag(run, Issue::StaleManifest);
                        None
                    } else {
                        Some(m)
                    }
                }
                _ => {
                    diag(run, Issue::DecodeFailed(mft_name.clone()));
                    None
                }
            },
        };

        // Determine completeness and the processing set.
        let mut complete = manifest.is_some();
        let names: Vec<String> = match &manifest {
            Some(m) => {
                let mut names = Vec::new();
                for name in m.file_names() {
                    match outcome.files.get(name) {
                        None => {
                            diag(run, Issue::MissingFile(name.to_owned()));
                            complete = false;
                        }
                        Some(bytes) => {
                            if m.hash_of(name) != Some(sha256(bytes)) {
                                diag(run, Issue::HashMismatch(name.to_owned()));
                                complete = false;
                            } else {
                                names.push(name.to_owned());
                            }
                        }
                    }
                }
                // Note unlisted extras (monitor fodder), except the
                // manifest itself.
                for name in outcome.files.keys() {
                    if name != &mft_name && m.hash_of(name).is_none() {
                        diag(run, Issue::UnlistedFile(name.clone()));
                    }
                }
                names
            }
            None => {
                complete = false;
                outcome.files.keys().filter(|n| *n != &mft_name).cloned().collect()
            }
        };

        if !complete && self.config.incomplete == IncompletePolicy::RejectPublicationPoint {
            diag(run, Issue::RejectedPublicationPoint);
            reject_ca(run, &resources);
            return;
        }

        // --- CRL ---
        let crl_name = format!("{}.crl", key.id().short());
        let crl = match outcome.files.get(&crl_name) {
            None => {
                diag(run, Issue::MissingCrl);
                None
            }
            Some(bytes) => match RpkiObject::from_bytes(bytes) {
                Ok(RpkiObject::Crl(c)) => {
                    if let Some(o) = obs.as_deref_mut() {
                        o.next_update(c.data().next_update);
                    }
                    if c.verify(&key).is_err() {
                        diag(run, Issue::BadCrlSignature);
                        None
                    } else if c.is_stale_at(self.config.now) {
                        diag(run, Issue::StaleCrl);
                        None
                    } else {
                        Some(c)
                    }
                }
                _ => {
                    diag(run, Issue::DecodeFailed(crl_name.clone()));
                    None
                }
            },
        };
        if let Some(c) = &crl {
            for &serial in &c.data().revoked {
                run.revocations.push((key.id(), serial));
            }
        }
        let revoked = |serial: u64| crl.as_ref().map(|c| c.is_revoked(serial)).unwrap_or(false);

        // --- Objects ---
        for name in names {
            if name == mft_name || name == crl_name {
                continue;
            }
            let bytes = &outcome.files[&name];
            let obj = match RpkiObject::from_bytes(bytes) {
                Ok(o) => o,
                Err(_) => {
                    diag(run, Issue::DecodeFailed(name.clone()));
                    continue;
                }
            };
            match obj {
                RpkiObject::Cert(child) => {
                    if let Some(o) = obs.as_deref_mut() {
                        o.validity(child.data().validity);
                        o.child_key(child.subject_key_id());
                    }
                    // Every early `continue` below drops the child's
                    // whole subtree; record its claimed resources for
                    // unsafe-VRP analysis.
                    let reject_child = |run: &mut ValidationRun, child: &ResourceCert| {
                        run.rejected_cas.push(RejectedCa {
                            ca: child.data().subject.clone(),
                            dir: dir_s.clone(),
                            resources: child.data().resources.clone(),
                        });
                    };
                    if child.verify(&key).is_err() {
                        diag(run, Issue::BadSignature(name.clone()));
                        reject_child(run, &child);
                        continue;
                    }
                    let v = child.data().validity;
                    if v.expired_at(self.config.now) {
                        diag(run, Issue::Expired(name.clone()));
                        reject_child(run, &child);
                        continue;
                    }
                    if v.not_before > self.config.now {
                        diag(run, Issue::NotYetValid(name.clone()));
                        reject_child(run, &child);
                        continue;
                    }
                    if revoked(child.data().serial) {
                        diag(run, Issue::Revoked(name.clone()));
                        reject_child(run, &child);
                        continue;
                    }
                    let child_effective = match self.config.overclaim {
                        OverclaimPolicy::Strict => {
                            if !resources.contains_set(&child.data().resources) {
                                diag(run, Issue::OverClaim(name.clone()));
                                reject_child(run, &child);
                                continue;
                            }
                            child.data().resources.clone()
                        }
                        OverclaimPolicy::Trim => {
                            let trimmed = child.data().resources.intersection(&resources);
                            if trimmed != child.data().resources {
                                diag(run, Issue::TrimmedOverClaim(name.clone()));
                            }
                            trimmed
                        }
                    };
                    let child_key = child.subject_key_id();
                    if item.ancestors.contains(&child_key) || child_key == key.id() {
                        if let Some(o) = obs.as_deref_mut() {
                            o.saw_loop();
                        }
                        diag(run, Issue::CertificateLoop(name.clone()));
                        reject_child(run, &child);
                        continue;
                    }
                    let mut ancestors = item.ancestors.clone();
                    ancestors.insert(key.id());
                    queue.push(WorkItem {
                        cert: child,
                        effective: child_effective,
                        depth: item.depth + 1,
                        ancestors,
                        digest: None,
                    });
                }
                RpkiObject::Roa(roa) => {
                    if let Some(o) = obs.as_deref_mut() {
                        o.validity(roa.validity());
                    }
                    if roa.verify(&key).is_err() {
                        diag(run, Issue::BadSignature(name.clone()));
                        continue;
                    }
                    let v = roa.validity();
                    if v.expired_at(self.config.now) {
                        diag(run, Issue::Expired(name.clone()));
                        continue;
                    }
                    if v.not_before > self.config.now {
                        diag(run, Issue::NotYetValid(name.clone()));
                        continue;
                    }
                    if revoked(roa.serial()) {
                        diag(run, Issue::Revoked(name.clone()));
                        continue;
                    }
                    let needed: ResourceSet = roa.resources();
                    if !resources.contains_set(&needed) {
                        diag(run, Issue::OverClaim(name.clone()));
                        continue;
                    }
                    run.accepted_roas.push((handle.clone(), roa.to_string()));
                    for rp in &roa.data().prefixes {
                        let vrp = Vrp::new(rp.prefix, rp.effective_max_len(), roa.asn());
                        run.vrps.push(vrp);
                        run.vrp_records.push(VrpRecord {
                            vrp,
                            not_after: v.not_after,
                            issuer: key.id(),
                            serial: roa.serial(),
                        });
                    }
                }
                RpkiObject::Crl(_) | RpkiObject::Manifest(_) => {
                    // Already handled positionally; extra copies under
                    // odd names are ignored.
                }
            }
        }
    }
}
