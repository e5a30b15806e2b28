//! The at-rest object store of one repository host.

use std::cell::RefCell;
use std::collections::BTreeMap;

use ipres::{Asn, Prefix};
use netsim::NodeId;
use rpki_ca::PublicationSnapshot;
use rpki_objects::{Encode, RepoUri};
use rpkisim_crypto::{sha256, Digest};
use serde::Serialize;

use rpki_obs::Recorder;

use crate::client::dir_content_digest;
use crate::pubd::{PubdEvent, PubdPolicy, PubdServed, PubdWork, SnapshotDoc};
use crate::rrdp::{
    session_seed, DeltaChange, DeltaRecord, DeltaRef, NotifInfo, PublicationLog, RrdpResponse,
};

/// One stored file: its bytes plus the digest computed when the bytes
/// last changed, so listings never re-hash unchanged content.
#[derive(Debug)]
struct StoredFile {
    bytes: Vec<u8>,
    digest: Digest,
}

impl StoredFile {
    fn new(bytes: Vec<u8>) -> Self {
        let digest = sha256(&bytes);
        StoredFile { bytes, digest }
    }
}

/// A frozen copy of everything one directory's RRDP endpoint serves,
/// captured at pin time: the notification fields, the materialised
/// snapshot document, and the retained delta history. While a pin is
/// active the server replays this verbatim — stale-data pinning, the
/// Stalloris replay.
#[derive(Debug, Clone)]
struct PinnedFeed {
    session: u64,
    serial: u64,
    content: Digest,
    snapshot: SnapshotDoc,
    deltas: Vec<DeltaRecord>,
}

/// One publication-point directory: its files, the canonical
/// complete-sync content digest (recomputed once per mutation so digest
/// probes are a pure lookup), and the RRDP publication log maintained
/// alongside every write. `pinned` holds a frozen copy of the served
/// feed while a misbehaving host replays stale data.
#[derive(Debug)]
struct Directory {
    files: BTreeMap<String, StoredFile>,
    digest: Digest,
    log: PublicationLog,
    pinned: Option<PinnedFeed>,
}

impl Directory {
    fn new(session_seed: u64) -> Self {
        Directory {
            files: BTreeMap::new(),
            digest: empty_dir_digest(),
            log: PublicationLog::new(session_seed),
            pinned: None,
        }
    }

    /// Recomputes the cached content digest from the current files.
    /// Called after every mutation; a snapshot publication batches its
    /// inserts and calls this once.
    fn refresh_digest(&mut self) {
        let entries: Vec<(&str, Digest)> =
            self.files.iter().map(|(n, f)| (n.as_str(), f.digest)).collect();
        self.digest = dir_content_digest(&entries, &[], &[]);
    }

    /// Materialises the snapshot document at the log's head serial from
    /// the current file set.
    fn materialise_at_head(&self) -> SnapshotDoc {
        SnapshotDoc::build(
            self.log.session,
            self.log.serial,
            self.files.iter().map(|(n, f)| (n.as_str(), f.bytes.as_slice())),
        )
    }

    /// Appends one delta record to the publication log (no-op for an
    /// empty change list), then runs the host's pubd policy: compact
    /// (rematerialise the snapshot document) when the interval is due,
    /// and evict history the retention budget no longer covers. The
    /// returned events are what the caller surfaces through obs.
    ///
    /// Ordering matters for the degenerate default: with interval 1 the
    /// snapshot is materialised *before* retention runs, so
    /// `Count { max_deltas: MAX_DELTAS }` reproduces the old
    /// record-then-evict server byte for byte.
    fn record_rrdp(&mut self, changes: Vec<DeltaChange>, policy: &PubdPolicy) -> Vec<PubdEvent> {
        let mut events = Vec::new();
        if changes.is_empty() {
            return events;
        }
        self.log.record(changes);
        if self.log.serial - self.log.snapshot.serial() >= policy.compaction_interval {
            let doc = self.materialise_at_head();
            self.log.install_snapshot(doc, false, &mut events);
        }
        self.enforce_retention(policy, &mut events);
        events
    }

    /// Evicts from the front of the delta history until the retention
    /// budget is met, forcing a re-materialisation at the head first
    /// whenever the budget would otherwise claim a *bridge* delta (one
    /// younger than the materialised snapshot) — the invariant the
    /// snapshot-fallback client relies on. Terminates because an empty
    /// history is never over budget.
    fn enforce_retention(&mut self, policy: &PubdPolicy, events: &mut Vec<PubdEvent>) {
        while policy.retention.over_budget(self.log.deltas.len(), self.log.delta_bytes) {
            let front = self.log.deltas.front().expect("over budget implies history").serial;
            if front > self.log.snapshot.serial() {
                let doc = self.materialise_at_head();
                self.log.install_snapshot(doc, true, events);
            }
            self.log.evict_front(events);
        }
    }
}

/// The canonical content digest of an empty (or absent) directory —
/// what a complete sync of it would key to.
fn empty_dir_digest() -> Digest {
    dir_content_digest(&[], &[], &[])
}

/// Wire-level load one publication point has served: every answered
/// request counts one frame plus its encoded response bytes. Shared
/// worlds use this to show what many relying parties cost one server —
/// the fan-in the paper's Stalloris successor measured in the wild.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct DirLoad {
    /// Response frames served (one per answered request).
    pub frames: u64,
    /// Encoded response bytes served.
    pub bytes: u64,
}

impl DirLoad {
    /// Component-wise sum.
    pub fn plus(self, other: DirLoad) -> DirLoad {
        DirLoad { frames: self.frames + other.frames, bytes: self.bytes + other.bytes }
    }
}

/// One repository host: a named server carrying any number of
/// publication-point directories, each holding named files.
///
/// The store is byte-oriented: objects are serialised at publication,
/// and anything — including corrupted garbage — can sit at rest. That
/// mirrors production rsync servers, which know nothing about RPKI.
/// Digests are computed once per write, not per listing, so frequent
/// listers (retry drivers, incremental-validation probes) pay only a
/// copy.
#[derive(Debug)]
pub struct Repository {
    /// Host name; equals the `netsim` node name.
    host: String,
    /// The simulated network node serving this repository.
    node: NodeId,
    /// `directory path (joined) → directory contents + cached digest`.
    dirs: BTreeMap<Vec<String>, Directory>,
    /// Where this repository host lives in IP space, if the scenario
    /// cares (Side Effect 7 does: reaching the repo requires a
    /// non-invalid route to this prefix).
    hosted_at: Option<(Prefix, Asn)>,
    /// Misbehaviour knob: answer every RRDP request with NotFound,
    /// forcing clients onto the rsync path (the Stalloris downgrade).
    rrdp_offline: bool,
    /// Misbehaviour knob: answer delta requests with NotFound while the
    /// notification still advertises them, forcing snapshot churn.
    rrdp_withhold_deltas: bool,
    /// Misbehaviour knob: hold every answer frame (rsync and RRDP) this
    /// many seconds before it enters the link — the slow-serve half of
    /// Stalloris, which games deadline-bounded clients and poll budgets.
    serve_delay: u64,
    /// Served-load ledger, keyed per requested directory. Interior
    /// mutability because the answer paths only hold `&Repository`;
    /// the ledger never crosses threads (all simulated I/O runs on the
    /// validator's one thread).
    load: RefCell<BTreeMap<Vec<String>, DirLoad>>,
    /// The publication-server policy every directory on this host runs
    /// under: snapshot compaction interval and delta retention budget.
    policy: PubdPolicy,
    /// Recorder for `pubd/*` events; disabled unless a scenario wires
    /// one in with [`set_recorder`](Repository::set_recorder).
    recorder: Recorder,
    /// The simulated time stamped onto pubd events. Stores sit outside
    /// the network event loop, so scenarios that want timestamped
    /// traces advance this via [`set_clock`](Repository::set_clock).
    clock: u64,
    /// Per-directory serve ledger split by RRDP document kind.
    pubd_served: RefCell<BTreeMap<Vec<String>, PubdServed>>,
}

/// A served snapshot document: the session it belongs to plus its
/// `(name, bytes)` file records.
pub(crate) type SessionSnapshot = (u64, Vec<(String, Vec<u8>)>);

impl Repository {
    /// A repository served by `node` (already registered in the network
    /// under `host`), running the default (rebuild-on-demand) policy.
    pub fn new(host: &str, node: NodeId) -> Self {
        Repository {
            host: host.to_owned(),
            node,
            dirs: BTreeMap::new(),
            hosted_at: None,
            rrdp_offline: false,
            rrdp_withhold_deltas: false,
            serve_delay: 0,
            load: RefCell::new(BTreeMap::new()),
            policy: PubdPolicy::default(),
            recorder: Recorder::disabled(),
            clock: 0,
            pubd_served: RefCell::new(BTreeMap::new()),
        }
    }

    /// Records one served response frame of `bytes` encoded bytes for
    /// `dir`. Misdirected requests (another host's directory) are not
    /// attributed.
    pub fn note_served(&self, dir: &RepoUri, bytes: usize) {
        if dir.host() != self.host {
            return;
        }
        let mut load = self.load.borrow_mut();
        let entry = load.entry(dir.path().to_vec()).or_default();
        entry.frames += 1;
        entry.bytes += bytes as u64;
    }

    /// Wire load served per publication point since the last reset,
    /// in directory order.
    pub fn served_load(&self) -> Vec<(RepoUri, DirLoad)> {
        self.load
            .borrow()
            .iter()
            .map(|(path, l)| {
                let parts: Vec<&str> = path.iter().map(String::as_str).collect();
                (RepoUri::new(&self.host, &parts), *l)
            })
            .collect()
    }

    /// Total wire load this host has served since the last reset.
    pub fn served_total(&self) -> DirLoad {
        self.load.borrow().values().fold(DirLoad::default(), |acc, l| acc.plus(*l))
    }

    /// Clears the served-load ledger (e.g. between campaign rounds).
    pub fn reset_served_load(&self) {
        self.load.borrow_mut().clear();
    }

    /// The host name.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// The serving network node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Declares where this host lives in IP space.
    pub fn set_hosted_at(&mut self, prefix: Prefix, origin: Asn) {
        self.hosted_at = Some((prefix, origin));
    }

    /// Where this host lives in IP space, if declared.
    pub fn hosted_at(&self) -> Option<(Prefix, Asn)> {
        self.hosted_at
    }

    fn dir_key(&self, dir: &RepoUri) -> Vec<String> {
        assert_eq!(dir.host(), self.host, "directory {dir} is not on host {}", self.host);
        dir.path().to_vec()
    }

    fn dir_entry(&mut self, dir: &RepoUri) -> &mut Directory {
        let key = self.dir_key(dir);
        let seed = session_seed(&self.host, &key);
        self.dirs.entry(key).or_insert_with(|| Directory::new(seed))
    }

    /// Publishes raw bytes under `dir/name`, overwriting any previous
    /// file of that name — the RPKI's "objects can be overwritten"
    /// design decision, verbatim. A byte-identical overwrite is a no-op
    /// (no new serial in the publication log).
    pub fn publish_raw(&mut self, dir: &RepoUri, name: &str, bytes: Vec<u8>) {
        let policy = self.policy;
        let entry = self.dir_entry(dir);
        if entry.files.get(name).is_some_and(|f| f.bytes == bytes) {
            return;
        }
        entry.files.insert(name.to_owned(), StoredFile::new(bytes.clone()));
        entry.refresh_digest();
        let events =
            entry.record_rrdp(vec![DeltaChange::Publish { name: name.to_owned(), bytes }], &policy);
        self.emit_pubd(dir, &events);
    }

    /// Publishes a CA's complete snapshot into `dir`, replacing the
    /// directory's previous contents (rsync `--delete` semantics: files
    /// the CA no longer issues disappear). The publication log records
    /// the whole replacement as one delta — publishes for new or
    /// changed files, withdraws for the ones that disappeared.
    pub fn publish_snapshot(&mut self, dir: &RepoUri, snapshot: &PublicationSnapshot) {
        let policy = self.policy;
        let entry = self.dir_entry(dir);
        let next: BTreeMap<String, StoredFile> = snapshot
            .files
            .iter()
            .map(|(name, obj)| (name.clone(), StoredFile::new(obj.to_bytes())))
            .collect();
        let mut changes = Vec::new();
        for (name, file) in &entry.files {
            if !next.contains_key(name) {
                changes.push(DeltaChange::Withdraw { name: name.clone(), hash: file.digest });
            }
        }
        for (name, file) in &next {
            if entry.files.get(name).is_none_or(|old| old.digest != file.digest) {
                changes
                    .push(DeltaChange::Publish { name: name.clone(), bytes: file.bytes.clone() });
            }
        }
        entry.files = next;
        entry.refresh_digest();
        let events = entry.record_rrdp(changes, &policy);
        self.emit_pubd(dir, &events);
    }

    /// Deletes `dir/name`. Returns the removed bytes, or `None`.
    pub fn delete(&mut self, dir: &RepoUri, name: &str) -> Option<Vec<u8>> {
        let policy = self.policy;
        let key = self.dir_key(dir);
        let entry = self.dirs.get_mut(&key)?;
        let removed = entry.files.remove(name)?;
        entry.refresh_digest();
        let events = entry.record_rrdp(
            vec![DeltaChange::Withdraw { name: name.to_owned(), hash: removed.digest }],
            &policy,
        );
        self.emit_pubd(dir, &events);
        Some(removed.bytes)
    }

    /// Corrupts a stored file in place (filesystem rot, the at-rest
    /// variant of Side Effect 6's fault list). Returns false if absent.
    /// The rot travels through the publication log too — RRDP serves
    /// whatever sits at rest, corrupted or not, just like rsync.
    pub fn corrupt_at_rest(&mut self, dir: &RepoUri, name: &str) -> bool {
        let policy = self.policy;
        let key = self.dir_key(dir);
        let Some(entry) = self.dirs.get_mut(&key) else { return false };
        match entry.files.get_mut(name) {
            Some(file) if !file.bytes.is_empty() => {
                file.bytes[0] ^= 0xff;
                file.digest = sha256(&file.bytes);
                let bytes = file.bytes.clone();
                entry.refresh_digest();
                let events = entry.record_rrdp(
                    vec![DeltaChange::Publish { name: name.to_owned(), bytes }],
                    &policy,
                );
                self.emit_pubd(dir, &events);
                true
            }
            _ => false,
        }
    }

    // -- pubd: policy, instrumentation, and work/serve ledgers -------

    /// Replaces the publication-server policy of this host and enforces
    /// the new retention budget on every directory immediately (the new
    /// compaction interval takes effect from the next write).
    pub fn set_pubd_policy(&mut self, policy: PubdPolicy) {
        self.policy = policy;
        let keys: Vec<Vec<String>> = self.dirs.keys().cloned().collect();
        for key in keys {
            let mut events = Vec::new();
            let entry = self.dirs.get_mut(&key).expect("key just listed");
            entry.enforce_retention(&policy, &mut events);
            let parts: Vec<&str> = key.iter().map(String::as_str).collect();
            let dir = RepoUri::new(&self.host, &parts);
            self.emit_pubd(&dir, &events);
        }
    }

    /// The publication-server policy this host runs under.
    pub fn pubd_policy(&self) -> PubdPolicy {
        self.policy
    }

    /// Wires in a recorder for `pubd/*` events and counters.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Sets the simulated time stamped onto subsequent pubd events.
    pub fn set_clock(&mut self, now: u64) {
        self.clock = now;
    }

    /// Surfaces the server-side decisions of one write (or policy
    /// change) as obs events and counters.
    fn emit_pubd(&self, dir: &RepoUri, events: &[PubdEvent]) {
        if events.is_empty() || !self.recorder.is_enabled() {
            return;
        }
        let dir_label = dir.to_string();
        for event in events {
            match event {
                PubdEvent::Materialised { serial, bytes, forced } => {
                    self.recorder.count("pubd.snapshot_builds", 1);
                    if *forced {
                        self.recorder.count("pubd.forced_builds", 1);
                    }
                    self.recorder
                        .event(self.clock, "pubd", "materialise")
                        .str("host", &self.host)
                        .str("dir", &dir_label)
                        .u64("serial", *serial)
                        .u64("bytes", *bytes)
                        .bool("forced", *forced)
                        .emit();
                }
                PubdEvent::Evicted { serial, bytes } => {
                    self.recorder.count("pubd.deltas_evicted", 1);
                    self.recorder
                        .event(self.clock, "pubd", "evict")
                        .str("host", &self.host)
                        .str("dir", &dir_label)
                        .u64("serial", *serial)
                        .u64("bytes", *bytes)
                        .emit();
                }
            }
        }
    }

    /// Books one served RRDP response into the per-kind serve ledger.
    pub(crate) fn note_served_rrdp(&self, dir: &RepoUri, resp: &RrdpResponse, bytes: u64) {
        if dir.host() != self.host {
            return;
        }
        let mut ledger = self.pubd_served.borrow_mut();
        let entry = ledger.entry(dir.path().to_vec()).or_default();
        match resp {
            RrdpResponse::Notification { .. } => {
                entry.notifications += 1;
                entry.notification_bytes += bytes;
            }
            RrdpResponse::Snapshot { .. } => {
                entry.snapshots += 1;
                entry.snapshot_bytes += bytes;
            }
            RrdpResponse::Delta { .. } => {
                entry.deltas += 1;
                entry.delta_bytes += bytes;
            }
            RrdpResponse::NotFound { .. } => entry.not_found += 1,
        }
    }

    /// The cumulative build-side work of `dir`, with the retained-
    /// history gauges filled from the live log. `None` for an unknown
    /// directory.
    pub fn pubd_work(&self, dir: &RepoUri) -> Option<PubdWork> {
        let key = self.dir_key(dir);
        self.dirs.get(&key).map(|d| {
            let mut work = d.log.work;
            work.retained_deltas = d.log.deltas.len() as u64;
            work.retained_delta_bytes = d.log.delta_bytes;
            work
        })
    }

    /// Build-side work summed over every directory on this host.
    pub fn pubd_work_total(&self) -> PubdWork {
        self.dirs.values().fold(PubdWork::default(), |acc, d| {
            let mut work = d.log.work;
            work.retained_deltas = d.log.deltas.len() as u64;
            work.retained_delta_bytes = d.log.delta_bytes;
            acc.plus(work)
        })
    }

    /// The per-kind RRDP serve ledger of `dir` since the last reset.
    pub fn pubd_served(&self, dir: &RepoUri) -> PubdServed {
        let key = self.dir_key(dir);
        self.pubd_served.borrow().get(&key).copied().unwrap_or_default()
    }

    /// The per-kind RRDP serve ledger summed over this host.
    pub fn pubd_served_total(&self) -> PubdServed {
        self.pubd_served.borrow().values().fold(PubdServed::default(), |acc, s| acc.plus(*s))
    }

    /// Clears the per-kind RRDP serve ledger (e.g. between rounds).
    pub fn reset_pubd_served(&self) {
        self.pubd_served.borrow_mut().clear();
    }

    // -- RRDP serving state and misbehaviour knobs -------------------

    /// What this host's notification document says for `dir` right now:
    /// the pinned (frozen, stale) feed while a pin is active, the live
    /// log otherwise. `None` for unknown directories or a foreign host.
    pub(crate) fn rrdp_notification(&self, dir: &RepoUri) -> Option<NotifInfo> {
        if dir.host() != self.host {
            return None;
        }
        let entry = self.dirs.get(dir.path())?;
        Some(match &entry.pinned {
            Some(pin) => NotifInfo {
                session: pin.session,
                serial: pin.serial,
                content: pin.content,
                snapshot_serial: pin.snapshot.serial(),
                snapshot_hash: pin.snapshot.hash(),
                deltas: pin
                    .deltas
                    .iter()
                    .map(|d| DeltaRef { serial: d.serial, hash: d.hash })
                    .collect(),
            },
            None => NotifInfo {
                session: entry.log.session,
                serial: entry.log.serial,
                content: entry.digest,
                snapshot_serial: entry.log.snapshot.serial(),
                snapshot_hash: entry.log.snapshot.hash(),
                deltas: entry
                    .log
                    .deltas
                    .iter()
                    .map(|d| DeltaRef { serial: d.serial, hash: d.hash })
                    .collect(),
            },
        })
    }

    /// The snapshot document files of `dir` at `serial` — served from
    /// the cached materialised document, never re-derived from the
    /// at-rest files. `None` unless `serial` is exactly the serial the
    /// (pinned or live) document was materialised at.
    pub(crate) fn rrdp_snapshot(&self, dir: &RepoUri, serial: u64) -> Option<SessionSnapshot> {
        if dir.host() != self.host {
            return None;
        }
        let entry = self.dirs.get(dir.path())?;
        match &entry.pinned {
            Some(pin) if pin.snapshot.serial() == serial => {
                Some((pin.session, pin.snapshot.files()))
            }
            Some(_) => None,
            None if entry.log.snapshot.serial() == serial => {
                Some((entry.log.session, entry.log.snapshot.files()))
            }
            None => None,
        }
    }

    /// The delta document of `dir` reaching `serial`, if retained.
    pub(crate) fn rrdp_delta(&self, dir: &RepoUri, serial: u64) -> Option<(u64, Vec<DeltaChange>)> {
        if dir.host() != self.host {
            return None;
        }
        let entry = self.dirs.get(dir.path())?;
        match &entry.pinned {
            Some(pin) => pin
                .deltas
                .iter()
                .find(|d| d.serial == serial)
                .map(|d| (pin.session, d.changes.clone())),
            None => entry
                .log
                .deltas
                .iter()
                .find(|d| d.serial == serial)
                .map(|d| (entry.log.session, d.changes.clone())),
        }
    }

    pub(crate) fn rrdp_offline(&self) -> bool {
        self.rrdp_offline
    }

    pub(crate) fn rrdp_withhold_deltas(&self) -> bool {
        self.rrdp_withhold_deltas
    }

    /// The live publication-log `(session, serial)` of `dir`, ignoring
    /// any pin. `None` for an unknown directory.
    pub fn rrdp_position(&self, dir: &RepoUri) -> Option<(u64, u64)> {
        let key = self.dir_key(dir);
        self.dirs.get(&key).map(|d| (d.log.session, d.log.serial))
    }

    /// Misbehaviour knob: take the RRDP endpoint offline (every request
    /// answered NotFound) while rsync keeps serving — the crude form of
    /// the Stalloris downgrade.
    pub fn set_rrdp_offline(&mut self, offline: bool) {
        self.rrdp_offline = offline;
    }

    /// Misbehaviour knob: withhold delta documents the notification
    /// still advertises, forcing every behind client onto full
    /// snapshots (or, with a deadline, into walking away).
    pub fn set_rrdp_withhold_deltas(&mut self, withhold: bool) {
        self.rrdp_withhold_deltas = withhold;
    }

    /// Misbehaviour knob: hold every answer frame `delay` seconds
    /// before it enters the link. With a client-side deadline this
    /// starves the session; with a scheduler time budget it starves
    /// every *later* publication point in the walk — the slow-serve
    /// schedule-gaming attack. Zero restores honest serving.
    pub fn set_serve_delay(&mut self, delay: u64) {
        self.serve_delay = delay;
    }

    /// The currently configured serve delay, in simulated seconds.
    pub fn serve_delay(&self) -> u64 {
        self.serve_delay
    }

    /// Misbehaviour knob: freeze the RRDP feed of every directory at
    /// its current state. Later writes keep landing in the store (and
    /// rsync serves them), but RRDP replays the frozen notification,
    /// snapshot, and deltas — stale-data pinning, the Stalloris replay.
    pub fn rrdp_pin(&mut self) {
        for entry in self.dirs.values_mut() {
            entry.pinned = Some(PinnedFeed {
                session: entry.log.session,
                serial: entry.log.serial,
                content: entry.digest,
                snapshot: entry.log.snapshot.clone(),
                deltas: entry.log.deltas.iter().cloned().collect(),
            });
        }
    }

    /// Lifts [`rrdp_pin`](Repository::rrdp_pin): RRDP serves the live
    /// log again.
    pub fn rrdp_unpin(&mut self) {
        for entry in self.dirs.values_mut() {
            entry.pinned = None;
        }
    }

    /// Resets the RRDP session of `dir`: fresh session id, serial
    /// restarts at 1, delta history cleared. Clients must resync from
    /// the snapshot and downstream RTR caches must signal a cache
    /// reset. Returns false for an unknown directory.
    pub fn rrdp_reset_session(&mut self, dir: &RepoUri) -> bool {
        let key = self.dir_key(dir);
        if !self.dirs.contains_key(&key) {
            return false;
        }
        self.reset_session_entry(&key);
        true
    }

    /// Resets the RRDP session of every directory on this host.
    pub fn rrdp_reset_sessions(&mut self) {
        let keys: Vec<Vec<String>> = self.dirs.keys().cloned().collect();
        for key in keys {
            self.reset_session_entry(&key);
        }
    }

    /// Resets one directory's session and rematerialises its snapshot
    /// document at the restarted serial (a counted build: a session
    /// reset makes the server redo its snapshot work).
    fn reset_session_entry(&mut self, key: &[String]) {
        let entry = self.dirs.get_mut(key).expect("caller checked the key");
        entry.log.reset();
        let doc = entry.materialise_at_head();
        let mut events = Vec::new();
        entry.log.install_snapshot(doc, false, &mut events);
        let parts: Vec<&str> = key.iter().map(String::as_str).collect();
        let dir = RepoUri::new(&self.host, &parts);
        self.emit_pubd(&dir, &events);
    }

    /// Lists `(name, digest)` for every file in `dir`. Digests are the
    /// ones cached at write time — no bytes are re-hashed here.
    pub fn list(&self, dir: &RepoUri) -> Vec<(String, Digest)> {
        let key = self.dir_key(dir);
        self.dirs
            .get(&key)
            .map(|d| d.files.iter().map(|(n, f)| (n.clone(), f.digest)).collect())
            .unwrap_or_default()
    }

    /// The canonical complete-sync content digest of `dir`, served
    /// from the cache maintained at write time. An unknown directory
    /// reports the empty digest — the same key a complete sync of a
    /// reachable-but-absent publication point produces.
    pub fn content_digest(&self, dir: &RepoUri) -> Digest {
        let key = self.dir_key(dir);
        self.dirs.get(&key).map_or_else(empty_dir_digest, |d| d.digest)
    }

    /// Fetches the bytes of `dir/name`.
    pub fn fetch(&self, dir: &RepoUri, name: &str) -> Option<&[u8]> {
        let key = self.dir_key(dir);
        self.dirs.get(&key).and_then(|d| d.files.get(name)).map(|f| f.bytes.as_slice())
    }

    /// All directories on this host.
    pub fn directories(&self) -> impl Iterator<Item = RepoUri> + '_ {
        self.dirs.keys().map(|path| {
            let parts: Vec<&str> = path.iter().map(String::as_str).collect();
            RepoUri::new(&self.host, &parts)
        })
    }

    /// Total number of stored files.
    pub fn file_count(&self) -> usize {
        self.dirs.values().map(|d| d.files.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo() -> (Repository, RepoUri) {
        let repo = Repository::new("rpki.sprint.example", NodeId(0));
        let dir = RepoUri::new("rpki.sprint.example", &["repo"]);
        (repo, dir)
    }

    #[test]
    fn publish_overwrite_delete() {
        let (mut repo, dir) = repo();
        repo.publish_raw(&dir, "a.roa", vec![1, 2]);
        assert_eq!(repo.fetch(&dir, "a.roa"), Some(&[1u8, 2][..]));
        repo.publish_raw(&dir, "a.roa", vec![3]);
        assert_eq!(repo.fetch(&dir, "a.roa"), Some(&[3u8][..]));
        assert_eq!(repo.delete(&dir, "a.roa"), Some(vec![3]));
        assert_eq!(repo.fetch(&dir, "a.roa"), None);
        assert_eq!(repo.delete(&dir, "a.roa"), None);
    }

    #[test]
    fn list_reports_digests() {
        let (mut repo, dir) = repo();
        repo.publish_raw(&dir, "b.cer", vec![9]);
        let listing = repo.list(&dir);
        assert_eq!(listing.len(), 1);
        assert_eq!(listing[0].0, "b.cer");
        assert_eq!(listing[0].1, sha256(&[9]));
        // Unknown directory lists empty.
        let other = RepoUri::new("rpki.sprint.example", &["elsewhere"]);
        assert!(repo.list(&other).is_empty());
    }

    #[test]
    fn corruption_at_rest_changes_digest() {
        let (mut repo, dir) = repo();
        repo.publish_raw(&dir, "c.roa", vec![0xab, 0xcd]);
        let before = repo.list(&dir)[0].1;
        assert!(repo.corrupt_at_rest(&dir, "c.roa"));
        let after = repo.list(&dir)[0].1;
        assert_ne!(before, after);
        assert!(!repo.corrupt_at_rest(&dir, "missing.roa"));
    }

    #[test]
    fn content_digest_is_maintained_at_write_time() {
        let (mut repo, dir) = repo();
        // Unknown and empty directories share the canonical empty digest.
        let empty = repo.content_digest(&dir);
        repo.publish_raw(&dir, "a.roa", vec![1]);
        let one = repo.content_digest(&dir);
        assert_ne!(one, empty);
        assert!(repo.corrupt_at_rest(&dir, "a.roa"));
        let corrupted = repo.content_digest(&dir);
        assert_ne!(corrupted, one, "at-rest rot must change the directory key");
        repo.delete(&dir, "a.roa");
        assert_eq!(repo.content_digest(&dir), empty);
    }

    #[test]
    fn directories_iterate() {
        let (mut repo, dir) = repo();
        repo.publish_raw(&dir, "x", vec![]);
        let sub = dir.join("sub-ca");
        repo.publish_raw(&sub, "y", vec![1]);
        let dirs: Vec<String> = repo.directories().map(|d| d.to_string()).collect();
        assert_eq!(
            dirs,
            vec![
                "rsync://rpki.sprint.example/repo".to_owned(),
                "rsync://rpki.sprint.example/repo/sub-ca".to_owned()
            ]
        );
        assert_eq!(repo.file_count(), 2);
    }

    #[test]
    #[should_panic(expected = "is not on host")]
    fn foreign_directory_rejected() {
        let (mut repo, _) = repo();
        let foreign = RepoUri::new("rpki.arin.example", &["repo"]);
        repo.publish_raw(&foreign, "x", vec![]);
    }

    #[test]
    fn publication_log_advances_per_mutation() {
        let (mut repo, dir) = repo();
        assert_eq!(repo.rrdp_position(&dir), None);
        repo.publish_raw(&dir, "a.roa", vec![1]);
        let (session, serial) = repo.rrdp_position(&dir).unwrap();
        assert_eq!(serial, 1);
        repo.publish_raw(&dir, "b.cer", vec![2]);
        assert_eq!(repo.rrdp_position(&dir), Some((session, 2)));
        // Byte-identical overwrite: no new serial.
        repo.publish_raw(&dir, "a.roa", vec![1]);
        assert_eq!(repo.rrdp_position(&dir), Some((session, 2)));
        repo.delete(&dir, "a.roa");
        assert_eq!(repo.rrdp_position(&dir), Some((session, 3)));
        assert!(repo.corrupt_at_rest(&dir, "b.cer"));
        assert_eq!(repo.rrdp_position(&dir), Some((session, 4)));
    }

    #[test]
    fn session_reset_restarts_the_serial() {
        let (mut repo, dir) = repo();
        repo.publish_raw(&dir, "a.roa", vec![1]);
        repo.publish_raw(&dir, "b.cer", vec![2]);
        let (session, _) = repo.rrdp_position(&dir).unwrap();
        assert!(repo.rrdp_reset_session(&dir));
        let (new_session, serial) = repo.rrdp_position(&dir).unwrap();
        assert_ne!(new_session, session);
        assert_eq!(serial, 1);
        let other = RepoUri::new("rpki.sprint.example", &["missing"]);
        assert!(!repo.rrdp_reset_session(&other));
    }

    #[test]
    fn hosting_metadata() {
        let (mut repo, _) = repo();
        assert_eq!(repo.hosted_at(), None);
        let p: Prefix = "63.174.16.0/20".parse().unwrap();
        repo.set_hosted_at(p, Asn(17054));
        assert_eq!(repo.hosted_at(), Some((p, Asn(17054))));
    }
}
