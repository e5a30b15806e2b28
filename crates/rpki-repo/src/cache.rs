//! Incremental synchronisation.
//!
//! Real rsync transfers only what changed; relying parties poll every
//! publication point on a timer, so almost every session is a no-op.
//! [`SyncCache`] keeps the last-seen bytes per directory and
//! [`sync_dir_incremental`] uses the listing's digests to fetch only
//! files that are new or changed — unchanged files are served from the
//! cache without touching the network.
//!
//! Fidelity matters here for a paper-specific reason: a *stale
//! serving* repository (one that answers with old data) and a *lazy
//! client* (one that trusts its cache) are different failure modes, and
//! Side Effect 2's stealthy deletions are only visible to a client that
//! actually diffs listings. The incremental client still notices every
//! deletion (the file vanishes from the listing) and every overwrite
//! (the digest changes).

use std::collections::{BTreeMap, BTreeSet};

use netsim::{Network, NodeId};
use rpki_objects::RepoUri;
use rpkisim_crypto::{sha256, Digest};

use crate::client::{sync_dir, RepoRegistry, SyncOutcome};
use crate::proto::{RsyncRequest, RsyncResponse};
use rpki_objects::{Decode, Encode};

/// Last-seen publication-point contents, keyed by directory URI, each
/// file with the digest it was verified against when it arrived.
#[derive(Debug, Default)]
pub struct SyncCache {
    dirs: BTreeMap<String, BTreeMap<String, (Digest, Vec<u8>)>>,
}

impl SyncCache {
    /// An empty cache.
    pub fn new() -> Self {
        SyncCache::default()
    }

    /// The cached bytes for `dir/name`, if any.
    pub fn get(&self, dir: &RepoUri, name: &str) -> Option<&[u8]> {
        self.dirs.get(&dir.to_string())?.get(name).map(|(_, bytes)| bytes.as_slice())
    }

    /// The cached digest and bytes of `dir/name`, if any.
    fn entry(&self, dir: &str, name: &str) -> Option<&(Digest, Vec<u8>)> {
        self.dirs.get(dir)?.get(name)
    }

    /// Records a full outcome (used by both sync flavours).
    fn store(&mut self, outcome: &SyncOutcome) {
        if !outcome.listed {
            return; // keep the previous copy; unreachable ≠ deleted
        }
        let entry = self.dirs.entry(outcome.dir.to_string()).or_default();
        entry.clear();
        for (name, bytes) in &outcome.files {
            let digest = outcome.file_digest(name).expect("file is present");
            entry.insert(name.clone(), (digest, bytes.clone()));
        }
    }

    /// Number of cached files across all directories.
    pub fn file_count(&self) -> usize {
        self.dirs.values().map(BTreeMap::len).sum()
    }
}

/// Statistics of one incremental session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Files served from the local cache (no GET sent).
    pub reused: usize,
    /// Files fetched because they were new or changed.
    pub fetched: usize,
}

/// Like [`sync_dir`], but consults (and updates) `cache`, fetching only
/// files whose digest differs from the cached copy.
pub fn sync_dir_incremental(
    net: &mut Network,
    repos: &RepoRegistry,
    client: NodeId,
    dir: &RepoUri,
    cache: &mut SyncCache,
) -> (SyncOutcome, IncrementalStats) {
    let Some(server) = repos.node_of(dir.host()) else {
        return (SyncOutcome::unreachable(dir.clone()), IncrementalStats::default());
    };

    let mut outcome = SyncOutcome::unreachable(dir.clone());
    let mut stats = IncrementalStats::default();
    let dir_key = dir.to_string();
    let mut expected: BTreeMap<String, Digest> = BTreeMap::new();
    let mut received: BTreeSet<String> = BTreeSet::new();

    net.send(client, server, RsyncRequest::List { dir: dir.clone() }.to_bytes());
    while let Some(occ) = net.step() {
        let netsim::Occurrence::Delivered(delivery) = occ else { continue };
        if delivery.to == client {
            let Ok(resp) = RsyncResponse::from_bytes(&delivery.payload) else { continue };
            match resp {
                RsyncResponse::Listing { entries, .. } => {
                    outcome.listed = true;
                    for (name, digest) in entries {
                        if let Some((_, bytes)) =
                            cache.entry(&dir_key, &name).filter(|(cached, _)| *cached == digest)
                        {
                            // Unchanged: reuse without a GET.
                            outcome.files.insert(name.clone(), bytes.clone());
                            outcome.digests.insert(name, digest);
                            stats.reused += 1;
                        } else {
                            expected.insert(name.clone(), digest);
                            net.send(
                                client,
                                server,
                                RsyncRequest::Get { dir: dir.clone(), name }.to_bytes(),
                            );
                        }
                    }
                }
                RsyncResponse::File { name, bytes, .. } => match expected.get(&name) {
                    Some(digest) if sha256(&bytes) == *digest => {
                        received.insert(name.clone());
                        stats.fetched += 1;
                        outcome.digests.insert(name.clone(), *digest);
                        outcome.files.insert(name, bytes);
                    }
                    Some(_) => {
                        // Digest mismatch: corrupted in flight. Keep it
                        // out of the cache so the next session refetches.
                        received.insert(name.clone());
                        outcome.corrupted.push(name);
                    }
                    None => {}
                },
                RsyncResponse::NotFound { name, .. } => {
                    if name.is_none() {
                        outcome.listed = true;
                    }
                }
                // Digest probes run their own sessions; unsolicited here.
                RsyncResponse::DirDigest { .. } => {}
            }
        } else if let Some(repo) = repos.get(delivery.to) {
            let hold = repo.serve_delay();
            if let Ok(req) = RsyncRequest::from_bytes(&delivery.payload) {
                let resp = answer(repos, delivery.to, &req);
                net.send_after(delivery.to, delivery.from, resp.to_bytes(), hold);
            }
        }
    }

    outcome.missing = expected.into_keys().filter(|n| !received.contains(n)).collect();
    cache.store(&outcome);
    (outcome, stats)
}

/// Serves one request from at-rest state (shared with the full-sync
/// driver's internal logic; duplicated minimally to keep `sync_dir`'s
/// signature stable).
fn answer(repos: &RepoRegistry, node: NodeId, req: &RsyncRequest) -> RsyncResponse {
    let repo = repos.get(node);
    let resp = match (repo, req) {
        (Some(repo), RsyncRequest::List { dir }) => {
            let entries = repo.list(dir);
            if entries.is_empty() {
                RsyncResponse::NotFound { dir: dir.clone(), name: None }
            } else {
                RsyncResponse::Listing { dir: dir.clone(), entries }
            }
        }
        (Some(repo), RsyncRequest::Get { dir, name }) => match repo.fetch(dir, name) {
            Some(bytes) => {
                RsyncResponse::File { dir: dir.clone(), name: name.clone(), bytes: bytes.to_vec() }
            }
            None => RsyncResponse::NotFound { dir: dir.clone(), name: Some(name.clone()) },
        },
        (Some(repo), RsyncRequest::Digest { dir }) => {
            RsyncResponse::DirDigest { dir: dir.clone(), digest: repo.content_digest(dir) }
        }
        (None, RsyncRequest::List { dir }) | (None, RsyncRequest::Digest { dir }) => {
            RsyncResponse::NotFound { dir: dir.clone(), name: None }
        }
        (None, RsyncRequest::Get { dir, name }) => {
            RsyncResponse::NotFound { dir: dir.clone(), name: Some(name.clone()) }
        }
    };
    if let Some(repo) = repo {
        let (RsyncRequest::List { dir }
        | RsyncRequest::Get { dir, .. }
        | RsyncRequest::Digest { dir }) = req;
        repo.note_served(dir, resp.to_bytes().len());
    }
    resp
}

/// Convenience: a full (non-incremental) sync that also updates the
/// cache, so callers can mix flavours.
pub fn sync_dir_caching(
    net: &mut Network,
    repos: &RepoRegistry,
    client: NodeId,
    dir: &RepoUri,
    cache: &mut SyncCache,
) -> SyncOutcome {
    let outcome = sync_dir(net, repos, client, dir);
    cache.store(&outcome);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> (Network, RepoRegistry, NodeId, NodeId, RepoUri) {
        let mut net = Network::new(1);
        let client = net.add_node("relying-party");
        let mut repos = RepoRegistry::new();
        let server = repos.create(&mut net, "h");
        let dir = RepoUri::new("h", &["repo"]);
        let repo = repos.get_mut(server).unwrap();
        repo.publish_raw(&dir, "a.roa", vec![1, 2, 3]);
        repo.publish_raw(&dir, "b.cer", vec![4, 5]);
        (net, repos, client, server, dir)
    }

    #[test]
    fn first_sync_fetches_everything() {
        let (mut net, repos, client, _, dir) = world();
        let mut cache = SyncCache::new();
        let (out, stats) = sync_dir_incremental(&mut net, &repos, client, &dir, &mut cache);
        assert!(out.is_complete());
        assert_eq!(stats, IncrementalStats { reused: 0, fetched: 2 });
        assert_eq!(cache.file_count(), 2);
    }

    #[test]
    fn second_sync_reuses_everything() {
        let (mut net, repos, client, _, dir) = world();
        let mut cache = SyncCache::new();
        sync_dir_incremental(&mut net, &repos, client, &dir, &mut cache);
        let sent_before = net.stats().sent;
        let (out, stats) = sync_dir_incremental(&mut net, &repos, client, &dir, &mut cache);
        assert!(out.is_complete());
        assert_eq!(stats, IncrementalStats { reused: 2, fetched: 0 });
        // Only LIST + Listing crossed the wire.
        assert_eq!(net.stats().sent - sent_before, 2);
        assert_eq!(out.files["a.roa"], vec![1, 2, 3]);
    }

    #[test]
    fn changed_file_is_refetched() {
        let (mut net, mut repos, client, server, dir) = world();
        let mut cache = SyncCache::new();
        sync_dir_incremental(&mut net, &repos, client, &dir, &mut cache);
        repos.get_mut(server).unwrap().publish_raw(&dir, "a.roa", vec![9, 9]);
        let (out, stats) = sync_dir_incremental(&mut net, &repos, client, &dir, &mut cache);
        assert_eq!(stats, IncrementalStats { reused: 1, fetched: 1 });
        assert_eq!(out.files["a.roa"], vec![9, 9]);
        assert_eq!(out.files["b.cer"], vec![4, 5]);
    }

    #[test]
    fn deleted_file_disappears_from_outcome() {
        let (mut net, mut repos, client, server, dir) = world();
        let mut cache = SyncCache::new();
        sync_dir_incremental(&mut net, &repos, client, &dir, &mut cache);
        repos.get_mut(server).unwrap().delete(&dir, "a.roa");
        let (out, stats) = sync_dir_incremental(&mut net, &repos, client, &dir, &mut cache);
        assert!(out.is_complete());
        assert!(!out.files.contains_key("a.roa"), "stealthy deletion must be visible");
        assert_eq!(stats, IncrementalStats { reused: 1, fetched: 0 });
        assert_eq!(cache.file_count(), 1);
    }

    #[test]
    fn unreachable_sync_keeps_cache_intact() {
        let (mut net, repos, client, server, dir) = world();
        let mut cache = SyncCache::new();
        sync_dir_incremental(&mut net, &repos, client, &dir, &mut cache);
        net.faults.partition(client, server);
        let (out, stats) = sync_dir_incremental(&mut net, &repos, client, &dir, &mut cache);
        assert!(!out.listed);
        assert_eq!(stats, IncrementalStats::default());
        // The cache still has the last good copy (the caller decides
        // whether to use stale data — that is a policy question).
        assert_eq!(cache.file_count(), 2);
        assert_eq!(cache.get(&dir, "a.roa"), Some(&[1u8, 2, 3][..]));
    }

    #[test]
    fn corrupted_refetch_lands_in_outcome_for_validator_to_reject() {
        let (mut net, mut repos, client, server, dir) = world();
        let mut cache = SyncCache::new();
        sync_dir_incremental(&mut net, &repos, client, &dir, &mut cache);
        repos.get_mut(server).unwrap().publish_raw(&dir, "a.roa", vec![7, 7, 7]);
        // Corrupt the GET response (frame 2: listing is frame 1).
        net.faults.corrupt_nth(server, client, 2);
        let (out, _) = sync_dir_incremental(&mut net, &repos, client, &dir, &mut cache);
        let intact = out.files.get("a.roa").map(|b| b == &vec![7, 7, 7]).unwrap_or(false);
        assert!(!intact, "corrupted bytes must not masquerade as the update");
    }

    #[test]
    fn caching_full_sync_seeds_incremental() {
        let (mut net, repos, client, _, dir) = world();
        let mut cache = SyncCache::new();
        let out = sync_dir_caching(&mut net, &repos, client, &dir, &mut cache);
        assert!(out.is_complete());
        let (_, stats) = sync_dir_incremental(&mut net, &repos, client, &dir, &mut cache);
        assert_eq!(stats, IncrementalStats { reused: 2, fetched: 0 });
    }
}
