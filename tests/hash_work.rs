//! Hash work per fetched byte, pinned.
//!
//! A relying party hashes what it fetches: the transport checks every
//! file against the listing, snapshot or delta it arrived in, and the
//! walk verifies every object's signature. Each fetched byte should be
//! hashed once per such check and no more. The manifest check and the
//! incremental cache key reuse the digest the transport carried instead
//! of hashing the bytes again.
//!
//! This test counts the SHA-256 blocks that one cold walk of topogen's
//! small world compresses over a verified RRDP source, using the
//! thread-local counter `rpkisim_crypto::sha256::blocks_compressed`.
//! It holds that count against the bytes the walk loads. The count is
//! a pure function of the seed and parallel tests hash on other
//! threads, so a hash-once regression fails here deterministically.

use netsim::Network;
use rpki_objects::{Moment, RepoUri};
use rpki_repo::{DirProbe, RepoRegistry, RrdpClientState, SyncOutcome, SyncPolicy};
use rpki_rp::{ObjectSource, RrdpSource, ValidationConfig, ValidationState, Validator};
use rpkisim_crypto::sha256::blocks_compressed;
use topogen::{Config, SyntheticInternet};

/// Forwards to `inner`, adding up the bytes every load returns and the
/// blocks hashed inside the loads (the transport's share).
struct Counting<S> {
    inner: S,
    bytes_loaded: u64,
    transport_blocks: u64,
}

impl<S: ObjectSource> ObjectSource for Counting<S> {
    fn load_dir(&mut self, dir: &RepoUri) -> SyncOutcome {
        let before = blocks_compressed();
        let out = self.inner.load_dir(dir);
        self.transport_blocks += blocks_compressed() - before;
        self.bytes_loaded += out.files.values().map(|f| f.len() as u64).sum::<u64>();
        out
    }

    fn now(&self) -> u64 {
        self.inner.now()
    }

    fn probe_dir(&mut self, dir: &RepoUri) -> Option<DirProbe> {
        let before = blocks_compressed();
        let out = self.inner.probe_dir(dir);
        self.transport_blocks += blocks_compressed() - before;
        out
    }

    fn wire_frames(&self) -> Option<u64> {
        self.inner.wire_frames()
    }
}

#[test]
fn cold_rrdp_walk_hashes_each_fetched_byte_once_per_check() {
    let mut world = SyntheticInternet::generate(Config::small(7));
    let mut net = Network::new(7);
    let rp = net.add_node("relying-party");
    let mut repos = RepoRegistry::new();
    let tal = world.materialize(&mut net, &mut repos, Moment(1));
    let mut rrdp = RrdpClientState::new();
    let mut state = ValidationState::probe();

    let before = blocks_compressed();
    let source = RrdpSource::new(&mut net, &repos, rp, &mut rrdp, SyncPolicy::default());
    let mut source = Counting { inner: source, bytes_loaded: 0, transport_blocks: 0 };
    let run = Validator::new(ValidationConfig::at(Moment(2))).run_incremental(
        &mut source,
        std::slice::from_ref(&tal),
        &mut state,
    );
    let hashed = (blocks_compressed() - before) * 64;
    let transport = source.transport_blocks * 64;
    let walk = hashed - transport;
    let loaded = source.bytes_loaded;
    assert!(run.vrps.len() > 50, "the walk validated the world");

    // The transport hashes every file once and the snapshot document
    // around it once, plus one content digest per directory: 2.60x the
    // loaded bytes (padding included). The walk hashes each object once
    // to verify its signature and nothing else: 1.09x. Hashing the
    // bytes again for the manifest check and for the certificate cache
    // key took the walk to 2.65x, and computing each content digest
    // twice took the transport to 2.85x.
    let ratio = |bytes: u64| bytes as f64 / loaded as f64;
    println!(
        "loaded {loaded} B; hashed {hashed} B = transport {transport} B ({:.2}x) + walk {walk} B ({:.2}x)",
        ratio(transport),
        ratio(walk),
    );
    assert!(ratio(walk) < 1.25, "walk hashes {:.2}x the bytes it loads", ratio(walk));
    assert!(
        ratio(transport) < 2.75,
        "transport hashes {:.2}x the bytes it loads",
        ratio(transport)
    );
}
