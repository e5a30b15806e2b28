//! The timing wrapper and the split churn path change nothing the
//! program computes.

use std::collections::BTreeMap;

use netsim::Network;
use rpki_bench_e2e::publish_touched;
use rpki_bench_e2e::trace::{TimedSource, Tracer};
use rpki_ca::{ChurnConfig, ChurnEngine};
use rpki_objects::{Moment, RepoUri};
use rpki_repo::{DirProbe, RepoRegistry, RrdpClientState, SyncOutcome, SyncPolicy};
use rpki_rp::{ObjectSource, RrdpSource, ValidationConfig, ValidationState, Validator};
use topogen::{Config, SyntheticInternet};

/// A source whose every answer differs from the trait's defaults.
struct Fake {
    loads: u32,
    probes: u32,
}

impl ObjectSource for Fake {
    fn load_dir(&mut self, dir: &RepoUri) -> SyncOutcome {
        self.loads += 1;
        let files = BTreeMap::from([("a.roa".to_owned(), vec![1, 2, 3])]);
        SyncOutcome::fresh(dir.clone(), files)
    }

    fn now(&self) -> u64 {
        42
    }

    fn probe_dir(&mut self, dir: &RepoUri) -> Option<DirProbe> {
        self.probes += 1;
        Some(DirProbe::unreachable(dir.clone()))
    }

    fn wire_frames(&self) -> Option<u64> {
        Some(7)
    }
}

#[test]
fn wrapper_forwards_all_four_methods() {
    let dir = RepoUri::new("h", &["repo"]);
    let mut fake = Fake { loads: 0, probes: 0 };
    let mut tracer = Tracer::enabled();
    let mut timed = TimedSource::new(&mut fake, &mut tracer);
    assert_eq!(timed.load_dir(&dir).files.len(), 1);
    assert_eq!(timed.now(), 42);
    assert_eq!(timed.probe_dir(&dir), Some(DirProbe::unreachable(dir.clone())));
    assert_eq!(timed.wire_frames(), Some(7));
    let counts = timed.counts();
    assert_eq!((counts.loads, counts.probes, counts.bytes_loaded), (1, 1, 3));
    assert_eq!((fake.loads, fake.probes), (1, 1));
    let names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
    assert_eq!(names, ["transport.load", "transport.probe"]);
}

/// A materialised world with a relying-party node.
struct World {
    inet: SyntheticInternet,
    net: Network,
    repos: RepoRegistry,
    tal: rpki_objects::TrustAnchorLocator,
    rp: netsim::NodeId,
}

fn world(config: Config) -> World {
    let mut inet = SyntheticInternet::generate(config);
    let mut net = Network::new(config.seed);
    let mut repos = RepoRegistry::new();
    let tal = inet.materialize(&mut net, &mut repos, Moment(10));
    let rp = net.add_node("rp");
    World { inet, net, repos, tal, rp }
}

#[test]
fn wrapped_and_unwrapped_runs_are_equal() {
    let config = Config::small(5);
    let (mut a, mut b) = (world(config), world(config));
    let (mut rrdp_a, mut rrdp_b) = (RrdpClientState::new(), RrdpClientState::new());
    let (mut state_a, mut state_b) = (ValidationState::probe(), ValidationState::probe());
    let (mut engine_a, mut engine_b) =
        (ChurnEngine::new(5, ChurnConfig::steady()), ChurnEngine::new(5, ChurnConfig::steady()));
    let mut tracer = Tracer::enabled();
    for step in 0..6u64 {
        let now = Moment(100 + step * 60);
        if step > 0 {
            a.inet.run_churn(&mut engine_a, &mut a.repos, now);
            b.inet.run_churn(&mut engine_b, &mut b.repos, now);
        }
        let validator = Validator::new(ValidationConfig::at(now));
        let mut raw =
            RrdpSource::new(&mut a.net, &a.repos, a.rp, &mut rrdp_a, SyncPolicy::default());
        let run_a = validator.run_incremental(&mut raw, std::slice::from_ref(&a.tal), &mut state_a);
        let inner = RrdpSource::new(&mut b.net, &b.repos, b.rp, &mut rrdp_b, SyncPolicy::default());
        let mut timed = TimedSource::new(inner, &mut tracer);
        let run_b =
            validator.run_incremental(&mut timed, std::slice::from_ref(&b.tal), &mut state_b);
        let counts = timed.counts();
        assert!(counts.loads + counts.probes > 0);
        assert_eq!(run_a, run_b, "step {step}");
        assert_eq!(a.net.stats(), b.net.stats(), "step {step}");
        assert_eq!(state_a.stats(), state_b.stats(), "step {step}");
        assert_eq!(rrdp_a.stats(), rrdp_b.stats(), "step {step}");
    }
    assert!(!tracer.spans().is_empty());
}

#[test]
fn split_churn_path_publishes_like_run_churn() {
    for config in [Config::small(9), Config::planet(9, 100)] {
        let (mut a, mut b) = (world(config), world(config));
        let (mut engine_a, mut engine_b) = (
            ChurnEngine::new(9, ChurnConfig::steady()),
            ChurnEngine::new(9, ChurnConfig::steady()),
        );
        let mut tracer = Tracer::enabled();
        for step in 0..10u64 {
            let now = Moment(100 + step * 60);
            let ra = a.inet.run_churn(&mut engine_a, &mut a.repos, now);
            let rb = engine_b.step_with(b.inet.cas.iter_mut(), now);
            publish_touched(&mut b.inet.cas, &mut b.repos, &rb.touched, now, &mut tracer);
            assert_eq!(ra, rb);
        }
        let mut dirs = 0;
        for repo in a.repos.iter() {
            let other = b.repos.by_host(repo.host()).expect("same hosts");
            let mine: Vec<RepoUri> = repo.directories().collect();
            let theirs: Vec<RepoUri> = other.directories().collect();
            assert_eq!(mine, theirs);
            for dir in &mine {
                assert_eq!(repo.content_digest(dir), other.content_digest(dir), "{dir}");
                assert_eq!(repo.rrdp_position(dir), other.rrdp_position(dir), "{dir}");
                dirs += 1;
            }
        }
        assert!(dirs > 60);
    }
}
