//! The end-to-end pipeline the benchmark drives: an authority action
//! travelling through publication, transport, validation, the RTR
//! router feed, route-origin validation and BGP.
//!
//! One [`Pipeline`] owns a topogen planet, its repositories, one
//! RRDP-fetching incremental relying party that also serves RTR, and a
//! router population. [`Pipeline::round`] runs one closed-loop round:
//!
//! 1. CA action — `ChurnEngine::step_with` (steady, cold-walk) or ROA
//!    withdrawal and re-issue (whack);
//! 2. `CertAuthority::publication_snapshot` and
//!    `Repository::publish_snapshot` for every touched CA;
//! 3. `Validator::run_incremental` over a verified `RrdpSource`;
//! 4. `RtrFabric::publish` of the round's VRPs, then `pump_until` until
//!    every router holds them;
//! 5. `VrpCache::classify` of every announcement at a router;
//! 6. `propagate_with_stats` over the prefixes whose verdict flipped.
//!
//! [`Pipeline::check`] is the per-round correctness oracle; callers run
//! it outside the timed region.

pub mod trace;

use std::collections::BTreeSet;
use std::time::Instant;

use bgp_sim::{propagate_with_stats, Announcement, ConvergenceError, RoutingState, RpkiPolicy};
use ipres::Prefix;
use netsim::{Network, NodeId};
use rpki_ca::{CertAuthority, ChurnConfig, ChurnEngine};
use rpki_objects::{Moment, RoaPrefix, TrustAnchorLocator};
use rpki_repo::{PubdServed, PubdWork, RepoRegistry, RrdpClientState, RrdpStats, SyncPolicy};
use rpki_rp::{
    pump_until, DirectSource, Route, RouteValidity, RrdpSource, RtrEndpoint, RtrFabric, RtrRouter,
    ValidationConfig, ValidationState, Validator, Vrp, VrpCache, VrpDelta, VrpUpdate,
};
use topogen::{Config, OrgKind, ParentRef, SyntheticInternet};

use crate::trace::{TimedSource, Tracer};

/// Logical seconds between rounds on the CA and validation clock. The
/// authorities' manifests live one day, so a run stays fresh for
/// `86400 / ROUND_SECS` rounds even without refresh churn.
pub const ROUND_SECS: u64 = 60;
/// Rounds a pipeline may run before its manifests would go stale.
pub const MAX_ROUNDS: u64 = 1200;
/// Logical time of the world's materialisation.
const T0: u64 = 10;
/// Simulated seconds the RTR pump may take before routers count as
/// stale.
const PUMP_BUDGET: u64 = 3600;
/// RTR delta history kept by the fabric.
const RTR_HISTORY: usize = 16;
/// Route-origin validation in BGP: a withdrawn ROA drops the route.
const POLICY: RpkiPolicy = RpkiPolicy::DropInvalid;

/// Which input the pipeline is driven with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Production churn every round; incremental RP.
    Steady,
    /// Production churn, but the RP forgets its RRDP and validation
    /// state every round.
    ColdWalk,
    /// No background churn; a batch of stubs loses its ROAs each round
    /// and the previous batch gets them back.
    Whack,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Workload::Steady, Workload::ColdWalk, Workload::Whack];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady => "steady",
            Workload::ColdWalk => "cold-walk",
            Workload::Whack => "whack",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What the relying party hands the RTR fabric each round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feed {
    /// `ValidationState::last_delta` — right only when the state
    /// persists across rounds.
    Delta,
    /// The full VRP set; the fabric computes the serial diff.
    Snapshot,
}

/// Pipeline parameters.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// World generator parameters (the seed lives here).
    pub world: Config,
    /// Routers behind the RTR fabric.
    pub routers: usize,
    /// Stubs whose ROAs are withdrawn per round (whack only).
    pub victims: usize,
    /// What the RP publishes to RTR.
    pub feed: Feed,
}

impl Options {
    /// The benchmark's configuration of `workload` at `seed`.
    pub fn new(workload: Workload, seed: u64) -> Options {
        Options {
            workload,
            world: Config::planet(seed, 2000),
            routers: if workload == Workload::Steady { 512 } else { 16 },
            victims: 32,
            feed: if workload == Workload::ColdWalk { Feed::Snapshot } else { Feed::Delta },
        }
    }

    /// The same pipeline on topogen's small world, for tests.
    pub fn small(workload: Workload, seed: u64) -> Options {
        Options {
            world: Config::small(seed),
            routers: 4,
            victims: 4,
            ..Options::new(workload, seed)
        }
    }
}

/// Deterministic work counts of one round. Each is a pure function of
/// the options and the round number.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub ca_cas_touched: u64,
    pub ca_objects_changed: u64,
    pub pubd_snapshot_builds: u64,
    pub pubd_snapshot_bytes_built: u64,
    pub pubd_deltas_evicted: u64,
    pub pubd_bytes_served: u64,
    pub transport_loads: u64,
    pub transport_probes: u64,
    pub transport_bytes_loaded: u64,
    pub transport_frames: u64,
    pub transport_sim_s: u64,
    pub rrdp_delta_syncs: u64,
    pub rrdp_snapshot_syncs: u64,
    pub rrdp_unchanged: u64,
    pub rrdp_failures: u64,
    pub rrdp_downgrades: u64,
    pub rp_subtrees_reused: u64,
    pub rp_subtrees_rewalked: u64,
    pub rp_probes: u64,
    pub rp_probe_hits: u64,
    pub rp_vrps: u64,
    pub rp_delta_vrps: u64,
    pub rtr_frames: u64,
    pub rtr_notifies_sent: u64,
    pub rtr_resets_served: u64,
    pub rtr_sim_s: u64,
    pub ov_routes_classified: u64,
    pub ov_verdict_flips: u64,
    pub bgp_prefixes_propagated: u64,
    pub bgp_route_updates: u64,
    pub bgp_pairs_evaluated: u64,
    pub bgp_rounds: u64,
    pub bgp_peak_worklist: u64,
    pub bgp_memo_misses: u64,
    /// Every frame the round put on the simulated wire.
    pub frames: u64,
    /// Simulated seconds from publication until the last router held
    /// the round's VRPs.
    pub verdict_lag_sim_s: u64,
}

impl Counters {
    /// Every counter under its reported metric name.
    pub fn entries(&self) -> [(&'static str, u64); 36] {
        [
            ("ca.cas_touched", self.ca_cas_touched),
            ("ca.objects_changed", self.ca_objects_changed),
            ("pubd.snapshot_builds", self.pubd_snapshot_builds),
            ("pubd.snapshot_bytes_built", self.pubd_snapshot_bytes_built),
            ("pubd.deltas_evicted", self.pubd_deltas_evicted),
            ("pubd.bytes_served", self.pubd_bytes_served),
            ("transport.loads", self.transport_loads),
            ("transport.probes", self.transport_probes),
            ("transport.bytes_loaded", self.transport_bytes_loaded),
            ("transport.frames", self.transport_frames),
            ("transport.sim_s", self.transport_sim_s),
            ("rrdp.delta_syncs", self.rrdp_delta_syncs),
            ("rrdp.snapshot_syncs", self.rrdp_snapshot_syncs),
            ("rrdp.unchanged", self.rrdp_unchanged),
            ("rrdp.failures", self.rrdp_failures),
            ("rrdp.downgrades", self.rrdp_downgrades),
            ("rp.subtrees_reused", self.rp_subtrees_reused),
            ("rp.subtrees_rewalked", self.rp_subtrees_rewalked),
            ("rp.probes", self.rp_probes),
            ("rp.probe_hits", self.rp_probe_hits),
            ("rp.vrps", self.rp_vrps),
            ("rp.delta_vrps", self.rp_delta_vrps),
            ("rtr.frames", self.rtr_frames),
            ("rtr.notifies_sent", self.rtr_notifies_sent),
            ("rtr.resets_served", self.rtr_resets_served),
            ("rtr.sim_s", self.rtr_sim_s),
            ("ov.routes_classified", self.ov_routes_classified),
            ("ov.verdict_flips", self.ov_verdict_flips),
            ("bgp.prefixes_propagated", self.bgp_prefixes_propagated),
            ("bgp.route_updates", self.bgp_route_updates),
            ("bgp.pairs_evaluated", self.bgp_pairs_evaluated),
            ("bgp.rounds", self.bgp_rounds),
            ("bgp.peak_worklist", self.bgp_peak_worklist),
            ("bgp.memo_misses", self.bgp_memo_misses),
            ("frames_per_round", self.frames),
            ("verdict_lag_sim_s", self.verdict_lag_sim_s),
        ]
    }
}

/// What one round did, kept for the oracle and the report.
#[derive(Debug)]
pub struct RoundReport {
    /// Round number (warm-up rounds included).
    pub round: u64,
    /// Wall time of the pipeline, without the oracle.
    pub wall_ns: u64,
    /// Deterministic work counts.
    pub counters: Counters,
    /// Validation time of the round.
    pub now: Moment,
    /// The relying party's VRPs.
    pub vrps: Vec<Vrp>,
    /// Prefixes whose verdict changed at the routers.
    pub flipped: BTreeSet<Prefix>,
    /// BGP over the flipped prefixes.
    pub bgp: Result<RoutingState, ConvergenceError>,
    /// Orgs whose ROAs were withdrawn this round (whack).
    pub withdrawn: Vec<usize>,
    /// Orgs whose ROAs were re-issued this round (whack).
    pub restored: Vec<usize>,
}

/// The world and every stage's long-lived state.
pub struct Pipeline {
    opts: Options,
    world: SyntheticInternet,
    net: Network,
    repos: RepoRegistry,
    tal: TrustAnchorLocator,
    rp: NodeId,
    rrdp: RrdpClientState,
    state: ValidationState,
    fabric: RtrFabric,
    routers: Vec<RtrRouter>,
    engine: ChurnEngine,
    /// Verdict of every announcement at the routers, in
    /// `world.announcements` order.
    verdicts: Vec<RouteValidity>,
    /// The relying party's VRPs after the previous round.
    prev_vrps: Vec<Vrp>,
    /// Whack victims, in the order they are drawn.
    candidates: Vec<usize>,
    /// Orgs whose ROAs are currently withdrawn.
    withdrawn: Vec<usize>,
    /// Publication points validated at set-up.
    points: usize,
    next_round: u64,
}

impl Pipeline {
    /// Builds the world, materialises it, runs the relying party's
    /// first (cold) sync and brings every router up to date.
    pub fn new(opts: Options) -> Pipeline {
        let seed = opts.world.seed;
        let mut world = SyntheticInternet::generate(opts.world);
        let mut net = Network::new(seed);
        let mut repos = RepoRegistry::new();
        let tal = world.materialize(&mut net, &mut repos, Moment(T0));
        let rp = net.add_node("rp");
        let mut rrdp = RrdpClientState::new();
        let mut state = ValidationState::probe();
        let run = {
            let mut source =
                RrdpSource::new(&mut net, &repos, rp, &mut rrdp, SyncPolicy::default());
            Validator::new(ValidationConfig::at(Moment(T0))).run_incremental(
                &mut source,
                std::slice::from_ref(&tal),
                &mut state,
            )
        };

        let mut fabric = RtrFabric::new(rp, 1, RTR_HISTORY);
        let routers: Vec<RtrRouter> = (0..opts.routers)
            .map(|i| {
                let node = net.add_node(&format!("router-{i}"));
                fabric.attach(node);
                RtrRouter::new(node, rp)
            })
            .collect();
        let mut p = Pipeline {
            opts,
            world,
            net,
            repos,
            tal,
            rp,
            rrdp,
            state,
            fabric,
            routers,
            engine: ChurnEngine::new(seed, ChurnConfig::steady()),
            verdicts: Vec::new(),
            prev_vrps: Vec::new(),
            candidates: Vec::new(),
            withdrawn: Vec::new(),
            points: 0,
            next_round: 0,
        };
        p.fabric.publish(&mut p.net, VrpUpdate::snapshot(run.vrps.iter().copied()));
        for r in &mut p.routers {
            r.poll(&mut p.net);
        }
        p.pump_rtr();
        let cache = p.routers[0].client().cache();
        p.verdicts = p.world.announcements.iter().map(|a| classify(&cache, a)).collect();
        p.candidates = victim_candidates(&p.world, &VrpCache::from_vrps(run.vrps.iter().copied()));
        assert!(
            p.opts.workload != Workload::Whack || p.candidates.len() >= 2 * p.opts.victims,
            "whack needs {} disjoint victims per two rounds, the world has {}",
            2 * p.opts.victims,
            p.candidates.len()
        );
        p.prev_vrps = run.vrps;
        p.points = p.state.cached_subtrees();
        p.forget_if_cold();
        p
    }

    /// Under cold-walk, hands the relying party empty RRDP and
    /// validation state for its next round. Called after the timed
    /// region: dropping the old caches emulates a restarted RP and is
    /// not pipeline work.
    fn forget_if_cold(&mut self) {
        if self.opts.workload == Workload::ColdWalk {
            self.rrdp = RrdpClientState::new();
            self.state = ValidationState::probe();
        }
    }

    /// The options the pipeline runs under.
    pub fn options(&self) -> &Options {
        &self.opts
    }

    /// Publication points the relying party validated at set-up.
    pub fn publication_points(&self) -> usize {
        self.points
    }

    /// Rounds left before [`MAX_ROUNDS`].
    pub fn rounds_left(&self) -> u64 {
        MAX_ROUNDS - self.next_round
    }

    /// The world the pipeline runs on.
    pub fn world(&self) -> &SyntheticInternet {
        &self.world
    }

    /// Runs one round, recording spans into `tracer` under whatever
    /// round id the caller set on it.
    ///
    /// # Panics
    ///
    /// Panics past [`MAX_ROUNDS`], when the world's manifests would go
    /// stale.
    pub fn round(&mut self, tracer: &mut Tracer) -> RoundReport {
        let round = self.next_round;
        assert!(round < MAX_ROUNDS, "manifests go stale past round {MAX_ROUNDS}");
        self.next_round += 1;
        let now = Moment(T0 + (round + 1) * ROUND_SECS);
        let mut c = Counters::default();

        let clock = Instant::now();
        let round_span = tracer.begin("round");
        let pub_at = self.net.now();
        let frames_at = self.net.stats().sent;

        // 1-2. CA action and publication.
        let (touched, withdrawn, restored) = self.ca_action(round, now, &mut c, tracer);
        let work_at = pubd_work(&self.repos);
        let served_at = pubd_served(&self.repos);
        publish_touched(&mut self.world.cas, &mut self.repos, &touched, now, tracer);
        let work = pubd_work(&self.repos);
        c.ca_cas_touched = touched.len() as u64;
        c.pubd_snapshot_builds = work.snapshot_builds - work_at.snapshot_builds;
        c.pubd_snapshot_bytes_built = work.snapshot_bytes_built - work_at.snapshot_bytes_built;
        c.pubd_deltas_evicted = work.deltas_evicted - work_at.deltas_evicted;

        // 3. Relying party.
        let rrdp_at = self.rrdp.stats();
        let sim_at = self.net.now();
        let wire_at = self.net.stats().sent;
        let validate = tracer.begin("rp.validate");
        let (run, transport) = {
            let source = RrdpSource::new(
                &mut self.net,
                &self.repos,
                self.rp,
                &mut self.rrdp,
                SyncPolicy::default(),
            );
            let mut source = TimedSource::new(source, tracer);
            let run = Validator::new(ValidationConfig::at(now)).run_incremental(
                &mut source,
                std::slice::from_ref(&self.tal),
                &mut self.state,
            );
            (run, source.counts())
        };
        tracer.end(validate);
        c.transport_loads = transport.loads;
        c.transport_probes = transport.probes;
        c.transport_bytes_loaded = transport.bytes_loaded;
        c.transport_frames = self.net.stats().sent - wire_at;
        c.transport_sim_s = self.net.now() - sim_at;
        c.pubd_bytes_served = pubd_served(&self.repos).total_bytes() - served_at.total_bytes();
        let rrdp = rrdp_delta(rrdp_at, self.rrdp.stats());
        c.rrdp_delta_syncs = rrdp.delta_syncs;
        c.rrdp_snapshot_syncs = rrdp.snapshot_syncs;
        c.rrdp_unchanged = rrdp.unchanged;
        c.rrdp_failures = rrdp.failures;
        c.rrdp_downgrades = rrdp.downgrades;
        let rs = self.state.stats();
        c.rp_subtrees_reused = rs.subtrees_reused;
        c.rp_subtrees_rewalked = rs.subtrees_rewalked;
        c.rp_probes = rs.probes;
        c.rp_probe_hits = rs.probe_hits;
        c.rp_vrps = run.vrps.len() as u64;

        // 4. RTR fan-out.
        let rtr_at = self.net.now();
        let rtr_wire_at = self.net.stats().sent;
        let fabric_at = self.fabric.stats();
        tracer.span("rtr.publish", || match self.opts.feed {
            Feed::Delta => {
                self.fabric.publish(&mut self.net, VrpUpdate::Delta(self.state.last_delta()))
            }
            Feed::Snapshot => {
                self.fabric.publish(&mut self.net, VrpUpdate::snapshot(run.vrps.iter().copied()))
            }
        });
        let synced_at = tracer.span("rtr.pump", || self.pump_rtr());
        let fabric = self.fabric.stats();
        c.rtr_frames = self.net.stats().sent - rtr_wire_at;
        c.rtr_notifies_sent = fabric.notifies_sent - fabric_at.notifies_sent;
        c.rtr_resets_served = fabric.resets_served - fabric_at.resets_served;
        c.rtr_sim_s = synced_at - rtr_at;
        c.verdict_lag_sim_s = synced_at - pub_at;

        // 5. Route-origin validation at the routers.
        let (cache, verdicts) = tracer.span("ov.classify", || {
            let cache = self.routers[0].client().cache();
            let verdicts: Vec<RouteValidity> =
                self.world.announcements.iter().map(|a| classify(&cache, a)).collect();
            (cache, verdicts)
        });
        let mut flipped = BTreeSet::new();
        for ((a, old), new) in self.world.announcements.iter().zip(&self.verdicts).zip(&verdicts) {
            if old != new {
                flipped.insert(a.prefix);
                c.ov_verdict_flips += 1;
            }
        }
        self.verdicts = verdicts;
        c.ov_routes_classified = self.world.announcements.len() as u64;

        // 6. BGP over the flipped prefixes.
        let anns: Vec<Announcement> = self
            .world
            .announcements
            .iter()
            .filter(|a| flipped.contains(&a.prefix))
            .copied()
            .collect();
        let bgp = tracer.span("bgp.propagate", || {
            propagate_with_stats(&self.world.topology, &anns, POLICY, &cache)
        });
        tracer.end(round_span);
        let wall_ns = clock.elapsed().as_nanos() as u64;

        c.frames = self.net.stats().sent - frames_at;
        c.bgp_prefixes_propagated = flipped.len() as u64;
        let bgp = bgp.map(|(state, stats)| {
            c.bgp_route_updates = stats.route_updates as u64;
            c.bgp_pairs_evaluated = stats.pairs_evaluated as u64;
            c.bgp_rounds = stats.rounds as u64;
            c.bgp_peak_worklist = stats.peak_worklist as u64;
            c.bgp_memo_misses = stats.memo_misses as u64;
            state
        });
        let delta = VrpDelta::between(&self.prev_vrps, &run.vrps);
        c.rp_delta_vrps = (delta.announce.len() + delta.withdraw.len()) as u64;
        self.prev_vrps = run.vrps.clone();
        self.forget_if_cold();

        RoundReport {
            round,
            wall_ns,
            counters: c,
            now,
            vrps: run.vrps,
            flipped,
            bgp,
            withdrawn,
            restored,
        }
    }

    /// The round's CA action. Returns the touched CA indices and, for
    /// whack, the orgs withdrawn and restored.
    fn ca_action(
        &mut self,
        round: u64,
        now: Moment,
        c: &mut Counters,
        tracer: &mut Tracer,
    ) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
        if self.opts.workload != Workload::Whack {
            let report =
                tracer.span("ca.step", || self.engine.step_with(self.world.cas.iter_mut(), now));
            c.ca_objects_changed = report.operations();
            return (report.touched, Vec::new(), Vec::new());
        }
        let n = self.candidates.len();
        let k = self.opts.victims;
        let start = (round as usize * k) % n;
        let fresh: Vec<usize> = (0..k).map(|i| self.candidates[(start + i) % n]).collect();
        let restored = std::mem::replace(&mut self.withdrawn, fresh.clone());
        let world = &mut self.world;
        let changed = tracer.span("ca.step", || {
            let mut changed = 0;
            for &org in &restored {
                let o = &world.orgs[org];
                for &prefix in &o.prefixes {
                    world.cas[o.ca]
                        .issue_roa(o.asn, vec![RoaPrefix::exact(prefix)], now)
                        .expect("re-issuing the org's own prefix");
                    changed += 1;
                }
            }
            for &org in &fresh {
                let ca = &mut world.cas[world.orgs[org].ca];
                let files: Vec<String> = ca.issued_roas().map(|r| r.file_name()).collect();
                for file in files {
                    ca.withdraw(&file).expect("withdrawing an issued ROA");
                    changed += 1;
                }
            }
            changed
        });
        c.ca_objects_changed = changed;
        let mut touched: Vec<usize> =
            restored.iter().chain(&fresh).map(|&org| self.world.orgs[org].ca).collect();
        touched.sort_unstable();
        touched.dedup();
        (touched, fresh, restored)
    }

    /// Pumps RTR frames until every router holds the fabric's serial
    /// (or the pump budget runs out). Returns the simulated time the
    /// last router got there.
    fn pump_rtr(&mut self) -> u64 {
        let session = self.fabric.server().session();
        let serial = self.fabric.server().serial();
        let deadline = self.net.now() + PUMP_BUDGET;
        while !self
            .routers
            .iter()
            .all(|r| r.client().session() == Some(session) && r.client().serial() == serial)
        {
            let Some(at) = self.net.next_event_at() else { break };
            if at > deadline {
                break;
            }
            let mut endpoints: Vec<&mut dyn RtrEndpoint> =
                Vec::with_capacity(self.routers.len() + 1);
            endpoints.push(&mut self.fabric);
            for r in &mut self.routers {
                endpoints.push(r);
            }
            pump_until(&mut self.net, at, &mut endpoints);
        }
        self.net.now()
    }

    /// The correctness oracle for `report`, which must be the latest
    /// round. Returns one line per violated check; empty means correct.
    ///
    /// - the RP's VRPs equal a `DirectSource` cold walk of the
    ///   repositories as they stand, and every router holds exactly
    ///   them, with no frame left in flight;
    /// - every announcement's verdict at the routers matches the cold
    ///   walk's; under whack, this round's victims read Invalid and
    ///   last round's read Valid again, and nothing else flipped;
    /// - BGP converged, and no AS but the origin
    ///   holds an Invalid flipped prefix while a Valid one reaches
    ///   every AS.
    pub fn check(&self, report: &RoundReport) -> Vec<String> {
        let mut bad = Vec::new();
        let mut direct = DirectSource::new(&self.repos);
        let truth = Validator::new(ValidationConfig::at(report.now))
            .run(&mut direct, std::slice::from_ref(&self.tal))
            .vrps;
        if truth != report.vrps {
            bad.push(format!(
                "RP holds {} VRPs, a direct cold walk {} ({} differ)",
                report.vrps.len(),
                truth.len(),
                symmetric_difference(&truth, &report.vrps)
            ));
        }
        let truth_set: BTreeSet<Vrp> = truth.iter().copied().collect();
        let diverged = self.routers.iter().filter(|r| *r.vrps() != truth_set).count();
        if diverged > 0 {
            bad.push(format!("{diverged} of {} routers diverge from the RP", self.routers.len()));
        }
        if !self.net.is_idle() {
            bad.push("frames left in flight after the round".to_owned());
        }

        let cache = VrpCache::from_vrps(truth.iter().copied());
        let mismatched = self
            .world
            .announcements
            .iter()
            .zip(&self.verdicts)
            .filter(|(a, v)| classify(&cache, a) != **v)
            .count();
        if mismatched > 0 {
            bad.push(format!("{mismatched} router verdicts disagree with the cold walk"));
        }
        if self.opts.workload == Workload::Whack {
            let expect = |orgs: &[usize], want: RouteValidity, bad: &mut Vec<String>| {
                for &org in orgs {
                    let o = &self.world.orgs[org];
                    for &prefix in &o.prefixes {
                        let got = cache.classify(Route::new(prefix, o.asn));
                        if got != want {
                            bad.push(format!(
                                "victim {} {prefix} reads {got}, want {want}",
                                o.handle
                            ));
                        }
                    }
                }
            };
            expect(&report.withdrawn, RouteValidity::Invalid, &mut bad);
            expect(&report.restored, RouteValidity::Valid, &mut bad);
            let victims: BTreeSet<Prefix> = report
                .withdrawn
                .iter()
                .chain(&report.restored)
                .flat_map(|&org| self.world.orgs[org].prefixes.iter().copied())
                .collect();
            if victims != report.flipped {
                bad.push(format!(
                    "{} prefixes flipped, {} victim prefixes expected",
                    report.flipped.len(),
                    victims.len()
                ));
            }
        }

        match &report.bgp {
            Err(e) => bad.push(format!("BGP: {e}")),
            Ok(state) => {
                for a in
                    self.world.announcements.iter().filter(|a| report.flipped.contains(&a.prefix))
                {
                    let holders: Vec<_> = self
                        .world
                        .topology
                        .ases()
                        .filter(|&asn| state.best_route(asn, a.prefix).is_some())
                        .collect();
                    let ok = match cache.classify(Route::new(a.prefix, a.origin)) {
                        RouteValidity::Invalid => holders.iter().all(|&h| h == a.origin),
                        _ => holders.len() == self.world.topology.len(),
                    };
                    if !ok {
                        bad.push(format!("BGP: {} held by {} ASes", a.prefix, holders.len()));
                    }
                }
            }
        }
        bad
    }
}

/// Republishes every touched CA: `CertAuthority::publication_snapshot`
/// into `Repository::publish_snapshot`, one span around each call. This
/// is `SyntheticInternet::run_churn`'s publish loop, split so each
/// layer is timed on its own.
pub fn publish_touched(
    cas: &mut [CertAuthority],
    repos: &mut RepoRegistry,
    touched: &[usize],
    now: Moment,
    tracer: &mut Tracer,
) {
    for &idx in touched {
        let ca = &mut cas[idx];
        let snap = tracer.span("ca.snapshot", || ca.publication_snapshot(now));
        let repo = repos.by_host_mut(ca.sia().host()).expect("every CA host exists");
        tracer.span("pubd.publish", || repo.publish_snapshot(ca.sia(), &snap));
    }
}

fn classify(cache: &VrpCache, a: &Announcement) -> RouteValidity {
    cache.classify(Route::new(a.prefix, a.origin))
}

fn symmetric_difference(a: &[Vrp], b: &[Vrp]) -> usize {
    let a: BTreeSet<&Vrp> = a.iter().collect();
    let b: BTreeSet<&Vrp> = b.iter().collect();
    a.symmetric_difference(&b).count()
}

/// Stubs whose ROA withdrawal turns their route Invalid: each holds
/// only its own ROAs, and every prefix it announces is covered by
/// another AS's VRP. Ordered by a seeded hash, so each round's batch is
/// a deterministic draw.
fn victim_candidates(world: &SyntheticInternet, cache: &VrpCache) -> Vec<usize> {
    let mut out: Vec<(u64, usize)> = world
        .orgs
        .iter()
        .enumerate()
        .filter(|(_, o)| o.kind == OrgKind::Stub && o.adopted_roa)
        .filter(|(_, o)| matches!(o.parent, ParentRef::Org(_)))
        .filter(|(_, o)| world.cas[o.ca].issued_roas().count() == o.prefixes.len())
        .filter(|(_, o)| world.cas[o.ca].issued_certs().next().is_none())
        .filter(|(_, o)| {
            o.prefixes.iter().all(|&p| cache.covering(p).iter().any(|v| v.asn != o.asn))
        })
        .map(|(i, _)| (splitmix64(world.config.seed ^ (i as u64).wrapping_mul(0x9e37_79b9)), i))
        .collect();
    out.sort_unstable();
    out.into_iter().map(|(_, i)| i).collect()
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn pubd_work(repos: &RepoRegistry) -> PubdWork {
    repos.iter().map(|r| r.pubd_work_total()).fold(PubdWork::default(), PubdWork::plus)
}

fn pubd_served(repos: &RepoRegistry) -> PubdServed {
    repos.iter().map(|r| r.pubd_served_total()).fold(PubdServed::default(), PubdServed::plus)
}

fn rrdp_delta(a: RrdpStats, b: RrdpStats) -> RrdpStats {
    RrdpStats {
        unchanged: b.unchanged - a.unchanged,
        delta_syncs: b.delta_syncs - a.delta_syncs,
        snapshot_syncs: b.snapshot_syncs - a.snapshot_syncs,
        failures: b.failures - a.failures,
        downgrades: b.downgrades - a.downgrades,
        ..RrdpStats::default()
    }
}
