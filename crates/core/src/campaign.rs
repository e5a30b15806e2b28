//! Seeded fault campaigns: the `ablation_resilience` harness.
//!
//! A *campaign* is a deterministic schedule of repository faults —
//! corruption bursts, flapping partitions, takedowns, Stalloris-style
//! slow serves and RRDP pins, stealthy withdrawals — played against the
//! model world while five relying-party configurations validate on a
//! fixed cadence:
//!
//! 1. **bare** — one sync per directory, no timeouts (the RP the paper
//!    assumes);
//! 2. **retrying** — deadlines, exponential backoff, digest-checked
//!    retries ([`SyncPolicy`]);
//! 3. **retrying + stale cache** — plus last-good snapshot fallback and
//!    circuit breaking ([`ResilientState`]);
//! 4. **suspenders** — plus the hold-down fail-safe
//!    ([`SuspendersState`]) over the validated VRPs;
//! 5. **rrdp** — the resilient stack fetching over RRDP
//!    ([`RrdpSource`](rpki_rp::RrdpSource), verified mode) with the
//!    rsync path as its downgrade target.
//!
//! Each tier runs in its *own* freshly seeded world, so tiers never
//! contaminate each other's fault dice; determinism is per
//! `(campaign, seed, tier)`. All metrics are integers, so serialized
//! outcomes are byte-identical across runs of the same seed — the
//! property `tests/resilience_campaign.rs` pins.
//!
//! The interesting separations the standard campaigns expose:
//!
//! - transport faults (corruption, partitions, takedowns) separate the
//!   first three tiers: retries repair lossy rounds, the stale cache
//!   bridges rounds where even retries fail;
//! - a **slow serve** separates *boundedness* from availability: the
//!   bare RP hangs until the stalled bytes arrive (counted available,
//!   hours late), the retrying RP times out and loses the round — only
//!   the stale cache gets both bounded time and availability;
//! - a **withdrawal** separates the stale cache from Suspenders: a
//!   complete sync that simply lacks a file updates the snapshot, so
//!   only the hold-down layer bridges authority-side removals.

use std::collections::BTreeSet;

use ipres::Prefix;
use netsim::NodeId;
use rpki_attacks::{CorpusKind, StarvePlan};
use rpki_ca::{ChurnConfig, ChurnEngine};
use rpki_objects::{Moment, RoaPrefix, Span};
use rpki_obs::Recorder;
use rpki_repo::{Freshness, RrdpClientState, SyncPolicy};
use rpki_rp::fabric::{pump_until, RtrEndpoint};
use rpki_rp::{
    MergePolicy, Relay, ResilienceConfig, ResilientState, Route, RouteValidity, RtrFabric,
    RtrRouter, SchedulePlan, SchedulerState, SlurmFile, UnsafeVrpPolicy, ValidationRun,
    ValidationState, Vrp, VrpCache, VrpUpdate,
};
use serde::Serialize;

use crate::fixtures::{asn, ModelRpki};
use crate::suspenders::{SuspendersConfig, SuspendersState};
use crate::validate::ValidationOptions;

/// Seconds between validation rounds (a 30-minute RP cadence; short
/// enough that a full campaign stays inside every manifest's one-day
/// validity window, so no republishing perturbs the schedule).
pub const ROUND_SECS: u64 = 1800;

/// One kind of repository fault a window can impose.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum FaultKind {
    /// Probabilistic corruption of every repository→RP frame.
    CorruptionBurst {
        /// Per-message corruption probability.
        prob: f64,
    },
    /// A hard partition between the RP and the repository.
    Partition,
    /// A partition present on every other round of the window.
    Flapping,
    /// The repository host is down entirely.
    Takedown,
    /// Stalloris: the repository serves, but `extra` seconds late.
    Stall {
        /// Added one-way delay on repository→RP frames.
        extra: u64,
    },
    /// Schedule gaming ([`rpki_attacks::starve`]): the repository
    /// itself holds every response for `extra` seconds before
    /// answering. Unlike [`Stall`](FaultKind::Stall) — a transport
    /// fault armed per RP pair — this is the authority's own serve
    /// latency, seen identically by every client, and tuned *under*
    /// the per-attempt deadline so nothing ever fails: the slow host
    /// just burns a budgeted fetch scheduler's time budget and starves
    /// the publication points behind it in the walk order.
    SlowServe {
        /// Seconds the repository sits on each response.
        extra: u64,
    },
    /// The authority stealthily withdraws Continental's covering `/20`
    /// ROA (file deleted, manifest regenerated — no revocation) for the
    /// window, then reissues it. An authority-side fault: transport
    /// defenses must *not* bridge it; Suspenders must.
    Withdraw,
    /// Stalloris stale-data pinning: at the window's first round the
    /// host freezes its RRDP feed at the then-current state and replays
    /// it (notification, snapshot, deltas) until the window closes.
    /// Writes landing during the window — including a concurrent
    /// [`Withdraw`](FaultKind::Withdraw) — stay hidden from RRDP while
    /// rsync serves the truth. Only RRDP-preferring tiers are affected;
    /// a verified RRDP client detects the pin and downgrades.
    RrdpPin,
    /// The host refuses RRDP outright for the window (every request
    /// answered NotFound), forcing RRDP-preferring clients through the
    /// rsync downgrade path each round.
    RrdpWithhold,
    /// The authority publishes one adversarial corpus case
    /// ([`rpki_attacks::corpus`]) at the window's first round — signed
    /// with its own key, written through the publication log — and
    /// heals it with a fresh honest snapshot when the window closes.
    /// Tests pin that every tier survives this without panicking and
    /// that campaign metrics stay byte-identical across replays.
    AdversarialPublish {
        /// Which corpus family to publish.
        kind: CorpusKind,
    },
    /// A hard partition of the RTR feed path (relay ↔ every router):
    /// the relying parties stay perfectly synchronised while *routers*
    /// go deaf — the hop the repository fault kinds cannot reach. Only
    /// [`run_campaign_rtr`] interprets this; repository-only runners
    /// treat it as a no-op. The window's `host` is a label, not a
    /// repository lookup.
    RtrPartition,
    /// The RTR feed path serves, but `extra` seconds late (Stalloris
    /// moved one hop down): frames stalled past the per-round pump
    /// budget never arrive, the session times out, and routers act on
    /// yesterday's VRPs. Only [`run_campaign_rtr`] interprets this.
    RtrStall {
        /// Added one-way delay on relay→router frames.
        extra: u64,
    },
}

impl FaultKind {
    /// Whether this fault targets the RTR feed path rather than a
    /// repository host (so `FaultWindow::host` is a label, not a
    /// lookup).
    pub fn is_rtr(self) -> bool {
        matches!(self, FaultKind::RtrPartition | FaultKind::RtrStall { .. })
    }
}

/// A fault applied to one repository host over a round interval
/// (inclusive on both ends; rounds are numbered from 1).
#[derive(Debug, Clone, Serialize)]
pub struct FaultWindow {
    /// The repository host the fault targets.
    pub host: String,
    /// What goes wrong.
    pub kind: FaultKind,
    /// First affected round.
    pub from: usize,
    /// Last affected round.
    pub to: usize,
}

impl FaultWindow {
    fn active(&self, round: usize) -> bool {
        self.from <= round && round <= self.to
    }
}

/// A named, fully deterministic fault schedule.
#[derive(Debug, Clone, Serialize)]
pub struct CampaignSpec {
    /// Campaign name (stable; used in reports).
    pub name: String,
    /// Number of validation rounds after the warm-up.
    pub rounds: usize,
    /// The fault windows in force.
    pub windows: Vec<FaultWindow>,
    /// The unsafe-VRP policy every tier validates under (default
    /// [`UnsafeVrpPolicy::Accept`], matching deployed practice).
    pub unsafe_vrps: UnsafeVrpPolicy,
    /// Background CA churn applied to the world every round *before*
    /// that round's faults. `None` keeps repositories quiet between
    /// faults — the behaviour of every earlier campaign. The engine is
    /// seeded with the campaign seed, so per-tier worlds churn through
    /// byte-identical schedules and tiers stay comparable. Use
    /// [`ChurnConfig::renew_only`] for campaigns whose assertions
    /// depend on a fixed VRP population.
    pub churn: Option<ChurnConfig>,
}

impl CampaignSpec {
    /// The same campaign under a different unsafe-VRP policy.
    pub fn with_unsafe_policy(mut self, policy: UnsafeVrpPolicy) -> Self {
        self.unsafe_vrps = policy;
        self
    }

    /// The same campaign with background CA churn at the given rates.
    pub fn with_churn(mut self, churn: ChurnConfig) -> Self {
        self.churn = Some(churn);
        self
    }
}

/// The relying-party configurations the ablation compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum RpTier {
    /// One bare sync per directory; no timeouts, no cache.
    Bare,
    /// Retries with deadlines and backoff, but no cache fallback.
    Retrying,
    /// Retries plus last-good snapshot fallback and circuit breaking.
    RetryingStale,
    /// The full stack plus the Suspenders hold-down over VRPs.
    Suspenders,
    /// The resilient stack fetching over RRDP (verified: every sync is
    /// cross-checked against an rsync digest probe) with the rsync
    /// retry path as its downgrade target.
    Rrdp,
}

impl RpTier {
    /// All tiers, weakest first.
    pub const ALL: [RpTier; 5] =
        [RpTier::Bare, RpTier::Retrying, RpTier::RetryingStale, RpTier::Suspenders, RpTier::Rrdp];

    /// A short stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            RpTier::Bare => "bare",
            RpTier::Retrying => "retrying",
            RpTier::RetryingStale => "retrying+stale",
            RpTier::Suspenders => "suspenders",
            RpTier::Rrdp => "rrdp",
        }
    }
}

/// What one tier saw in one round. All counts are integers so that the
/// serialized campaign outcome is byte-identical across replays.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct RoundMetrics {
    /// Round number (1-based; the warm-up round is not recorded).
    pub round: usize,
    /// VRPs in the tier's effective cache.
    pub vrps: usize,
    /// Legitimate announcements classified valid.
    pub valid: usize,
    /// Legitimate announcements classified invalid (flips from the
    /// all-valid healthy baseline).
    pub invalid: usize,
    /// Legitimate announcements classified unknown (flips from the
    /// all-valid healthy baseline).
    pub unknown: usize,
    /// Publication points served from a stale snapshot this round.
    pub stale_dirs: usize,
    /// RRDP→rsync downgrades this round (always 0 for non-RRDP tiers).
    pub rrdp_downgrades: usize,
    /// VRPs flagged unsafe this round (overlapping a rejected CA's
    /// resources; always 0 under [`UnsafeVrpPolicy::Accept`]).
    pub unsafe_vrps: usize,
    /// CAs the walk rejected this round.
    pub rejected_cas: usize,
}

/// Campaign-wide sums for one tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct TierTotals {
    /// Σ `vrps` over rounds — the VRP-availability integral.
    pub vrp_round_sum: usize,
    /// The worst single round's VRP count.
    pub min_vrps: usize,
    /// Σ `valid` over rounds.
    pub valid_round_sum: usize,
    /// Σ `invalid`: announcement-rounds flipped valid→invalid.
    pub invalid_flips: usize,
    /// Σ `unknown`: announcement-rounds flipped valid→unknown.
    pub unknown_flips: usize,
    /// Σ `stale_dirs`: directory-rounds bridged by the snapshot cache.
    pub stale_dir_rounds: usize,
    /// Σ `rrdp_downgrades`: RRDP→rsync fallbacks across the campaign.
    pub rrdp_downgrades: usize,
    /// Σ `unsafe_vrps`: unsafe VRP-rounds across the campaign.
    pub unsafe_vrp_rounds: usize,
    /// Σ `rejected_cas`: rejected CA-rounds across the campaign.
    pub rejected_ca_rounds: usize,
}

/// One tier's full trace through a campaign.
#[derive(Debug, Clone, Serialize)]
pub struct TierOutcome {
    /// Which configuration this is.
    pub tier: RpTier,
    /// Per-round metrics, in round order.
    pub rounds: Vec<RoundMetrics>,
    /// Campaign-wide sums.
    pub totals: TierTotals,
}

/// The result of running one campaign at one seed across all tiers.
#[derive(Debug, Clone, Serialize)]
pub struct CampaignOutcome {
    /// The campaign's name.
    pub name: String,
    /// The network seed used.
    pub seed: u64,
    /// Rounds per tier.
    pub rounds: usize,
    /// One trace per tier, in [`RpTier::ALL`] order.
    pub tiers: Vec<TierOutcome>,
}

impl CampaignOutcome {
    /// The trace of `tier`.
    pub fn tier(&self, tier: RpTier) -> &TierOutcome {
        self.tiers.iter().find(|t| t.tier == tier).expect("all tiers present")
    }
}

/// Cross-RP divergence in one shared-world round: how far the tiers'
/// validated VRP sets drifted apart. All integers, so serialized
/// outcomes replay byte-identically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct DivergenceMetrics {
    /// Round number (1-based).
    pub round: usize,
    /// Distinct validated VRP sets across the tiers (1 = full
    /// agreement; up to one per tier under asymmetric faults).
    pub distinct_vrp_sets: usize,
    /// Σ over tier pairs of the symmetric-difference size of their
    /// validated VRP sets.
    pub pairwise_diff_sum: usize,
    /// The single largest pairwise symmetric difference.
    pub max_pairwise_diff: usize,
}

/// Wire load one repository host served across a shared-world campaign.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct HostLoad {
    /// The repository host.
    pub host: String,
    /// Publication-point directories that served at least one frame.
    pub dirs: usize,
    /// Response frames served.
    pub frames: u64,
    /// Encoded response bytes served.
    pub bytes: u64,
}

/// The result of running one campaign with every tier validating
/// against *one* shared repository world.
#[derive(Debug, Clone, Serialize)]
pub struct SharedCampaignOutcome {
    /// The campaign's name.
    pub name: String,
    /// The network seed used.
    pub seed: u64,
    /// Rounds per tier.
    pub rounds: usize,
    /// One trace per tier, in [`RpTier::ALL`] order.
    pub tiers: Vec<TierOutcome>,
    /// Per-round cross-tier divergence.
    pub divergence: Vec<DivergenceMetrics>,
    /// Per-host server-side load over the campaign rounds (warm-up
    /// excluded), in host order.
    pub load: Vec<HostLoad>,
}

impl SharedCampaignOutcome {
    /// The trace of `tier`.
    pub fn tier(&self, tier: RpTier) -> &TierOutcome {
        self.tiers.iter().find(|t| t.tier == tier).expect("all tiers present")
    }
}

/// Shape of the RTR fabric a [`run_campaign_rtr`] run attaches to the
/// shared world: a relay merging the five tier feeds, re-serving a
/// population of routers.
#[derive(Debug, Clone, Copy)]
pub struct RtrConfig {
    /// Routers behind the relay.
    pub routers: usize,
    /// Per-serial delta-history depth on every cache (tier fabrics and
    /// the relay's downstream target).
    pub max_history: usize,
    /// How the relay merges the five tier feeds.
    pub policy: MergePolicy,
    /// Seconds of simulated time each of the round's two RTR pump
    /// windows may consume. Frames stalled past the budget never
    /// arrive: the session times out (the pair is flushed) and the
    /// router stays stale until a later round reaches it.
    pub pump_budget: u64,
}

impl Default for RtrConfig {
    fn default() -> Self {
        RtrConfig { routers: 8, max_history: 16, policy: MergePolicy::Union, pump_budget: 300 }
    }
}

/// What the router population saw in one round. All integers, so the
/// serialized outcome replays byte-identically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct RtrRoundMetrics {
    /// Round number (1-based).
    pub round: usize,
    /// The relay's downstream serial after this round's republish.
    pub relay_serial: u32,
    /// Routers whose serial equals the relay's.
    pub synced_routers: usize,
    /// Routers lagging the relay (behind by ≥1 serial, or never
    /// synced at all).
    pub stale_routers: usize,
    /// The largest serial lag among routers that have synced at least
    /// once (RFC 1982 distance).
    pub max_serial_lag: u32,
    /// Σ over routers of the symmetric difference between the router's
    /// VRP set and the perfect-transport truth at the round's moment.
    pub truth_distance_sum: usize,
    /// The single worst router's distance from truth.
    pub max_truth_distance: usize,
    /// Symmetric difference between the relay's merged (SLURM-applied)
    /// set and the truth — divergence the *relying-party* path
    /// contributed, before the router hop adds its own lag.
    pub relay_truth_distance: usize,
}

/// The result of running one campaign with the RTR fabric attached.
#[derive(Debug, Clone, Serialize)]
pub struct RtrCampaignOutcome {
    /// The campaign's name.
    pub name: String,
    /// The network seed used.
    pub seed: u64,
    /// Rounds per tier.
    pub rounds: usize,
    /// Routers behind the relay.
    pub routers: usize,
    /// One validation trace per tier, in [`RpTier::ALL`] order.
    pub tiers: Vec<TierOutcome>,
    /// Per-round router-population staleness and divergence.
    pub rtr: Vec<RtrRoundMetrics>,
}

impl RtrCampaignOutcome {
    /// The trace of `tier`.
    pub fn tier(&self, tier: RpTier) -> &TierOutcome {
        self.tiers.iter().find(|t| t.tier == tier).expect("all tiers present")
    }
}

/// The retry policy every non-bare tier uses.
pub fn campaign_policy() -> SyncPolicy {
    SyncPolicy::default()
}

/// The resilience knobs the stale-cache tiers use: snapshots may bridge
/// up to six hours (12 rounds); three dead sessions open the circuit
/// for one round.
pub fn campaign_resilience() -> ResilienceConfig {
    ResilienceConfig { max_stale: 6 * 3600, failure_threshold: 3, cooldown: ROUND_SECS }
}

/// Runs `spec` at `seed` across all five tiers. Each tier revalidates
/// incrementally against a persistent [`ValidationState`] (full-fetch
/// mode, so the network sees exactly the traffic a cold walk would);
/// [`run_campaign_cold`] is the reference without the cache, and the
/// two are byte-identical by construction.
pub fn run_campaign(spec: &CampaignSpec, seed: u64) -> CampaignOutcome {
    run_campaign_traced(spec, seed, &Recorder::disabled())
}

/// Runs `spec` at `seed` across all five tiers with cold full walks
/// every round — the oracle the incremental engine's output is tested
/// against.
pub fn run_campaign_cold(spec: &CampaignSpec, seed: u64) -> CampaignOutcome {
    let tiers = RpTier::ALL
        .iter()
        .map(|&tier| run_tier(spec, seed, tier, &Recorder::disabled(), false))
        .collect();
    CampaignOutcome { name: spec.name.clone(), seed, rounds: spec.rounds, tiers }
}

/// Runs `spec` at `seed` across all five tiers, reporting through
/// `recorder`: each tier's world gets the recorder installed (so the
/// whole netsim/repo/rp/suspenders event stream lands in one trace)
/// and every round emits a `campaign/round` event plus the campaign
/// counters that the hand-rolled [`TierTotals`] integers mirror.
pub fn run_campaign_traced(spec: &CampaignSpec, seed: u64, recorder: &Recorder) -> CampaignOutcome {
    let tiers =
        RpTier::ALL.iter().map(|&tier| run_tier(spec, seed, tier, recorder, true)).collect();
    CampaignOutcome { name: spec.name.clone(), seed, rounds: spec.rounds, tiers }
}

/// Runs `spec` at `seed` with all five tiers validating against **one**
/// shared repository world — the planet-scale deployment shape, where
/// thousands of relying parties hammer the same publication points —
/// instead of the per-tier clones [`run_campaign`] uses to isolate
/// fault dice. Each tier gets its own relying-party network node and
/// its own persistent caches. The outcome adds per-round cross-tier
/// VRP divergence and the server-side load ledger each host
/// accumulated over the campaign rounds.
///
/// Note the shared world is *not* metric-identical to the per-tier
/// worlds: probabilistic faults draw from one shared dice stream, so a
/// corruption burst that eats tier A's frame spares tier B's. That
/// asymmetry is the point — it is what the divergence metrics measure.
pub fn run_campaign_shared(
    spec: &CampaignSpec,
    seed: u64,
    recorder: &Recorder,
) -> SharedCampaignOutcome {
    struct TierState {
        tier: RpTier,
        rp: NodeId,
        validation: ValidationState,
        resilient: ResilientState,
        suspenders: SuspendersState,
        rrdp: RrdpClientState,
        prev_downgrades: u64,
        rounds: Vec<RoundMetrics>,
    }

    let mut w = ModelRpki::build_seeded(seed);
    w.net.set_recorder(recorder.clone());
    let policy = campaign_policy();
    let mut tiers: Vec<TierState> = RpTier::ALL
        .iter()
        .map(|&tier| TierState {
            tier,
            rp: w.net.add_node(&format!("rp-{}", tier.label())),
            validation: ValidationState::full(),
            resilient: ResilientState::new(campaign_resilience()),
            suspenders: SuspendersState::new(SuspendersConfig { hold_down: Span::days(1) }),
            rrdp: RrdpClientState::new(),
            prev_downgrades: 0,
            rounds: Vec::with_capacity(spec.rounds),
        })
        .collect();
    let rp_nodes: Vec<NodeId> = tiers.iter().map(|t| t.rp).collect();
    let mut engaged: BTreeSet<usize> = BTreeSet::new();

    // Warm-up: one faultless validation per tier against the healthy
    // shared world.
    for t in &mut tiers {
        w.rp_node = t.rp;
        let moment = Moment(w.net.now());
        validate_tier(
            &mut w,
            t.tier,
            moment,
            policy,
            &mut t.resilient,
            &mut t.suspenders,
            &mut t.rrdp,
            Some(&mut t.validation),
            spec.unsafe_vrps,
        );
        t.prev_downgrades = t.rrdp.stats().downgrades;
    }
    // The load ledger measures the campaign proper, not the warm-up.
    for repo in w.repos.iter() {
        repo.reset_served_load();
    }

    // One engine for the one shared world: every tier syncs the same
    // churned serials.
    let mut churn = spec.churn.map(|cfg| ChurnEngine::new(seed, cfg));

    let mut divergence = Vec::with_capacity(spec.rounds);
    for round in 1..=spec.rounds {
        w.net.advance_to(round as u64 * ROUND_SECS);
        if let Some(engine) = churn.as_mut() {
            w.run_churn(engine, Moment(w.net.now()));
        }
        apply_faults_to(&mut w, spec, round, &mut engaged, &rp_nodes);

        let mut vrp_sets: Vec<BTreeSet<Vrp>> = Vec::with_capacity(tiers.len());
        for t in &mut tiers {
            w.rp_node = t.rp;
            let moment = Moment(w.net.now());
            let run = validate_tier(
                &mut w,
                t.tier,
                moment,
                policy,
                &mut t.resilient,
                &mut t.suspenders,
                &mut t.rrdp,
                Some(&mut t.validation),
                spec.unsafe_vrps,
            );
            let m = round_metrics(
                &w,
                t.tier,
                round,
                &run,
                &t.suspenders,
                &t.rrdp,
                &mut t.prev_downgrades,
            );
            emit_round(recorder, spec, t.tier, moment.0, &m);
            t.rounds.push(m);
            vrp_sets.push(run.vrps.iter().copied().collect());
        }

        let mut d = DivergenceMetrics { round, ..DivergenceMetrics::default() };
        for (i, a) in vrp_sets.iter().enumerate() {
            if !vrp_sets[..i].contains(a) {
                d.distinct_vrp_sets += 1;
            }
            for b in &vrp_sets[..i] {
                let diff = a.symmetric_difference(b).count();
                d.pairwise_diff_sum += diff;
                d.max_pairwise_diff = d.max_pairwise_diff.max(diff);
            }
        }
        if recorder.is_enabled() {
            recorder.observe("campaign.distinct_vrp_sets", d.distinct_vrp_sets as u64);
            recorder
                .event(w.net.now(), "campaign", "divergence")
                .str("campaign", &spec.name)
                .u64("round", round as u64)
                .u64("distinct_vrp_sets", d.distinct_vrp_sets as u64)
                .u64("pairwise_diff_sum", d.pairwise_diff_sum as u64)
                .u64("max_pairwise_diff", d.max_pairwise_diff as u64)
                .emit();
        }
        divergence.push(d);
    }

    let mut load: Vec<HostLoad> = w
        .repos
        .iter()
        .map(|repo| {
            let total = repo.served_total();
            HostLoad {
                host: repo.host().to_owned(),
                dirs: repo.served_load().len(),
                frames: total.frames,
                bytes: total.bytes,
            }
        })
        .collect();
    load.sort_by(|a, b| a.host.cmp(&b.host));
    if recorder.is_enabled() {
        for h in &load {
            recorder
                .event(w.net.now(), "campaign", "host_load")
                .str("campaign", &spec.name)
                .str("host", &h.host)
                .u64("dirs", h.dirs as u64)
                .u64("frames", h.frames)
                .u64("bytes", h.bytes)
                .emit();
        }
    }

    let tiers = tiers
        .into_iter()
        .map(|t| TierOutcome { tier: t.tier, totals: tier_totals(&t.rounds), rounds: t.rounds })
        .collect();
    SharedCampaignOutcome {
        name: spec.name.clone(),
        seed,
        rounds: spec.rounds,
        tiers,
        divergence,
        load,
    }
}

/// Runs `spec` at `seed` with the five tiers validating a **shared**
/// world *and* feeding an RTR fabric: each tier publishes its validated
/// VRPs into its own framed RTR cache, an rtrtr-style relay merges the
/// five feeds under `rtr.policy` (SLURM exceptions via `slurm`), and
/// `rtr.routers` routers sync from the relay over netsim — so the
/// repository fault kinds *and* the RTR fault kinds
/// ([`FaultKind::RtrPartition`], [`FaultKind::RtrStall`]) land on one
/// deterministic timeline.
///
/// Each round: faults are armed, every tier validates (the RTR queue is
/// empty while repository syncs drive the network), every tier fabric
/// publishes its snapshot, the relay polls its feeds and republishes
/// the merge, every router polls, and two bounded pump windows
/// (`rtr.pump_budget` each) carry the frames. Frames still in flight
/// after the second window are flushed — the session-timeout model —
/// so a stalled RTR path yields visibly stale routers instead of a
/// silently extended round.
pub fn run_campaign_rtr(
    spec: &CampaignSpec,
    seed: u64,
    rtr: RtrConfig,
    slurm: &SlurmFile,
    recorder: &Recorder,
) -> RtrCampaignOutcome {
    struct TierState {
        tier: RpTier,
        rp: NodeId,
        validation: ValidationState,
        resilient: ResilientState,
        suspenders: SuspendersState,
        rrdp: RrdpClientState,
        prev_downgrades: u64,
        rounds: Vec<RoundMetrics>,
    }

    let mut w = ModelRpki::build_seeded(seed);
    w.net.set_recorder(recorder.clone());
    let policy = campaign_policy();
    let mut tiers: Vec<TierState> = RpTier::ALL
        .iter()
        .map(|&tier| TierState {
            tier,
            rp: w.net.add_node(&format!("rp-{}", tier.label())),
            validation: ValidationState::full(),
            resilient: ResilientState::new(campaign_resilience()),
            suspenders: SuspendersState::new(SuspendersConfig { hold_down: Span::days(1) }),
            rrdp: RrdpClientState::new(),
            prev_downgrades: 0,
            rounds: Vec::with_capacity(spec.rounds),
        })
        .collect();
    let rp_nodes: Vec<NodeId> = tiers.iter().map(|t| t.rp).collect();

    // The RTR side: one framed cache per tier, a relay merging all
    // five, and the router population behind the relay.
    let relay_node = w.net.add_node("rtr-relay");
    let mut fabrics: Vec<RtrFabric> = tiers
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let mut f = RtrFabric::new(t.rp, (i + 1) as u16, rtr.max_history);
            f.attach(relay_node);
            f
        })
        .collect();
    let mut relay = Relay::new(relay_node, rtr.policy, slurm.clone(), 100, rtr.max_history);
    for t in &tiers {
        relay.add_feed(t.rp);
    }
    let router_nodes: Vec<NodeId> =
        (0..rtr.routers).map(|i| w.net.add_node(&format!("router-{i}"))).collect();
    let mut routers: Vec<RtrRouter> = router_nodes
        .iter()
        .map(|&node| {
            relay.attach(node);
            RtrRouter::new(node, relay_node)
        })
        .collect();
    let mut engaged: BTreeSet<usize> = BTreeSet::new();

    // One full faultless cycle: validate, publish, merge, sync — so
    // round 1 starts from converged routers.
    let mut warm_feeds: Vec<Vec<Vrp>> = Vec::with_capacity(tiers.len());
    for t in &mut tiers {
        w.rp_node = t.rp;
        let moment = Moment(w.net.now());
        let run = validate_tier(
            &mut w,
            t.tier,
            moment,
            policy,
            &mut t.resilient,
            &mut t.suspenders,
            &mut t.rrdp,
            Some(&mut t.validation),
            spec.unsafe_vrps,
        );
        t.prev_downgrades = t.rrdp.stats().downgrades;
        warm_feeds.push(tier_feed(t.tier, &run, &t.suspenders));
    }
    for (f, feed) in fabrics.iter_mut().zip(&warm_feeds) {
        f.publish(&mut w.net, VrpUpdate::snapshot(feed.iter().copied()));
    }
    relay.poll_feeds(&mut w.net);
    pump_rtr(&mut w.net, rtr.pump_budget, &mut fabrics, &mut relay, &mut routers);
    relay.republish(&mut w.net);
    for r in &mut routers {
        r.poll(&mut w.net);
    }
    pump_rtr(&mut w.net, rtr.pump_budget, &mut fabrics, &mut relay, &mut routers);
    flush_rtr(&mut w.net, &rp_nodes, relay_node, &router_nodes);

    let mut churn = spec.churn.map(|cfg| ChurnEngine::new(seed, cfg));

    let mut rtr_rounds: Vec<RtrRoundMetrics> = Vec::with_capacity(spec.rounds);
    for round in 1..=spec.rounds {
        w.net.advance_to(round as u64 * ROUND_SECS);
        if let Some(engine) = churn.as_mut() {
            w.run_churn(engine, Moment(w.net.now()));
        }
        apply_faults_to(&mut w, spec, round, &mut engaged, &rp_nodes);
        apply_rtr_faults(&mut w.net, spec, round, relay_node, &router_nodes);

        // Validate every tier first (the RTR queue is empty, so the
        // repository sync drivers own the network), then publish.
        let mut feeds: Vec<Vec<Vrp>> = Vec::with_capacity(tiers.len());
        for t in &mut tiers {
            w.rp_node = t.rp;
            let moment = Moment(w.net.now());
            let run = validate_tier(
                &mut w,
                t.tier,
                moment,
                policy,
                &mut t.resilient,
                &mut t.suspenders,
                &mut t.rrdp,
                Some(&mut t.validation),
                spec.unsafe_vrps,
            );
            let m = round_metrics(
                &w,
                t.tier,
                round,
                &run,
                &t.suspenders,
                &t.rrdp,
                &mut t.prev_downgrades,
            );
            emit_round(recorder, spec, t.tier, moment.0, &m);
            t.rounds.push(m);
            feeds.push(tier_feed(t.tier, &run, &t.suspenders));
        }
        for (f, feed) in fabrics.iter_mut().zip(&feeds) {
            f.publish(&mut w.net, VrpUpdate::snapshot(feed.iter().copied()));
        }
        relay.poll_feeds(&mut w.net);
        pump_rtr(&mut w.net, rtr.pump_budget, &mut fabrics, &mut relay, &mut routers);
        relay.republish(&mut w.net);
        for r in &mut routers {
            r.poll(&mut w.net);
        }
        pump_rtr(&mut w.net, rtr.pump_budget, &mut fabrics, &mut relay, &mut routers);
        // Session timeout: anything still in flight is dead air.
        flush_rtr(&mut w.net, &rp_nodes, relay_node, &router_nodes);

        // Truth: a perfect-transport walk of the repositories as they
        // stand now. Router divergence from it is the paper's bottom
        // line — what BGP actually acts on versus what the authorities
        // published.
        let truth: BTreeSet<Vrp> =
            w.validate_direct(Moment(w.net.now())).vrps.into_iter().collect();
        let relay_serial = relay.target().server().serial();
        let relay_session = relay.target().server().session();
        let mut m = RtrRoundMetrics { round, relay_serial, ..RtrRoundMetrics::default() };
        for r in &routers {
            // Ground truth from the router's own state machine — the
            // fabric's session table is optimistic under frame loss
            // (it records what was *served*, not what arrived).
            let client = r.client();
            if client.session() == Some(relay_session) {
                let lag = rpki_rp::serial_distance(client.serial(), relay_serial);
                if lag == 0 {
                    m.synced_routers += 1;
                } else {
                    m.stale_routers += 1;
                    m.max_serial_lag = m.max_serial_lag.max(lag);
                }
            } else {
                m.stale_routers += 1;
            }
            let dist = r.vrps().symmetric_difference(&truth).count();
            m.truth_distance_sum += dist;
            m.max_truth_distance = m.max_truth_distance.max(dist);
        }
        m.relay_truth_distance = relay.merged().symmetric_difference(&truth).count();
        if recorder.is_enabled() {
            recorder.count("rtr.stale_router_rounds", m.stale_routers as u64);
            recorder.observe("rtr.truth_distance", m.truth_distance_sum as u64);
            recorder
                .event(w.net.now(), "rtr", "round")
                .str("campaign", &spec.name)
                .u64("round", round as u64)
                .u64("relay_serial", u64::from(m.relay_serial))
                .u64("synced_routers", m.synced_routers as u64)
                .u64("stale_routers", m.stale_routers as u64)
                .u64("max_serial_lag", u64::from(m.max_serial_lag))
                .u64("truth_distance_sum", m.truth_distance_sum as u64)
                .u64("max_truth_distance", m.max_truth_distance as u64)
                .u64("relay_truth_distance", m.relay_truth_distance as u64)
                .emit();
        }
        rtr_rounds.push(m);
    }

    let tiers = tiers
        .into_iter()
        .map(|t| TierOutcome { tier: t.tier, totals: tier_totals(&t.rounds), rounds: t.rounds })
        .collect();
    RtrCampaignOutcome {
        name: spec.name.clone(),
        seed,
        rounds: spec.rounds,
        routers: rtr.routers,
        tiers,
        rtr: rtr_rounds,
    }
}

/// What a tier feeds its RTR cache: the Suspenders tier serves its
/// hold-down-protected effective set, every other tier serves the
/// validation run's VRPs — the same sets [`round_metrics`] classifies
/// against.
fn tier_feed(tier: RpTier, run: &ValidationRun, suspenders: &SuspendersState) -> Vec<Vrp> {
    if tier == RpTier::Suspenders {
        suspenders.effective_cache().vrps().to_vec()
    } else {
        run.vrps.clone()
    }
}

/// One bounded RTR pump window over all fabric endpoints.
fn pump_rtr(
    net: &mut netsim::Network,
    budget: u64,
    fabrics: &mut [RtrFabric],
    relay: &mut Relay,
    routers: &mut [RtrRouter],
) {
    let deadline = net.now() + budget;
    let mut endpoints: Vec<&mut dyn RtrEndpoint> =
        Vec::with_capacity(fabrics.len() + routers.len() + 1);
    for f in fabrics.iter_mut() {
        endpoints.push(f);
    }
    endpoints.push(relay);
    for r in routers.iter_mut() {
        endpoints.push(r);
    }
    pump_until(net, deadline, &mut endpoints);
}

/// Discards every RTR frame still in flight (tier→relay and
/// relay→router, both directions): the session-timeout model that
/// turns a stalled path into visible staleness.
fn flush_rtr(
    net: &mut netsim::Network,
    fabric_nodes: &[NodeId],
    relay_node: NodeId,
    router_nodes: &[NodeId],
) {
    for &f in fabric_nodes {
        net.flush_pair(f, relay_node);
    }
    for &r in router_nodes {
        net.flush_pair(relay_node, r);
    }
}

/// Clears, then re-arms, this round's RTR-path faults (relay ↔ every
/// router). Mirrors [`apply_faults_to`]'s clear-then-arm shape so
/// expired windows heal.
fn apply_rtr_faults(
    net: &mut netsim::Network,
    spec: &CampaignSpec,
    round: usize,
    relay_node: NodeId,
    router_nodes: &[NodeId],
) {
    for win in &spec.windows {
        for &r in router_nodes {
            match win.kind {
                FaultKind::RtrPartition => net.faults.heal(relay_node, r),
                FaultKind::RtrStall { .. } => net.faults.set_stall(relay_node, r, 0),
                _ => {}
            }
        }
    }
    for win in &spec.windows {
        if !win.active(round) {
            continue;
        }
        for &r in router_nodes {
            match win.kind {
                FaultKind::RtrPartition => net.faults.partition(relay_node, r),
                FaultKind::RtrStall { extra } => net.faults.set_stall(relay_node, r, extra),
                _ => {}
            }
        }
    }
}

/// The standard RTR campaign: the feed path stalls Stalloris-style
/// while the authority whacks the covering ROA behind it — relying
/// parties see the whack on time, routers act on the pre-whack VRPs
/// until the stall lifts.
pub fn rtr_campaign() -> CampaignSpec {
    CampaignSpec {
        name: "rtr-stale-routers".to_owned(),
        unsafe_vrps: UnsafeVrpPolicy::Accept,
        churn: None,
        rounds: 10,
        windows: vec![
            FaultWindow {
                host: "rtr".to_owned(),
                kind: FaultKind::RtrStall { extra: 3600 },
                from: 3,
                to: 5,
            },
            FaultWindow {
                host: "rpki.continental.example".to_owned(),
                kind: FaultKind::Withdraw,
                from: 4,
                to: 6,
            },
        ],
    }
}

fn run_tier(
    spec: &CampaignSpec,
    seed: u64,
    tier: RpTier,
    recorder: &Recorder,
    incremental: bool,
) -> TierOutcome {
    let mut w = ModelRpki::build_seeded(seed);
    w.net.set_recorder(recorder.clone());
    let policy = campaign_policy();
    // Full-fetch incremental revalidation: the memo cache persists
    // across the tier's rounds, so unchanged publication points replay
    // instead of re-verifying, without changing a byte of output.
    let mut validation_state = incremental.then(ValidationState::full);
    let mut resilient = ResilientState::new(campaign_resilience());
    // Hold-down of one day: longer than any campaign, so a held VRP
    // stays held until it recovers or the campaign ends.
    let mut suspenders = SuspendersState::new(SuspendersConfig { hold_down: Span::days(1) });
    // The RRDP tier's persistent per-directory session state: this is
    // what makes round N+1 a delta (or fast-path) sync of round N.
    let mut rrdp_state = RrdpClientState::new();
    // Indices of stateful windows (`Withdraw`, `RrdpPin`) currently
    // engaged, so activation/deactivation happens exactly once.
    let mut engaged: BTreeSet<usize> = BTreeSet::new();

    // Warm-up: one faultless validation so snapshots and the
    // suspenders baseline reflect the healthy world.
    let moment = Moment(w.net.now());
    validate_tier(
        &mut w,
        tier,
        moment,
        policy,
        &mut resilient,
        &mut suspenders,
        &mut rrdp_state,
        validation_state.as_mut(),
        spec.unsafe_vrps,
    );
    let mut prev_downgrades = rrdp_state.stats().downgrades;

    // Background churn: one engine per tier, all seeded alike, so the
    // five per-tier worlds advance through byte-identical schedules.
    let mut churn = spec.churn.map(|cfg| ChurnEngine::new(seed, cfg));

    let mut rounds = Vec::with_capacity(spec.rounds);
    for round in 1..=spec.rounds {
        // Stalled sessions may overrun the boundary; `advance_to` is
        // monotone, so pacing simply resumes once they drain.
        w.net.advance_to(round as u64 * ROUND_SECS);
        if let Some(engine) = churn.as_mut() {
            w.run_churn(engine, Moment(w.net.now()));
        }
        apply_faults(&mut w, spec, round, &mut engaged);

        let moment = Moment(w.net.now());
        let run = validate_tier(
            &mut w,
            tier,
            moment,
            policy,
            &mut resilient,
            &mut suspenders,
            &mut rrdp_state,
            validation_state.as_mut(),
            spec.unsafe_vrps,
        );

        let m =
            round_metrics(&w, tier, round, &run, &suspenders, &rrdp_state, &mut prev_downgrades);
        emit_round(recorder, spec, tier, moment.0, &m);
        rounds.push(m);
    }

    let totals = tier_totals(&rounds);
    if recorder.is_enabled() {
        recorder
            .event(w.net.now(), "campaign", "tier_totals")
            .str("campaign", &spec.name)
            .str("tier", tier.label())
            .u64("vrp_round_sum", totals.vrp_round_sum as u64)
            .u64("min_vrps", totals.min_vrps as u64)
            .u64("valid_round_sum", totals.valid_round_sum as u64)
            .u64("invalid_flips", totals.invalid_flips as u64)
            .u64("unknown_flips", totals.unknown_flips as u64)
            .u64("stale_dir_rounds", totals.stale_dir_rounds as u64)
            .u64("rrdp_downgrades", totals.rrdp_downgrades as u64)
            .u64("unsafe_vrp_rounds", totals.unsafe_vrp_rounds as u64)
            .u64("rejected_ca_rounds", totals.rejected_ca_rounds as u64)
            .emit();
    }
    TierOutcome { tier, rounds, totals }
}

/// Classifies the announcements against one tier's effective cache and
/// assembles its round metrics.
fn round_metrics(
    w: &ModelRpki,
    tier: RpTier,
    round: usize,
    run: &ValidationRun,
    suspenders: &SuspendersState,
    rrdp_state: &RrdpClientState,
    prev_downgrades: &mut u64,
) -> RoundMetrics {
    let (vrps, cache): (usize, VrpCache) = if tier == RpTier::Suspenders {
        (suspenders.len(), suspenders.effective_cache())
    } else {
        (run.vrps.len(), run.vrp_cache())
    };
    let mut m = RoundMetrics { round, vrps, ..RoundMetrics::default() };
    for ann in &w.announcements {
        match cache.classify(Route::new(ann.prefix, ann.origin)) {
            RouteValidity::Valid => m.valid += 1,
            RouteValidity::Invalid => m.invalid += 1,
            RouteValidity::Unknown => m.unknown += 1,
        }
    }
    m.stale_dirs =
        run.freshness.iter().filter(|(_, f)| matches!(f, Freshness::Stale { .. })).count();
    m.rrdp_downgrades = (rrdp_state.stats().downgrades - *prev_downgrades) as usize;
    *prev_downgrades = rrdp_state.stats().downgrades;
    m.unsafe_vrps = run.unsafe_vrps.len();
    m.rejected_cas = run.rejected_cas.len();
    m
}

fn emit_round(recorder: &Recorder, spec: &CampaignSpec, tier: RpTier, at: u64, m: &RoundMetrics) {
    if !recorder.is_enabled() {
        return;
    }
    recorder.count("campaign.rounds", 1);
    recorder.count("campaign.invalid_flips", m.invalid as u64);
    recorder.count("campaign.unknown_flips", m.unknown as u64);
    recorder.count("campaign.stale_dir_rounds", m.stale_dirs as u64);
    recorder.count("campaign.rrdp_downgrades", m.rrdp_downgrades as u64);
    recorder.observe("campaign.vrps_per_round", m.vrps as u64);
    recorder
        .event(at, "campaign", "round")
        .str("campaign", &spec.name)
        .str("tier", tier.label())
        .u64("round", m.round as u64)
        .u64("vrps", m.vrps as u64)
        .u64("valid", m.valid as u64)
        .u64("invalid", m.invalid as u64)
        .u64("unknown", m.unknown as u64)
        .u64("stale_dirs", m.stale_dirs as u64)
        .u64("rrdp_downgrades", m.rrdp_downgrades as u64)
        .u64("unsafe_vrps", m.unsafe_vrps as u64)
        .u64("rejected_cas", m.rejected_cas as u64)
        .emit();
}

fn tier_totals(rounds: &[RoundMetrics]) -> TierTotals {
    TierTotals {
        vrp_round_sum: rounds.iter().map(|m| m.vrps).sum(),
        min_vrps: rounds.iter().map(|m| m.vrps).min().unwrap_or(0),
        valid_round_sum: rounds.iter().map(|m| m.valid).sum(),
        invalid_flips: rounds.iter().map(|m| m.invalid).sum(),
        unknown_flips: rounds.iter().map(|m| m.unknown).sum(),
        stale_dir_rounds: rounds.iter().map(|m| m.stale_dirs).sum(),
        rrdp_downgrades: rounds.iter().map(|m| m.rrdp_downgrades).sum(),
        unsafe_vrp_rounds: rounds.iter().map(|m| m.unsafe_vrps).sum(),
        rejected_ca_rounds: rounds.iter().map(|m| m.rejected_cas).sum(),
    }
}

#[allow(clippy::too_many_arguments)]
fn validate_tier(
    w: &mut ModelRpki,
    tier: RpTier,
    moment: Moment,
    policy: SyncPolicy,
    resilient: &mut ResilientState,
    suspenders: &mut SuspendersState,
    rrdp: &mut RrdpClientState,
    incremental: Option<&mut ValidationState>,
    unsafe_vrps: UnsafeVrpPolicy,
) -> ValidationRun {
    let base = move |m| ValidationOptions::at(m).unsafe_vrps(unsafe_vrps);
    let opts = match tier {
        RpTier::Bare => base(moment),
        RpTier::Retrying => base(moment).retry(policy),
        RpTier::RetryingStale => base(moment).retry(policy).stale_cache(resilient),
        RpTier::Suspenders => {
            base(moment).retry(policy).stale_cache(resilient).suspenders(suspenders)
        }
        RpTier::Rrdp => base(moment).retry(policy).rrdp(rrdp).stale_cache(resilient),
    };
    let opts = match incremental {
        Some(state) => opts.incremental(state),
        None => opts,
    };
    w.validate_with(opts)
}

/// Clears last round's transport faults, then arms this round's.
/// Stateful windows (`Withdraw`, `RrdpPin`) engage exactly once at the
/// window's first round via `engaged` — re-arming a pin every round
/// would re-capture the current state and defeat the point.
fn apply_faults(
    w: &mut ModelRpki,
    spec: &CampaignSpec,
    round: usize,
    engaged: &mut BTreeSet<usize>,
) {
    let rp = w.rp_node;
    apply_faults_to(w, spec, round, engaged, &[rp]);
}

/// [`apply_faults`] generalised to any set of relying-party nodes: the
/// pairwise transport faults (corruption, partition, stall) are armed
/// between the repository and *every* listed RP, as a shared world
/// requires; node- and authority-side faults are applied once.
fn apply_faults_to(
    w: &mut ModelRpki,
    spec: &CampaignSpec,
    round: usize,
    engaged: &mut BTreeSet<usize>,
    rps: &[NodeId],
) {
    // Clear every window's effect first so expired and flapping
    // windows heal; active ones are re-armed below.
    for win in &spec.windows {
        if win.kind.is_rtr() {
            continue; // handled by the RTR runner; `host` is a label
        }
        let node = w.repos.by_host(&win.host).expect("campaign host exists").node();
        for &rp in rps {
            match win.kind {
                FaultKind::CorruptionBurst { .. } => w.net.faults.set_corruption(node, rp, 0.0),
                FaultKind::Partition | FaultKind::Flapping => w.net.faults.heal(rp, node),
                FaultKind::Stall { .. } => w.net.faults.set_stall(node, rp, 0),
                _ => {}
            }
        }
        match win.kind {
            FaultKind::Takedown => w.net.faults.set_down(node, false),
            FaultKind::RrdpWithhold => {
                w.repos
                    .by_host_mut(&win.host)
                    .expect("campaign host exists")
                    .set_rrdp_offline(false);
            }
            FaultKind::SlowServe { .. } => {
                w.repos.by_host_mut(&win.host).expect("campaign host exists").set_serve_delay(0);
            }
            _ => {}
        }
    }

    for (i, win) in spec.windows.iter().enumerate() {
        if win.kind.is_rtr() {
            continue;
        }
        let node = w.repos.by_host(&win.host).expect("campaign host exists").node();
        let active = win.active(round);
        for &rp in rps {
            match win.kind {
                FaultKind::CorruptionBurst { prob } if active => {
                    w.net.faults.set_corruption(node, rp, prob);
                }
                FaultKind::Partition if active => w.net.faults.partition(rp, node),
                // Flapping: partitioned on the window's even offsets, so
                // it always starts severed and heals every other round.
                FaultKind::Flapping if active && (round - win.from).is_multiple_of(2) => {
                    w.net.faults.partition(rp, node);
                }
                FaultKind::Stall { extra } if active => w.net.faults.set_stall(node, rp, extra),
                _ => {}
            }
        }
        match win.kind {
            FaultKind::Takedown if active => w.net.faults.set_down(node, true),
            FaultKind::SlowServe { extra } if active => {
                w.repos
                    .by_host_mut(&win.host)
                    .expect("campaign host exists")
                    .set_serve_delay(extra);
            }
            FaultKind::RrdpWithhold if active => {
                w.repos
                    .by_host_mut(&win.host)
                    .expect("campaign host exists")
                    .set_rrdp_offline(true);
            }
            FaultKind::RrdpPin => {
                let repo = w.repos.by_host_mut(&win.host).expect("campaign host exists");
                if active && !engaged.contains(&i) {
                    repo.rrdp_pin();
                    engaged.insert(i);
                } else if !active && engaged.remove(&i) {
                    repo.rrdp_unpin();
                }
            }
            FaultKind::Withdraw => {
                let now = Moment(w.net.now());
                if active && !engaged.contains(&i) {
                    let file = w.covering_roa_file();
                    w.continental.withdraw(&file).expect("covering ROA present");
                    w.publish_all(now);
                    engaged.insert(i);
                } else if !active && engaged.remove(&i) {
                    let covering: Prefix = "63.174.16.0/20".parse().expect("literal");
                    w.continental
                        .issue_roa(asn::CONTINENTAL, vec![RoaPrefix::exact(covering)], now)
                        .expect("own space");
                    w.publish_all(now);
                }
            }
            FaultKind::AdversarialPublish { kind } => {
                let now = Moment(w.net.now());
                if active && !engaged.contains(&i) {
                    // Seeded by the window index so concurrent windows
                    // of one campaign draw distinct corpus streams;
                    // engage-once, like Withdraw, so re-running a round
                    // never re-mutates the repository.
                    w.poison_host(&win.host, kind, i as u64, now).expect("campaign host exists");
                    engaged.insert(i);
                } else if !active && engaged.remove(&i) {
                    // A fresh honest snapshot overwrites the poison and
                    // deletes stray corpus files.
                    w.publish_all(now);
                }
            }
            _ => {}
        }
    }
}

/// One round of a schedule-gaming run: what the scheduler did and how
/// stale the starved points got. All integers, so serialized outcomes
/// replay byte-identically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ScheduleRoundMetrics {
    /// Round number (1-based; the warm-up round is not recorded).
    pub round: usize,
    /// VRPs the scheduled RP validated this round.
    pub vrps: usize,
    /// Full fetches the scheduler delegated to the wire.
    pub fetched: u64,
    /// Points answered from schedule state at zero frames.
    pub not_due: u64,
    /// Due points deferred because the run budget was spent — the
    /// starvation the slow server manufactures.
    pub deferred: u64,
    /// Points skipped because their host was in scheduler backoff.
    pub backoff_skips: u64,
    /// Frames the run spent on delegated fetches.
    pub frames_used: u64,
    /// Simulated seconds the run spent inside delegated fetches (the
    /// budget the attacker burns).
    pub time_used: u64,
    /// Oldest `now - last_success` over points served stale this round.
    pub max_served_age: u64,
}

/// The result of one schedule-gaming campaign: a budgeted, scheduled,
/// RRDP-fetching relying party against a slow-serving authority.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ScheduleGamingOutcome {
    /// The campaign's name.
    pub name: String,
    /// The network seed used.
    pub seed: u64,
    /// Per-round metrics, in round order.
    pub rounds: Vec<ScheduleRoundMetrics>,
    /// Rounds in which at least one due point was budget-deferred.
    pub starved_rounds: usize,
    /// The worst single round's VRP count (the schedule snapshot
    /// should keep this at the healthy baseline — starvation costs
    /// freshness, not availability).
    pub min_vrps: usize,
    /// The largest `max_served_age` any round reached.
    pub worst_served_age: u64,
}

/// The schedule plan the gaming campaign's relying party runs under:
/// cadence clamps that keep every model point due each 30-minute
/// round, light jitter, and the scarce per-run time budget the
/// slow-serving authority games. One publication point served at the
/// [`StarvePlan::stalloris`] delay burns the whole budget.
pub fn gaming_schedule_plan() -> SchedulePlan {
    SchedulePlan {
        min_refresh: 600,
        // Below the round cadence, so a point fetched early in one
        // round is always due again by the next and the schedule stays
        // round-aligned instead of drifting onto every-other-round
        // beats.
        max_refresh: 1_200,
        jitter: 60,
        time_budget: Some(600),
        ..SchedulePlan::default()
    }
}

/// The schedule-gaming campaign: Sprint — second in the fixed
/// arin → sprint → etb → continental walk order — serves slowly for a
/// mid-campaign window ([`StarvePlan::stalloris`]), so the budgeted
/// scheduler reaches ETB and CONTINENTAL with nothing left to spend.
pub fn schedule_gaming_campaign() -> CampaignSpec {
    let plan = StarvePlan::stalloris("rpki.sprint.example");
    CampaignSpec {
        name: "schedule-gaming".to_owned(),
        unsafe_vrps: UnsafeVrpPolicy::Accept,
        churn: None,
        rounds: 12,
        windows: vec![FaultWindow {
            host: plan.host.clone(),
            kind: FaultKind::SlowServe { extra: plan.serve_delay },
            from: plan.from,
            to: plan.to,
        }],
    }
}

/// Runs `spec` at `seed` with a single scheduled relying party
/// (RRDP + retries under `plan`). Every round republishes the whole
/// world, so each publication point's content moves at the round
/// cadence and the scheduler must keep fetching — the run budget, not
/// quiescence, is what rations the wire. Per-round scheduler counters
/// come from [`SchedulerState::last_run`]; a `campaign/schedule_round`
/// event lands in `recorder` per round.
pub fn run_schedule_gaming(
    spec: &CampaignSpec,
    seed: u64,
    plan: SchedulePlan,
    recorder: &Recorder,
) -> ScheduleGamingOutcome {
    let mut w = ModelRpki::build_seeded(seed);
    w.net.set_recorder(recorder.clone());
    let policy = campaign_policy();
    let mut rrdp = RrdpClientState::new();
    let mut sched = SchedulerState::new();
    let mut engaged: BTreeSet<usize> = BTreeSet::new();
    let rp_nodes = [w.rp_node];

    // Warm-up: one faultless scheduled run, so every point has a
    // schedule entry and a snapshot before budgets start to bite
    // (first contacts are exempt from the budget by design).
    let moment = Moment(w.net.now());
    w.validate_with(
        ValidationOptions::at(moment).retry(policy).rrdp(&mut rrdp).scheduled(plan, &mut sched),
    );

    let mut rounds = Vec::with_capacity(spec.rounds);
    let mut starved_rounds = 0;
    let mut min_vrps = usize::MAX;
    let mut worst_served_age = 0;
    for round in 1..=spec.rounds {
        w.net.advance_to(round as u64 * ROUND_SECS);
        apply_faults_to(&mut w, spec, round, &mut engaged, &rp_nodes);
        w.publish_all(Moment(w.net.now()));
        let moment = Moment(w.net.now());
        let run = w.validate_with(
            ValidationOptions::at(moment).retry(policy).rrdp(&mut rrdp).scheduled(plan, &mut sched),
        );
        let rs = sched.last_run();
        if rs.deferred > 0 {
            starved_rounds += 1;
        }
        min_vrps = min_vrps.min(run.vrps.len());
        worst_served_age = worst_served_age.max(rs.max_served_age);
        if recorder.is_enabled() {
            recorder
                .event(w.net.now(), "campaign", "schedule_round")
                .u64("round", round as u64)
                .u64("fetched", rs.fetched)
                .u64("deferred", rs.deferred)
                .u64("time_used", rs.time_used)
                .u64("max_served_age", rs.max_served_age)
                .emit();
        }
        rounds.push(ScheduleRoundMetrics {
            round,
            vrps: run.vrps.len(),
            fetched: rs.fetched,
            not_due: rs.not_due,
            deferred: rs.deferred,
            backoff_skips: rs.backoff_skips,
            frames_used: rs.frames_used,
            time_used: rs.time_used,
            max_served_age: rs.max_served_age,
        });
    }
    ScheduleGamingOutcome {
        name: spec.name.clone(),
        seed,
        rounds,
        starved_rounds,
        min_vrps,
        worst_served_age,
    }
}

/// The standard campaign suite the `ablation_resilience` binary runs.
/// All target Continental — the paper's Section 6 repository — so the
/// five Continental VRPs are the ones at stake each time.
pub fn standard_campaigns() -> Vec<CampaignSpec> {
    let c = || "rpki.continental.example".to_owned();
    vec![
        CampaignSpec {
            name: "corruption-burst".to_owned(),
            unsafe_vrps: UnsafeVrpPolicy::Accept,
            churn: None,
            rounds: 12,
            windows: vec![FaultWindow {
                host: c(),
                kind: FaultKind::CorruptionBurst { prob: 0.4 },
                from: 3,
                to: 8,
            }],
        },
        CampaignSpec {
            name: "flapping-partition".to_owned(),
            unsafe_vrps: UnsafeVrpPolicy::Accept,
            churn: None,
            rounds: 12,
            windows: vec![FaultWindow { host: c(), kind: FaultKind::Flapping, from: 3, to: 10 }],
        },
        CampaignSpec {
            name: "takedown".to_owned(),
            unsafe_vrps: UnsafeVrpPolicy::Accept,
            churn: None,
            rounds: 12,
            windows: vec![FaultWindow { host: c(), kind: FaultKind::Takedown, from: 3, to: 8 }],
        },
        CampaignSpec {
            name: "slow-serve".to_owned(),
            unsafe_vrps: UnsafeVrpPolicy::Accept,
            churn: None,
            rounds: 10,
            windows: vec![FaultWindow {
                host: c(),
                kind: FaultKind::Stall { extra: 3600 },
                from: 3,
                to: 6,
            }],
        },
        CampaignSpec {
            // The Stalloris scenario: the RRDP feed freezes, then the
            // authority whacks the covering ROA behind the frozen view.
            // A trusting RRDP client never sees the whack; the verified
            // rrdp tier detects the pin each round and downgrades to
            // rsync for the truth.
            name: "stalloris-downgrade".to_owned(),
            unsafe_vrps: UnsafeVrpPolicy::Accept,
            churn: None,
            rounds: 12,
            windows: vec![
                FaultWindow { host: c(), kind: FaultKind::RrdpPin, from: 3, to: 8 },
                FaultWindow { host: c(), kind: FaultKind::Withdraw, from: 4, to: 6 },
            ],
        },
        CampaignSpec {
            name: "mixed".to_owned(),
            unsafe_vrps: UnsafeVrpPolicy::Accept,
            churn: None,
            rounds: 24,
            windows: vec![
                FaultWindow {
                    host: c(),
                    kind: FaultKind::CorruptionBurst { prob: 0.35 },
                    from: 3,
                    to: 7,
                },
                FaultWindow { host: c(), kind: FaultKind::Takedown, from: 10, to: 13 },
                FaultWindow { host: c(), kind: FaultKind::Withdraw, from: 16, to: 18 },
                FaultWindow { host: c(), kind: FaultKind::Stall { extra: 3600 }, from: 20, to: 22 },
            ],
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn takedown_spec() -> CampaignSpec {
        CampaignSpec {
            name: "t".to_owned(),
            unsafe_vrps: UnsafeVrpPolicy::Accept,
            churn: None,
            rounds: 6,
            windows: vec![FaultWindow {
                host: "rpki.continental.example".to_owned(),
                kind: FaultKind::Takedown,
                from: 2,
                to: 4,
            }],
        }
    }

    #[test]
    fn takedown_separates_stale_cache_from_the_rest() {
        let out = run_campaign(&takedown_spec(), 42);
        let bare = out.tier(RpTier::Bare).totals;
        let retrying = out.tier(RpTier::Retrying).totals;
        let stale = out.tier(RpTier::RetryingStale).totals;
        // A hard outage defeats retries — but the snapshot bridges it.
        assert_eq!(bare.vrp_round_sum, retrying.vrp_round_sum);
        assert!(stale.vrp_round_sum > retrying.vrp_round_sum, "{stale:?} vs {retrying:?}");
        assert_eq!(stale.min_vrps, 8);
        assert!(stale.stale_dir_rounds >= 3, "{stale:?}");
        // Outside the window everyone is whole again.
        assert_eq!(out.tier(RpTier::Bare).rounds.last().unwrap().vrps, 8);
    }

    #[test]
    fn withdraw_separates_suspenders_from_stale_cache() {
        let spec = CampaignSpec {
            name: "w".to_owned(),
            unsafe_vrps: UnsafeVrpPolicy::Accept,
            churn: None,
            rounds: 6,
            windows: vec![FaultWindow {
                host: "rpki.continental.example".to_owned(),
                kind: FaultKind::Withdraw,
                from: 2,
                to: 4,
            }],
        };
        let out = run_campaign(&spec, 42);
        let stale = out.tier(RpTier::RetryingStale).totals;
        let susp = out.tier(RpTier::Suspenders).totals;
        // The stale cache must NOT bridge an authority-side removal…
        assert!(stale.min_vrps < 8, "{stale:?}");
        assert_eq!(stale.stale_dir_rounds, 0, "{stale:?}");
        // …and the hold-down must.
        assert_eq!(susp.min_vrps, 8, "{susp:?}");
        assert_eq!(susp.unknown_flips, 0, "{susp:?}");
    }

    #[test]
    fn campaign_replay_is_identical() {
        let spec = takedown_spec();
        let a = serde_json::to_string(&run_campaign(&spec, 7)).unwrap();
        let b = serde_json::to_string(&run_campaign(&spec, 7)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn churned_campaign_replays_identically_and_keeps_separations() {
        let spec = takedown_spec().with_churn(ChurnConfig::renew_only(400));
        let a = serde_json::to_string(&run_campaign(&spec, 7)).unwrap();
        let b = serde_json::to_string(&run_campaign(&spec, 7)).unwrap();
        assert_eq!(a, b, "churned campaigns replay byte-identical");
        // Renew-only churn keeps the VRP population fixed, so the
        // quiet campaign's separations survive under a live publication
        // workload: the stale cache still bridges the takedown, and the
        // RRDP tier absorbs the churn deltas without losing a VRP.
        let out = run_campaign(&spec, 42);
        assert_eq!(out.tier(RpTier::RetryingStale).totals.min_vrps, 8);
        assert_eq!(out.tier(RpTier::Rrdp).totals.min_vrps, 8);
        assert_eq!(out.tier(RpTier::Bare).rounds.last().unwrap().vrps, 8);
    }

    #[test]
    fn incremental_campaign_matches_cold_campaign() {
        let spec = takedown_spec();
        let warm = serde_json::to_string(&run_campaign(&spec, 7)).unwrap();
        let cold = serde_json::to_string(&run_campaign_cold(&spec, 7)).unwrap();
        assert_eq!(warm, cold);
    }

    #[test]
    fn rrdp_tier_matches_suspenders_free_stack_on_transport_faults() {
        // A takedown hits transports equally: the rrdp tier falls back
        // to rsync (which is down too) and then to its stale cache, so
        // its availability equals the retrying+stale tier's.
        let out = run_campaign(&takedown_spec(), 42);
        let stale = out.tier(RpTier::RetryingStale).totals;
        let rrdp = out.tier(RpTier::Rrdp).totals;
        assert_eq!(rrdp.vrp_round_sum, stale.vrp_round_sum, "{rrdp:?} vs {stale:?}");
        assert_eq!(rrdp.min_vrps, 8);
        assert!(rrdp.rrdp_downgrades >= 3, "each outage round downgrades: {rrdp:?}");
        assert_eq!(stale.rrdp_downgrades, 0, "non-RRDP tiers never downgrade");
    }

    #[test]
    fn stalloris_campaign_verified_tier_sees_through_the_pin() {
        let spec = standard_campaigns()
            .into_iter()
            .find(|s| s.name == "stalloris-downgrade")
            .expect("stalloris spec present");
        let out = run_campaign(&spec, 42);
        let rrdp = out.tier(RpTier::Rrdp);
        // Pin rounds before the whack (round 3): the feed is stale but
        // content-identical, so nothing is lost and nothing downgrades
        // beyond the detection rounds.
        // Whack rounds (4–6): the verified tier detects the pin on the
        // Continental point and recovers the truth via rsync — the VRP
        // count drops to 7 like an honest world would show.
        for m in &rrdp.rounds[3..6] {
            assert_eq!(m.vrps, 7, "round {}: verified tier must see the whack", m.round);
            assert!(m.rrdp_downgrades >= 1, "round {}: pin must force a downgrade", m.round);
        }
        // After reissue (7–8, still pinned): truth is 8 again.
        for m in &rrdp.rounds[6..8] {
            assert_eq!(m.vrps, 8, "round {}", m.round);
        }
        // After unpin (9+): the feed heals, no more downgrades.
        for m in &rrdp.rounds[9..] {
            assert_eq!(m.vrps, 8, "round {}", m.round);
            assert_eq!(m.rrdp_downgrades, 0, "round {}: healed feed, no downgrade", m.round);
        }
        // The non-RRDP tiers fetch over rsync and are oblivious to the
        // pin: they see the plain withdraw window.
        let stale = out.tier(RpTier::RetryingStale).totals;
        assert_eq!(stale.min_vrps, 7);
        assert_eq!(stale.rrdp_downgrades, 0);
    }

    #[test]
    fn rrdp_withhold_forces_downgrades_without_data_loss() {
        let spec = CampaignSpec {
            name: "wh".to_owned(),
            unsafe_vrps: UnsafeVrpPolicy::Accept,
            churn: None,
            rounds: 6,
            windows: vec![FaultWindow {
                host: "rpki.continental.example".to_owned(),
                kind: FaultKind::RrdpWithhold,
                from: 2,
                to: 4,
            }],
        };
        let out = run_campaign(&spec, 42);
        let rrdp = out.tier(RpTier::Rrdp);
        // The rsync path keeps the tier whole through the withhold…
        assert_eq!(rrdp.totals.min_vrps, 8, "{:?}", rrdp.totals);
        // …at the cost of one downgrade per withheld round, and none
        // once the feed returns.
        assert_eq!(
            rrdp.rounds.iter().map(|m| m.rrdp_downgrades).collect::<Vec<_>>(),
            vec![0, 1, 1, 1, 0, 0]
        );
    }

    #[test]
    fn shared_campaign_measures_divergence_and_load() {
        let out = run_campaign_shared(&takedown_spec(), 42, &Recorder::disabled());
        assert_eq!(out.tiers.len(), RpTier::ALL.len());
        assert_eq!(out.divergence.len(), out.rounds);
        // During the takedown window the stale tier keeps serving while
        // bare/retrying lose the Continental VRPs: the tiers diverge.
        assert!(
            out.divergence.iter().any(|d| d.distinct_vrp_sets > 1 && d.max_pairwise_diff > 0),
            "{:?}",
            out.divergence
        );
        // Healthy rounds agree (the walk itself is deterministic).
        assert!(out.divergence.iter().any(|d| d.distinct_vrp_sets == 1), "{:?}", out.divergence);
        // Every host served someone; Continental took the fault traffic.
        assert!(out.load.iter().all(|h| h.frames > 0 && h.bytes > h.frames), "{:?}", out.load);
        assert!(out.load.iter().any(|h| h.host == "rpki.continental.example"));
        // The tier separation the per-tier campaign shows survives the
        // shared world: the snapshot cache bridges the outage.
        let stale = out.tier(RpTier::RetryingStale).totals;
        let bare = out.tier(RpTier::Bare).totals;
        assert!(stale.vrp_round_sum > bare.vrp_round_sum, "{stale:?} vs {bare:?}");
        // Deterministic replay, since every fault here is dice-free.
        let again = run_campaign_shared(&takedown_spec(), 42, &Recorder::disabled());
        assert_eq!(serde_json::to_string(&out).unwrap(), serde_json::to_string(&again).unwrap());
    }

    #[test]
    fn rtr_stall_makes_routers_stale_then_recovers() {
        // Intersection policy: the withdraw shrinks the merge the
        // moment any tier sees it, so the stalled feed path (rounds
        // 3–5) leaves routers acting on the pre-whack VRPs.
        let cfg = RtrConfig { routers: 4, policy: MergePolicy::All, ..RtrConfig::default() };
        let out =
            run_campaign_rtr(&rtr_campaign(), 42, cfg, &SlurmFile::empty(), &Recorder::disabled());
        assert_eq!(out.rtr.len(), 10);
        assert_eq!(out.routers, 4);

        // Healthy rounds: everyone synced, routers hold the truth.
        let r1 = &out.rtr[0];
        assert_eq!(r1.synced_routers, 4, "{r1:?}");
        assert_eq!(r1.stale_routers, 0, "{r1:?}");
        assert_eq!(r1.truth_distance_sum, 0, "{r1:?}");
        assert_eq!(r1.relay_truth_distance, 0, "{r1:?}");

        // The whack lands behind the stalled feed (round 4): the relay
        // knows, the routers cannot hear — every router is stale and
        // still holds the whacked VRP.
        let r4 = &out.rtr[3];
        assert_eq!(r4.stale_routers, 4, "{r4:?}");
        assert!(r4.max_serial_lag >= 1, "{r4:?}");
        assert_eq!(r4.truth_distance_sum, 4, "one whacked VRP per router: {r4:?}");
        assert_eq!(r4.relay_truth_distance, 0, "the relay itself kept up: {r4:?}");

        // The stall lifts at round 6: routers drain the delta history
        // and reconverge without a reset storm.
        let r6 = &out.rtr[5];
        assert_eq!(r6.synced_routers, 4, "{r6:?}");
        assert_eq!(r6.truth_distance_sum, 0, "{r6:?}");

        // After the reissue everyone is whole again.
        let last = out.rtr.last().unwrap();
        assert_eq!(last.synced_routers, 4, "{last:?}");
        assert_eq!(last.truth_distance_sum, 0, "{last:?}");
    }

    #[test]
    fn rtr_partition_blocks_even_resets() {
        let spec = CampaignSpec {
            name: "rtr-p".to_owned(),
            unsafe_vrps: UnsafeVrpPolicy::Accept,
            churn: None,
            rounds: 6,
            windows: vec![
                FaultWindow {
                    host: "rtr".to_owned(),
                    kind: FaultKind::RtrPartition,
                    from: 2,
                    to: 4,
                },
                FaultWindow {
                    host: "rpki.continental.example".to_owned(),
                    kind: FaultKind::Withdraw,
                    from: 2,
                    to: 4,
                },
            ],
        };
        let cfg = RtrConfig { routers: 3, policy: MergePolicy::All, ..RtrConfig::default() };
        let out = run_campaign_rtr(&spec, 42, cfg, &SlurmFile::empty(), &Recorder::disabled());
        // During the partition the routers hold the pre-whack set.
        let r2 = &out.rtr[1];
        assert_eq!(r2.stale_routers, 3, "{r2:?}");
        assert_eq!(r2.truth_distance_sum, 3, "{r2:?}");
        // Heal + reissue: converged again by the final round.
        let last = out.rtr.last().unwrap();
        assert_eq!(last.synced_routers, 3, "{last:?}");
        assert_eq!(last.truth_distance_sum, 0, "{last:?}");
        // The repository-side tiers never noticed the RTR fault.
        assert_eq!(out.tier(RpTier::Bare).totals.stale_dir_rounds, 0);
    }

    #[test]
    fn rtr_campaign_replay_is_identical() {
        let cfg = RtrConfig { routers: 3, policy: MergePolicy::All, ..RtrConfig::default() };
        let a = serde_json::to_string(&run_campaign_rtr(
            &rtr_campaign(),
            7,
            cfg,
            &SlurmFile::empty(),
            &Recorder::disabled(),
        ))
        .unwrap();
        let b = serde_json::to_string(&run_campaign_rtr(
            &rtr_campaign(),
            7,
            cfg,
            &SlurmFile::empty(),
            &Recorder::disabled(),
        ))
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn slow_serve_starves_victims_only_inside_the_window() {
        let spec = schedule_gaming_campaign();
        let out = run_schedule_gaming(&spec, 7, gaming_schedule_plan(), &Recorder::disabled());
        let window = &spec.windows[0];
        for r in &out.rounds {
            let in_window = window.from <= r.round && r.round <= window.to;
            assert!(
                in_window || r.deferred == 0,
                "round {}: no deferrals outside the slow-serve window ({r:?})",
                r.round
            );
        }
        // The slow host burns the budget on (at least) every other
        // window round — its own stretched fetch can push its next
        // deadline one round out, so alternation is legitimate.
        let window_len = window.to - window.from + 1;
        assert!(
            out.starved_rounds >= window_len / 2,
            "starved {} of {window_len} window rounds: {out:?}",
            out.starved_rounds
        );
        // Starvation costs freshness, not availability: deferred points
        // are served from the schedule snapshot, so the VRP set never
        // shrinks — but the served age climbs past a full round.
        assert_eq!(out.min_vrps, 8, "{out:?}");
        assert!(out.worst_served_age >= ROUND_SECS, "{out:?}");
        // Outside the window the budget is plentiful and nothing ages.
        let last = out.rounds.last().unwrap();
        assert_eq!(last.deferred, 0);
        assert_eq!(last.backoff_skips, 0, "slow is not down: no breaker may trip ({last:?})");
    }

    #[test]
    fn schedule_gaming_replay_is_identical() {
        let spec = schedule_gaming_campaign();
        let a = run_schedule_gaming(&spec, 11, gaming_schedule_plan(), &Recorder::disabled());
        let b = run_schedule_gaming(&spec, 11, gaming_schedule_plan(), &Recorder::disabled());
        assert_eq!(a, b);
        assert_eq!(serde_json::to_string(&a).unwrap(), serde_json::to_string(&b).unwrap());
    }

    #[test]
    fn standard_campaigns_are_well_formed() {
        let specs = standard_campaigns();
        assert_eq!(specs.len(), 6);
        for spec in &specs {
            assert!(spec.rounds >= 1);
            for win in &spec.windows {
                assert!(win.from >= 1 && win.from <= win.to && win.to <= spec.rounds);
                // Snapshot budget covers every transport window, so the
                // stale tier's bridging claim is meaningful throughout.
                let budget_rounds = (campaign_resilience().max_stale / ROUND_SECS) as usize;
                assert!(win.to - win.from < budget_rounds, "{}: window too long", spec.name);
            }
        }
    }
}
