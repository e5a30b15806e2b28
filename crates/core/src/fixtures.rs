//! The paper's Figure 2 model RPKI, reconstructed as a live world.
//!
//! The figure (an excerpt) and the surrounding prose pin down:
//!
//! - ARIN suballocates to Sprint (Table 4 gives Sprint's blocks:
//!   `63.160.0.0/12` and `208.0.0.0/11`);
//! - Sprint issues RCs to ETB S.A. ESP. and Continental Broadband, and
//!   "two ROAs that authorize specified prefix and its subprefixes of
//!   length up to 24";
//! - Continental Broadband (AS 17054) holds `63.174.16.0/20`, issues
//!   the covering ROA `(63.174.16.0/20, AS17054)` plus four more — the
//!   paper says revoking its RC "would whack four additional ROAs" —
//!   among them the make-before-break target `(63.174.16.0/22,
//!   AS7341)`;
//! - Continental hosts its own repository at `63.174.23.0` (Section 6).
//!
//! Values the excerpt leaves unreadable (exact ETB block, the sibling
//! ROA prefixes) are reconstructed to satisfy every constraint the
//! text states: the /24 carve-out must be collateral-free, the /22
//! target must *not* be, and `63.174.17.0/24` must be invalid while
//! `63.160.0.0/12` is unknown (Figure 5, left).

use bgp_sim::{Announcement, Topology};
use ipres::{Asn, Prefix, ResourceSet};
use netsim::{Network, NodeId};
use rpki_ca::{CertAuthority, ChurnEngine, ChurnReport};
use rpki_objects::{Encode, Moment, RepoUri, Roa, RoaPrefix, RpkiObject, Span, TrustAnchorLocator};
use rpki_repo::RepoRegistry;
use rpki_rp::{
    DirectSource, NetworkSource, ValidationConfig, ValidationRun, ValidationState, Validator,
};

fn p(s: &str) -> Prefix {
    s.parse().unwrap()
}

fn rs(s: &str) -> ResourceSet {
    ResourceSet::from_prefix_strs(s)
}

/// Well-known ASNs of the model.
pub mod asn {
    use ipres::Asn;

    /// Sprint.
    pub const SPRINT: Asn = Asn(1239);
    /// Continental Broadband.
    pub const CONTINENTAL: Asn = Asn(17054);
    /// The make-before-break target customer.
    pub const CUSTOMER_A: Asn = Asn(7341);
    /// Sibling customer.
    pub const CUSTOMER_B: Asn = Asn(7342);
    /// Sibling customer.
    pub const CUSTOMER_C: Asn = Asn(7343);
    /// Sibling customer.
    pub const CUSTOMER_D: Asn = Asn(7344);
    /// ETB S.A. ESP.
    pub const ETB: Asn = Asn(19094);
    /// The relying party's own AS.
    pub const RELYING_PARTY: Asn = Asn(64512);
}

/// The model world: CAs, repositories, network, topology, and a relying
/// party, ready for manipulation experiments.
pub struct ModelRpki {
    /// The simulated network.
    pub net: Network,
    /// All repositories.
    pub repos: RepoRegistry,
    /// The relying party's network node.
    pub rp_node: NodeId,
    /// ARIN (the model's trust anchor).
    pub arin: CertAuthority,
    /// Sprint.
    pub sprint: CertAuthority,
    /// ETB S.A. ESP.
    pub etb: CertAuthority,
    /// Continental Broadband.
    pub continental: CertAuthority,
    /// The relying party's trust anchor locator.
    pub tal: TrustAnchorLocator,
    /// The AS graph of the model.
    pub topology: Topology,
    /// Everyone's legitimate BGP announcements.
    pub announcements: Vec<Announcement>,
}

impl ModelRpki {
    /// Builds and publishes the model world with the canonical seed.
    pub fn build() -> ModelRpki {
        ModelRpki::build_seeded(2013)
    }

    /// Builds and publishes the model world over a network seeded with
    /// `seed` — the entry point for fault campaigns that sweep seeds.
    pub fn build_seeded(seed: u64) -> ModelRpki {
        let mut net = Network::new(seed);
        let rp_node = net.add_node("relying-party");
        let mut repos = RepoRegistry::new();
        for host in [
            "rpki.arin.example",
            "rpki.sprint.example",
            "rpki.etb.example",
            "rpki.continental.example",
        ] {
            repos.create(&mut net, host);
        }
        // Section 6: Continental hosts its own repository at
        // 63.174.23.0 inside its own /20, originated by AS 17054.
        repos
            .by_host_mut("rpki.continental.example")
            .expect("just created")
            .set_hosted_at(p("63.174.23.0/24"), asn::CONTINENTAL);

        let dir = |host: &str| RepoUri::new(host, &["repo"]);

        let mut arin = CertAuthority::new("ARIN", "model-arin", dir("rpki.arin.example"));
        arin.certify_self(rs("63.0.0.0/8, 208.0.0.0/4"), Moment(0), Span::days(3650));

        let mut sprint = CertAuthority::new("Sprint", "model-sprint", dir("rpki.sprint.example"));
        let rc = arin
            .issue_cert(
                "Sprint",
                sprint.public_key(),
                rs("63.160.0.0/12, 208.0.0.0/11"),
                sprint.sia().clone(),
                Moment(0),
            )
            .expect("ARIN holds Sprint's blocks");
        sprint.install_cert(rc);

        let mut etb = CertAuthority::new("ETB S.A. ESP.", "model-etb", dir("rpki.etb.example"));
        let rc = sprint
            .issue_cert(
                "ETB S.A. ESP.",
                etb.public_key(),
                rs("63.166.0.0/16"),
                etb.sia().clone(),
                Moment(0),
            )
            .expect("inside Sprint's /12");
        etb.install_cert(rc);

        let mut continental = CertAuthority::new(
            "Continental Broadband",
            "model-continental",
            dir("rpki.continental.example"),
        );
        let rc = sprint
            .issue_cert(
                "Continental Broadband",
                continental.public_key(),
                rs("63.174.16.0/20"),
                continental.sia().clone(),
                Moment(0),
            )
            .expect("inside Sprint's /12");
        continental.install_cert(rc);

        // Sprint's two maxlen-24 ROAs.
        sprint
            .issue_roa(asn::SPRINT, vec![RoaPrefix::up_to(p("63.160.64.0/20"), 24)], Moment(0))
            .expect("own space");
        sprint
            .issue_roa(asn::SPRINT, vec![RoaPrefix::up_to(p("208.24.0.0/16"), 24)], Moment(0))
            .expect("own space");
        // ETB's ROA.
        etb.issue_roa(asn::ETB, vec![RoaPrefix::exact(p("63.166.0.0/16"))], Moment(0))
            .expect("own space");
        // Continental's five ROAs.
        continental
            .issue_roa(asn::CONTINENTAL, vec![RoaPrefix::exact(p("63.174.16.0/20"))], Moment(0))
            .expect("own space");
        continental
            .issue_roa(asn::CUSTOMER_A, vec![RoaPrefix::exact(p("63.174.16.0/22"))], Moment(0))
            .expect("own space");
        continental
            .issue_roa(asn::CUSTOMER_B, vec![RoaPrefix::exact(p("63.174.20.0/23"))], Moment(0))
            .expect("own space");
        continental
            .issue_roa(asn::CUSTOMER_C, vec![RoaPrefix::exact(p("63.174.22.0/24"))], Moment(0))
            .expect("own space");
        continental
            .issue_roa(asn::CUSTOMER_D, vec![RoaPrefix::exact(p("63.174.25.0/24"))], Moment(0))
            .expect("own space");

        let tal = TrustAnchorLocator::new(
            RepoUri::new("rpki.arin.example", &["ta", "root.cer"]),
            arin.public_key(),
        );

        // AS topology: Sprint at the top; ETB, Continental, and the
        // relying party are its customers; Continental's customers hang
        // below it.
        let mut topology = Topology::new();
        topology.add_provider_customer(asn::SPRINT, asn::ETB);
        topology.add_provider_customer(asn::SPRINT, asn::CONTINENTAL);
        topology.add_provider_customer(asn::SPRINT, asn::RELYING_PARTY);
        for customer in [asn::CUSTOMER_A, asn::CUSTOMER_B, asn::CUSTOMER_C, asn::CUSTOMER_D] {
            topology.add_provider_customer(asn::CONTINENTAL, customer);
        }

        let announcements = vec![
            Announcement { prefix: p("63.160.64.0/20"), origin: asn::SPRINT },
            Announcement { prefix: p("208.24.0.0/16"), origin: asn::SPRINT },
            Announcement { prefix: p("63.166.0.0/16"), origin: asn::ETB },
            Announcement { prefix: p("63.174.16.0/20"), origin: asn::CONTINENTAL },
            Announcement { prefix: p("63.174.16.0/22"), origin: asn::CUSTOMER_A },
            Announcement { prefix: p("63.174.20.0/23"), origin: asn::CUSTOMER_B },
            Announcement { prefix: p("63.174.22.0/24"), origin: asn::CUSTOMER_C },
            Announcement { prefix: p("63.174.25.0/24"), origin: asn::CUSTOMER_D },
        ];

        let mut world = ModelRpki {
            net,
            repos,
            rp_node,
            arin,
            sprint,
            etb,
            continental,
            tal,
            topology,
            announcements,
        };
        world.publish_all(Moment(1));
        world
    }

    /// Republishes every CA's snapshot (and the TA certificate).
    pub fn publish_all(&mut self, now: Moment) {
        let ta_cert = self.arin.cert().expect("TA certified").clone();
        let ta_dir = RepoUri::new("rpki.arin.example", &["ta"]);
        self.repos.by_host_mut("rpki.arin.example").expect("exists").publish_raw(
            &ta_dir,
            "root.cer",
            RpkiObject::Cert(ta_cert).to_bytes(),
        );
        for (host, ca) in [
            ("rpki.arin.example", &mut self.arin),
            ("rpki.sprint.example", &mut self.sprint),
            ("rpki.etb.example", &mut self.etb),
            ("rpki.continental.example", &mut self.continental),
        ] {
            let sia = ca.sia().clone();
            let snap = ca.publication_snapshot(now);
            self.repos.by_host_mut(host).expect("exists").publish_snapshot(&sia, &snap);
        }
    }

    /// Advances `engine` one step over the model's four authorities (in
    /// [arin, sprint, etb, continental] order — the index the schedule
    /// is keyed on) and republishes every touched CA's snapshot through
    /// the ordinary publication log, so RRDP clients see the churn as
    /// deltas. Returns the engine's report.
    pub fn run_churn(&mut self, engine: &mut ChurnEngine, now: Moment) -> ChurnReport {
        let report = engine.step_with(
            [&mut self.arin, &mut self.sprint, &mut self.etb, &mut self.continental],
            now,
        );
        let hosts = [
            "rpki.arin.example",
            "rpki.sprint.example",
            "rpki.etb.example",
            "rpki.continental.example",
        ];
        for &idx in &report.touched {
            let ca = match idx {
                0 => &mut self.arin,
                1 => &mut self.sprint,
                2 => &mut self.etb,
                _ => &mut self.continental,
            };
            let sia = ca.sia().clone();
            let snap = ca.publication_snapshot(now);
            self.repos.by_host_mut(hosts[idx]).expect("exists").publish_snapshot(&sia, &snap);
        }
        report
    }

    /// Poisons `host`'s publication point with one adversarial corpus
    /// case, signed with that host's own CA key and written through
    /// the ordinary publication log (so rsync and RRDP clients see the
    /// same bytes). Returns what was done, or `None` for an unknown
    /// host. Heal with [`publish_all`](ModelRpki::publish_all): a
    /// fresh snapshot overwrites the poison and deletes stray files.
    pub fn poison_host(
        &mut self,
        host: &str,
        kind: rpki_attacks::CorpusKind,
        seed: u64,
        now: Moment,
    ) -> Option<rpki_attacks::CorpusCase> {
        let ca = match host {
            "rpki.arin.example" => &self.arin,
            "rpki.sprint.example" => &self.sprint,
            "rpki.etb.example" => &self.etb,
            "rpki.continental.example" => &self.continental,
            _ => return None,
        };
        // Field-disjoint borrows: the CA is read, the repo mutated.
        let repo = self.repos.by_host_mut(host)?;
        Some(rpki_attacks::poison(repo, ca, kind, seed, now))
    }

    /// Validates over a perfect transport — the `&self` convenience
    /// probe for tests and examples that just want the world's VRPs.
    /// Emits the run through the network's recorder like
    /// [`validate_with`](ModelRpki::validate_with).
    pub fn validate_direct(&self, now: Moment) -> ValidationRun {
        let mut source = DirectSource::new(&self.repos);
        let run = Validator::new(ValidationConfig::at(now))
            .run(&mut source, std::slice::from_ref(&self.tal));
        run.emit(&self.net.recorder(), now.0);
        run
    }

    /// Adds Figure 5 (right)'s new ROA: `(63.160.0.0/12-13, AS1239)` —
    /// the Side Effect 5 trigger — and republishes.
    pub fn add_figure5_right_roa(&mut self, now: Moment) -> Roa {
        let roa = self
            .sprint
            .issue_roa(asn::SPRINT, vec![RoaPrefix::up_to(p("63.160.0.0/12"), 13)], now)
            .expect("own space");
        self.publish_all(now);
        roa
    }

    /// The file name of Continental's covering `/20` ROA (Figure 3's
    /// target).
    pub fn covering_roa_file(&self) -> String {
        self.continental
            .issued_roas()
            .find(|r| r.asn() == asn::CONTINENTAL)
            .expect("covering ROA exists")
            .file_name()
    }

    /// The file name of the `/22` customer ROA (the make-before-break
    /// target).
    pub fn customer_roa_file(&self) -> String {
        self.continental
            .issued_roas()
            .find(|r| r.asn() == asn::CUSTOMER_A)
            .expect("customer ROA exists")
            .file_name()
    }
}

/// Number of CAs in a subtree whose root has `depth` further levels of
/// `branching` children below it.
fn subtree_size(depth: u32, branching: u32) -> usize {
    (0..=depth).map(|i| (branching as usize).pow(i)).sum()
}

/// A `/24` per CA index: CA `i` owns `10.(i >> 8).(i & 255).0/24`, and
/// because CAs are numbered in DFS preorder a subtree's resources are
/// one contiguous index range, covered here by a minimal set of CIDR
/// blocks (greedy aggregation) so certificates stay small even for
/// thousand-CA subtrees.
fn synthetic_resources(start: usize, size: usize) -> ResourceSet {
    let mut prefixes = Vec::new();
    let mut i = start as u32;
    let end = (start + size) as u32;
    while i < end {
        // Largest power-of-two run that is aligned at `i` and fits.
        let align = if i == 0 { 1 << 16 } else { 1 << i.trailing_zeros().min(16) };
        let fit = end - i;
        let run: u32 = align.min(1 << (31 - fit.leading_zeros()));
        let len = 24 - run.trailing_zeros() as u8;
        prefixes.push(Prefix::v4(10, (i >> 8) as u8, (i & 255) as u8, 0, len));
        i += run;
    }
    ResourceSet::from_prefixes(prefixes)
}

/// A regular synthetic CA tree for churn benchmarks: one trust anchor,
/// `branching` children per CA down to `depth` levels, `roas_per_ca`
/// ROAs per CA, all hosted in one repository with one directory per CA.
///
/// Unlike [`ModelRpki`] (the paper's Figure 2, four fixed publication
/// points), this fixture scales the publication-point count and lets
/// [`churn`](SyntheticRpki::churn) dirty a chosen fraction of points
/// between validation runs — the workload the incremental engine's
/// digest cache is designed for.
pub struct SyntheticRpki {
    /// The simulated network.
    pub net: Network,
    /// The single repository holding every CA's directory.
    pub repos: RepoRegistry,
    /// The relying party's network node.
    pub rp_node: NodeId,
    /// All CAs in DFS preorder; index 0 is the trust anchor.
    pub cas: Vec<CertAuthority>,
    /// The relying party's trust anchor locator.
    pub tal: TrustAnchorLocator,
    /// Expected VRP count (one per ROA).
    pub roa_count: usize,
    churn_cursor: usize,
}

impl SyntheticRpki {
    /// Builds and publishes a tree over a network seeded with `seed`.
    ///
    /// The total CA count is `1 + b + … + b^depth` and must stay within
    /// 65536 (one `/24` per CA inside `10.0.0.0/8`), which comfortably
    /// fits the planet-scale bench sweeps (five-thousand-point worlds).
    pub fn build_seeded(
        seed: u64,
        depth: u32,
        branching: u32,
        roas_per_ca: usize,
    ) -> SyntheticRpki {
        let total = subtree_size(depth, branching);
        assert!(total <= 65536, "tree of {total} CAs outgrows 10.0.0.0/8");
        assert!(roas_per_ca > 0 && roas_per_ca <= 200, "roas_per_ca out of range");

        let mut net = Network::new(seed);
        let rp_node = net.add_node("relying-party");
        let mut repos = RepoRegistry::new();
        repos.create(&mut net, "rpki.bench.example");

        let mut root = CertAuthority::new(
            "ca0",
            "bench-ca0",
            RepoUri::new("rpki.bench.example", &["repo", "ca0"]),
        );
        // The root holds the whole /8 (not just the tree's index range)
        // so benches can mint extra out-of-tree ROAs at the root without
        // caring about the tree's exact size.
        root.certify_self(ResourceSet::from_prefix_strs("10.0.0.0/8"), Moment(0), Span::days(3650));
        let mut cas = vec![root];
        Self::grow(&mut cas, 0, depth, branching);
        debug_assert_eq!(cas.len(), total);

        for (idx, ca) in cas.iter_mut().enumerate() {
            for j in 0..roas_per_ca {
                ca.issue_roa(
                    Asn(65000 + idx as u32),
                    vec![RoaPrefix::exact(p(&format!("10.{}.{}.{j}/32", idx >> 8, idx & 255)))],
                    Moment(0),
                )
                .expect("ROA inside the CA's own /24");
            }
        }

        let tal = TrustAnchorLocator::new(
            RepoUri::new("rpki.bench.example", &["ta", "root.cer"]),
            cas[0].public_key(),
        );
        let mut world = SyntheticRpki {
            net,
            repos,
            rp_node,
            cas,
            tal,
            roa_count: total * roas_per_ca,
            churn_cursor: 0,
        };
        world.publish_all(Moment(1));
        world
    }

    fn grow(cas: &mut Vec<CertAuthority>, parent: usize, levels_left: u32, branching: u32) {
        if levels_left == 0 {
            return;
        }
        for _ in 0..branching {
            let idx = cas.len();
            let size = subtree_size(levels_left - 1, branching);
            let mut ca = CertAuthority::new(
                &format!("ca{idx}"),
                &format!("bench-ca{idx}"),
                RepoUri::new("rpki.bench.example", &["repo", &format!("ca{idx}")]),
            );
            let rc = cas[parent]
                .issue_cert(
                    &format!("ca{idx}"),
                    ca.public_key(),
                    synthetic_resources(idx, size),
                    ca.sia().clone(),
                    Moment(0),
                )
                .expect("subtree range sits inside the parent's range");
            ca.install_cert(rc);
            cas.push(ca);
            Self::grow(cas, idx, levels_left - 1, branching);
        }
    }

    /// Number of publication points (one directory per CA).
    pub fn publication_points(&self) -> usize {
        self.cas.len()
    }

    /// Republishes the TA certificate and every CA's snapshot.
    pub fn publish_all(&mut self, now: Moment) {
        let ta_cert = self.cas[0].cert().expect("TA certified").clone();
        let ta_dir = RepoUri::new("rpki.bench.example", &["ta"]);
        let repo = self.repos.by_host_mut("rpki.bench.example").expect("exists");
        repo.publish_raw(&ta_dir, "root.cer", RpkiObject::Cert(ta_cert).to_bytes());
        for ca in &mut self.cas {
            let sia = ca.sia().clone();
            let snap = ca.publication_snapshot(now);
            self.repos
                .by_host_mut("rpki.bench.example")
                .expect("exists")
                .publish_snapshot(&sia, &snap);
        }
    }

    /// Dirties `pct` percent of publication points (at least one when
    /// `pct > 0`): each selected CA renews one ROA and republishes its
    /// directory — fresh manifest, CRL, and ROA bytes — while every
    /// other directory keeps its exact on-disk content. Selection
    /// rotates deterministically so repeated rounds spread the churn.
    /// Returns the number of directories touched.
    pub fn churn(&mut self, pct: usize, now: Moment) -> usize {
        if pct == 0 {
            return 0;
        }
        let total = self.cas.len();
        let touched = ((total * pct).div_ceil(100)).clamp(1, total);
        for _ in 0..touched {
            let idx = self.churn_cursor % total;
            self.churn_cursor += 1;
            let ca = &mut self.cas[idx];
            let file = ca.issued_roas().next().expect("every CA has ROAs").file_name();
            ca.renew_roa(&file, now).expect("renewable");
            let sia = ca.sia().clone();
            let snap = ca.publication_snapshot(now);
            self.repos
                .by_host_mut("rpki.bench.example")
                .expect("exists")
                .publish_snapshot(&sia, &snap);
        }
        touched
    }

    /// Advances `engine` one step over every CA (vector order) and
    /// republishes the touched snapshots — the realistic counterpart to
    /// [`churn`](Self::churn)'s fixed-rate rotation. Recomputes
    /// `roa_count` since adds/withdraws change the population. Returns
    /// the engine's report.
    pub fn run_churn(&mut self, engine: &mut ChurnEngine, now: Moment) -> ChurnReport {
        let report = engine.step_with(self.cas.iter_mut(), now);
        for &idx in &report.touched {
            let ca = &mut self.cas[idx];
            let sia = ca.sia().clone();
            let snap = ca.publication_snapshot(now);
            self.repos
                .by_host_mut("rpki.bench.example")
                .expect("exists")
                .publish_snapshot(&sia, &snap);
        }
        if report.added > 0 || report.withdrawn > 0 {
            self.roa_count = self.cas.iter().map(|ca| ca.issued_roas().count()).sum();
        }
        report
    }

    /// One cold full walk over the simulated network.
    pub fn validate_cold(&mut self, now: Moment) -> ValidationRun {
        let mut source = NetworkSource::new(&mut self.net, &self.repos, self.rp_node);
        Validator::new(ValidationConfig::at(now)).run(&mut source, std::slice::from_ref(&self.tal))
    }

    /// One incremental revalidation over the simulated network against
    /// the persistent `state`.
    pub fn validate_incremental(
        &mut self,
        now: Moment,
        state: &mut ValidationState,
    ) -> ValidationRun {
        let mut source = NetworkSource::new(&mut self.net, &self.repos, self.rp_node);
        Validator::new(ValidationConfig::at(now)).run_incremental(
            &mut source,
            std::slice::from_ref(&self.tal),
            state,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::ValidationOptions;
    use ipres::Asn;
    use rpki_repo::SyncPolicy;
    use rpki_rp::{ResilientState, Route, RouteValidity};

    #[test]
    fn model_validates_to_seven_plus_one_vrps() {
        let w = ModelRpki::build();
        let run = w.validate_direct(Moment(2));
        // 2 (Sprint) + 1 (ETB) + 5 (Continental) = 8 VRPs; the paper's
        // excerpt shows 7 ROAs, and our reconstruction carries the full
        // five-ROA Continental set the prose implies.
        assert_eq!(run.vrps.len(), 8);
        assert_eq!(run.cas.len(), 4);
    }

    #[test]
    fn figure5_left_states_hold() {
        let w = ModelRpki::build();
        let cache = w.validate_direct(Moment(2)).vrp_cache();
        // The /12 is unknown (no covering ROA).
        assert_eq!(
            cache.classify(Route::new("63.160.0.0/12".parse().unwrap(), asn::SPRINT)),
            RouteValidity::Unknown
        );
        // 63.174.17.0/24 is invalid (covered by the /20 ROA).
        assert_eq!(
            cache.classify(Route::new("63.174.17.0/24".parse().unwrap(), asn::CONTINENTAL)),
            RouteValidity::Invalid
        );
        // The legitimate announcements are valid.
        for ann in &w.announcements {
            assert_eq!(
                cache.classify(Route::new(ann.prefix, ann.origin)),
                RouteValidity::Valid,
                "{} ← {}",
                ann.prefix,
                ann.origin
            );
        }
    }

    #[test]
    fn figure5_right_flips_unknowns_to_invalid() {
        let mut w = ModelRpki::build();
        let before = w.validate_direct(Moment(2)).vrp_cache();
        let probe = Route::new("63.161.0.0/16".parse().unwrap(), Asn(999));
        assert_eq!(before.classify(probe), RouteValidity::Unknown);
        w.add_figure5_right_roa(Moment(3));
        let after = w.validate_direct(Moment(4)).vrp_cache();
        assert_eq!(after.classify(probe), RouteValidity::Invalid);
    }

    #[test]
    fn seeded_builds_differ_only_in_network_randomness() {
        // Same world content regardless of seed: the seed feeds the
        // network's fault dice, not the RPKI.
        let a = ModelRpki::build_seeded(1);
        let b = ModelRpki::build_seeded(2);
        assert_eq!(a.validate_direct(Moment(2)).vrps, b.validate_direct(Moment(2)).vrps);
    }

    #[test]
    fn resilient_validation_matches_direct_when_healthy() {
        let mut w = ModelRpki::build_seeded(7);
        let direct = w.validate_direct(Moment(2));
        let mut state = ResilientState::default();
        let resilient = w.validate_with(
            ValidationOptions::at(Moment(2)).retry(SyncPolicy::default()).stale_cache(&mut state),
        );
        assert_eq!(direct.vrps, resilient.vrps);
        // Every visited directory left a snapshot behind.
        assert!(state.snapshot_count() >= 4, "snapshots: {}", state.snapshot_count());
    }

    #[test]
    fn network_validation_matches_direct() {
        let mut w = ModelRpki::build();
        let direct = w.validate_direct(Moment(2));
        let networked = w.validate_with(ValidationOptions::at(Moment(2)));
        assert_eq!(direct.vrps, networked.vrps);
    }

    #[test]
    fn continental_repo_is_inside_its_own_roa() {
        let w = ModelRpki::build();
        let repo = w.repos.by_host("rpki.continental.example").unwrap();
        let (prefix, origin) = repo.hosted_at().unwrap();
        assert_eq!(origin, asn::CONTINENTAL);
        // The repo prefix sits inside the /20 the covering ROA names —
        // the circularity precondition of Section 6.
        assert!("63.174.16.0/20".parse::<Prefix>().unwrap().covers(prefix));
    }

    #[test]
    fn synthetic_tree_validates_and_reuses_under_partial_churn() {
        // branching 3, depth 2 → 1 + 3 + 9 = 13 publication points.
        let mut w = SyntheticRpki::build_seeded(11, 2, 3, 2);
        assert_eq!(w.publication_points(), 13);
        let mut state = ValidationState::full();
        let first = w.validate_incremental(Moment(2), &mut state);
        assert_eq!(first.vrps.len(), w.roa_count);
        assert_eq!(first.cas.len(), 13);
        // Dirty ~10% (two points after ceil): only those re-walk.
        let touched = w.churn(10, Moment(60));
        assert_eq!(touched, 2);
        let second = w.validate_incremental(Moment(62), &mut state);
        assert_eq!(second.vrps.len(), w.roa_count);
        assert_eq!(state.stats().subtrees_rewalked as usize, touched);
        assert_eq!(state.stats().subtrees_reused as usize, 13 - touched);
        // Renewals keep VRP content identical, so the delta is empty.
        assert!(state.last_delta().is_empty());
        // And the incremental output matches a cold walk of the same world.
        assert_eq!(second.vrps, w.validate_cold(Moment(62)).vrps);
    }

    #[test]
    fn engine_churn_keeps_the_model_world_valid() {
        use rpki_ca::ChurnConfig;
        let mut w = ModelRpki::build();
        let baseline = w.validate_direct(Moment(2)).vrps;
        let mut engine = ChurnEngine::new(17, ChurnConfig::renew_only(500));
        let mut touched = 0usize;
        for step in 0..8u64 {
            let report = w.run_churn(&mut engine, Moment(2 + step));
            touched += report.touched.len();
        }
        assert!(touched > 0, "per-mille 500 over 4 CAs × 8 steps must touch someone");
        // Renew-only churn re-signs objects without changing the VRP
        // population the model's assertions are built on.
        assert_eq!(w.validate_direct(Moment(10)).vrps, baseline);
    }

    #[test]
    fn engine_churn_tracks_the_synthetic_population() {
        use rpki_ca::ChurnConfig;
        let mut w = SyntheticRpki::build_seeded(11, 2, 3, 2);
        let mut engine = ChurnEngine::new(23, ChurnConfig::steady());
        for step in 0..12u64 {
            w.run_churn(&mut engine, Moment(2 + step * 60));
        }
        // `roa_count` follows adds/withdraws, so the validated VRP set
        // always matches it.
        let run = w.validate_cold(Moment(2 + 12 * 60));
        assert_eq!(run.vrps.len(), w.roa_count);
    }

    #[test]
    fn topology_routes_all_announcements() {
        use bgp_sim::{propagate, RpkiPolicy};
        let w = ModelRpki::build();
        let cache = w.validate_direct(Moment(2)).vrp_cache();
        let state = propagate(&w.topology, &w.announcements, RpkiPolicy::DropInvalid, &cache)
            .expect("model topology converges");
        for ann in &w.announcements {
            // The data plane delivers to whoever announced the longest
            // matching prefix for the probe address (e.g. probing the
            // first address of Continental's /20 lands at the customer
            // /22 — correct LPM behaviour, not a failure).
            let probe = ann.prefix.addr();
            let expected = w
                .announcements
                .iter()
                .filter(|a| a.prefix.contains(probe))
                .max_by_key(|a| a.prefix.len())
                .expect("the announcement itself matches")
                .origin;
            let out = state.forward(asn::RELYING_PARTY, probe);
            assert!(out.delivered_to(expected), "{} → {:?}", ann.prefix, out);
        }
    }
}
