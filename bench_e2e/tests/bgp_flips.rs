//! Propagating only the prefixes whose verdict flipped gives those
//! prefixes the same best routes as a full propagation.

use std::collections::BTreeSet;

use bgp_sim::{propagate, Announcement, RpkiPolicy};
use netsim::Network;
use rpki_objects::Moment;
use rpki_repo::RepoRegistry;
use rpki_rp::{DirectSource, Route, ValidationConfig, Validator, VrpCache};
use topogen::{Config, OrgKind, ParentRef, SyntheticInternet};

#[test]
fn flipped_prefix_propagation_equals_full_propagation() {
    let mut world = SyntheticInternet::generate(Config::small(3));
    let mut net = Network::new(3);
    let mut repos = RepoRegistry::new();
    let tal = world.materialize(&mut net, &mut repos, Moment(10));
    let vrps = Validator::new(ValidationConfig::at(Moment(20)))
        .run(&mut DirectSource::new(&repos), std::slice::from_ref(&tal))
        .vrps;
    let full = VrpCache::from_vrps(vrps.iter().copied());

    // Withdraw every VRP of a handful of covered stubs, as the whack
    // workload does.
    let victims: BTreeSet<_> = world
        .orgs
        .iter()
        .filter(|o| o.kind == OrgKind::Stub && matches!(o.parent, ParentRef::Org(_)))
        .map(|o| o.asn)
        .take(6)
        .collect();
    let whacked = VrpCache::from_vrps(vrps.iter().copied().filter(|v| !victims.contains(&v.asn)));

    for policy in [RpkiPolicy::DropInvalid, RpkiPolicy::DeprefInvalid] {
        // Both directions: withdrawal (full -> whacked) and restore.
        for (before, after) in [(&full, &whacked), (&whacked, &full)] {
            let flipped: BTreeSet<_> = world
                .announcements
                .iter()
                .filter(|a| {
                    let route = Route::new(a.prefix, a.origin);
                    before.classify(route) != after.classify(route)
                })
                .map(|a| a.prefix)
                .collect();
            assert!(flipped.len() >= 4, "only {} flips", flipped.len());
            let subset: Vec<Announcement> = world
                .announcements
                .iter()
                .filter(|a| flipped.contains(&a.prefix))
                .copied()
                .collect();
            let all = propagate(&world.topology, &world.announcements, policy, after)
                .expect("full propagation converges");
            let part = propagate(&world.topology, &subset, policy, after)
                .expect("flipped-prefix propagation converges");
            for asn in world.topology.ases() {
                for &prefix in &flipped {
                    assert_eq!(
                        all.best_route(asn, prefix),
                        part.best_route(asn, prefix),
                        "{policy:?}: {asn} {prefix}"
                    );
                }
                let held = part.table(asn).filter(|r| !flipped.contains(&r.prefix)).count();
                assert_eq!(held, 0, "restricted state holds only flipped prefixes");
            }
        }
    }
}
