//! Integration: scripted scenarios drive the full shock → adapt → score
//! loop across environments, and the BoK catalogue stays in sync with the
//! crates that implement it.

use std::sync::Arc;

use systems_resilience::core::{seeded_rng, AllOnes, AtLeastOnes, Catalogue, ShockKind};
use systems_resilience::dcsp::repair::GreedyRepair;
use systems_resilience::dcsp::{DcspSystem, Scenario};

#[test]
fn disaster_timeline_scores_sensibly() {
    // A timeline inspired by the paper's §1: anticipated small shocks the
    // design absorbs, then an X-event outside the envelope, then recovery
    // under a *changed* environment (the "new configuration that is also
    // acceptable").
    let mut rng = seeded_rng(11_000);
    let mut sys = DcspSystem::fit_under(Arc::new(AllOnes::new(24)));
    let report = Scenario::new()
        .idle(5)
        // Routine faults, routinely absorbed.
        .shock(ShockKind::BitDamage { flips: 2 })
        .repair(24)
        .idle(5)
        // The X-event: massive damage AND the environment relaxes to a
        // survivable-but-different constraint (post-disaster normal).
        .shock(ShockKind::BitDamage { flips: 12 })
        .shift_environment(Arc::new(AtLeastOnes::new(24, 20)))
        .repair(24)
        .idle(5)
        .run(&mut sys, &GreedyRepair::new(), &mut rng);

    assert!(report.ended_fit, "generalized recovery must succeed");
    assert_eq!(report.shocks, 2);
    // Under the relaxed constraint only 20 of 24 bits are needed: the
    // X-event (12 damaged) required ~8 repairs, plus 2 for the first shock.
    assert!(report.flips_spent >= 9 && report.flips_spent <= 15);
    assert!(report.total_loss > 0.0);
    let tri = report.first_triangle.expect("quality dipped");
    assert!(tri.recovered);
}

#[test]
fn tighter_budgets_leave_larger_triangles() {
    // The same disaster with ever-better repair budgets: Bruneau loss
    // must fall monotonically.
    let mut losses = Vec::new();
    for budget in [2usize, 6, 24] {
        let mut rng = seeded_rng(11_001);
        let mut sys = DcspSystem::fit_under(Arc::new(AllOnes::new(24)));
        let report = Scenario::new()
            .shock(ShockKind::BitDamage { flips: 8 })
            .repair(budget)
            .idle(10)
            .run(&mut sys, &GreedyRepair::new(), &mut rng);
        losses.push(report.total_loss);
    }
    assert!(
        losses[0] > losses[1] && losses[1] > losses[2],
        "losses {losses:?}"
    );
}

#[test]
fn bok_catalogue_matches_workspace_structure() {
    // Every implementation pointer in the catalogue names a crate that
    // actually exists in this workspace.
    let crates = [
        "resilience-core",
        "resilience-dcsp",
        "resilience-ecology",
        "resilience-agents",
        "resilience-networks",
        "resilience-stats",
        "resilience-engineering",
        "resilience-anticipate",
    ];
    for entry in Catalogue::paper().entries() {
        assert!(
            crates.iter().any(|c| entry.implemented_by.starts_with(c)),
            "unknown crate in {entry:?}"
        );
    }
}
