//! Integration: the network substrates really produce the heavy-tailed
//! statistics the stats crate is built to detect.

use systems_resilience::core::seeded_rng;
use systems_resilience::networks::graph::{barabasi_albert, erdos_renyi, CsrTopology};
use systems_resilience::networks::sandpile::{InterventionPolicy, Sandpile};
use systems_resilience::stats::descriptive::log_histogram;
use systems_resilience::stats::tail::{hill_estimator, loglog_slope};

#[test]
fn ba_degree_tail_index_is_heavy_er_is_not() {
    let mut rng = seeded_rng(3001);
    let ba = barabasi_albert(4_000, 2, &mut rng);
    let er = erdos_renyi(4_000, 4.0 / 4_000.0, &mut rng);
    let degrees =
        |g: &CsrTopology| -> Vec<f64> { (0..g.len()).map(|v| g.degree(v) as f64).collect() };
    let hill_ba = hill_estimator(&degrees(&ba), 400).expect("enough data");
    let hill_er = hill_estimator(&degrees(&er), 400).expect("enough data");
    // BA's theoretical degree exponent is 3 (Hill on P(K>k) ≈ 2);
    // anything ≲ 4 reads as heavy. ER's Poisson tail reads much thinner.
    assert!(hill_ba < 4.0, "BA hill {hill_ba}");
    assert!(hill_er > 1.5 * hill_ba, "ER {hill_er} vs BA {hill_ba}");
}

#[test]
fn sandpile_avalanches_read_as_power_law_to_the_estimators() {
    let mut rng = seeded_rng(3002);
    let mut pile = Sandpile::new(36, 36);
    pile.warm_up(60_000, &mut rng);
    let report = pile.run(25_000, InterventionPolicy::None, &mut rng);
    let sizes: Vec<f64> = report
        .avalanche_sizes
        .iter()
        .filter(|&&s| s > 0)
        .map(|&s| s as f64)
        .collect();
    assert!(sizes.len() > 5_000);
    // Log-log CCDF slope is shallow (power-law-like).
    let slope = loglog_slope(&sizes, 0.2).expect("fit succeeds");
    assert!((-2.5..-0.3).contains(&slope), "slope {slope}");
    // Log-binned histogram spans ≥ 2 decades with mass in the tail bins.
    let (centers, counts) = log_histogram(&sizes, 10);
    assert!(centers.last().unwrap() / centers[0] > 50.0);
    let tail_mass: usize = counts[counts.len() / 2..].iter().sum();
    assert!(tail_mass > 0, "tail bins must be populated");
}

#[test]
fn intervention_shortens_the_measured_tail() {
    let mut rng = seeded_rng(3003);
    let mut base = Sandpile::new(30, 30);
    base.warm_up(50_000, &mut rng);
    let baseline = base.run(15_000, InterventionPolicy::None, &mut rng);

    let mut managed = Sandpile::new(30, 30);
    managed.warm_up(50_000, &mut rng);
    let relieved = managed.run(
        15_000,
        InterventionPolicy::TargetedRelief {
            period: 5,
            budget: 40,
        },
        &mut rng,
    );
    assert!(relieved.tail_fraction(100) < baseline.tail_fraction(100));
    assert!(relieved.max_avalanche() <= baseline.max_avalanche());
}
