//! Active resilience by anticipation (§3.4.1): early-warning signals
//! before a tipping point, plus the heavy-tail insurance failure and mode
//! switching (§3.4.6).
//!
//! ```bash
//! cargo run --release --example early_warning
//! ```

use systems_resilience::anticipate::{series_trends, EarlyWarningConfig};
use systems_resilience::core::seeded_rng;
use systems_resilience::stats::bistable::{BistableProcess, CRITICAL_FORCING};
use systems_resilience::stats::distributions::{Gaussian, Pareto};
use systems_resilience::stats::heavy_tail::InsuranceExperiment;

/// Kendall-τ trends of the online detector's variance and lag-1
/// autocorrelation over `samples` (1000-sample window, EMA detrend
/// equivalent to a 200-sample rolling mean, read every 50 samples).
fn trends(samples: &[f64]) -> (f64, f64) {
    let config = EarlyWarningConfig {
        window: 1_000,
        detrend_alpha: 2.0 / 201.0,
        ..EarlyWarningConfig::default()
    };
    series_trends(config, samples, 50)
}

fn main() {
    // Part 1: Scheffer's early-warning signals.
    let mut rng = seeded_rng(9);
    let process = BistableProcess {
        sigma: 0.04,
        ..BistableProcess::default()
    };
    println!("== approaching a fold bifurcation ==");
    let run = process.simulate_ramp(60_000, -0.25, CRITICAL_FORCING * 1.05, &mut rng);
    let tip = run.tipping_index.expect("ramp crosses the fold");
    let (var, ac) = trends(&run.series.values()[..tip]);
    println!("system tipped at step {tip}");
    println!("pre-tip indicator trends: variance τ = {var:.2}, lag-1 autocorrelation τ = {ac:.2}");
    println!("early warning raised: {}", var > 0.3 && ac > 0.3);

    let control = process.simulate_stationary(60_000, -0.25, &mut rng);
    let (var, ac) = trends(control.series.values());
    println!(
        "stationary control:      variance τ = {var:.2}, lag-1 autocorrelation τ = {ac:.2} \
         (warning: {})",
        var > 0.3 && ac > 0.3
    );

    // Part 2: why insurance fails for X-events.
    println!("\n== insuring Gaussian vs power-law losses (same pricing rule) ==");
    let exp = InsuranceExperiment::conventional(200, 2_000);
    let gauss = Gaussian::new(10.0, 2.0).expect("valid");
    let g = exp.run(&gauss, 300, &mut rng);
    println!(
        "Gaussian losses      : ruin probability {:.3}",
        g.ruin_probability()
    );
    for alpha in [2.5, 1.5, 1.2] {
        let pareto = Pareto::new(1.0, alpha).expect("valid");
        let p = exp.run(&pareto, 300, &mut rng);
        println!(
            "Pareto(α={alpha}) losses: ruin probability {:.3}{}",
            p.ruin_probability(),
            if alpha <= 2.0 {
                "  (infinite variance)"
            } else {
                ""
            }
        );
    }
    println!(
        "\nAs α falls the historical mean stops predicting the future and the \
         insurer is ruined:\nthe paper's argument for mode switching instead of \
         insurance against X-events."
    );
}
