//! E13 — heavy tails, the failure of insurance, and mode switching
//! (paper §3.4.6).

use rand::Rng;

use resilience_anticipate::{ModeSwitch, ModeSwitchConfig, OperatingMode};
use resilience_core::seeded_rng;
use resilience_stats::distributions::{Gaussian, Pareto, Sampler};
use resilience_stats::heavy_tail::{InsuranceExperiment, MeanStability};

use crate::table::ExperimentTable;
use resilience_core::RunContext;

/// Run E13.
pub fn run(ctx: &RunContext) -> ExperimentTable {
    let seed = ctx.seed;
    let mut rng = seeded_rng(seed.wrapping_add(13));
    let mut rows = Vec::new();

    // (a) Sample-mean stability: Gaussian vs Pareto tails.
    let gauss = Gaussian::new(10.0, 2.0).expect("valid");
    let g = MeanStability::measure(&gauss, 20_000, &mut rng);
    rows.push(vec![
        "losses ~ Gaussian(10, 2)".into(),
        format!("max late mean-jump {:.4}", g.max_late_jump),
        format!("max/mean {:.1}", g.max_to_mean),
        "mean usable for pricing".into(),
    ]);
    for &alpha in &[2.5, 1.5, 1.1] {
        let pareto = Pareto::new(1.0, alpha).expect("valid");
        let m = MeanStability::measure(&pareto, 20_000, &mut rng);
        rows.push(vec![
            format!("losses ~ Pareto(α={alpha})"),
            format!("max late mean-jump {:.4}", m.max_late_jump),
            format!("max/mean {:.1}", m.max_to_mean),
            if alpha <= 2.0 {
                "infinite variance".into()
            } else {
                "finite variance".into()
            },
        ]);
    }

    // (b) The insurance experiment (parallel: one derived stream per
    // insurer lifetime).
    let exp = InsuranceExperiment::conventional(200, 2_000);
    let g_ruin = exp
        .run_par(&gauss, 300, ctx.derive(1300), ctx)
        .ruin_probability();
    let p_ruin = exp
        .run_par(
            &Pareto::new(1.0, 1.3).expect("valid"),
            300,
            ctx.derive(1301),
            ctx,
        )
        .ruin_probability();
    rows.push(vec![
        "insurer vs Gaussian losses".into(),
        format!("ruin prob {g_ruin:.3}"),
        "-".into(),
        "premium = 1.2 × historical mean".into(),
    ]);
    rows.push(vec![
        "insurer vs Pareto(α=1.3) losses".into(),
        format!("ruin prob {p_ruin:.3}"),
        "-".into(),
        "same pricing rule".into(),
    ]);

    // (c) Mode switching under X-events with aftershock clustering
    // (parallel: one derived stream per wealth trajectory).
    let (never_ruin, never_wealth) = mode_switch_sim(None, 400, ctx.derive(1302), ctx);
    let switch = ModeSwitchConfig::two_state(8.0, 1.0);
    let (switch_ruin, switch_wealth) = mode_switch_sim(Some(&switch), 400, ctx.derive(1303), ctx);
    rows.push(vec![
        "never switch modes".into(),
        format!("ruin prob {never_ruin:.3}"),
        format!("mean final wealth {never_wealth:.0}"),
        "full exposure throughout".into(),
    ]);
    rows.push(vec![
        "switch to emergency mode".into(),
        format!("ruin prob {switch_ruin:.3}"),
        format!("mean final wealth {switch_wealth:.0}"),
        "hysteretic threshold policy".into(),
    ]);

    ExperimentTable {
        perf: None,
        id: "E13".into(),
        title: "Heavy tails, insurance failure, and mode switching".into(),
        claim: "§3.4.6 (Taleb/Takeuchi): power-law losses may lack a finite \
                mean/variance, so insurance priced on historical averages \
                fails; the remedy is switching the system into an emergency \
                mode when an extreme event hits"
            .into(),
        headers: vec![
            "scenario".into(),
            "instability / ruin".into(),
            "magnitude".into(),
            "note".into(),
        ],
        rows,
        finding: format!(
            "sample means destabilize as α falls (late jumps grow ~100×, one \
             event dominating history); the identically-priced insurer's ruin \
             probability jumps from {g_ruin:.3} (Gaussian) to {p_ruin:.3} \
             (Pareto α=1.3); hysteretic mode switching cuts ruin from \
             {never_ruin:.2} to {switch_ruin:.2} during aftershock-clustered \
             X-events"
        ),
    }
}

/// A wealth process facing clustered X-events. In Normal mode the system
/// earns 2.0/step with full loss exposure; in any other mode it runs the
/// emergency policy, earning 0.5/step with 25% exposure (hunkered down).
/// The switch, if any, observes each step's raw loss. X-events start
/// aftershock windows during which large losses cluster.
fn mode_switch_sim(
    switch: Option<&ModeSwitchConfig>,
    trials: usize,
    master_seed: u64,
    ctx: &RunContext,
) -> (f64, f64) {
    let pareto = Pareto::new(1.0, 1.3).expect("valid");
    let (ruins, wealth_sum) = ctx.run_trials(
        trials as u64,
        master_seed,
        |_, rng| {
            let mut wealth = 50.0;
            let mut switch = switch.map(|config| ModeSwitch::new(config.clone()));
            let mut aftershocks = 0usize;
            for step in 0..600 {
                // New X-event?
                if rng.gen_bool(0.01) {
                    aftershocks = 25;
                }
                let raw_loss = if aftershocks > 0 {
                    aftershocks -= 1;
                    4.0 * pareto.sample(rng)
                } else {
                    0.2 * pareto.sample(rng).min(5.0)
                };
                let mode = switch
                    .as_mut()
                    .map_or(OperatingMode::Normal, |s| s.observe(step, raw_loss, false));
                let (income, exposure) = match mode {
                    OperatingMode::Normal => (2.0, 1.0),
                    _ => (0.5, 0.25),
                };
                wealth += income - exposure * raw_loss;
                if wealth < 0.0 {
                    return None;
                }
            }
            Some(wealth)
        },
        (0usize, 0.0f64),
        |(ruins, sum), outcome| match outcome {
            None => (ruins + 1, sum),
            Some(w) => (ruins, sum + w),
        },
    );
    (
        ruins as f64 / trials as f64,
        wealth_sum / (trials - ruins).max(1) as f64,
    )
}

#[cfg(test)]
mod tests {
    use resilience_core::RunContext;
    #[test]
    fn switching_beats_never() {
        for seed in 0..=8 {
            let t = super::run(&RunContext::new(seed));
            let never: f64 = t.rows[6][1]
                .trim_start_matches("ruin prob ")
                .parse()
                .unwrap();
            let switch: f64 = t.rows[7][1]
                .trim_start_matches("ruin prob ")
                .parse()
                .unwrap();
            assert!(switch < never, "seed {seed}: {switch} vs {never}");
        }
    }

    #[test]
    fn insurance_gap() {
        let t = super::run(&RunContext::new(0));
        let g: f64 = t.rows[4][1]
            .trim_start_matches("ruin prob ")
            .parse()
            .unwrap();
        let p: f64 = t.rows[5][1]
            .trim_start_matches("ruin prob ")
            .parse()
            .unwrap();
        assert!(p > g + 0.2);
    }
}
