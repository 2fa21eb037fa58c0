//! E19 (extension) — active resilience end-to-end: anticipation (§3.4.1)
//! driving mode switching (§3.4.6).
//!
//! A manager slowly pushes a bistable system toward its fold (think
//! nutrient loading on a lake, or leverage on a market) because higher
//! forcing pays. A *blind* manager keeps pushing and tips the system. An
//! *anticipatory* manager watches the early-warning signals and switches
//! to an emergency policy (back off the forcing) when the indicators
//! trend up — trading a little yield for avoiding the collapse.

use std::collections::VecDeque;

use resilience_anticipate::{
    indicator_trends, EarlyWarning, EarlyWarningConfig, ModeSwitch, ModeSwitchConfig, OperatingMode,
};
use resilience_stats::bistable::BistableProcess;

use crate::table::ExperimentTable;
use resilience_core::RunContext;

struct PolicyOutcome {
    tips: usize,
    mean_peak_forcing: f64,
    mean_switches: f64,
}

fn run_policy(
    anticipatory: bool,
    replicates: usize,
    master_seed: u64,
    ctx: &RunContext,
) -> PolicyOutcome {
    let process = BistableProcess {
        sigma: 0.04,
        ..BistableProcess::default()
    };
    let horizon = 50_000;
    let ramp = 1.5e-5;
    let relief = 5.0e-5;
    // A 2000-sample window detrended by the EMA equivalent of a
    // 100-sample rolling mean, read every 100 samples once warm; the
    // last 130 readings span the trailing ~15k samples (trends over the
    // whole history dilute the late acceleration).
    const WINDOW: usize = 2_000;
    const STRIDE: usize = 100;
    const KEPT: usize = 130;
    let detector_config = EarlyWarningConfig {
        window: WINDOW,
        detrend_alpha: 2.0 / (100.0 + 1.0),
        ..EarlyWarningConfig::default()
    };
    let switch_config = ModeSwitchConfig::two_state(0.5, 0.2);
    // Replicates are independent managed trajectories — run them on the
    // context's thread budget, one derived stream each.
    let (tips, peak_sum, switch_sum) = ctx.run_trials(
        replicates as u64,
        master_seed,
        |_, rng| {
            let mut x = process.x0;
            let mut forcing = -0.25;
            let mut peak: f64 = forcing;
            let mut detector = EarlyWarning::new(detector_config.clone());
            let mut snapshots = VecDeque::with_capacity(KEPT + 1);
            let mut switch = ModeSwitch::new(switch_config.clone());
            let mut tipped = false;
            for t in 0..horizon {
                // Managerial policy.
                match switch.mode() {
                    OperatingMode::Normal => forcing += ramp,
                    _ => forcing = (forcing - relief).max(-0.25),
                }
                x = process.step(x, forcing, rng);
                peak = peak.max(forcing);
                if x > 0.5 {
                    tipped = true;
                    break;
                }
                if !anticipatory {
                    continue;
                }
                // Anticipation: periodically read the recent trends.
                let snap = detector.observe(x);
                if detector.is_warm() && (t + 1 - WINDOW).is_multiple_of(STRIDE) {
                    snapshots.push_back(snap);
                    if snapshots.len() > KEPT {
                        snapshots.pop_front();
                    }
                }
                if t % 500 == 499 && t >= 6_000 {
                    let (variance, autocorr) = indicator_trends(snapshots.make_contiguous());
                    switch.observe(t as u64, variance.max(autocorr).max(0.0), false);
                }
            }
            (tipped, peak, switch.transitions().len() as f64)
        },
        (0usize, 0.0f64, 0.0f64),
        |(tips, peaks, switches), (tipped, peak, switch_count)| {
            (
                tips + usize::from(tipped),
                peaks + peak,
                switches + switch_count,
            )
        },
    );
    PolicyOutcome {
        tips,
        mean_peak_forcing: peak_sum / replicates as f64,
        mean_switches: switch_sum / replicates as f64,
    }
}

/// Run E19.
pub fn run(ctx: &RunContext) -> ExperimentTable {
    let replicates = 8;
    let blind = run_policy(false, replicates, ctx.derive(1900), ctx);
    let warned = run_policy(true, replicates, ctx.derive(1900), ctx);
    let rows = vec![
        vec![
            "blind (keep pushing)".into(),
            format!("{}/{replicates}", blind.tips),
            format!("{:.3}", blind.mean_peak_forcing),
            format!("{:.1}", blind.mean_switches),
        ],
        vec![
            "anticipatory (EWS → emergency mode)".into(),
            format!("{}/{replicates}", warned.tips),
            format!("{:.3}", warned.mean_peak_forcing),
            format!("{:.1}", warned.mean_switches),
        ],
    ];
    ExperimentTable {
        perf: None,
        id: "E19".into(),
        title: "Extension: anticipation driving mode switching".into(),
        claim: "§3.4.1 + §3.4.6: if early-warning signals can anticipate a \
                tipping point, the system can switch to an emergency policy \
                before the collapse instead of paying for it afterwards"
            .into(),
        headers: vec![
            "management policy".into(),
            "collapses".into(),
            "mean peak forcing sustained".into(),
            "mean mode switches".into(),
        ],
        rows,
        finding: format!(
            "the blind manager collapses the system in {}/{replicates} runs; \
             the anticipatory manager reads rising variance/autocorrelation \
             and backs off in time, collapsing in {}/{replicates} runs while \
             still sustaining forcing up to {:.2} (vs the critical 0.385) — \
             anticipation converts the early-warning literature into an \
             operational mode-switching trigger",
            blind.tips, warned.tips, warned.mean_peak_forcing
        ),
    }
}

#[cfg(test)]
mod tests {
    use resilience_core::RunContext;
    #[test]
    fn anticipation_prevents_most_collapses() {
        for seed in 0..=8 {
            let t = super::run(&RunContext::new(seed));
            let blind: usize = t.rows[0][1].split('/').next().unwrap().parse().unwrap();
            let warned: usize = t.rows[1][1].split('/').next().unwrap().parse().unwrap();
            assert!(warned < blind, "seed {seed}: {warned} vs {blind}");
        }
    }

    #[test]
    fn single_replicate_smoke() {
        let ctx = RunContext::new(7);
        let blind = super::run_policy(false, 1, ctx.derive(1900), &ctx);
        assert!(blind.mean_peak_forcing > -0.25);
    }
}
