//! Normal / Alert / Emergency operating modes driven by the warning
//! score (§3.4.6, "mode switching").
//!
//! The paper's example is an organization that runs one policy set in
//! normal operation and an explicitly different one in emergencies.
//! [`ModeSwitch`] is the three-state machine: hysteresis bands and a
//! dwell time — the same anti-flap discipline as the brownout dimmer —
//! over any score stream. [`AnticipationController`] makes it
//! executable for the serving layer: the online [`EarlyWarning`]
//! detector scores the live deficit stream, and the score drives the
//! switch. Each mode carries a [`ModePolicy`]: how far to
//! pre-dim the brownout floor, how much to widen breaker cooldowns, how
//! much to tighten admission deadlines, and which provisioning rule
//! (sample mean vs heavy-tail quantile) to trust.
//!
//! The transition log is bounded by
//! [`ModeSwitchConfig::transition_cap`] — the first `cap` transitions
//! are retained and later ones only counted — so a pathological run
//! cannot grow memory without bound, and the truncation point is a pure
//! function of the transition sequence (byte-identical across thread
//! budgets).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::detector::{EarlyWarning, EarlyWarningConfig, WarningSnapshot};
use crate::provision::ProvisioningPolicy;

/// The three operating modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum OperatingMode {
    /// Business as usual: reactive controllers only.
    Normal,
    /// Early-warning indicators are elevated: hedge cheaply.
    Alert,
    /// Collapse signature confirmed: pay for survival up front.
    Emergency,
}

impl fmt::Display for OperatingMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OperatingMode::Normal => write!(f, "normal"),
            OperatingMode::Alert => write!(f, "alert"),
            OperatingMode::Emergency => write!(f, "emergency"),
        }
    }
}

/// The policy set one mode runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModePolicy {
    /// Minimum brownout dimmer level while in this mode (0–2): the
    /// anticipatory pre-dim — the service starts shedding optional
    /// quality *before* the deficit arrives.
    pub brownout_floor: u8,
    /// Maximum brownout dimmer level while in this mode (0–2). The
    /// other half of the anticipatory trade: when the warning score
    /// says no collapse is coming, a calm mode caps the reactive
    /// dimmer so quality is not spent insuring against benign pressure
    /// (queues that are merely busy, not failing). The ceiling beats
    /// the floor when they conflict.
    pub brownout_ceiling: u8,
    /// Breaker cooldown multiplier in milli-units (1000 = unchanged).
    /// Emergencies widen cooldowns: a probing breaker re-closing onto a
    /// still-collapsing backend is how reactive systems flap.
    pub cooldown_scale_milli: u64,
    /// Admission deadline multiplier in milli-units (1000 = unchanged).
    /// Tightening (< 1000) sheds or degrades marginal requests at
    /// admission instead of letting them pile onto queues that the
    /// warning says are about to stop draining.
    pub deadline_scale_milli: u64,
    /// How this mode turns observed losses into a provisioning
    /// estimate (the pressure bias fed to the dimmer).
    pub provisioning: ProvisioningPolicy,
}

/// Hysteresis bands and dwell of the three-state machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModeSwitchConfig {
    /// Enter Alert at or above this score (or on a latched warning).
    pub alert_on: f64,
    /// Leave Alert for Normal at or below this score (with the warning
    /// latch off).
    pub alert_off: f64,
    /// Enter Emergency at or above this score.
    pub emergency_on: f64,
    /// Leave Emergency for Alert at or below this score.
    pub emergency_off: f64,
    /// Minimum ticks between mode changes.
    pub dwell: u64,
    /// Retained transition-log length: the first `transition_cap`
    /// transitions are kept, later ones are only counted (see
    /// [`ModeSwitch::truncated_transitions`]). Bounds
    /// memory on arbitrarily long traces while keeping the log a pure
    /// function of the transition sequence.
    pub transition_cap: usize,
}

impl Default for ModeSwitchConfig {
    fn default() -> Self {
        ModeSwitchConfig {
            alert_on: 0.35,
            alert_off: 0.15,
            emergency_on: 0.85,
            emergency_off: 0.50,
            dwell: 8,
            transition_cap: 4096,
        }
    }
}

impl ModeSwitchConfig {
    /// A switch that only moves between Normal and Alert: Alert at or
    /// above `on`, back to Normal at or below `off`, no dwell, and
    /// Emergency never entered — for callers whose emergency posture is
    /// "any mode but Normal".
    ///
    /// # Panics
    ///
    /// Panics if the bands fail [`ModeSwitchConfig::validate`]: either
    /// is non-finite, or `off > on`.
    pub fn two_state(on: f64, off: f64) -> Self {
        let config = ModeSwitchConfig {
            alert_on: on,
            alert_off: off,
            emergency_on: f64::INFINITY,
            dwell: 0,
            ..ModeSwitchConfig::default()
        };
        if let Err(e) = config.validate() {
            panic!("two_state: {e}");
        }
        config
    }

    /// Check the hysteresis bands: every band finite, except that
    /// `emergency_on` may be `+∞` (Emergency is never entered); each
    /// release band at or below its entry band; and Alert entered at or
    /// below the Emergency entry. A release band above its entry band
    /// flaps on every tick, and a NaN entry band never fires, so
    /// [`ModeSwitch`] would run either silently wrong. Checked once when
    /// a serving engine is built, never per tick.
    ///
    /// # Errors
    ///
    /// The first violated rule, as a [`ModeBandError`].
    pub fn validate(&self) -> Result<(), ModeBandError> {
        let finite = [
            ("alert_on", self.alert_on),
            ("alert_off", self.alert_off),
            ("emergency_off", self.emergency_off),
        ];
        for (band, value) in finite {
            if !value.is_finite() {
                return Err(ModeBandError::NonFinite { band, value });
            }
        }
        if self.emergency_on.is_nan() || self.emergency_on == f64::NEG_INFINITY {
            return Err(ModeBandError::NonFinite {
                band: "emergency_on",
                value: self.emergency_on,
            });
        }
        let bands = [
            (OperatingMode::Alert, self.alert_on, self.alert_off),
            (
                OperatingMode::Emergency,
                self.emergency_on,
                self.emergency_off,
            ),
        ];
        for (mode, on, off) in bands {
            if off > on {
                return Err(ModeBandError::ReleaseAboveEntry { mode, on, off });
            }
        }
        if self.alert_on > self.emergency_on {
            return Err(ModeBandError::AlertAboveEmergency {
                alert_on: self.alert_on,
                emergency_on: self.emergency_on,
            });
        }
        Ok(())
    }
}

/// Why [`ModeSwitchConfig::validate`] rejected a set of bands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModeBandError {
    /// A band is NaN or infinite (`emergency_on` may be `+∞`).
    NonFinite {
        /// The field name.
        band: &'static str,
        /// Its value.
        value: f64,
    },
    /// A release band sits above its entry band.
    ReleaseAboveEntry {
        /// The mode the bands enter and release.
        mode: OperatingMode,
        /// Entry band.
        on: f64,
        /// Release band.
        off: f64,
    },
    /// Alert is entered above the Emergency entry.
    AlertAboveEmergency {
        /// Alert entry band.
        alert_on: f64,
        /// Emergency entry band.
        emergency_on: f64,
    },
}

impl fmt::Display for ModeBandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModeBandError::NonFinite { band, value } => {
                write!(f, "mode band `{band}` must be finite, got {value}")
            }
            ModeBandError::ReleaseAboveEntry { mode, on, off } => write!(
                f,
                "{mode} bands need off <= on, got off {off} above on {on}"
            ),
            ModeBandError::AlertAboveEmergency {
                alert_on,
                emergency_on,
            } => write!(
                f,
                "alert_on {alert_on} must not exceed emergency_on {emergency_on}"
            ),
        }
    }
}

impl std::error::Error for ModeBandError {}

/// One recorded mode change.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModeTransition {
    /// Logical tick of the change.
    pub tick: u64,
    /// Mode left.
    pub from: OperatingMode,
    /// Mode entered.
    pub to: OperatingMode,
    /// Warning score at the change, in milli-units (deterministic
    /// integer encoding for logs and telemetry).
    pub score_milli: u64,
}

impl ModeTransition {
    /// True for a transition *into* Emergency — the snapshot hook the
    /// incident flight recorder triggers on.
    pub fn is_escalation(&self) -> bool {
        self.to == OperatingMode::Emergency && self.from != OperatingMode::Emergency
    }
}

/// Complete tuning of the anticipation loop: detector, switch bands,
/// and the per-mode policy sets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnticipationConfig {
    /// Early-warning detector tuning.
    pub detector: EarlyWarningConfig,
    /// Mode-switch hysteresis and dwell.
    pub switch: ModeSwitchConfig,
    /// Policy set for Normal.
    pub normal: ModePolicy,
    /// Policy set for Alert.
    pub alert: ModePolicy,
    /// Policy set for Emergency.
    pub emergency: ModePolicy,
    /// Retained loss-window length for the provisioning estimator.
    pub loss_window: usize,
    /// Tail quantile used by quantile provisioning, in milli-units
    /// (950 = p95).
    pub quantile_milli: u64,
    /// Hill tail exponent below which the loss distribution is treated
    /// as heavy-tailed (α < 2 has infinite variance; the default hedges
    /// a little above that).
    pub heavy_tail_alpha: f64,
}

impl Default for AnticipationConfig {
    fn default() -> Self {
        AnticipationConfig {
            detector: EarlyWarningConfig::default(),
            switch: ModeSwitchConfig::default(),
            normal: ModePolicy {
                brownout_floor: 0,
                brownout_ceiling: 0,
                cooldown_scale_milli: 1000,
                deadline_scale_milli: 1000,
                provisioning: ProvisioningPolicy::SampleMean,
            },
            alert: ModePolicy {
                brownout_floor: 0,
                brownout_ceiling: 2,
                cooldown_scale_milli: 1500,
                deadline_scale_milli: 1000,
                provisioning: ProvisioningPolicy::Auto,
            },
            emergency: ModePolicy {
                brownout_floor: 2,
                brownout_ceiling: 2,
                cooldown_scale_milli: 2000,
                deadline_scale_milli: 900,
                provisioning: ProvisioningPolicy::TailQuantile,
            },
            loss_window: 256,
            quantile_milli: 950,
            heavy_tail_alpha: 2.5,
        }
    }
}

impl AnticipationConfig {
    /// The policy set `mode` runs.
    pub fn policy(&self, mode: OperatingMode) -> &ModePolicy {
        match mode {
            OperatingMode::Normal => &self.normal,
            OperatingMode::Alert => &self.alert,
            OperatingMode::Emergency => &self.emergency,
        }
    }
}

/// The Normal / Alert / Emergency state machine on its own: hysteresis
/// bands, dwell, bounded transition log and per-mode tick counters.
/// Driven by any score stream — the warning score inside
/// [`AnticipationController`], or a raw damage or trend signal in the
/// experiments. A pure function of the `(tick, score, latched)`
/// sequence fed to [`observe`](Self::observe).
#[derive(Debug, Clone)]
pub struct ModeSwitch {
    config: ModeSwitchConfig,
    mode: OperatingMode,
    last_change: u64,
    changed: bool,
    transitions: Vec<ModeTransition>,
    truncated: u64,
    alert_ticks: u64,
    emergency_ticks: u64,
}

impl ModeSwitch {
    /// A switch starting in Normal.
    pub fn new(config: ModeSwitchConfig) -> Self {
        ModeSwitch {
            config,
            mode: OperatingMode::Normal,
            last_change: 0,
            changed: false,
            transitions: Vec::new(),
            truncated: 0,
            alert_ticks: 0,
            emergency_ticks: 0,
        }
    }

    /// Current operating mode.
    pub fn mode(&self) -> OperatingMode {
        self.mode
    }

    /// Retained mode transitions, in tick order (at most
    /// [`ModeSwitchConfig::transition_cap`]).
    pub fn transitions(&self) -> &[ModeTransition] {
        &self.transitions
    }

    /// Transitions beyond the cap that were counted but not retained.
    pub fn truncated_transitions(&self) -> u64 {
        self.truncated
    }

    /// Ticks spent in Alert so far.
    pub fn alert_ticks(&self) -> u64 {
        self.alert_ticks
    }

    /// Ticks spent in Emergency so far.
    pub fn emergency_ticks(&self) -> u64 {
        self.emergency_ticks
    }

    /// Feed one tick's score and warning-latch state; returns the mode
    /// in force after the update. Mode moves one step per tick at most
    /// and honors the dwell. A latched warning holds Alert even when the
    /// score alone would release it.
    pub fn observe(&mut self, tick: u64, score: f64, latched: bool) -> OperatingMode {
        let sw = &self.config;
        let dwelled = !self.changed || tick.saturating_sub(self.last_change) >= sw.dwell;
        let target = if dwelled {
            match self.mode {
                OperatingMode::Normal => {
                    if score >= sw.alert_on || latched {
                        Some(OperatingMode::Alert)
                    } else {
                        None
                    }
                }
                OperatingMode::Alert => {
                    if score >= sw.emergency_on {
                        Some(OperatingMode::Emergency)
                    } else if score <= sw.alert_off && !latched {
                        Some(OperatingMode::Normal)
                    } else {
                        None
                    }
                }
                OperatingMode::Emergency => {
                    if score <= sw.emergency_off {
                        Some(OperatingMode::Alert)
                    } else {
                        None
                    }
                }
            }
        } else {
            None
        };
        if let Some(to) = target {
            let from = self.mode;
            self.mode = to;
            self.last_change = tick;
            self.changed = true;
            if self.transitions.len() < sw.transition_cap {
                self.transitions.push(ModeTransition {
                    tick,
                    from,
                    to,
                    score_milli: score_milli(score),
                });
            } else {
                self.truncated += 1;
            }
        }
        match self.mode {
            OperatingMode::Normal => {}
            OperatingMode::Alert => self.alert_ticks += 1,
            OperatingMode::Emergency => self.emergency_ticks += 1,
        }
        self.mode
    }
}

/// The anticipation loop: the [`EarlyWarning`] detector feeding a
/// [`ModeSwitch`]. Pure function of the sample sequence fed to
/// [`observe`](Self::observe).
#[derive(Debug, Clone)]
pub struct AnticipationController {
    config: AnticipationConfig,
    detector: EarlyWarning,
    switch: ModeSwitch,
}

impl AnticipationController {
    /// A controller starting in Normal with a cold detector.
    pub fn new(config: AnticipationConfig) -> Self {
        let detector = EarlyWarning::new(config.detector.clone());
        let switch = ModeSwitch::new(config.switch.clone());
        AnticipationController {
            config,
            detector,
            switch,
        }
    }

    /// The controller's tuning.
    pub fn config(&self) -> &AnticipationConfig {
        &self.config
    }

    /// Current operating mode.
    pub fn mode(&self) -> OperatingMode {
        self.switch.mode()
    }

    /// The policy set of the current mode.
    pub fn policy(&self) -> &ModePolicy {
        self.config.policy(self.switch.mode())
    }

    /// The detector's current readout.
    pub fn snapshot(&self) -> WarningSnapshot {
        self.detector.snapshot()
    }

    /// Current warning score in milli-units.
    pub fn score_milli(&self) -> u64 {
        score_milli(self.detector.score())
    }

    /// Retained mode transitions, in tick order (at most
    /// [`ModeSwitchConfig::transition_cap`]).
    pub fn transitions(&self) -> &[ModeTransition] {
        self.switch.transitions()
    }

    /// Retained transitions into Emergency, in tick order — each is an
    /// incident-flight-recorder trigger point.
    pub fn escalations(&self) -> impl Iterator<Item = &ModeTransition> {
        self.transitions().iter().filter(|t| t.is_escalation())
    }

    /// Transitions beyond the cap that were counted but not retained.
    pub fn truncated_transitions(&self) -> u64 {
        self.switch.truncated_transitions()
    }

    /// Ticks spent in Alert so far.
    pub fn alert_ticks(&self) -> u64 {
        self.switch.alert_ticks()
    }

    /// Ticks spent in Emergency so far.
    pub fn emergency_ticks(&self) -> u64 {
        self.switch.emergency_ticks()
    }

    /// Feed one tick's signal sample; returns the mode in force after
    /// the update. Mode moves one step per tick at most, honors the
    /// dwell, and requires a warm detector to escalate — a cold start
    /// can never jump straight to Emergency.
    pub fn observe(&mut self, tick: u64, sample: f64) -> OperatingMode {
        let snap = self.detector.observe(sample);
        self.switch.observe(tick, snap.score, snap.active)
    }
}

/// Deterministic milli-unit encoding of a `[0, 1]` score.
pub fn score_milli(score: f64) -> u64 {
    (score.clamp(0.0, 1.0) * 1000.0).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> AnticipationController {
        let mut config = AnticipationConfig::default();
        config.detector.window = 8;
        config.detector.confirm = 2;
        config.switch.dwell = 2;
        AnticipationController::new(config)
    }

    /// A smooth period-14 swing that saturates both indicators (large
    /// within-window variance, lag-1 autocorrelation near +0.9).
    fn stress(c: &mut AnticipationController, ticks: u64, start: u64) -> u64 {
        for t in 0..ticks {
            let phase = ((start + t) as f64 * 0.45).sin();
            c.observe(start + t, 0.5 + 0.5 * phase);
        }
        start + ticks
    }

    #[test]
    fn mode_switch_holds_through_the_hysteresis_band() {
        let mut s = ModeSwitch::new(ModeSwitchConfig::two_state(10.0, 3.0));
        assert_eq!(s.mode(), OperatingMode::Normal);
        assert_eq!(s.observe(0, 5.0, false), OperatingMode::Normal);
        assert_eq!(s.observe(1, 11.0, false), OperatingMode::Alert);
        // Score between the release and entry bands: stay in Alert.
        assert_eq!(s.observe(2, 5.0, false), OperatingMode::Alert);
        assert_eq!(s.observe(3, 2.0, false), OperatingMode::Normal);
        // A latched warning enters Alert and holds it below the release band.
        assert_eq!(s.observe(4, 0.0, true), OperatingMode::Alert);
        assert_eq!(s.observe(5, 0.0, true), OperatingMode::Alert);
        assert_eq!(s.observe(6, 0.0, false), OperatingMode::Normal);
    }

    #[test]
    #[should_panic(expected = "off <= on")]
    fn two_state_rejects_a_release_band_above_the_entry_band() {
        let _ = ModeSwitchConfig::two_state(3.0, 10.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn two_state_rejects_a_non_finite_band() {
        let _ = ModeSwitchConfig::two_state(f64::NAN, 1.0);
    }

    #[test]
    fn validate_rejects_a_flapping_release_band_and_a_nan_entry_band() {
        // The two reported cases: off above on flaps every tick, and a
        // NaN entry band never escalates.
        let flapping = ModeSwitchConfig {
            alert_on: 1.0,
            alert_off: 2.0,
            ..ModeSwitchConfig::default()
        };
        assert_eq!(
            flapping.validate(),
            Err(ModeBandError::ReleaseAboveEntry {
                mode: OperatingMode::Alert,
                on: 1.0,
                off: 2.0
            })
        );
        let nan = ModeSwitchConfig {
            alert_on: f64::NAN,
            ..ModeSwitchConfig::default()
        };
        assert!(matches!(
            nan.validate(),
            Err(ModeBandError::NonFinite { band: "alert_on", value }) if value.is_nan()
        ));
    }

    #[test]
    fn validate_checks_the_emergency_band_and_the_band_order() {
        assert_eq!(ModeSwitchConfig::default().validate(), Ok(()));
        assert_eq!(ModeSwitchConfig::two_state(8.0, 1.0).validate(), Ok(()));
        let inverted = ModeSwitchConfig {
            emergency_off: 0.9,
            ..ModeSwitchConfig::default()
        };
        assert!(matches!(
            inverted.validate(),
            Err(ModeBandError::ReleaseAboveEntry {
                mode: OperatingMode::Emergency,
                ..
            })
        ));
        let crossed = ModeSwitchConfig {
            alert_on: 0.9,
            ..ModeSwitchConfig::default()
        };
        assert!(matches!(
            crossed.validate(),
            Err(ModeBandError::AlertAboveEmergency { .. })
        ));
        let never_alert = ModeSwitchConfig {
            alert_on: f64::INFINITY,
            ..ModeSwitchConfig::default()
        };
        assert!(never_alert.validate().is_err());
    }

    #[test]
    fn mode_switch_records_transitions() {
        let mut s = ModeSwitch::new(ModeSwitchConfig::two_state(10.0, 3.0));
        for (tick, score) in [(1, 1.0), (2, 20.0), (3, 8.0), (4, 1.0)] {
            s.observe(tick, score, false);
        }
        let log: Vec<_> = s.transitions().iter().map(|t| (t.tick, t.to)).collect();
        assert_eq!(
            log,
            [(2, OperatingMode::Alert), (4, OperatingMode::Normal)],
            "hysteresis holds at tick 3"
        );
        assert_eq!(s.alert_ticks(), 2);
        assert_eq!(s.emergency_ticks(), 0);
    }

    #[test]
    fn mode_switch_hysteresis_prevents_flapping() {
        // Scores oscillating in the dead band (3..10) cause no switches
        // after the initial excursion.
        let mut s = ModeSwitch::new(ModeSwitchConfig::two_state(10.0, 3.0));
        s.observe(0, 20.0, false);
        for t in 1..=100 {
            s.observe(2 * t - 1, 5.0, false);
            s.observe(2 * t, 9.0, false);
        }
        assert_eq!(s.transitions().len(), 1);
        assert_eq!(s.mode(), OperatingMode::Alert);
    }

    #[test]
    fn perception_bias_over_and_under_reacts() {
        // §3.4.4: the switch sees `bias × damage`. Overestimation (bias 3)
        // enters the emergency posture on moderate damage a calibrated
        // lens ignores; complacency (bias 0.1) ignores a real threat a
        // calibrated lens acts on.
        let mode_after = |bias: f64, damage: f64| {
            let mut s = ModeSwitch::new(ModeSwitchConfig::two_state(10.0, 3.0));
            for t in 0..20 {
                s.observe(t, bias * damage, false);
            }
            s.mode()
        };
        assert_eq!(mode_after(1.0, 5.0), OperatingMode::Normal);
        assert_eq!(mode_after(3.0, 5.0), OperatingMode::Alert);
        assert_eq!(mode_after(1.0, 50.0), OperatingMode::Alert);
        assert_eq!(mode_after(0.1, 50.0), OperatingMode::Normal);
    }

    #[test]
    fn quiet_stream_stays_normal() {
        let mut c = controller();
        for t in 0..200 {
            c.observe(t, 0.0);
        }
        assert_eq!(c.mode(), OperatingMode::Normal);
        assert!(c.transitions().is_empty());
        assert_eq!(c.emergency_ticks(), 0);
    }

    #[test]
    fn escalation_is_stepwise_and_deescalation_returns_to_normal() {
        let mut c = controller();
        let next = stress(&mut c, 60, 0);
        assert_eq!(
            c.mode(),
            OperatingMode::Emergency,
            "score {}",
            c.snapshot().score
        );
        // Stepwise: every recorded transition moves one level.
        for t in c.transitions() {
            let (f, to) = (t.from as i32, t.to as i32);
            assert_eq!((to - f).abs(), 1, "no level skipping: {:?}", t);
        }
        for t in 0..300 {
            c.observe(next + t, 0.0);
        }
        assert_eq!(c.mode(), OperatingMode::Normal);
        assert!(c.emergency_ticks() > 0);
        assert!(c.alert_ticks() > 0);
    }

    #[test]
    fn dwell_blocks_rapid_mode_flapping() {
        let mut config = AnticipationConfig::default();
        config.detector.window = 8;
        config.detector.confirm = 1;
        config.switch.dwell = 50;
        let mut c = AnticipationController::new(config);
        stress(&mut c, 60, 0);
        assert!(
            c.transitions().len() <= 2,
            "dwell 50 over 60 ticks allows at most 2 changes, got {:?}",
            c.transitions()
        );
    }

    #[test]
    fn transition_log_is_capped_deterministically() {
        let mut config = AnticipationConfig::default();
        config.detector.window = 8;
        config.detector.confirm = 1;
        config.switch.dwell = 0;
        config.switch.transition_cap = 3;
        let mut c = AnticipationController::new(config);
        // Alternate stress and calm to generate many transitions.
        let mut t = 0;
        for _ in 0..12 {
            t = stress(&mut c, 40, t);
            for _ in 0..60 {
                c.observe(t, 0.0);
                t += 1;
            }
        }
        assert_eq!(c.transitions().len(), 3, "log capped at 3");
        assert!(c.truncated_transitions() > 0, "overflow counted");
    }

    #[test]
    fn cold_detector_cannot_escalate() {
        let mut c = controller();
        // Violent samples, but fewer than the window: score stays 0.
        for t in 0..7 {
            c.observe(t, if t % 2 == 0 { 1.0 } else { 0.0 });
        }
        assert_eq!(c.mode(), OperatingMode::Normal);
    }

    #[test]
    fn policies_expose_the_taleb_ladder() {
        let config = AnticipationConfig::default();
        assert_eq!(config.normal.provisioning, ProvisioningPolicy::SampleMean);
        assert_eq!(
            config.emergency.provisioning,
            ProvisioningPolicy::TailQuantile
        );
        assert!(config.emergency.cooldown_scale_milli > config.normal.cooldown_scale_milli);
        assert!(config.emergency.deadline_scale_milli < config.normal.deadline_scale_milli);
        assert!(config.emergency.brownout_floor > config.alert.brownout_floor);
    }
}
