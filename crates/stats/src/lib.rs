//! Heavy-tail statistics and early-warning trend tests for the Systems
//! Resilience project.
//!
//! Implements the quantitative machinery behind two of the paper's active-
//! resilience arguments:
//!
//! * **§3.4.6 (mode switching / Black Swan):** "common statistics based on
//!   Gaussian distribution … do not work for extreme events … a power-law
//!   distribution may not have a finite average value or a finite standard
//!   deviation. This means that we can not rely on insurance." The
//!   [`distributions`] and [`heavy_tail`] modules sample and diagnose such
//!   distributions; [`tail`] estimates tail exponents (Hill / MLE).
//! * **§3.4.1 (anticipation):** "for any dynamical systems there could be
//!   early-warning signals that indicate the system is near a tipping
//!   point" (Scheffer et al. 2009). The [`bistable`] module generates the
//!   canonical fold-bifurcation time series, and [`kendall_tau`] tests an
//!   indicator series for a monotone trend; the indicators themselves are
//!   computed online by `resilience-anticipate`'s detector.
//!
//! # Example
//!
//! ```
//! use resilience_stats::{Pareto, Sampler};
//! use resilience_core::seeded_rng;
//!
//! let mut rng = seeded_rng(1);
//! let pareto = Pareto::new(1.0, 1.5)?; // infinite variance
//! let xs: Vec<f64> = (0..1000).map(|_| pareto.sample(&mut rng)).collect();
//! assert!(xs.iter().all(|&x| x >= 1.0));
//! # Ok::<(), resilience_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bistable;
pub mod descriptive;
pub mod distributions;
pub mod heavy_tail;
pub mod tail;

pub use bistable::{BistableProcess, TippingRun};
pub use descriptive::{histogram, kendall_tau, log_histogram, quantile, Summary};
pub use distributions::{Gaussian, Lognormal, Pareto, Sampler};
pub use heavy_tail::{running_means, InsuranceExperiment, MeanStability};
pub use tail::{ccdf, fit_pareto_mle, hill_estimator};
