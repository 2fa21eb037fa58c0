//! Network and lattice substrates for the Systems Resilience project
//! (the paper's §4.5 and §5.1).
//!
//! * [`graph`] — the workspace's one graph type, [`CsrTopology`]
//!   (compressed-sparse-row adjacency, from hundreds to millions of
//!   nodes), with seeded Barabási–Albert (scale-free), Erdős–Rényi
//!   G(n, p), Watts–Strogatz (small-world) and planted-partition
//!   (modular) generators.
//! * [`percolation`] / [`attack`] — "network-based systems that possess the
//!   scale-free property are extremely robust against random failures …
//!   However, … a spreading virus deliberately designed to attack the hubs
//!   … such connectivity becomes a vulnerability" (Barabási, §5.1).
//!   Giant-component tracking under random vs. targeted node removal.
//! * [`cascade`] — Watts-style threshold cascades and SIR epidemics with
//!   hub-targeted vs. random immunization.
//! * [`sandpile`] — the Bak–Tang–Wiesenfeld sandpile: "many decentralized
//!   systems … naturally reach a critical state … a small disturbance …
//!   could cause cascading failures" (§4.5). Includes centrally-coordinated
//!   relief interventions (the "small destructions" the paper suggests).
//! * [`forest_fire`] — the Drossel–Schwabl forest-fire model with fire
//!   suppression: "it is a common wisdom not to extinguish small forest
//!   fires … otherwise … the risk of a large-scale forest fire would much
//!   increase" (§3.2.3).
//!
//! # Example
//!
//! ```
//! use resilience_networks::{attack_sweep, barabasi_albert, AttackStrategy};
//! use resilience_core::seeded_rng;
//!
//! let mut rng = seeded_rng(1);
//! let graph = barabasi_albert(500, 2, &mut rng);
//! let random = attack_sweep(&graph, AttackStrategy::Random, 250, &mut rng);
//! let targeted = attack_sweep(&graph, AttackStrategy::TargetedByDegree, 250, &mut rng);
//! // Hub attacks hurt a scale-free network far more than random failures.
//! assert!(targeted.robustness() < random.robustness());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod cascade;
pub mod forest_fire;
pub mod graph;
pub mod percolation;
pub mod sandpile;
pub mod union_find;

pub use attack::{attack_sweep, AttackCurve, AttackStrategy};
pub use cascade::{CascadeOutcome, SirOutcome, ThresholdCascade};
pub use forest_fire::{ForestFire, ForestPolicy, ForestReport};
pub use graph::{
    barabasi_albert, erdos_renyi, planted_partition, watts_strogatz, CsrTopology, TopologyKind,
};
pub use percolation::{giant_component_fraction, giant_component_size};
pub use sandpile::{InterventionPolicy, Sandpile, SandpileReport};
pub use union_find::UnionFind;
