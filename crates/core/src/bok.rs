//! The Resilience Body of Knowledge (the paper's §2).
//!
//! "Our goal is to investigate these common strategies and organize them
//! into an organized body of knowledge (BoK). This 'Resilience BoK' will
//! guide us when we design and operate a system … the BoK will catalogue
//! various resilience strategies and describe when and how these
//! strategies should be applied."
//!
//! [`Catalogue`] is that queryable catalogue: each [`BokEntry`] records a
//! strategy, the domain it was observed in, the paper's case study, and a
//! pointer to the module of this workspace that makes it executable.
//! [`Catalogue::paper`] ships with every case study the paper cites.

use serde::{Deserialize, Serialize};

use crate::strategy::{ActiveStrategy, Strategy};

/// The domain a case study comes from, following the paper's own
/// categorization (each strategy section has Biological / Engineering /
/// Management subsections; active resilience adds Social).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Domain {
    /// Organisms, genomes, ecosystems.
    Biological,
    /// Built technical systems.
    Engineering,
    /// Firms, markets, portfolios, forests-as-managed-assets.
    Management,
    /// Societies, law, emergency response.
    Social,
}

/// One catalogued observation of a resilience strategy.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BokEntry {
    /// The strategy at work.
    pub strategy: Strategy,
    /// Where it was observed.
    pub domain: Domain,
    /// The paper's case study, briefly.
    pub case: &'static str,
    /// Paper section.
    pub section: &'static str,
    /// The workspace module that implements the mechanism.
    pub implemented_by: &'static str,
}

/// A queryable catalogue of resilience knowledge.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct Catalogue {
    entries: Vec<BokEntry>,
}

impl Catalogue {
    /// An empty catalogue.
    pub fn new() -> Self {
        Catalogue::default()
    }

    /// The paper's full case-study catalogue.
    pub fn paper() -> Self {
        use ActiveStrategy::*;
        use Domain::*;
        use Strategy::*;
        let entries = vec![
            BokEntry {
                strategy: Redundancy,
                domain: Biological,
                case: "E. coli: ~4,000 of 4,300 genes redundant under knockout",
                section: "3.1.1",
                implemented_by: "resilience-ecology::genome",
            },
            BokEntry {
                strategy: Redundancy,
                domain: Biological,
                case: "Stickleback armor genotype dormant until predation returns",
                section: "3.1.1",
                implemented_by: "resilience-ecology::dormant",
            },
            BokEntry {
                strategy: Redundancy,
                domain: Engineering,
                case: "RAID storage survives disk failures",
                section: "3.1.2",
                implemented_by: "resilience-engineering::storage",
            },
            BokEntry {
                strategy: Redundancy,
                domain: Engineering,
                case: "Japan's grid reserve margin rides out a 33% generation loss",
                section: "3.1.2",
                implemented_by: "resilience-engineering::grid",
            },
            BokEntry {
                strategy: Redundancy,
                domain: Management,
                case: "Auto makers' monetary reserves bridge the 3.11 revenue outage",
                section: "3.1.3",
                implemented_by: "resilience-engineering::supply_chain",
            },
            BokEntry {
                strategy: Redundancy,
                domain: Management,
                case: "Interoperability lets one agency's network back up another's",
                section: "3.1.3",
                implemented_by: "resilience-engineering::interop",
            },
            BokEntry {
                strategy: Diversity,
                domain: Biological,
                case: "Diverse ecosystems survive mass extinctions",
                section: "3.2.1",
                implemented_by: "resilience-ecology::extinction",
            },
            BokEntry {
                strategy: Diversity,
                domain: Engineering,
                case: "Boeing 777's three independently designed flight computers",
                section: "3.2.2",
                implemented_by: "resilience-engineering::nversion",
            },
            BokEntry {
                strategy: Diversity,
                domain: Management,
                case: "Let small forest fires burn to keep tree ages diverse",
                section: "3.2.3",
                implemented_by: "resilience-networks::forest_fire",
            },
            BokEntry {
                strategy: Diversity,
                domain: Management,
                case: "Portfolio diversification trades return for catastrophe risk",
                section: "3.2.3",
                implemented_by: "resilience-engineering::portfolio",
            },
            BokEntry {
                strategy: Diversity,
                domain: Biological,
                case: "Diversity index + replicator dynamics + diminishing returns",
                section: "3.2.4",
                implemented_by: "resilience-ecology::{diversity, replicator, fitness}",
            },
            BokEntry {
                strategy: Adaptability,
                domain: Biological,
                case: "Evolution: mutation and selection track the environment",
                section: "3.3.1",
                implemented_by: "resilience-ecology::weak_selection",
            },
            BokEntry {
                strategy: Adaptability,
                domain: Engineering,
                case: "IBM autonomic computing: the MAPE cycle",
                section: "3.3.2",
                implemented_by: "resilience-engineering::mape",
            },
            BokEntry {
                strategy: Adaptability,
                domain: Social,
                case: "Co-regulation adapts faster than top-down legislation",
                section: "3.3.3",
                implemented_by: "resilience-engineering::regulation",
            },
            BokEntry {
                strategy: Active(Anticipation),
                domain: Social,
                case: "Early-warning signals near tipping points (Scheffer)",
                section: "3.4.1",
                implemented_by: "resilience-anticipate::detector",
            },
            BokEntry {
                strategy: Active(Modeling),
                domain: Social,
                case: "SPEEDI-style model-based prediction under uncertainty",
                section: "3.4.2",
                implemented_by: "resilience-dcsp::belief",
            },
            BokEntry {
                strategy: Active(EmergencyResponse),
                domain: Social,
                case: "ISO 22320: empower the first responders",
                section: "3.4.3",
                implemented_by: "resilience-engineering::response",
            },
            BokEntry {
                strategy: Active(ConsensusBuilding),
                domain: Social,
                case: "Miyagi vs Iwate: stakeholders choose different recoveries",
                section: "3.4.5",
                implemented_by: "resilience-core::strategy (taxonomy)",
            },
            BokEntry {
                strategy: Active(ModeSwitching),
                domain: Social,
                case: "Normal vs emergency policies for power-law X-events",
                section: "3.4.6",
                implemented_by: "resilience-anticipate::modes",
            },
        ];
        Catalogue { entries }
    }

    /// Add an entry.
    pub fn push(&mut self, entry: BokEntry) {
        self.entries.push(entry);
    }

    /// All entries.
    pub fn entries(&self) -> &[BokEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the catalogue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries using `strategy`.
    pub fn by_strategy(&self, strategy: Strategy) -> Vec<&BokEntry> {
        self.entries
            .iter()
            .filter(|e| e.strategy == strategy)
            .collect()
    }

    /// Entries observed in `domain`.
    pub fn by_domain(&self, domain: Domain) -> Vec<&BokEntry> {
        self.entries.iter().filter(|e| e.domain == domain).collect()
    }

    /// Entries whose strategy is active (human in the loop).
    pub fn active_entries(&self) -> Vec<&BokEntry> {
        self.entries
            .iter()
            .filter(|e| e.strategy.is_active())
            .collect()
    }
}

impl FromIterator<BokEntry> for Catalogue {
    fn from_iter<I: IntoIterator<Item = BokEntry>>(iter: I) -> Self {
        Catalogue {
            entries: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_catalogue_covers_every_passive_strategy_in_multiple_domains() {
        let bok = Catalogue::paper();
        assert!(bok.len() >= 15);
        for strategy in Strategy::PASSIVE {
            let entries = bok.by_strategy(strategy);
            assert!(
                entries.len() >= 2,
                "{strategy:?} needs multiple case studies"
            );
            // Cross-domain evidence is the paper's §2 working hypothesis.
            let domains: std::collections::HashSet<_> = entries.iter().map(|e| e.domain).collect();
            assert!(domains.len() >= 2, "{strategy:?} spans {domains:?}");
        }
    }

    #[test]
    fn every_active_dimension_is_catalogued() {
        use crate::strategy::ActiveStrategy::*;
        let bok = Catalogue::paper();
        for active in [
            Anticipation,
            Modeling,
            EmergencyResponse,
            ConsensusBuilding,
            ModeSwitching,
        ] {
            assert!(
                !bok.by_strategy(Strategy::Active(active)).is_empty(),
                "{active:?} missing"
            );
        }
        assert_eq!(bok.active_entries().len(), 5);
    }

    #[test]
    fn every_entry_names_an_implementation() {
        for entry in Catalogue::paper().entries() {
            assert!(entry.implemented_by.contains("resilience-"), "{entry:?}");
            assert!(entry.section.starts_with('3') || entry.section.starts_with('2'));
        }
    }

    #[test]
    fn filters_and_builders() {
        let mut bok = Catalogue::new();
        assert!(bok.is_empty());
        bok.push(BokEntry {
            strategy: Strategy::Redundancy,
            domain: Domain::Engineering,
            case: "test",
            section: "3.1.2",
            implemented_by: "resilience-test",
        });
        assert_eq!(bok.len(), 1);
        assert_eq!(bok.by_domain(Domain::Engineering).len(), 1);
        assert!(bok.by_domain(Domain::Biological).is_empty());
        let collected: Catalogue = bok.entries().to_vec().into_iter().collect();
        assert_eq!(collected.len(), 1);
    }
}
