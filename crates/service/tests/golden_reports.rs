//! Golden digests of every serving configuration's outputs.
//!
//! Each case serves a canned trace under a canned chaos plan with the
//! telemetry spine attached and pins the FNV-1a digest and byte length
//! of four outputs: the serialized `ServiceReport`, the Prometheus
//! exposition, the event-trace JSON, and the postmortem bundle rendered
//! after `FlightRecorder::finalize`. A refactor of the serving loop is
//! output-neutral exactly when this suite passes unchanged.
//!
//! To re-derive a digest after a deliberate output change, run
//! `cargo test -p resilience-service --test golden_reports -- --nocapture`
//! and read the `case …` lines.

use resilience_anticipate::AnticipationConfig;
use resilience_core::faults::{FaultConfig, FaultPlan};
use resilience_service::{
    ReplicationConfig, RequestTrace, ServiceConfig, ServiceEngine, TraceSpec,
};
use resilience_telemetry::{render_postmortem, Telemetry};

/// The BENCH_4 chaos plan (`serve --compare`).
const CHAOS: &str = "seed=11,panic=0.1,delay=0.05,poison=0.1,permanent=0.05";
/// The correlated-chaos plan of `serve --compare-redundancy`.
const REDUNDANCY_CHAOS: &str = "seed=11,panic=0.05,gray=0.1,correlated=0.25";
/// The 100%-gray hedge storm of `bench_smoke redundancy`.
const GRAY_STORM: &str = "seed=23,gray=1.0";

/// `(FNV-1a 64, byte length)` of one output.
type Digest = (u64, usize);

/// Digests of `[report JSON, Prometheus, trace JSON, postmortem]`.
type Digests = [Digest; 4];

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn digest(s: &str) -> Digest {
    (fnv1a(s.as_bytes()), s.len())
}

fn plan(spec: &str) -> FaultPlan {
    FaultConfig::parse(spec).expect("canned plan parses").plan
}

/// The BENCH_4 surge trace.
fn canned_trace() -> RequestTrace {
    RequestTrace::generate(&TraceSpec::new(600, 42))
}

/// The moderate-load trace shape of `serve --compare-redundancy`.
fn redundancy_trace() -> RequestTrace {
    RequestTrace::generate(&TraceSpec {
        base_rate: 0.8,
        surge_factor: 2.5,
        deadline: (30, 70),
        ..TraceSpec::new(600, 42)
    })
}

/// A replicated configuration at the `--compare-redundancy` capacity.
fn replicated(replicas: usize, classes: Vec<u32>) -> ServiceConfig {
    ServiceConfig {
        servers_per_family: 4,
        replication: Some(ReplicationConfig {
            replicas,
            diversity_classes: classes,
            ..ReplicationConfig::default()
        }),
        ..ServiceConfig::default()
    }
}

fn outputs(config: ServiceConfig, trace: &RequestTrace, plan: &FaultPlan) -> Digests {
    let mut tel = Telemetry::new(1.0);
    let report = ServiceEngine::new(config).serve_traced(trace, plan, &mut tel);
    let incidents = tel.incidents.finalize(&tel.causal, &report.warning_scores);
    [
        digest(&serde_json::to_string(&report).expect("service reports serialize")),
        digest(&tel.metrics.to_prometheus()),
        digest(&tel.tracer.to_json()),
        digest(&render_postmortem("serve", &incidents, &tel.causal)),
    ]
}

fn check(name: &str, got: Digests, want: Digests) {
    let literal: Vec<String> = got
        .iter()
        .map(|(h, len)| format!("(0x{h:016x}, {len})"))
        .collect();
    println!("case {name}: [{}]", literal.join(", "));
    const OUTPUTS: [&str; 4] = ["report", "prometheus", "trace", "postmortem"];
    for ((label, g), w) in OUTPUTS.iter().zip(got).zip(want) {
        assert_eq!(g, w, "{name}: {label} digest changed");
    }
}

#[test]
fn plain_degradation_on() {
    let got = outputs(ServiceConfig::default(), &canned_trace(), &plan(CHAOS));
    check(
        "plain_degradation_on",
        got,
        [
            (0xd835f60c4ca4aa28, 79730),
            (0xb3eea1d9f44e2917, 5412),
            (0x34a03d9eb8982663, 207484),
            (0x088ffe37b035b1e8, 381),
        ],
    );
}

#[test]
fn plain_degradation_off() {
    let config = ServiceConfig {
        degradation: false,
        ..ServiceConfig::default()
    };
    let got = outputs(config, &canned_trace(), &plan(CHAOS));
    check(
        "plain_degradation_off",
        got,
        [
            (0x90a96cfa781c5b07, 69944),
            (0xc698bf55aae9f484, 5437),
            (0x53bc4ac7ecfbf36f, 200537),
            (0xe0a6197e612f225a, 392),
        ],
    );
}

#[test]
fn anticipatory() {
    let config = ServiceConfig {
        anticipation: Some(AnticipationConfig::default()),
        ..ServiceConfig::default()
    };
    let got = outputs(config, &canned_trace(), &plan(CHAOS));
    check(
        "anticipatory",
        got,
        [
            (0x2caf2386fe10b99e, 80754),
            (0x5cf9b02191717b6a, 6618),
            (0xcad3c28ea8765be2, 230721),
            (0xe2f646ec0afced63, 381),
        ],
    );
}

#[test]
fn replicated_n1() {
    let config = ServiceConfig {
        replication: Some(ReplicationConfig {
            replicas: 1,
            ..ReplicationConfig::default()
        }),
        ..ServiceConfig::default()
    };
    let got = outputs(config, &canned_trace(), &plan(CHAOS));
    check(
        "replicated_n1",
        got,
        [
            (0x5bd6e612af61b787, 106517),
            (0x47e3ea0104c789f3, 6844),
            (0x31111557ebd40a80, 254502),
            (0xc2300003370bd302, 381),
        ],
    );
}

#[test]
fn replicated_n2_diverse() {
    let got = outputs(
        replicated(2, vec![]),
        &redundancy_trace(),
        &plan(REDUNDANCY_CHAOS),
    );
    check(
        "replicated_n2_diverse",
        got,
        [
            (0xb6f31076090096db, 110970),
            (0x72631acec26db707, 6848),
            (0xef49c7de770cede8, 289990),
            (0x5a7202765112fbef, 381),
        ],
    );
}

#[test]
fn replicated_n2_homogeneous() {
    let got = outputs(
        replicated(2, vec![0]),
        &redundancy_trace(),
        &plan(REDUNDANCY_CHAOS),
    );
    check(
        "replicated_n2_homogeneous",
        got,
        [
            (0x15da5149c0f31d29, 108368),
            (0xbebeb39bfa99382d, 6850),
            (0x16438d871a4df424, 277967),
            (0x030ec873a42f8076, 381),
        ],
    );
}

#[test]
fn replicated_n2_gray_storm() {
    let got = outputs(
        replicated(2, vec![]),
        &redundancy_trace(),
        &plan(GRAY_STORM),
    );
    check(
        "replicated_n2_gray_storm",
        got,
        [
            (0xf4b285689e7d5149, 109723),
            (0xf54a7ab6383b35aa, 6872),
            (0x426ae69d2f9f0b6d, 244072),
            (0x0264cb91528bbfb9, 384),
        ],
    );
}

/// The `bench_smoke obs` configuration: anticipation with the Emergency
/// band lowered so the canned workload escalates and trips the flight
/// recorder.
fn escalating() -> AnticipationConfig {
    let mut cfg = AnticipationConfig::default();
    cfg.switch.emergency_on = 0.40;
    cfg
}

#[test]
fn anticipatory_escalating() {
    let config = ServiceConfig {
        anticipation: Some(escalating()),
        ..ServiceConfig::default()
    };
    let got = outputs(config, &canned_trace(), &plan(CHAOS));
    check(
        "anticipatory_escalating",
        got,
        [
            (0x3532c11d38c49469, 80881),
            (0x49bbc492aa7b5a2c, 6622),
            (0xa379f3c9c71d8272, 231071),
            (0x4884349d2baebd13, 1225),
        ],
    );
}

#[test]
fn replicated_n2_starved_budget_degradation_off() {
    let mut config = replicated(2, vec![]);
    config.degradation = false;
    if let Some(rcfg) = config.replication.as_mut() {
        rcfg.budget_capacity = 1;
        rcfg.budget_refill_milli = 0;
    }
    let got = outputs(
        config,
        &redundancy_trace(),
        &plan("seed=11,panic=0.05,gray=0.3,correlated=0.25"),
    );
    check(
        "replicated_n2_starved_budget_degradation_off",
        got,
        [
            (0x2bd137602d3212e1, 104806),
            (0x35acb3b06cbc019c, 6859),
            (0xc61d26a9955f5207, 293570),
            (0x9bc27b5f792f2450, 389),
        ],
    );
}

#[test]
fn anticipatory_replicated_n2() {
    let config = ServiceConfig {
        anticipation: Some(escalating()),
        ..replicated(2, vec![])
    };
    let got = outputs(config, &redundancy_trace(), &plan(REDUNDANCY_CHAOS));
    check(
        "anticipatory_replicated_n2",
        got,
        [
            (0x741272fb90add3a2, 116228),
            (0xbf01e5455c5bb3e2, 8086),
            (0xcff042caa08198af, 341849),
            (0xc0cfd134eea69cb1, 4062),
        ],
    );
}
