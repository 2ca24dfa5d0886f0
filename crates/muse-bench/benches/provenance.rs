//! Provenance overhead benchmarks: the threaded executor on the shared
//! relay stress workload with provenance tracing absent, compiled-in but
//! disabled (`provenance_sample = 0`), and sampled at 1-in-64. Run under
//! the relay's enlarged-chunk regime (`transport_stress::CHUNK_TICKS`,
//! `SLACK`), which keeps barrier rounds off the measured path. Match
//! counts are asserted equal across modes every iteration, so tracing
//! that perturbs matching fails the bench rather than skewing it.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use muse_bench::transport_stress::{
    stress_deployment, stress_network, stress_trace, CHUNK_TICKS, SLACK,
};
use muse_runtime::telemetry::TelemetrySpec;
use muse_runtime::threaded::{run_threaded, ThreadedConfig};
use std::hint::black_box;

fn provenance_overhead(c: &mut Criterion) {
    let network = stress_network();
    let deployment = stress_deployment(&network);
    let events = stress_trace(&network, 40.0, 42);
    let expected: usize = {
        let config = config_for(None);
        run_threaded(&deployment, &events, &config)
            .matches
            .iter()
            .map(Vec::len)
            .sum()
    };

    let mut group = c.benchmark_group("provenance");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(10));
    group.throughput(Throughput::Elements(events.len() as u64));
    for (name, spec) in [
        ("provenance_off", None),
        (
            "provenance_disabled",
            Some(TelemetrySpec::provenance_only(0)),
        ),
        (
            "provenance_sampled",
            Some(TelemetrySpec::provenance_only(64)),
        ),
    ] {
        let config = config_for(spec);
        group.bench_function(name, |b| {
            b.iter(|| {
                let report = run_threaded(&deployment, black_box(&events), &config);
                let matches: usize = report.matches.iter().map(Vec::len).sum();
                assert_eq!(matches, expected, "{name} perturbed matching");
                black_box(matches)
            })
        });
    }
    group.finish();
}

fn config_for(telemetry: Option<TelemetrySpec>) -> ThreadedConfig {
    ThreadedConfig {
        telemetry,
        slack: SLACK,
        chunk_ticks: Some(CHUNK_TICKS),
        ..ThreadedConfig::default()
    }
}

criterion_group!(benches, provenance_overhead);
criterion_main!(benches);
