//! Criterion bench: event-processing throughput of the profilers on a
//! pre-recorded trace (isolates analysis cost from guest interpretation).

use aprof_core::{NaiveProfiler, RmsProfiler, TrmsProfiler};
use aprof_trace::{NullTool, RecordingTool, Tool, Trace};
use aprof_workloads::{by_name, WorkloadParams};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn recorded_trace() -> Trace {
    let wl = by_name("350.md").unwrap();
    let mut machine = wl.build(&WorkloadParams::new(64, 4));
    let mut rec = RecordingTool::new();
    machine.run_with(&mut rec).expect("runs");
    let mut trace = Trace::new();
    for e in rec.trace() {
        trace.push(e.thread, e.event);
    }
    trace
}

fn bench_replay(c: &mut Criterion) {
    let trace = recorded_trace();
    let events = trace.len() as u64;
    let mut group = c.benchmark_group("replay");
    group.throughput(Throughput::Elements(events));
    group.bench_function(BenchmarkId::new("tool", "nulgrind"), |b| {
        b.iter(|| {
            // Deliver through `&mut dyn Tool`, as the VM does. With the
            // concrete type in view the empty callbacks inline away and the
            // replay loop is deleted; behind `black_box` each event costs
            // one real dispatch.
            let mut t = NullTool::new();
            let tool: &mut dyn Tool = std::hint::black_box(&mut t);
            trace.replay(tool);
        })
    });
    group.bench_function(BenchmarkId::new("tool", "aprof-rms"), |b| {
        b.iter(|| {
            let mut t = RmsProfiler::new();
            trace.replay(&mut t);
        })
    });
    group.bench_function(BenchmarkId::new("tool", "aprof-trms"), |b| {
        b.iter(|| {
            let mut t = TrmsProfiler::new();
            trace.replay(&mut t);
        })
    });
    group.bench_function(BenchmarkId::new("tool", "naive-oracle"), |b| {
        b.iter(|| {
            let mut t = NaiveProfiler::new();
            trace.replay(&mut t);
        })
    });
    group.finish();
}

fn bench_renumbering(c: &mut Criterion) {
    let trace = recorded_trace();
    let mut group = c.benchmark_group("renumbering");
    for (label, limit) in [("never", u32::MAX as u64), ("every-4k", 4096), ("every-512", 512)] {
        group.bench_function(BenchmarkId::new("limit", label), |b| {
            b.iter(|| {
                let mut t = TrmsProfiler::builder().counter_limit(limit).build();
                trace.replay(&mut t);
                t.renumberings()
            })
        });
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_replay, bench_renumbering
);
criterion_main!(benches);
