//! The aprof-rs benchmark: one command that runs a workload against the
//! profiler and its daemon, prints every end-to-end and per-layer metric
//! with its unit, and checks every output against the one-shot replay
//! oracle.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ingest|query-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or with
//! `--trace 1` the per-layer ones). See `perfbench/README.md`.

mod check;
mod inputs;
mod profile;
mod serve;
mod spans;
mod stats;

use aprof_core::ProfileReport;
use aprof_serve::client;
use inputs::{record, Draw, Recorded};
use profile::{LayerCosts, ProfileRun};
use serve::{Daemon, OpLog, ServeRun, Stop, READ_TENANT};
use spans::{SpanId, Tracer};
use stats::{median, quartiles, MIN_BEYOND, TOP_PERCENTILE};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Share of `--seconds` the profile phase that opens every pass runs for.
const PROFILE_SHARE: f64 = 0.75;
/// Repetitions of each layer call timed in a traced run.
const LAYER_REPS: usize = 7;
/// Repetitions of each outside-the-daemon serve layer call.
const SERVE_REPS: usize = 5;
/// Pings sampled between the phases of a traced run.
const PINGS: usize = 10;
/// Share of the end-to-end wall clock the spans must cover.
const MIN_COVERAGE: f64 = 0.9;
/// Where runs keep their spool, socket, spans and counts.
const OUT_DIR: &str = "perfbench/out";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// Two closed-loop submitters of large traces.
    Ingest,
    /// One submitter of small traces beside one querier.
    QueryMix,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "ingest" => Some(Workload::Ingest),
            "query-mix" => Some(Workload::QueryMix),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::QueryMix => "query-mix",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// One named, measured value.
type Metric = (&'static str, &'static str, f64);

/// Everything one set-up builds: the draw, its recorded traces and a
/// daemon whose read tenant is already committed.
struct Setup {
    draw: Draw,
    large: Vec<Recorded>,
    small: Vec<Recorded>,
    daemon: Daemon,
    recover_s: f64,
}

fn set_up(seed: u64, dir: &Path, tracer: &Tracer, parent: SpanId) -> Result<Setup, String> {
    let draw = Draw::new(seed);
    let rec = |specs: &[inputs::Spec]| -> Result<Vec<Recorded>, String> {
        specs
            .iter()
            .map(|&s| tracer.span("inputs.record", parent, |p| record(s, tracer, p)))
            .collect()
    };
    let large = rec(&draw.large)?;
    let small = rec(&draw.small)?;
    let (daemon, recover_s) = Daemon::start(dir, &draw.read_tenant, &small, tracer, parent)?;
    Ok(Setup {
        draw,
        large,
        small,
        daemon,
        recover_s,
    })
}

/// `SETUPS` set-ups: the last one, which the run uses, and what they
/// measured.
struct SetUps {
    last: Setup,
    times: Vec<f64>,
    recovers: Vec<f64>,
    /// Set-ups that recorded different traces than the first.
    violations: Vec<String>,
}

fn set_up_repeatedly(
    args: &Args,
    dir: &Path,
    tracer: &Tracer,
    parent: SpanId,
) -> Result<SetUps, String> {
    let (mut times, mut recovers, mut violations) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<Vec<(u64, u64, Vec<u8>)>> = None;
    let mut last: Option<Setup> = None;
    for k in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        let s = tracer.span("setup.rep", parent, |p| {
            set_up(args.seed, &dir.join(format!("setup{k}")), tracer, p)
        })?;
        times.push(t.elapsed().as_secs_f64());
        recovers.push(s.recover_s);
        let prints: Vec<_> = s
            .large
            .iter()
            .chain(&s.small)
            .map(|r| (r.events, r.blocks, r.bytes.clone()))
            .collect();
        match &first {
            None => first = Some(prints),
            Some(f) if *f != prints => violations.push(format!(
                "set-up {k} recorded different traces than set-up 0"
            )),
            Some(_) => {}
        }
        last = Some(s);
    }
    Ok(SetUps {
        last: last.expect("SETUPS > 0"),
        times,
        recovers,
        violations,
    })
}

/// What one pass over the workload's phases measured.
struct Pass {
    profile: ProfileRun,
    ingest: Option<ServeRun>,
    query_mix: ServeRun,
    pings_ms: Vec<f64>,
}

impl Pass {
    /// The phase whose submits the workload reports.
    fn submit_run(&self) -> &ServeRun {
        self.ingest.as_ref().unwrap_or(&self.query_mix)
    }

    fn serve_logs(&self) -> impl Iterator<Item = &OpLog> {
        self.ingest
            .iter()
            .map(|r| &r.submits)
            .chain([&self.query_mix.submits, &self.query_mix.queries])
    }
}

/// One pass: profile passes, then the workload's timed phase for
/// `--seconds`, then for `ingest` a query-mix phase as long, so every
/// end-to-end metric is measured on every workload. A traced pass also samples pings
/// between phases. `tag` keeps each pass's write tenants apart.
fn run_pass(
    args: &Args,
    s: &Setup,
    tag: &str,
    tracer: &Tracer,
    parent: SpanId,
) -> Result<Pass, String> {
    let stop = |share: f64| Stop {
        deadline: Instant::now() + Duration::from_secs_f64(args.seconds * share),
        min_ops: min_requests(),
    };
    let mut pings_ms = Vec::new();
    let mut ping = || -> Result<(), String> {
        if tracer.enabled() {
            pings_ms.extend(tracer.span("phase.ping", parent, |p| {
                serve::pings(&s.daemon, PINGS, tracer, p)
            })?);
        }
        Ok(())
    };
    let profile = |stop: Stop| {
        tracer.span("phase.profile", parent, |p| {
            profile::phase(&s.large, stop.deadline, tracer, p)
        })
    };
    let ingest = |stop: Stop| {
        tracer.span("phase.ingest", parent, |p| {
            serve::ingest(
                &s.daemon,
                &s.large,
                &s.draw.ingest_order,
                tag,
                stop,
                tracer,
                p,
            )
        })
    };
    let query_mix = |stop: Stop| {
        tracer.span("phase.query-mix", parent, |p| {
            serve::query_mix(
                &s.daemon,
                &s.small,
                &s.draw.small_order,
                tag,
                stop,
                tracer,
                p,
            )
        })
    };
    // Profile passes come first: after an ingest phase the process holds
    // thousands of reports, and passes measured then run slower.
    ping()?;
    let profile = profile(stop(PROFILE_SHARE))?;
    ping()?;
    let ingest = (args.workload == Workload::Ingest)
        .then(|| ingest(stop(1.0)))
        .transpose()?;
    if ingest.is_some() {
        ping()?;
    }
    let query_mix = query_mix(stop(1.0))?;
    ping()?;
    Ok(Pass {
        profile,
        ingest,
        query_mix,
        pings_ms,
    })
}

/// Requests each serve phase makes at least per log: the fewest for which
/// p95 has at least 10 samples beyond it.
fn min_requests() -> usize {
    stats::min_samples(TOP_PERCENTILE, MIN_BEYOND)
}

/// The `q`-th percentile of a latency log: nearest rank over the whole
/// phase.
fn latency(log: &OpLog, q: f64) -> f64 {
    let mut v = log.latencies_ms.clone();
    v.sort_by(f64::total_cmp);
    stats::percentile(&v, q)
}

fn end_to_end(p: &Pass, setup_s: f64) -> Vec<Metric> {
    let submit = p.submit_run();
    vec![
        ("setup_s", "s", setup_s),
        ("peak_rss_mb", "MiB", submit.rss_mib),
        ("profile_events_per_s", "events/s", p.profile.run_rate()),
        ("record_events_per_s", "events/s", p.profile.record_rate()),
        ("submit_p50_ms", "ms", latency(&submit.submits, 50.0)),
        (
            "ingest_events_per_s",
            "events/s",
            submit.submits.acked_events as f64 / submit.wall_s,
        ),
        ("query_p50_ms", "ms", latency(&p.query_mix.queries, 50.0)),
    ]
}

/// The latency tails users see. They are printed beside the end-to-end
/// metrics but reported, without a bound, among the per-layer ones: on the
/// shared host the benchmark was sized on, neighbours' load moves them
/// further from run to run than any bound allows (see
/// `perfbench/README.md`).
fn tails(p: &Pass) -> Vec<Metric> {
    let submits = &p.submit_run().submits;
    vec![
        ("submit_p95_ms", "ms", latency(submits, TOP_PERCENTILE)),
        (
            "query_p95_ms",
            "ms",
            latency(&p.query_mix.queries, TOP_PERCENTILE),
        ),
    ]
}

/// The one-shot replay reports of a trace set.
fn replays(traces: &[Recorded]) -> Result<Vec<ProfileReport>, String> {
    traces
        .iter()
        .map(|r| check::replay(&r.bytes).map_err(|e| format!("{}: {e}", r.spec.label())))
        .collect()
}

/// The output-correctness gate for one pass. Returns the violations.
fn gate(
    s: &Setup,
    p: &Pass,
    large: &[ProfileReport],
    small: &[ProfileReport],
) -> Result<Vec<String>, String> {
    let mut bad = Vec::new();
    // The live trms profile equals the replay of the trace recorded beside
    // it, and the deterministic counts repeat in every pass.
    for (i, (live, bytes)) in p.profile.live.iter().enumerate() {
        let label = s.large[i].spec.label();
        let replayed = check::replay(bytes)
            .map_err(|e| format!("{label}: {e}"))?
            .to_canonical_text();
        bad.extend(
            check::same_profile(
                &format!("{label} live run vs its recorded trace"),
                live,
                &replayed,
            )
            .err(),
        );
        if *bytes != s.large[i].bytes {
            bad.push(format!(
                "{label}: the recorded trace differs from the set-up recording"
            ));
        }
        let counts = &p.profile.counts[i];
        if counts
            .iter()
            .any(|c| *c != counts[0] || c.0 != s.large[i].blocks)
        {
            bad.push(format!(
                "{label}: blocks, shadow bytes or wire bytes changed between passes: {counts:?}"
            ));
        }
    }
    // Every ack and every query answer was right.
    for log in p.serve_logs() {
        bad.extend(log.violations.iter().cloned());
    }
    // Every tenant's aggregate equals the merge of one-shot replays of its
    // streams in lexicographic stream-id order. The read tenant's answer is
    // the querier's first, which every later answer had to equal.
    let mut tenants = Vec::new();
    if let Some(run) = &p.ingest {
        tenants.extend(check::by_tenant(&run.submits.committed, large));
    }
    tenants.extend(check::by_tenant(&p.query_mix.submits.committed, small));
    tenants.push(check::Tenant {
        name: READ_TENANT.to_owned(),
        streams: s.draw.read_tenant.clone(),
        reports: small,
    });
    bad.extend(check::tenant_violations(&tenants, |tenant| {
        if tenant == READ_TENANT {
            p.query_mix
                .read_profile
                .clone()
                .ok_or_else(|| "never answered".to_owned())
        } else {
            client::fetch_profile(&s.daemon.target, tenant)
                .map_err(|e| format!("fetch_profile: {e}"))
        }
    }));
    Ok(bad)
}

/// `vm.blocks`, wire bytes and `shadow.bytes` must repeat exactly across
/// runs with the same seed. The first run of a build records them; later
/// runs of the same build compare.
fn cross_run_counts(seed: u64, s: &Setup, p: &Pass) -> Result<Option<String>, String> {
    let exe = std::env::current_exe()
        .and_then(fs::metadata)
        .map_err(|e| format!("current exe: {e}"))?;
    let mut text = format!("build {} {:?}\n", exe.len(), exe.modified().ok());
    for (r, c) in s.large.iter().zip(&p.profile.counts) {
        text += &format!(
            "{} blocks={} wire_bytes={} shadow_bytes={}\n",
            r.spec.label(),
            r.blocks,
            r.bytes.len(),
            c[0].1
        );
    }
    let path = Path::new(OUT_DIR).join(format!("counts-seed{seed}.txt"));
    if let Ok(prev) = fs::read_to_string(&path) {
        if prev.lines().next() == text.lines().next() {
            return Ok((prev != text).then(|| format!("deterministic counts differ from an earlier run with seed {seed}:\n{prev}vs\n{text}")));
        }
    }
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, &text)
        .and_then(|()| fs::rename(&tmp, &path))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(None)
}

/// Weighted median: each committed stream contributes its trace's cost.
fn per_stream_median(costs: &[f64], log: &OpLog) -> f64 {
    let v: Vec<f64> = log.committed.iter().map(|(_, _, i)| costs[*i]).collect();
    median(&v)
}

/// The per-layer metrics of a traced pass and the layer probes after it.
fn per_layer(
    p: &Pass,
    c: &LayerCosts,
    decode_analyze: &[f64],
    fsync: &[f64],
    merge_render: (f64, f64),
    recover_s: f64,
) -> Vec<Metric> {
    let ev = c.events as f64;
    let submit = p.submit_run();
    let connect = median(&p.pings_ms);
    let da = per_stream_median(decode_analyze, &submit.submits);
    let fs = per_stream_median(fsync, &submit.submits);
    let submit_p50 = latency(&submit.submits, 50.0);
    let logs: Vec<&OpLog> = p.serve_logs().collect();
    let attempted: usize = logs.iter().map(|l| l.latencies_ms.len()).sum();
    let failed: u64 = logs.iter().map(|l| l.failed).sum();
    vec![
        ("vm.native_ns_per_event", "ns/event", c.native_ns / ev),
        ("vm.blocks", "count", c.blocks as f64),
        (
            "trace.emit_ns_per_event",
            "ns/event",
            (c.null_ns - c.native_ns) / ev,
        ),
        (
            "core.rms_ns_per_event",
            "ns/event",
            (c.rms_ns - c.null_ns) / ev,
        ),
        (
            "core.trms_ns_per_event",
            "ns/event",
            (c.trms_ns - c.null_ns) / ev,
        ),
        (
            "core.trms_replay_ns_per_event",
            "ns/event",
            c.replay_ns / ev,
        ),
        ("shadow.bytes", "bytes", c.shadow_bytes as f64),
        (
            "shadow.space_factor",
            "ratio",
            c.shadow_bytes as f64 / c.resident_bytes as f64,
        ),
        (
            "wire.encode_ns_per_event",
            "ns/event",
            (c.record_ns - c.trms_ns) / ev,
        ),
        ("wire.decode_ns_per_event", "ns/event", c.decode_ns / ev),
        (
            "wire.bytes_per_event",
            "bytes/event",
            c.wire_bytes as f64 / ev,
        ),
        ("tools.nulgrind_slowdown", "ratio", c.null_ns / c.native_ns),
        ("tools.rms_slowdown", "ratio", c.rms_ns / c.native_ns),
        ("tools.trms_slowdown", "ratio", c.trms_ns / c.native_ns),
        ("serve.connect_ms", "ms", connect),
        ("serve.decode_analyze_ms", "ms", da),
        ("serve.fsync_ms", "ms", fs),
        (
            "serve.unattributed_ms",
            "ms",
            submit_p50 - (connect + da + fs),
        ),
        ("serve.merge_ms", "ms", merge_render.0),
        ("serve.render_ms", "ms", merge_render.1),
        ("serve.recover_s", "s", recover_s),
        ("serve.failed", "count", failed as f64),
        ("serve.attempted", "count", attempted as f64),
        (
            "serve.ack_ratio",
            "ratio",
            (attempted as f64 - failed as f64) / attempted as f64,
        ),
    ]
}

/// A finite JSON number with all its digits.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{}", f64::MAX)
    }
}

fn print_metrics(kind: &str, metrics: &[Metric]) {
    for (name, unit, value) in metrics {
        println!("{kind:<9} {name:<30} {value:>16.4} {unit}");
    }
}

fn print_latencies(what: &str, log: &OpLog) {
    let ok: Vec<f64> = log
        .latencies_ms
        .iter()
        .copied()
        .filter(|v| v.is_finite())
        .collect();
    if ok.len() >= 2 {
        let [q1, q2, q3] = quartiles(&ok);
        println!(
            "samples   {what:<30} n={} failed={} q1={q1:.3} median={q2:.3} q3={q3:.3} ms",
            log.latencies_ms.len(),
            log.failed
        );
    }
    for e in &log.errors {
        eprintln!("perfbench: {e}");
    }
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let tracer = Tracer::new(args.trace);
    let off = Tracer::new(false);
    let mut violations = Vec::new();

    let untraced_setups = set_up_repeatedly(args, &dir.join("u"), &off, None)?;
    violations.extend(untraced_setups.violations);
    let (setup, traced_setups) = if args.trace {
        drop(untraced_setups.last);
        let root = tracer.open("setup", None, None);
        let traced = set_up_repeatedly(args, &dir.join("t"), &tracer, root)?;
        tracer.close(root);
        violations.extend(traced.violations);
        (traced.last, Some((traced.times, traced.recovers)))
    } else {
        (untraced_setups.last, None)
    };

    let untraced = run_pass(args, &setup, "u", &off, None)?;
    let e2e = end_to_end(&untraced, median(&untraced_setups.times));
    let tail = tails(&untraced);
    println!(
        "# end-to-end, untraced (median of {SETUPS} set-ups; {} cores)",
        cores()
    );
    print_metrics("e2e", &e2e);
    print_metrics("tail", &tail);
    let rates = untraced.profile.pass_rates();
    let [q1, q2, q3] = quartiles(&rates);
    println!(
        "samples   {:<30} n={} q1={q1:.0} median={q2:.0} q3={q3:.0} events/s",
        "profile pass",
        rates.len(),
    );
    print_latencies("submit", &untraced.submit_run().submits);
    print_latencies("query", &untraced.query_mix.queries);

    let large = replays(&setup.large)?;
    let small = replays(&setup.small)?;
    violations.extend(gate(&setup, &untraced, &large, &small)?);
    violations.extend(cross_run_counts(args.seed, &setup, &untraced)?);
    let mut attempted = untraced.profile.operations;
    let mut failed = 0;
    for log in untraced.serve_logs() {
        attempted += log.latencies_ms.len() as u64;
        failed += log.failed;
    }

    let metrics = if let Some((traced_setup_times, traced_recover)) = traced_setups {
        let root = tracer.open("pass", None, None);
        let traced = run_pass(args, &setup, "t", &tracer, root)?;
        tracer.close(root);
        violations.extend(gate(&setup, &traced, &large, &small)?);
        attempted += traced.profile.operations;
        for log in traced.serve_logs() {
            attempted += log.latencies_ms.len() as u64;
            failed += log.failed;
        }

        let traced_e2e = end_to_end(&traced, median(&traced_setup_times));
        let traced_tail = tails(&traced);
        println!("# tracing overhead per end-to-end metric: traced - untraced");
        let pairs = e2e
            .iter()
            .chain(&tail)
            .zip(traced_e2e.iter().chain(&traced_tail));
        for ((name, unit, u), (_, _, t)) in pairs {
            println!(
                "overhead  {name:<30} {:>+16.4} {unit} ({:+.2}%; untraced {u:.4}, traced {t:.4})",
                t - u,
                (t - u) / u * 100.0
            );
        }

        let layers = tracer.open("layers", None, None);
        let costs = profile::layer_costs(&setup.large, LAYER_REPS, &tracer, layers)?;
        let submitted = if traced.ingest.is_some() {
            &setup.large
        } else {
            &setup.small
        };
        let decode_analyze = serve::decode_analyze_ms(submitted, SERVE_REPS, &tracer, layers)?;
        let fsync = serve::fsync_ms(setup.daemon.dir(), submitted, SERVE_REPS, &tracer, layers)?;
        let read_reports = check::tenant_reports(&setup.draw.read_tenant, &small);
        let merge_render = serve::merge_render_ms(&read_reports, SERVE_REPS, &tracer, layers);
        tracer.close(layers);

        let spans = tracer.spans();
        let own = spans::self_times(&spans);
        let (mut gap_ns, mut wall_ns) = (0, 0);
        for (i, span) in spans.iter().enumerate() {
            if span.parent.is_none() && matches!(span.name, "setup" | "pass") {
                let (g, w) = spans::gap(&spans, &own, i);
                gap_ns += g;
                wall_ns += w;
            }
        }
        let coverage = 1.0 - gap_ns as f64 / wall_ns as f64;
        println!("# span self time by layer call (traced set-up, pass and layer probes)");
        for (name, (count, total, own)) in spans::by_name(&spans, &own) {
            println!(
                "span      {name:<30} n={count:<6} total={:>10.3} ms self={:>10.3} ms",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        println!(
            "coverage  spans cover {:.2}% of the traced end-to-end wall clock ({:.1} ms uncovered of {:.1} ms)",
            coverage * 100.0,
            gap_ns as f64 / 1e6,
            wall_ns as f64 / 1e6
        );
        if coverage < MIN_COVERAGE {
            violations.push(format!(
                "spans cover {:.2}% of the wall clock, below {:.0}%",
                coverage * 100.0,
                MIN_COVERAGE * 100.0
            ));
        }
        let path = Path::new(OUT_DIR).join(format!(
            "spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        fs::write(&path, spans::to_jsonl(&spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans     written to {}", path.display());

        let mut layer = per_layer(
            &traced,
            &costs,
            &decode_analyze,
            &fsync,
            merge_render,
            median(&traced_recover),
        );
        println!("# per-layer, traced run");
        print_metrics("layer", &layer);
        // The untraced tails, as printed above.
        layer.extend(tail);
        layer
    } else {
        e2e
    };
    for v in &violations {
        eprintln!("perfbench: correctness violation: {v}");
    }
    Ok(Outcome {
        correct: violations.is_empty(),
        attempted,
        failed,
        metrics,
    })
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload ingest|query-mix --seed N [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let dir = PathBuf::from(OUT_DIR).join(format!("run-{}", std::process::id()));
    let outcome = fs::create_dir_all(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))
        .and_then(|()| run(&args, &dir));
    let _ = fs::remove_dir_all(&dir);
    match outcome {
        Ok(o) => {
            let metrics: Vec<String> = o
                .metrics
                .iter()
                .map(|(name, unit, v)| {
                    format!(
                        "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                        json_number(*v)
                    )
                })
                .collect();
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
                o.correct,
                o.attempted,
                o.failed,
                metrics.join(", ")
            );
            if o.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
