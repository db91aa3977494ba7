//! The profiler without the daemon: `aprof-cli run` and `record` as
//! library calls, and the per-layer costs of the VM, event emission,
//! rms/trms analysis, shadow memory and the wire format.

use crate::inputs::{run_recorded, Recorded};
use crate::spans::{SpanId, Tracer};
use crate::stats::median;
use aprof_core::{RmsProfiler, TrmsProfiler};
use aprof_trace::{Event, NullTool, ThreadId};
use aprof_vm::VmError;
use aprof_wire::WireReader;
use std::convert::Infallible;
use std::hint::black_box;
use std::time::Instant;

/// Profile passes measured per run at least, so each program's fastest
/// run is the fastest of several.
const MIN_PASSES: usize = 5;

/// What one profile phase measured.
pub struct ProfileRun {
    /// Per program: its guest events.
    pub events: Vec<u64>,
    /// Per program, every pass: seconds of its `run`-equivalent call.
    pub run_s: Vec<Vec<f64>>,
    /// Per program, every pass: seconds of its `record`-equivalent call.
    pub record_s: Vec<Vec<f64>>,
    /// Programs profiled and recorded (two operations each per pass).
    pub operations: u64,
    /// Per program, from the first pass: the live trms profile and the
    /// trace recorded beside it, for the gate.
    pub live: Vec<(String, Vec<u8>)>,
    /// Per program, every pass: (blocks, shadow bytes, wire bytes). These
    /// are deterministic and must repeat exactly.
    pub counts: Vec<Vec<(u64, u64, usize)>>,
}

impl ProfileRun {
    /// `aprof-cli run` throughput: all programs' events over the sum of
    /// each program's fastest run.
    pub fn run_rate(&self) -> f64 {
        fastest_rate(&self.events, &self.run_s)
    }

    /// `aprof-cli record` throughput, likewise.
    pub fn record_rate(&self) -> f64 {
        fastest_rate(&self.events, &self.record_s)
    }

    /// `aprof-cli run` throughput of each whole pass, for the report.
    pub fn pass_rates(&self) -> Vec<f64> {
        let total: u64 = self.events.iter().sum();
        (0..self.run_s[0].len())
            .map(|j| total as f64 / self.run_s.iter().map(|s| s[j]).sum::<f64>())
            .collect()
    }
}

/// Events per second of a pass made of each program's fastest run.
/// Neighbours on the shared host slow single runs in bursts shorter than
/// one profile pass; the fastest of a program's runs is the one no burst
/// hit, so it tracks the program's own cost (see `perfbench/README.md`).
pub fn fastest_rate(events: &[u64], seconds: &[Vec<f64>]) -> f64 {
    let total: u64 = events.iter().sum();
    let time: f64 = seconds
        .iter()
        .map(|s| s.iter().copied().fold(f64::INFINITY, f64::min))
        .sum();
    total as f64 / time
}

/// Runs profile passes over `programs` until `deadline` has passed and at
/// least `MIN_PASSES` passes are done. Each pass profiles every program
/// live (`aprof-cli run`) and records it (`aprof-cli record`).
pub fn phase(
    programs: &[Recorded],
    deadline: Instant,
    tracer: &Tracer,
    parent: SpanId,
) -> Result<ProfileRun, String> {
    let n = programs.len();
    let mut out = ProfileRun {
        events: programs.iter().map(|p| p.events).collect(),
        run_s: vec![Vec::new(); n],
        record_s: vec![Vec::new(); n],
        operations: 0,
        live: Vec::new(),
        counts: vec![Vec::new(); n],
    };
    let mut passes = 0;
    while passes < MIN_PASSES || Instant::now() < deadline {
        for (i, p) in programs.iter().enumerate() {
            let label = p.spec.label();
            let t = Instant::now();
            let (report, blocks, shadow) = tracer.span("cli.run", parent, |s| {
                let mut machine = tracer.span("workloads.build", s, |_| p.spec.build());
                let mut profiler = TrmsProfiler::new();
                let outcome = tracer
                    .span("vm.run_with.trms", s, |_| machine.run_with(&mut profiler))
                    .map_err(|e| format!("{label}: guest error: {e}"))?;
                let shadow = profiler.shadow_bytes();
                let names = machine.program().routines();
                let report = tracer.span("core.into_report", s, |_| profiler.into_report(names));
                Ok::<_, String>((report, outcome.total_blocks, shadow))
            })?;
            out.run_s[i].push(t.elapsed().as_secs_f64());

            let t = Instant::now();
            let (bytes, summary) = tracer.span("cli.record", parent, |s| {
                let mut machine = tracer.span("workloads.build", s, |_| p.spec.build());
                let mut profiler = TrmsProfiler::new();
                let (bytes, summary, _) = run_recorded(&mut machine, &mut profiler, tracer, s)
                    .map_err(|e| format!("{label}: {e}"))?;
                let names = machine.program().routines();
                black_box(tracer.span("core.into_report", s, |_| profiler.into_report(names)));
                Ok::<_, String>((bytes, summary))
            })?;
            out.record_s[i].push(t.elapsed().as_secs_f64());

            if summary.events != p.events {
                return Err(format!(
                    "{label}: recorded {} events, set-up recorded {}",
                    summary.events, p.events
                ));
            }
            out.counts[i].push((blocks, shadow, bytes.len()));
            if out.live.len() < n {
                let text = tracer.span("check.render", parent, |_| report.to_canonical_text());
                out.live.push((text, bytes));
            }
        }
        out.operations += 2 * n as u64;
        passes += 1;
    }
    Ok(out)
}

/// Per-layer costs of the profile programs, each the sum over programs of
/// the per-program median over repetitions.
#[derive(Default)]
pub struct LayerCosts {
    pub events: u64,
    pub blocks: u64,
    pub wire_bytes: u64,
    pub shadow_bytes: u64,
    pub resident_bytes: u64,
    pub native_ns: f64,
    pub null_ns: f64,
    pub rms_ns: f64,
    pub trms_ns: f64,
    pub record_ns: f64,
    pub replay_ns: f64,
    pub decode_ns: f64,
}

/// Times each layer from outside, around the public calls into it. Modes
/// are interleaved within a repetition so drift hits all of them alike.
pub fn layer_costs(
    programs: &[Recorded],
    reps: usize,
    tracer: &Tracer,
    parent: SpanId,
) -> Result<LayerCosts, String> {
    let mut c = LayerCosts::default();
    for p in programs {
        let events: Vec<(ThreadId, Event)> = WireReader::new(&p.bytes[..])
            .map_err(|e| e.to_string())?
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        let guest = |e: VmError| format!("{}: guest error: {e}", p.spec.label());
        let mut t: [Vec<f64>; 7] = Default::default();
        let (mut shadow, mut resident) = (0, 0);
        for _ in 0..reps {
            let mut m = p.spec.build();
            t[0].push(timed(tracer, "vm.run_native", parent, |_| m.run_native()).map_err(guest)?);
            resident = m.memory().resident_bytes() as u64;

            let mut m = p.spec.build();
            t[1].push(
                timed(tracer, "vm.run_with.nulgrind", parent, |_| {
                    m.run_with(&mut NullTool)
                })
                .map_err(guest)?,
            );

            let mut m = p.spec.build();
            let mut rms = RmsProfiler::new();
            t[2].push(
                timed(tracer, "vm.run_with.rms", parent, |_| m.run_with(&mut rms))
                    .map_err(guest)?,
            );

            let mut m = p.spec.build();
            let mut trms = TrmsProfiler::new();
            t[3].push(
                timed(tracer, "vm.run_with.trms", parent, |_| {
                    m.run_with(&mut trms)
                })
                .map_err(guest)?,
            );
            shadow = trms.shadow_bytes();

            let mut m = p.spec.build();
            let mut trms = TrmsProfiler::new();
            t[4].push(timed(tracer, "cli.record.trms", parent, |s| {
                run_recorded(&mut m, &mut trms, tracer, s)
            })?);

            let mut trms = TrmsProfiler::new();
            let replay = timed(tracer, "core.consume_stream.memory", parent, |_| {
                trms.consume_stream(events.iter().map(|&e| Ok::<_, Infallible>(e)))
            });
            t[5].push(replay.expect("an in-memory source cannot fail"));

            let decode = timed(tracer, "wire.decode", parent, |_| {
                WireReader::new(&p.bytes[..])?.try_fold(0u64, |n, e| {
                    black_box(e?);
                    Ok::<_, aprof_wire::WireError>(n + 1)
                })
            });
            t[6].push(decode.map_err(|e| e.to_string())?);
        }
        c.events += p.events;
        c.blocks += p.blocks;
        c.wire_bytes += p.bytes.len() as u64;
        c.shadow_bytes += shadow;
        c.resident_bytes += resident;
        let [native, null, rms, trms, record, replay, decode] = t.map(|v| median(&v));
        c.native_ns += native;
        c.null_ns += null;
        c.rms_ns += rms;
        c.trms_ns += trms;
        c.record_ns += record;
        c.replay_ns += replay;
        c.decode_ns += decode;
    }
    Ok(c)
}

/// Runs `f` in a span and returns its wall time in ns with its result.
fn timed<T, E>(
    tracer: &Tracer,
    name: &'static str,
    parent: SpanId,
    f: impl FnOnce(SpanId) -> Result<T, E>,
) -> Result<f64, E> {
    let t = Instant::now();
    let out = tracer.span(name, parent, f);
    let ns = t.elapsed().as_nanos() as f64;
    black_box(out?);
    Ok(ns)
}
