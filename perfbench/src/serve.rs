//! The daemon in-process: spool seeding and start-up, closed-loop
//! submitters and queriers over its unix socket, and the per-layer costs
//! of one submission timed outside the daemon.

use crate::check;
use crate::inputs::Recorded;
use crate::spans::{SpanId, Tracer};
use crate::stats::median;
use aprof_core::ProfileReport;
use aprof_serve::{client, ServeConfig, Server, ServerHandle, Target};
use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The tenant `query-mix` reads: pre-committed at set-up, never written.
pub const READ_TENANT: &str = "qm-r";

/// A running daemon over a private spool. Dropping it drains the daemon
/// and deletes the spool.
pub struct Daemon {
    handle: Option<ServerHandle>,
    pub target: Target,
    dir: PathBuf,
}

impl Daemon {
    /// Commits `read` (stream id, index into `traces`) to a fresh spool
    /// under `dir` the way the daemon lays committed streams out, then
    /// starts the daemon over it, which recovers them. Returns the daemon
    /// and the `Server::start` wall time in seconds.
    pub fn start(
        dir: &Path,
        read: &[(String, usize)],
        traces: &[Recorded],
        tracer: &Tracer,
        parent: SpanId,
    ) -> Result<(Daemon, f64), String> {
        let spool = dir.join("spool");
        let tenant_dir = spool.join(READ_TENANT);
        let io = |e: std::io::Error| format!("{}: {e}", dir.display());
        tracer
            .span("serve.seed_spool", parent, |_| {
                fs::create_dir_all(&tenant_dir)?;
                for (stream, i) in read {
                    fs::write(tenant_dir.join(format!("{stream}.wire")), &traces[*i].bytes)?;
                }
                Ok(())
            })
            .map_err(io)?;
        let socket = dir.join("daemon.sock");
        let mut cfg = ServeConfig::new(&spool);
        cfg.unix = Some(socket.clone());
        let t = Instant::now();
        let handle = tracer
            .span("serve.start", parent, |_| Server::start(cfg))
            .map_err(|e| e.to_string())?;
        let recover_s = t.elapsed().as_secs_f64();
        let daemon = Daemon {
            handle: Some(handle),
            target: Target::Unix(socket),
            dir: dir.to_owned(),
        };
        if let Some((path, e)) = daemon.handle.as_ref().and_then(|h| h.damaged.first()) {
            return Err(format!("spool recovery rejected {}: {e}", path.display()));
        }
        Ok((daemon, recover_s))
    }

    /// The spool directory's filesystem, for the fsync probe.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown(false);
            let _ = handle.wait();
        }
        let _ = fs::remove_dir_all(&self.dir);
    }
}

/// Commits after which a submit phase samples the process's peak resident
/// memory. The daemon keeps a report per committed stream, so a figure
/// taken at the end of a timed phase would grow with throughput; one taken
/// after a fixed number of commits does not.
const RSS_COMMITS: usize = 200;

/// Peak resident memory of this process (and so of the in-process
/// daemon), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Samples `peak_rss_mib` when one phase's submitters, together, commit
/// their `RSS_COMMITS`-th stream.
#[derive(Default)]
struct RssMark {
    commits: AtomicUsize,
    mib: OnceLock<Result<f64, String>>,
}

impl RssMark {
    fn committed(&self) {
        if self.commits.fetch_add(1, Ordering::SeqCst) + 1 == RSS_COMMITS {
            let _ = self.mib.set(peak_rss_mib());
        }
    }

    /// The sample, or one taken now if the phase committed fewer streams.
    fn take(self) -> Result<f64, String> {
        self.mib.into_inner().unwrap_or_else(peak_rss_mib)
    }
}

/// When a closed loop stops: after `deadline`, once it has done at least
/// `min_ops` operations.
#[derive(Clone, Copy)]
pub struct Stop {
    pub deadline: Instant,
    pub min_ops: usize,
}

impl Stop {
    fn more(&self, done: usize) -> bool {
        done < self.min_ops || Instant::now() < self.deadline
    }
}

/// Client-side record of one kind of request.
#[derive(Default)]
pub struct OpLog {
    /// Latency of every attempt in ms; a failure is `f64::INFINITY`.
    pub latencies_ms: Vec<f64>,
    pub failed: u64,
    /// Events acknowledged by successful submits.
    pub acked_events: u64,
    /// Committed streams: (tenant, stream id, index into the trace set).
    pub committed: Vec<(String, String, usize)>,
    /// Wrong answers: a bad ack, a query body that changed.
    pub violations: Vec<String>,
    /// The first few transport or refusal errors.
    pub errors: Vec<String>,
}

impl OpLog {
    fn absorb(&mut self, other: OpLog) {
        self.latencies_ms.extend(other.latencies_ms);
        self.failed += other.failed;
        self.acked_events += other.acked_events;
        self.committed.extend(other.committed);
        self.violations.extend(other.violations);
        self.errors.extend(other.errors);
    }

    fn fail(&mut self, e: String) {
        self.latencies_ms.push(f64::INFINITY);
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(e);
        }
    }
}

/// A closed-loop submitter: submits `traces[order[k % len]]` as stream
/// `<tag>-<k>` under `tenant`, waiting for each ack, while `more(k)`.
#[allow(clippy::too_many_arguments)]
fn submitter(
    target: &Target,
    tenant: &str,
    tag: &str,
    traces: &[Recorded],
    order: &[usize],
    more: impl Fn(usize) -> bool,
    rss: &RssMark,
    tracer: &Tracer,
    parent: SpanId,
) -> OpLog {
    let mut log = OpLog::default();
    let mut k = 0;
    while more(k) {
        let idx = order[k % order.len()];
        let stream = format!("{tag}-{k:06}");
        let rec = &traces[idx];
        let span = tracer.open("client.submit", parent, Some(&stream));
        let t = Instant::now();
        let result = client::submit(target, tenant, &stream, &mut &rec.bytes[..]);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        tracer.close(span);
        match result {
            Ok(ack) => {
                log.latencies_ms.push(ms);
                log.acked_events += ack.events;
                if ack.events != rec.events || ack.duplicate {
                    log.violations.push(format!(
                        "{tenant}/{stream}: ack events={} duplicate={}, trace has {} events",
                        ack.events, ack.duplicate, rec.events
                    ));
                }
                log.committed.push((tenant.to_owned(), stream, idx));
                rss.committed();
            }
            Err(e) => log.fail(format!("submit {tenant}/{stream}: {e}")),
        }
        k += 1;
    }
    log
}

/// A closed-loop querier of `/profile/<tenant>`. Every answer must equal
/// the first; the first is returned for the oracle check.
fn querier(
    target: &Target,
    tenant: &str,
    stop: Stop,
    tracer: &Tracer,
    parent: SpanId,
) -> (OpLog, Option<String>) {
    let mut log = OpLog::default();
    let mut first: Option<String> = None;
    let mut k = 0;
    while stop.more(k) {
        let req = format!("q-{k:06}");
        let span = tracer.open("client.fetch_profile", parent, Some(&req));
        let t = Instant::now();
        let result = client::fetch_profile(target, tenant);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        tracer.close(span);
        match result {
            Ok(body) => {
                log.latencies_ms.push(ms);
                match &first {
                    None => first = Some(body),
                    Some(f) if *f != body && log.violations.is_empty() => {
                        log.violations.push(format!(
                            "{tenant}: /profile answer {req} differs from the first"
                        ));
                    }
                    Some(_) => {}
                }
            }
            Err(e) => log.fail(format!("fetch_profile {tenant}: {e}")),
        }
        k += 1;
    }
    (log, first)
}

/// What one serve phase measured.
#[derive(Default)]
pub struct ServeRun {
    pub submits: OpLog,
    pub queries: OpLog,
    /// The read tenant's first `/profile` answer, when it was queried.
    pub read_profile: Option<String>,
    pub wall_s: f64,
    /// Peak resident memory once the phase had committed `RSS_COMMITS`
    /// streams, in MiB.
    pub rss_mib: f64,
}

/// `ingest`: one closed-loop submitter per core, each into its own tenant,
/// submitting the large traces.
pub fn ingest(
    daemon: &Daemon,
    large: &[Recorded],
    orders: &[Vec<usize>; 2],
    pass: &str,
    stop: Stop,
    tracer: &Tracer,
    parent: SpanId,
) -> Result<ServeRun, String> {
    let t = Instant::now();
    let rss = RssMark::default();
    let per_client = Stop {
        min_ops: stop.min_ops.div_ceil(orders.len()),
        ..stop
    };
    let logs: Vec<OpLog> = std::thread::scope(|scope| {
        let workers: Vec<_> = orders
            .iter()
            .enumerate()
            .map(|(c, order)| {
                let tenant = format!("ingest-{pass}{c}");
                let rss = &rss;
                scope.spawn(move || {
                    submitter(
                        &daemon.target,
                        &tenant,
                        &format!("s{c}"),
                        large,
                        order,
                        |k| per_client.more(k),
                        rss,
                        tracer,
                        parent,
                    )
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("submitter thread panicked"))
            .collect()
    });
    let mut run = ServeRun {
        wall_s: t.elapsed().as_secs_f64(),
        rss_mib: rss.take()?,
        ..ServeRun::default()
    };
    for log in logs {
        run.submits.absorb(log);
    }
    Ok(run)
}

/// `query-mix`: one closed-loop submitter of small traces into a write
/// tenant, beside one closed-loop querier of the pre-committed read tenant.
/// The submitter runs until the querier is done and has itself made
/// `stop.min_ops` submits.
pub fn query_mix(
    daemon: &Daemon,
    small: &[Recorded],
    order: &[usize],
    pass: &str,
    stop: Stop,
    tracer: &Tracer,
    parent: SpanId,
) -> Result<ServeRun, String> {
    let t = Instant::now();
    let rss = RssMark::default();
    let querying = AtomicBool::new(true);
    let tenant = format!("qm-w{pass}");
    let (submits, (queries, first)) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let more = |k: usize| querying.load(Ordering::SeqCst) || k < stop.min_ops;
            submitter(
                &daemon.target,
                &tenant,
                "w",
                small,
                order,
                more,
                &rss,
                tracer,
                parent,
            )
        });
        let reads = querier(&daemon.target, READ_TENANT, stop, tracer, parent);
        querying.store(false, Ordering::SeqCst);
        (writer.join().expect("submitter thread panicked"), reads)
    });
    Ok(ServeRun {
        submits,
        queries,
        read_profile: first,
        wall_s: t.elapsed().as_secs_f64(),
        rss_mib: rss.take()?,
    })
}

/// `client::ping` round trips, in ms.
pub fn pings(
    daemon: &Daemon,
    n: usize,
    tracer: &Tracer,
    parent: SpanId,
) -> Result<Vec<f64>, String> {
    (0..n)
        .map(|_| {
            let t = Instant::now();
            tracer
                .span("client.ping", parent, |_| client::ping(&daemon.target))
                .map_err(|e| format!("ping: {e}"))?;
            Ok(t.elapsed().as_secs_f64() * 1e3)
        })
        .collect()
}

/// Per trace: the median ms of decode → trms analysis → report, the
/// daemon's per-stream CPU work, done here outside the daemon.
pub fn decode_analyze_ms(
    traces: &[Recorded],
    reps: usize,
    tracer: &Tracer,
    parent: SpanId,
) -> Result<Vec<f64>, String> {
    traces
        .iter()
        .map(|rec| {
            let mut ms = Vec::with_capacity(reps);
            for _ in 0..reps {
                let t = Instant::now();
                tracer.span("serve.decode_analyze", parent, |_| {
                    check::replay(&rec.bytes)
                })?;
                ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            Ok(median(&ms))
        })
        .collect()
}

/// Per trace: the median ms of `File::sync_data` on a freshly written file
/// of the trace's size in the spool's directory — the daemon's commit
/// fsync.
pub fn fsync_ms(
    dir: &Path,
    traces: &[Recorded],
    reps: usize,
    tracer: &Tracer,
    parent: SpanId,
) -> Result<Vec<f64>, String> {
    let path = dir.join("fsync.probe");
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    let out = traces
        .iter()
        .map(|rec| {
            let mut ms = Vec::with_capacity(reps);
            for _ in 0..reps {
                let mut f = File::create(&path).map_err(io)?;
                f.write_all(&rec.bytes).map_err(io)?;
                let t = Instant::now();
                tracer
                    .span("serve.fsync", parent, |_| f.sync_data())
                    .map_err(io)?;
                ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            Ok(median(&ms))
        })
        .collect();
    let _ = fs::remove_file(&path);
    out
}

/// Median ms of `ProfileReport::merge` over `reports` (what `/profile`
/// does under the registry lock) and of rendering the aggregate.
pub fn merge_render_ms(
    reports: &[ProfileReport],
    reps: usize,
    tracer: &Tracer,
    parent: SpanId,
) -> (f64, f64) {
    let (mut merge, mut render) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let t = Instant::now();
        let agg = tracer.span("core.merge", parent, |_| ProfileReport::merge(reports));
        merge.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        std::hint::black_box(tracer.span("core.to_canonical_text", parent, |_| {
            agg.to_canonical_text()
        }));
        render.push(t.elapsed().as_secs_f64() * 1e3);
    }
    (median(&merge), median(&render))
}
