//! Seeded inputs: which guest programs run, with which device data, in
//! which order, and the wire traces recorded from them.

use crate::spans::{SpanId, Tracer};
use aprof_trace::{NullTool, Tool};
use aprof_vm::{Machine, RunOutcome};
use aprof_wire::{WireOptions, WireSummary, WireWriter};
use aprof_workloads::{by_name, WorkloadParams};

/// Worker threads of every guest: one per core of the 2-core machine the
/// benchmark was sized on, so guest scheduling does not depend on the host.
const THREADS: u32 = 2;

/// The profile phase and the `ingest` traces: programs that differ in
/// thread interaction, heap working set and external input. 0.12–0.93 M
/// events and 0.29–1.9 MB of wire trace each.
const LARGE: [(&str, u64); 5] = [
    ("350.md", 8192),           // 2 threads, all-to-all reads of a shared array
    ("vips", 2048),             // pipeline with kernel writes
    ("kvstore", 512),           // B+-tree: the largest heap and trace
    ("webserv", 2048),          // worker pool fed by a device
    ("algo.merge_sort", 20000), // sequential recursion
];

/// The `query-mix` traces: 24–130 KB each, so per-stream decode and
/// analysis stay under a millisecond and the daemon's fixed costs show.
const SMALL: [(&str, u64); 6] = [
    ("dedup", 256),
    ("mysqld", 512),
    ("docpipe", 512),
    ("webserv", 256),
    ("kvstore", 64),
    ("fluidanimate", 512),
];

/// Device-data variants drawn per small program.
const SMALL_VARIANTS: usize = 2;

/// Shuffled cycles of the traces in each submission order. Large traces
/// from the two ingest clients contend when their submits overlap, and a
/// single repeated cycle would fix which ones overlap for the whole run, so
/// the seed alone would set `submit_p95_ms`. Many cycles average that out.
const ORDER_CYCLES: usize = 64;

/// Streams the queried tenant holds before the daemon starts.
pub const READ_TENANT_STREAMS: usize = 300;

/// splitmix64: a tiny, seedable, well-mixed generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniformly shuffled copy of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
        v
    }

    /// `ORDER_CYCLES` independently shuffled copies of `0..n`, end to end.
    fn order(&mut self, n: usize) -> Vec<usize> {
        (0..ORDER_CYCLES)
            .flat_map(|_| self.permutation(n))
            .collect()
    }
}

/// One guest program instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    pub name: &'static str,
    pub size: u64,
    /// Device-data seed.
    pub seed: u64,
}

impl Spec {
    /// A fresh machine, ready to run.
    pub fn build(&self) -> Machine {
        let workload = by_name(self.name).expect("the draw names only registered workloads");
        workload.build(&WorkloadParams {
            size: self.size,
            threads: THREADS,
            seed: self.seed,
        })
    }

    pub fn label(&self) -> String {
        format!("{}@{}", self.name, self.size)
    }
}

/// Everything a seed decides.
pub struct Draw {
    /// The large programs, in the order each profile pass runs them.
    pub large: Vec<Spec>,
    /// The small programs, `SMALL_VARIANTS` device seeds each.
    pub small: Vec<Spec>,
    /// Submission order of the large traces, one per ingest client, which
    /// cycles through it.
    pub ingest_order: [Vec<usize>; 2],
    /// Submission order of the small traces in `query-mix`.
    pub small_order: Vec<usize>,
    /// The queried tenant's pre-committed streams: `(stream id, index into
    /// small)`. An equal share of every small trace, so query cost does
    /// not depend on the seed.
    pub read_tenant: Vec<(String, usize)>,
}

impl Draw {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let large = rng
            .permutation(LARGE.len())
            .into_iter()
            .map(|i| Spec {
                name: LARGE[i].0,
                size: LARGE[i].1,
                seed: rng.next(),
            })
            .collect();
        let small: Vec<Spec> = SMALL
            .iter()
            .flat_map(|&(name, size)| std::iter::repeat_n((name, size), SMALL_VARIANTS))
            .map(|(name, size)| Spec {
                name,
                size,
                seed: rng.next(),
            })
            .collect();
        let ingest_order = [rng.order(LARGE.len()), rng.order(LARGE.len())];
        let small_order = rng.order(small.len());
        let read_tenant = (0..READ_TENANT_STREAMS)
            .map(|i| (format!("r{:016x}", rng.next()), i % small.len()))
            .collect();
        Draw {
            large,
            small,
            ingest_order,
            small_order,
            read_tenant,
        }
    }
}

/// A recorded wire trace and the deterministic counts of its run.
pub struct Recorded {
    pub spec: Spec,
    pub bytes: Vec<u8>,
    pub events: u64,
    pub blocks: u64,
}

/// `aprof-cli record`'s work on a built machine: runs it under `tool` with
/// a wire capture into memory. Returns the trace, the writer's summary and
/// the run's outcome.
pub fn run_recorded(
    machine: &mut Machine,
    tool: &mut dyn Tool,
    tracer: &Tracer,
    parent: SpanId,
) -> Result<(Vec<u8>, WireSummary, RunOutcome), String> {
    let names = machine.program().routines().clone();
    let mut writer = WireWriter::create(Vec::new(), &names, WireOptions::default())
        .map_err(|e| e.to_string())?;
    let outcome = tracer
        .span("vm.run_recording", parent, |_| {
            machine.run_recording(tool, &mut writer)
        })
        .map_err(|e| format!("guest error: {e}"))?;
    let (bytes, summary) = tracer
        .span("wire.finish", parent, |_| writer.finish())
        .map_err(|e| e.to_string())?;
    Ok((bytes, summary, outcome))
}

/// Runs `spec` once with a wire capture into memory.
pub fn record(spec: Spec, tracer: &Tracer, parent: SpanId) -> Result<Recorded, String> {
    let mut machine = tracer.span("workloads.build", parent, |_| spec.build());
    let (bytes, summary, outcome) = run_recorded(&mut machine, &mut NullTool, tracer, parent)
        .map_err(|e| format!("{}: {e}", spec.label()))?;
    Ok(Recorded {
        spec,
        bytes,
        events: summary.events,
        blocks: outcome.total_blocks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_fixes_the_draw() {
        let (a, b, c) = (Draw::new(1), Draw::new(1), Draw::new(2));
        assert_eq!(a.large, b.large);
        assert_eq!(a.read_tenant, b.read_tenant);
        assert_eq!(a.ingest_order, b.ingest_order);
        assert_ne!(a.ingest_order[0], a.ingest_order[1]);
        // Each cycle of an order holds every trace once.
        for cycle in a.small_order.chunks(a.small.len()) {
            let mut c = cycle.to_vec();
            c.sort_unstable();
            assert_eq!(c, (0..a.small.len()).collect::<Vec<_>>());
        }
        assert_ne!(a.read_tenant, c.read_tenant);
        let mut names: Vec<_> = a.large.iter().map(|s| s.name).collect();
        names.sort_unstable();
        assert_eq!(
            names,
            ["350.md", "algo.merge_sort", "kvstore", "vips", "webserv"]
        );
    }

    #[test]
    fn the_read_tenant_holds_every_small_trace_equally() {
        let d = Draw::new(9);
        let mut counts = vec![0; d.small.len()];
        for (_, i) in &d.read_tenant {
            counts[*i] += 1;
        }
        assert_eq!(
            counts,
            vec![READ_TENANT_STREAMS / d.small.len(); d.small.len()]
        );
    }
}
