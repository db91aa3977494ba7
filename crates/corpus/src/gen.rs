//! The seeded guest-program generator: random but *interesting* CFGs.
//!
//! A [`CaseSpec`] is a structured, shrinkable description of one guest
//! program — a statement tree per function plus threading/IO knobs — that
//! [`CaseSpec::build`] lowers to a real [`Program`] through the
//! [`aprof_vm::builder`] API. Generation never emits an invalid program:
//! every property the differential oracles rely on holds *by construction*:
//!
//! * **termination** — loops are counted with bounded trip constants,
//!   retry back-edges decrement a counter, and recursive calls clamp and
//!   decrement a depth parameter;
//! * **deadlock freedom** — lock keys are constants acquired in globally
//!   increasing nesting order and always released;
//! * **definite initialization** — the builder writes every register
//!   before its first read, so runs are clean under `strict_regs`;
//! * **valid kernel I/O** — `sys_read`/`sys_write` target the two devices
//!   the built [`Machine`] registers (fd 0 source, fd 1 sink).
//!
//! The *shapes* are the interesting part: nested counted loops, diamonds
//! with a counter-guarded back-edge into one arm (a multi-entry —
//! irreducible — region), call chains with data-dependent recursion depth,
//! fork/join worker pools over shared cells and constant-key locks,
//! semaphore token rings, helper-initiated fork/join, and kernel-input
//! read/write mixes. Determinism contract: the same
//! `(seed, GenConfig)` always yields the same `CaseSpec`, hence the same
//! `Program`, hence (the VM being deterministic) the same event stream.

use aprof_vm::builder::{FunctionBuilder, ProgramBuilder};
use aprof_vm::device::{SinkDevice, SyntheticSource};
use aprof_vm::ir::{CmpOp, FuncId, Program, Reg};
use aprof_vm::{Machine, MachineConfig};
use proptest::shrink::Shrink;
use proptest::TestRng;

/// Base address of the 16-cell static shared region threads contend on.
const SHARED_BASE: i64 = 0x40;
/// Number of shared cells.
const SHARED_CELLS: i64 = 16;
/// Lock keys are `LOCK_BASE + func_index * LOCKS + lock_index`; the
/// per-function partition keeps cross-call acquisition order globally
/// increasing (threads running the same function still contend).
const LOCK_BASE: i64 = 100;
/// Distinct lock keys per function.
const LOCKS: u8 = 4;
/// Recursion depth parameters are clamped to `x % DEPTH_CLAMP` on entry.
const DEPTH_CLAMP: i64 = 8;
/// Semaphore-ring keys are `SEM_BASE + slot` (semaphores key a namespace
/// of their own, but a disjoint constant range keeps traces readable).
const SEM_BASE: i64 = 200;
/// Ring-slot cells live at `RING_BASE + slot`, above the shared region.
const RING_BASE: i64 = 0x60;
/// Maximum semaphore-ring slots.
const RING_SLOTS: i64 = 6;
/// Basic-block budget for one generated case (runaway backstop only;
/// generated programs terminate by construction far below this).
const CASE_MAX_BLOCKS: u64 = 5_000_000;

/// Which statement families the generator may draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenConfig {
    /// Helper functions besides `main` (at least 1).
    pub max_helpers: u8,
    /// Worker threads `main` may spawn (0 disables fork/join).
    pub max_threads: u8,
    /// Allow fork/join + locks + shared-cell traffic.
    pub concurrency: bool,
    /// Allow `sys_read`/`sys_write` statements.
    pub kernel_io: bool,
    /// Allow data-dependent-depth self recursion in helpers.
    pub recursion: bool,
    /// Input scale: device cells and buffer sizes derive from this.
    pub size: u16,
}

impl GenConfig {
    /// Everything on — the default corpus profile.
    pub fn mixed() -> Self {
        GenConfig {
            max_helpers: 4,
            max_threads: 4,
            concurrency: true,
            kernel_io: true,
            recursion: true,
            size: 32,
        }
    }

    /// Single-threaded, no kernel input: pure CFG/recursion shapes.
    pub fn sequential() -> Self {
        GenConfig { max_threads: 0, concurrency: false, ..Self::mixed() }
    }

    /// Fork/join + locks, no kernel input: the helgrind fragment.
    pub fn concurrent() -> Self {
        GenConfig { kernel_io: false, recursion: false, ..Self::mixed() }
    }

    /// Kernel-input mixes on one thread: the external-input fragment.
    pub fn kernel() -> Self {
        GenConfig { max_threads: 0, concurrency: false, recursion: false, ..Self::mixed() }
    }

    /// Looks a named profile up (CLI `--profile`).
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "mixed" => Some(Self::mixed()),
            "sequential" => Some(Self::sequential()),
            "concurrent" => Some(Self::concurrent()),
            "kernel" => Some(Self::kernel()),
            _ => None,
        }
    }
}

impl Default for GenConfig {
    fn default() -> Self {
        Self::mixed()
    }
}

/// One statement of the generated statement tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// Strided reads then writes over the function's local buffer.
    Work {
        /// Cells read (loop trip count).
        reads: u8,
        /// Cells written (loop trip count).
        writes: u8,
        /// Access stride (modular over the buffer).
        stride: u8,
    },
    /// A counted loop around a nested body.
    Loop {
        /// Trip count.
        trips: u8,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// A data-dependent branch diamond. With `retry > 0` the join block
    /// jumps *back into the else arm* a bounded number of times, making
    /// the region multi-entry (irreducible).
    Diamond {
        /// Extra passes through the else arm (0 = plain diamond).
        retry: u8,
        /// Then-arm body.
        then_b: Vec<Stmt>,
        /// Else-arm body.
        else_b: Vec<Stmt>,
    },
    /// Call a later helper, passing a data-dependent depth argument.
    Call {
        /// Target function index into [`CaseSpec::funcs`]; emission skips
        /// targets that are not strictly later than the caller (keeps the
        /// call graph acyclic under shrinking).
        callee: u8,
    },
    /// A constant-key critical section around a nested body.
    Locked {
        /// Lock index (key `LOCK_BASE + func_index * LOCKS + lock % LOCKS`,
        /// partitioned per function so callees never re-acquire a caller's
        /// key); nested sections acquire strictly increasing keys or drop
        /// the lock wrapper.
        lock: u8,
        /// Body run under the lock.
        body: Vec<Stmt>,
    },
    /// `sys_read` a bounded number of cells into the local buffer, then
    /// sum them (kernel-input → external trms input).
    KernelIn {
        /// Requested cells (modular over the buffer size).
        cells: u8,
    },
    /// `sys_write` a bounded number of buffer cells to the sink device.
    KernelOut {
        /// Written cells (modular over the buffer size).
        cells: u8,
    },
    /// Store to one cell of the static shared region.
    SharedWrite {
        /// Cell index (modular over the region).
        cell: u8,
    },
    /// Load one cell of the static shared region.
    SharedRead {
        /// Cell index (modular over the region).
        cell: u8,
    },
    /// A semaphore token ring. Each pass picks a slot from the thread's
    /// depth parameter, posts that slot's semaphore, writes the slot's ring
    /// cell, reads the neighbor slot's cell, then waits the *same* slot.
    /// Posting before waiting means every wait is backed by at least one
    /// outstanding post, so the ring can never deadlock — but a concurrent
    /// thread may consume the token first and hand its own back, which is
    /// exactly the cross-thread handoff ordering worth profiling.
    SemRing {
        /// Ring size (clamped to `1..=RING_SLOTS` at emission).
        slots: u8,
        /// Passes around the ring.
        passes: u8,
    },
    /// Spawn a later helper on its own thread and join it immediately —
    /// fork/join initiated *inside* helpers, not only from `main`'s worker
    /// pool. Joining in place bounds live threads by the spawn-nesting
    /// depth, which the acyclic callee order bounds by the helper count.
    SpawnHelper {
        /// Target function index; same strictly-later discipline as
        /// [`Stmt::Call`] (dangling targets after shrinking drop the
        /// spawn).
        callee: u8,
    },
    /// Voluntarily yield the processor.
    YieldNow,
}

/// One generated function: a local buffer plus a statement tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncSpec {
    /// Local buffer size in cells (≥ 1 enforced at emission).
    pub buf_cells: u8,
    /// `Some(d)`: the function tail-calls itself with a decremented depth
    /// parameter, clamped to at most `d` (data-dependent actual depth).
    pub recursion: Option<u8>,
    /// The body.
    pub body: Vec<Stmt>,
}

/// A complete, shrinkable description of one corpus case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseSpec {
    /// The seed this case was generated from (carried for reporting).
    pub seed: u64,
    /// Worker threads `main` spawns over the helpers (round-robin).
    pub threads: u8,
    /// Cells the fd-0 input device yields before EOF.
    pub input_cells: u16,
    /// `funcs[0]` is `main`; the rest are helpers `h1…` with one
    /// depth/index parameter each.
    pub funcs: Vec<FuncSpec>,
}

/// Generates the statement tree for one nesting level.
fn gen_stmts(rng: &mut TestRng, cfg: &GenConfig, depth: u8, budget: &mut u8, nfuncs: u8, me: u8) -> Vec<Stmt> {
    let mut out = Vec::new();
    let n = 1 + rng.below(4) as u8;
    for _ in 0..n {
        if *budget == 0 {
            break;
        }
        *budget -= 1;
        let mut pick = rng.below(100);
        // Weighted choice; gated families fall through to plain work.
        let stmt = loop {
            match pick {
                0..=24 => {
                    break Stmt::Work {
                        reads: 1 + rng.below(6) as u8,
                        writes: rng.below(4) as u8,
                        stride: 1 + rng.below(5) as u8,
                    }
                }
                25..=39 if depth > 0 => {
                    break Stmt::Loop {
                        trips: 1 + rng.below(5) as u8,
                        body: gen_stmts(rng, cfg, depth - 1, budget, nfuncs, me),
                    }
                }
                40..=54 if depth > 0 => {
                    break Stmt::Diamond {
                        retry: rng.below(3) as u8,
                        then_b: gen_stmts(rng, cfg, depth - 1, budget, nfuncs, me),
                        else_b: gen_stmts(rng, cfg, depth - 1, budget, nfuncs, me),
                    }
                }
                55..=64 if me + 1 < nfuncs => {
                    break Stmt::Call { callee: me + 1 + rng.below(u64::from(nfuncs - me - 1)) as u8 }
                }
                65..=74 if cfg.concurrency && depth > 0 => {
                    break Stmt::Locked {
                        lock: rng.below(u64::from(LOCKS)) as u8,
                        body: gen_stmts(rng, cfg, depth - 1, budget, nfuncs, me),
                    }
                }
                75..=81 if cfg.kernel_io => break Stmt::KernelIn { cells: 1 + rng.below(12) as u8 },
                82..=85 if cfg.kernel_io => break Stmt::KernelOut { cells: 1 + rng.below(8) as u8 },
                86..=89 if cfg.concurrency => {
                    break Stmt::SharedWrite { cell: rng.below(SHARED_CELLS as u64) as u8 }
                }
                90..=93 if cfg.concurrency => {
                    break Stmt::SharedRead { cell: rng.below(SHARED_CELLS as u64) as u8 }
                }
                94 if cfg.concurrency => {
                    break Stmt::SemRing {
                        slots: 2 + rng.below(RING_SLOTS as u64 - 1) as u8,
                        passes: 1 + rng.below(4) as u8,
                    }
                }
                // Never in the innermost nesting level (`depth >= 1`): the
                // statement budget plus the acyclic callee order keep the
                // spawn fan-out bounded.
                95..=97 if cfg.concurrency && me + 1 < nfuncs && depth >= 1 => {
                    break Stmt::SpawnHelper {
                        callee: me + 1 + rng.below(u64::from(nfuncs - me - 1)) as u8,
                    }
                }
                98..=99 => break Stmt::YieldNow,
                _ => {}
            }
            // The picked family was gated off; redraw within the always-on
            // range so generation still terminates.
            pick = rng.below(55);
        };
        out.push(stmt);
    }
    out
}

impl CaseSpec {
    /// Generates the case for `seed` under `cfg`. Deterministic: equal
    /// inputs produce equal specs.
    pub fn generate(seed: u64, cfg: &GenConfig) -> CaseSpec {
        let mut rng = TestRng::from_seed(seed ^ 0xC0_8875);
        let helpers = 1 + rng.below(u64::from(cfg.max_helpers.max(1))) as u8;
        let nfuncs = 1 + helpers;
        let threads = if cfg.concurrency && cfg.max_threads > 0 {
            rng.below(u64::from(cfg.max_threads) + 1) as u8
        } else {
            0
        };
        let input_cells = 8 + rng.below(u64::from(cfg.size.max(8))) as u16;
        let funcs = (0..nfuncs)
            .map(|me| {
                let mut budget = 10;
                FuncSpec {
                    buf_cells: 1 + rng.below(u64::from(cfg.size.clamp(4, 64))) as u8,
                    recursion: if cfg.recursion && me > 0 && rng.below(3) == 0 {
                        Some(1 + rng.below(5) as u8)
                    } else {
                        None
                    },
                    body: gen_stmts(&mut rng, cfg, 2, &mut budget, nfuncs, me),
                }
            })
            .collect();
        CaseSpec { seed, threads, input_cells, funcs }
    }

    /// Lowers the spec to a validated guest [`Program`].
    ///
    /// # Panics
    ///
    /// Panics if emission produced an invalid program — that would be a
    /// generator bug, which the corpus tests exist to surface.
    pub fn program(&self) -> Program {
        let mut p = ProgramBuilder::new();
        let main = p.declare("main", 0);
        let helper_ids: Vec<FuncId> =
            (1..self.funcs.len()).map(|i| p.declare(&format!("h{i}"), 1)).collect();
        let func_id = |idx: usize| -> FuncId {
            if idx == 0 {
                main
            } else {
                helper_ids[idx - 1]
            }
        };

        for (idx, spec) in self.funcs.iter().enumerate() {
            let mut f = p.function(func_id(idx));
            let mut ctx = Emit::prologue(&mut f, spec, idx);
            if idx == 0 {
                // main: spawn the worker pool first so its own body runs
                // concurrently with the workers, then emit, then join.
                // Workers need a helper to run; shrinking may have dropped
                // them all, which simply disables the pool.
                let workers = if self.funcs.len() > 1 { self.threads } else { 0 };
                let handles: Vec<Reg> = (0..workers)
                    .map(|w| {
                        let target = func_id(1 + (w as usize) % (self.funcs.len() - 1).max(1));
                        let arg = f.const_temp(i64::from(w));
                        let h = f.temp();
                        f.spawn(h, target, &[arg]);
                        h
                    })
                    .collect();
                ctx.emit_stmts(&mut f, self, idx, &spec.body);
                for h in handles {
                    f.join(h);
                }
            } else {
                ctx.emit_stmts(&mut f, self, idx, &spec.body);
                if let Some(cap) = spec.recursion {
                    // if 0 < x' <= cap: acc += self(x' - 1)
                    let cap_r = f.const_temp(i64::from(cap.clamp(1, 6)));
                    let zero = f.const_temp(0);
                    let pos = f.temp();
                    f.cmp(CmpOp::Gt, pos, ctx.depth, zero);
                    let within = f.temp();
                    f.cmp(CmpOp::Le, within, ctx.depth, cap_r);
                    let both = f.temp();
                    f.bin(aprof_vm::ir::BinOp::And, both, pos, within);
                    let rec_bb = f.new_block();
                    let out_bb = f.new_block();
                    f.br(both, rec_bb, out_bb);
                    f.switch_to(rec_bb);
                    let next = f.temp();
                    let one = f.const_temp(1);
                    f.sub(next, ctx.depth, one);
                    let r = f.temp();
                    f.call(Some(r), func_id(idx), &[next]);
                    f.add(ctx.acc, ctx.acc, r);
                    f.jmp(out_bb);
                    f.switch_to(out_bb);
                }
            }
            f.ret(Some(ctx.acc));
        }
        p.build().expect("generator emits valid programs by construction")
    }

    /// Builds a ready-to-run machine: the program plus the two devices
    /// (fd 0: seeded input source, fd 1: sink), a thread-interleaving
    /// quantum, and a runaway block budget.
    pub fn build(&self) -> Machine {
        let mut m = Machine::new(self.program()).with_config(MachineConfig {
            quantum: 16,
            max_blocks: CASE_MAX_BLOCKS,
            // The builder writes every register before its first read, so
            // generated programs must survive the strict mode — running
            // strict lets oracle C observe any violation dynamically.
            strict_regs: true,
            ..MachineConfig::default()
        });
        m.add_device(Box::new(SyntheticSource::new(
            self.seed | 1,
            u64::from(self.input_cells),
        )));
        m.add_device(Box::new(SinkDevice::new()));
        m
    }

    /// Total statements across all functions (a size measure for reports).
    pub fn stmt_count(&self) -> usize {
        fn count(body: &[Stmt]) -> usize {
            body.iter()
                .map(|s| match s {
                    Stmt::Loop { body, .. } | Stmt::Locked { body, .. } => 1 + count(body),
                    Stmt::Diamond { then_b, else_b, .. } => 1 + count(then_b) + count(else_b),
                    _ => 1,
                })
                .sum()
        }
        self.funcs.iter().map(|f| count(&f.body)).sum()
    }

    /// Total basic blocks of the lowered program.
    pub fn block_count(&self) -> usize {
        self.program().functions().iter().map(|f| f.blocks.len()).sum()
    }

    /// One-line description for failure reports.
    pub fn summary(&self) -> String {
        format!(
            "seed={:#x} funcs={} threads={} input_cells={} stmts={} blocks={}",
            self.seed,
            self.funcs.len(),
            self.threads,
            self.input_cells,
            self.stmt_count(),
            self.block_count()
        )
    }
}

/// Per-function emission state.
struct Emit {
    /// The running accumulator every statement feeds; the function returns it.
    acc: Reg,
    /// Local buffer base.
    buf: Reg,
    /// Local buffer size register (constant).
    buf_len: Reg,
    /// Buffer size as a constant.
    buf_cells: i64,
    /// Clamped depth/index parameter (helpers) or a constant 0 (main).
    depth: Reg,
    /// Keys of locks currently held (emission-time nesting discipline).
    held: Vec<i64>,
}

impl Emit {
    /// Emits the shared prologue: buffer allocation, accumulator, and the
    /// depth clamp that makes recursion terminate for any argument.
    fn prologue(f: &mut FunctionBuilder<'_>, spec: &FuncSpec, idx: usize) -> Emit {
        let buf_cells = i64::from(spec.buf_cells.max(1));
        let depth = if idx == 0 {
            f.const_temp(0)
        } else {
            let x = f.param(0);
            let clamp = f.const_temp(DEPTH_CLAMP);
            let d = f.temp();
            f.rem(d, x, clamp);
            d
        };
        let buf_len = f.const_temp(buf_cells);
        let buf = f.temp();
        f.alloc(buf, buf_len);
        let acc = f.temp();
        f.mov(acc, depth);
        Emit { acc, buf, buf_len, buf_cells, depth, held: Vec::new() }
    }

    fn emit_stmts(&mut self, f: &mut FunctionBuilder<'_>, spec: &CaseSpec, me: usize, body: &[Stmt]) {
        for stmt in body {
            self.emit_stmt(f, spec, me, stmt);
        }
    }

    /// `dst = buf + ((i * stride + salt) % buf_cells)` — a strided modular
    /// buffer address.
    fn buffer_addr(&mut self, f: &mut FunctionBuilder<'_>, i: Reg, stride: i64, salt: Reg) -> Reg {
        let s = f.const_temp(stride % self.buf_cells.max(1) + 1);
        let t = f.temp();
        f.mul(t, i, s);
        f.add(t, t, salt);
        let m = f.temp();
        f.rem(m, t, self.buf_len);
        // rem follows the dividend's sign; fold negatives back into range.
        let len2 = self.buf_len;
        f.add(m, m, len2);
        f.rem(m, m, len2);
        let addr = f.temp();
        f.add(addr, self.buf, m);
        addr
    }

    fn emit_stmt(&mut self, f: &mut FunctionBuilder<'_>, spec: &CaseSpec, me: usize, stmt: &Stmt) {
        match stmt {
            Stmt::Work { reads, writes, stride } => {
                let stride = i64::from(*stride);
                let n = f.const_temp(i64::from(*reads));
                let (acc, depth) = (self.acc, self.depth);
                f.for_range(n, |f, i| {
                    let addr = self.buffer_addr(f, i, stride, depth);
                    let v = f.temp();
                    f.load(v, addr, 0);
                    f.add(acc, acc, v);
                });
                if *writes > 0 {
                    let n = f.const_temp(i64::from(*writes));
                    f.for_range(n, |f, i| {
                        let addr = self.buffer_addr(f, i, stride, acc);
                        let v = f.temp();
                        f.add(v, acc, i);
                        f.store(v, addr, 0);
                    });
                }
            }
            Stmt::Loop { trips, body } => {
                let n = f.const_temp(i64::from(*trips));
                let acc = self.acc;
                f.for_range(n, |f, i| {
                    f.add(acc, acc, i);
                    self.emit_stmts(f, spec, me, body);
                });
            }
            Stmt::Diamond { retry, then_b, else_b } => {
                // Parity-of-accumulator branch; the retry back-edge targets
                // the *else arm's entry block* from the join block, so the
                // arm has two in-edges from different regions (multi-entry).
                let two = f.const_temp(2);
                let parity = f.temp();
                f.rem(parity, self.acc, two);
                let ctr = f.const_temp(i64::from(*retry));
                let then_bb = f.new_block();
                let else_bb = f.new_block();
                let join_bb = f.new_block();
                let out_bb = f.new_block();
                f.br(parity, then_bb, else_bb);
                f.switch_to(then_bb);
                self.emit_stmts(f, spec, me, then_b);
                f.jmp(join_bb);
                f.switch_to(else_bb);
                self.emit_stmts(f, spec, me, else_b);
                f.jmp(join_bb);
                f.switch_to(join_bb);
                let one = f.const_temp(1);
                f.sub(ctr, ctr, one);
                let zero = f.const_temp(0);
                let more = f.temp();
                f.cmp(CmpOp::Gt, more, ctr, zero);
                f.br(more, else_bb, out_bb);
                f.switch_to(out_bb);
            }
            Stmt::Call { callee } => {
                let callee = usize::from(*callee);
                // Acyclic by construction: only strictly-later targets are
                // emitted; shrinking may leave dangling indices behind,
                // which simply drop the call.
                if callee > me && callee < spec.funcs.len() {
                    let four = f.const_temp(4);
                    let arg = f.temp();
                    f.rem(arg, self.acc, four);
                    let r = f.temp();
                    // Helper ids follow main in declaration order, so the
                    // spec index is the FuncId.
                    f.call(Some(r), FuncId(callee as u32), &[arg]);
                    f.add(self.acc, self.acc, r);
                }
            }
            Stmt::Locked { lock, body } => {
                // Keys are partitioned per function: every key this function
                // may take is strictly above every key of its callers (calls
                // only go to higher indices), so cross-call acquisition order
                // is globally increasing and a callee can never re-acquire a
                // key its caller holds (mutexes are not reentrant).
                let key = LOCK_BASE + (me as i64) * i64::from(LOCKS) + i64::from(lock % LOCKS);
                // Nesting discipline: only acquire keys strictly above every
                // held key (global order ⇒ no deadlock); otherwise emit the
                // body without the lock wrapper.
                if self.held.last().is_none_or(|&top| key > top) {
                    let k = f.const_temp(key);
                    f.acquire(k);
                    self.held.push(key);
                    self.emit_stmts(f, spec, me, body);
                    self.held.pop();
                    f.release(k);
                } else {
                    self.emit_stmts(f, spec, me, body);
                }
            }
            Stmt::KernelIn { cells } => {
                let n = 1 + i64::from(*cells) % self.buf_cells;
                let fd = f.const_temp(0);
                let len = f.const_temp(n);
                let got = f.temp();
                f.sys_read(got, fd, self.buf, len);
                f.add(self.acc, self.acc, got);
                let (acc, buf) = (self.acc, self.buf);
                f.for_range(len, |f, i| {
                    let addr = f.temp();
                    f.add(addr, buf, i);
                    let v = f.temp();
                    f.load(v, addr, 0);
                    f.add(acc, acc, v);
                });
            }
            Stmt::KernelOut { cells } => {
                let n = 1 + i64::from(*cells) % self.buf_cells;
                let fd = f.const_temp(1);
                let len = f.const_temp(n);
                let sent = f.temp();
                f.sys_write(sent, fd, self.buf, len);
                f.add(self.acc, self.acc, sent);
            }
            Stmt::SharedWrite { cell } => {
                let addr = f.const_temp(SHARED_BASE + i64::from(*cell) % SHARED_CELLS);
                f.store(self.acc, addr, 0);
            }
            Stmt::SharedRead { cell } => {
                let addr = f.const_temp(SHARED_BASE + i64::from(*cell) % SHARED_CELLS);
                let v = f.temp();
                f.load(v, addr, 0);
                f.add(self.acc, self.acc, v);
            }
            Stmt::SemRing { slots, passes } => {
                let ring = i64::from(*slots).clamp(1, RING_SLOTS);
                let n = f.const_temp(i64::from(*passes));
                let (acc, depth) = (self.acc, self.depth);
                f.for_range(n, |f, i| {
                    // slot = (depth + i) mod ring, folded non-negative (the
                    // depth parameter follows its caller's sign) — threads
                    // enter the ring at different slots.
                    let sc = f.const_temp(ring);
                    let slot = f.temp();
                    f.add(slot, depth, i);
                    f.rem(slot, slot, sc);
                    f.add(slot, slot, sc);
                    f.rem(slot, slot, sc);
                    let base = f.const_temp(SEM_BASE);
                    let key = f.temp();
                    f.add(key, base, slot);
                    // Post before wait: the wait below is always backed by
                    // at least one outstanding post, ring-wide, so no
                    // interleaving can deadlock.
                    f.sem_post(key);
                    let rb = f.const_temp(RING_BASE);
                    let cell = f.temp();
                    f.add(cell, rb, slot);
                    f.store(acc, cell, 0);
                    let one = f.const_temp(1);
                    let nxt = f.temp();
                    f.add(nxt, slot, one);
                    f.rem(nxt, nxt, sc);
                    f.add(nxt, nxt, rb);
                    let v = f.temp();
                    f.load(v, nxt, 0);
                    f.add(acc, acc, v);
                    f.sem_wait(key);
                });
            }
            Stmt::SpawnHelper { callee } => {
                let callee = usize::from(*callee);
                // Same acyclicity discipline as Call: only strictly-later
                // targets are emitted, so spawn nesting is bounded by the
                // helper count; shrinking's dangling indices drop the spawn.
                if callee > me && callee < spec.funcs.len() {
                    let four = f.const_temp(4);
                    let arg = f.temp();
                    f.rem(arg, self.acc, four);
                    let h = f.temp();
                    f.spawn(h, FuncId(callee as u32), &[arg]);
                    f.join(h);
                }
            }
            Stmt::YieldNow => f.yield_(),
        }
    }
}

// ---------------------------------------------------------------------------
// Shrinking: every candidate is structurally smaller; emission tolerates
// any combination (dangling call targets drop, empty bodies are fine).
// ---------------------------------------------------------------------------

impl Shrink for Stmt {
    fn shrink_candidates(&self) -> Vec<Self> {
        match self {
            Stmt::Work { reads, writes, stride } => {
                let mut out = Vec::new();
                if *reads > 1 {
                    out.push(Stmt::Work { reads: reads / 2, writes: *writes, stride: *stride });
                }
                if *writes > 0 {
                    out.push(Stmt::Work { reads: *reads, writes: 0, stride: *stride });
                }
                out
            }
            Stmt::Loop { trips, body } => {
                let mut out = Vec::new();
                // Unwrap: the body once, without the loop.
                if body.len() == 1 {
                    out.push(body[0].clone());
                }
                if *trips > 1 {
                    out.push(Stmt::Loop { trips: trips / 2, body: body.clone() });
                }
                for b in body.shrink_candidates() {
                    out.push(Stmt::Loop { trips: *trips, body: b });
                }
                out
            }
            Stmt::Diamond { retry, then_b, else_b } => {
                let mut out = Vec::new();
                if then_b.len() == 1 {
                    out.push(then_b[0].clone());
                }
                if else_b.len() == 1 {
                    out.push(else_b[0].clone());
                }
                if *retry > 0 {
                    out.push(Stmt::Diamond { retry: 0, then_b: then_b.clone(), else_b: else_b.clone() });
                }
                for b in then_b.shrink_candidates() {
                    out.push(Stmt::Diamond { retry: *retry, then_b: b, else_b: else_b.clone() });
                }
                for b in else_b.shrink_candidates() {
                    out.push(Stmt::Diamond { retry: *retry, then_b: then_b.clone(), else_b: b });
                }
                out
            }
            Stmt::Locked { lock, body } => {
                let mut out = Vec::new();
                if body.len() == 1 {
                    out.push(body[0].clone());
                }
                for b in body.shrink_candidates() {
                    out.push(Stmt::Locked { lock: *lock, body: b });
                }
                out
            }
            Stmt::KernelIn { cells } => {
                if *cells > 1 {
                    vec![Stmt::KernelIn { cells: cells / 2 }]
                } else {
                    Vec::new()
                }
            }
            Stmt::KernelOut { cells } => {
                if *cells > 1 {
                    vec![Stmt::KernelOut { cells: cells / 2 }]
                } else {
                    Vec::new()
                }
            }
            Stmt::SemRing { slots, passes } => {
                let mut out = Vec::new();
                if *passes > 1 {
                    out.push(Stmt::SemRing { slots: *slots, passes: passes / 2 });
                }
                if *slots > 1 {
                    out.push(Stmt::SemRing { slots: slots / 2, passes: *passes });
                }
                out
            }
            // A spawn degrades to a plain call of the same helper: one
            // fewer thread, same callee work.
            Stmt::SpawnHelper { callee } => vec![Stmt::Call { callee: *callee }],
            Stmt::Call { .. }
            | Stmt::SharedWrite { .. }
            | Stmt::SharedRead { .. }
            | Stmt::YieldNow => Vec::new(),
        }
    }
}

impl Shrink for FuncSpec {
    fn shrink_candidates(&self) -> Vec<Self> {
        let mut out = Vec::new();
        for body in self.body.shrink_candidates() {
            out.push(FuncSpec { body, ..self.clone() });
        }
        if self.recursion.is_some() {
            out.push(FuncSpec { recursion: None, ..self.clone() });
        }
        if let Some(d) = self.recursion {
            if d > 1 {
                out.push(FuncSpec { recursion: Some(d / 2), ..self.clone() });
            }
        }
        if self.buf_cells > 1 {
            out.push(FuncSpec { buf_cells: self.buf_cells / 2, ..self.clone() });
        }
        out
    }
}

impl Shrink for CaseSpec {
    fn shrink_candidates(&self) -> Vec<Self> {
        let mut out = Vec::new();
        // Structural first: fewer threads, fewer functions.
        if self.threads > 0 {
            out.push(CaseSpec { threads: 0, ..self.clone() });
            out.push(CaseSpec { threads: self.threads - 1, ..self.clone() });
        }
        for i in (1..self.funcs.len()).rev() {
            let mut funcs = self.funcs.clone();
            funcs.remove(i);
            out.push(CaseSpec { funcs, ..self.clone() });
        }
        if self.input_cells > 1 {
            out.push(CaseSpec { input_cells: self.input_cells / 2, ..self.clone() });
        }
        // Then per-function body shrinks.
        for i in 0..self.funcs.len() {
            for fc in self.funcs[i].shrink_candidates() {
                let mut funcs = self.funcs.clone();
                funcs[i] = fc;
                out.push(CaseSpec { funcs, ..self.clone() });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::mixed();
        for seed in 0..32 {
            let a = CaseSpec::generate(seed, &cfg);
            let b = CaseSpec::generate(seed, &cfg);
            assert_eq!(a, b, "seed {seed} not deterministic");
            assert_eq!(a.program().functions(), b.program().functions());
        }
    }

    #[test]
    fn generated_programs_build_and_run() {
        let cfg = GenConfig::mixed();
        for seed in 0..48 {
            let spec = CaseSpec::generate(seed, &cfg);
            let mut m = spec.build();
            let out = m
                .run_native()
                .unwrap_or_else(|e| panic!("seed {seed} ({}) failed: {e}", spec.summary()));
            assert!(out.total_blocks > 0, "seed {seed} ran nothing");
        }
    }

    #[test]
    fn profiles_gate_statement_families() {
        fn has_kernel(body: &[Stmt]) -> bool {
            body.iter().any(|s| match s {
                Stmt::KernelIn { .. } | Stmt::KernelOut { .. } => true,
                Stmt::Loop { body, .. } | Stmt::Locked { body, .. } => has_kernel(body),
                Stmt::Diamond { then_b, else_b, .. } => has_kernel(then_b) || has_kernel(else_b),
                _ => false,
            })
        }
        for seed in 0..64 {
            let seq = CaseSpec::generate(seed, &GenConfig::concurrent());
            assert!(!seq.funcs.iter().any(|f| has_kernel(&f.body)), "seed {seed} leaked kernel io");
            let kern = CaseSpec::generate(seed, &GenConfig::kernel());
            assert_eq!(kern.threads, 0, "kernel profile must be single-threaded");
        }
    }

    #[test]
    fn shrink_candidates_are_structurally_smaller() {
        let cfg = GenConfig::mixed();
        for seed in 0..16 {
            let spec = CaseSpec::generate(seed, &cfg);
            let size = spec.stmt_count() + spec.funcs.len() * 2 + spec.threads as usize;
            for cand in spec.shrink_candidates() {
                let csize =
                    cand.stmt_count() + cand.funcs.len() * 2 + cand.threads as usize;
                assert!(
                    csize <= size,
                    "candidate grew: {csize} > {size} for seed {seed}"
                );
                // Every candidate must still build and run.
                cand.build().run_native().unwrap_or_else(|e| {
                    panic!("shrunk candidate of seed {seed} broken: {e} ({})", cand.summary())
                });
            }
        }
    }

    #[test]
    fn irreducible_retry_diamond_terminates() {
        // A hand-built spec exercising the retry back-edge specifically.
        let spec = CaseSpec {
            seed: 7,
            threads: 0,
            input_cells: 8,
            funcs: vec![FuncSpec {
                buf_cells: 4,
                recursion: None,
                body: vec![Stmt::Diamond {
                    retry: 2,
                    then_b: vec![Stmt::Work { reads: 2, writes: 1, stride: 1 }],
                    else_b: vec![Stmt::Work { reads: 3, writes: 0, stride: 2 }],
                }],
            }],
        };
        let out = spec.build().run_native().expect("terminates");
        assert!(out.total_blocks > 0);
    }
}
