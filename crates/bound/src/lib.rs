//! `aprof-bound` — static symbolic cost-bound inference over guest IR.
//!
//! An abstract-interpretation pass that assigns every routine a bound on
//! the lattice
//!
//! ```text
//! Const ⊑ Log ⊑ Linear ⊑ Linearithmic ⊑ Poly(k) ⊑ Exponential ⊑ Unknown
//! ```
//!
//! by classifying natural-loop trip counts (induction-variable detection
//! against constant and input-derived limits), analyzing recursion over
//! call-graph SCCs with size-change arguments (decrement ⇒ linear depth,
//! halving ⇒ logarithmic depth, branching self-calls ⇒ exponential), and
//! composing callee summaries bottom-up through loop nests.
//!
//! The companion [`differential`] module compares the inferred bound to
//! the growth model `aprof-analysis` fits to a routine's measured
//! `(rms, cost)` profile, classifying each routine `consistent`,
//! `imprecise` (bound sound but loose), or `unsound` (the execution
//! outgrew the bound — a hard failure surfaced as B305). The corpus
//! fuzzer runs this differential as its bound-vs-fit oracle.
//!
//! ```
//! use aprof_bound::{infer_functions, Bound};
//! let module = aprof_vm::asm::parse_module(
//!     "func main() regs=4 {\n\
//!      entry:\n    r0 = const 0\n    r1 = const 10\n    jmp head\n\
//!      head:\n    r2 = clt r0, r1\n    br r2, body, exit\n\
//!      body:\n    r3 = const 1\n    r0 = add r0, r3\n    jmp head\n\
//!      exit:\n    ret r0\n}",
//! )
//! .unwrap();
//! let report = infer_functions(&module.functions);
//! assert_eq!(report.bounds[0].bound, Bound::Const);
//! ```

#![forbid(unsafe_code)]

pub mod differential;
pub mod infer;
pub mod lattice;

pub use differential::{
    classify, compare, model_bound, strong_evidence, BoundVsFit, RoutineComparison,
};
pub use infer::{infer_functions, infer_program, BoundReport, BoundStats, RoutineBound};
pub use lattice::{Bound, MAX_POLY_DEGREE};
