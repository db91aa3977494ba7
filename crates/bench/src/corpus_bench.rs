//! The corpus smoke harness behind `repro --corpus`: one seeded,
//! reproducible end-to-end exercise of the fuzzed-CFG differential
//! pipeline (see `DESIGN.md` §11).
//!
//! Four phases, all derived from one base seed so a report reproduces
//! exactly with the same `--corpus-seed`:
//!
//! 1. **Clean sweep** — generate programs under every generator profile
//!    and run all four oracles (naive-vs-engine, wire round-trip,
//!    static-vs-dynamic, bound-vs-fit) on each; everything must pass.
//! 2. **Jobs invariance** — the mixed-profile sweep re-run at 1, 2 and 8
//!    workers must render byte-identical reports and digests.
//! 3. **Crash differential** — the mixed sweep again with `--faults`
//!    semantics: every case's capture is torn at seeded offsets,
//!    salvaged with `recover`, and the prefix replayed for an identical
//!    trms fingerprint.
//! 4. **Mutation sentinels** — plant each profiler bug the harness is
//!    designed to catch ([`Mutation`]); every sweep must FAIL and shrink
//!    its reproducer to a small program, or the oracles prove nothing.
//!
//! [`Mutation`]: aprof_corpus::Mutation

use aprof_corpus::{run_fuzz, FuzzConfig, GenConfig, Mutation};
use std::fmt::Write as _;

/// The default seed of `repro --corpus`.
pub const DEFAULT_CORPUS_SEED: u64 = 1;

/// Cases per profile in phase 1 (the nightly CI job scales this up with
/// `APROF_CORPUS_CASES`).
fn cases_per_profile() -> u64 {
    std::env::var("APROF_CORPUS_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(64)
}

/// Runs the full corpus smoke and returns its rendered report.
///
/// # Errors
///
/// Returns an error string when any phase violates its contract — an
/// oracle failure on a clean corpus, a report that changes with the
/// worker count, a torn capture whose salvage does not replay, or a
/// planted bug that survives the sweep uncaught.
pub fn corpus_smoke(seed: u64) -> Result<String, String> {
    corpus_smoke_with(seed, cases_per_profile())
}

/// [`corpus_smoke`] with an explicit per-profile case count (tests use
/// small counts without touching the environment).
pub fn corpus_smoke_with(seed: u64, cases: u64) -> Result<String, String> {
    let mut out = String::new();
    writeln!(out, "corpus differential smoke (seed {seed:#x}, {cases} cases/profile)").unwrap();

    // Phase 1: every generator profile, all four oracles.
    writeln!(out, "phase 1: clean sweep across generator profiles").unwrap();
    let mut total_events = 0u64;
    for name in ["mixed", "sequential", "concurrent", "kernel"] {
        let profile = GenConfig::by_name(name).expect("known profile");
        let outcome = run_fuzz(&FuzzConfig {
            seed: seed ^ (name.len() as u64),
            cases,
            profile,
            ..FuzzConfig::default()
        });
        if !outcome.failures.is_empty() {
            return Err(format!("clean {name} sweep failed:\n{}", outcome.report));
        }
        total_events += outcome.events;
        writeln!(
            out,
            "  {name:<11} {cases} cases ok, {} events, digest {:016x}",
            outcome.events, outcome.digest
        )
        .unwrap();
    }
    if total_events == 0 {
        return Err("clean sweeps observed no events; corpus is vacuous".into());
    }

    // Phase 2: the report must not depend on the worker count.
    let base = FuzzConfig { seed, cases, ..FuzzConfig::default() };
    let reference = run_fuzz(&FuzzConfig { jobs: 1, ..base });
    for jobs in [2usize, 8] {
        let outcome = run_fuzz(&FuzzConfig { jobs, ..base });
        if outcome.report != reference.report || outcome.digest != reference.digest {
            return Err(format!("jobs={jobs} changed the report or digest"));
        }
    }
    writeln!(out, "phase 2: jobs invariance: 1 == 2 == 8 workers (digest {:016x})", reference.digest)
        .unwrap();

    // Phase 3: the kill/recover/replay differential over generated
    // programs.
    let faulted = run_fuzz(&FuzzConfig { seed, cases, faults: true, ..FuzzConfig::default() });
    if !faulted.failures.is_empty() {
        return Err(format!("crash differential failed:\n{}", faulted.report));
    }
    writeln!(out, "phase 3: crash & recover differential: {cases} cases ok").unwrap();

    // Phase 4: planted profiler bugs must be caught AND shrunk.
    writeln!(out, "phase 4: mutation sentinels").unwrap();
    let sentinels: [(&str, GenConfig, Mutation); 3] = [
        ("drop-kernel-input", GenConfig::kernel(), Mutation::DropKernelInput),
        ("drop-read:2", GenConfig::sequential(), Mutation::DropEveryNthRead(2)),
        ("scale-cost:2", GenConfig::sequential(), Mutation::ScaleNthCost(2)),
    ];
    for (label, profile, mutation) in sentinels {
        let outcome = run_fuzz(&FuzzConfig {
            seed,
            cases: 16,
            profile,
            mutation: Some(mutation),
            ..FuzzConfig::default()
        });
        if outcome.failures.is_empty() {
            return Err(format!("planted bug `{label}` survived the sweep uncaught"));
        }
        let best = outcome.failures.iter().map(|f| f.minimal_blocks).min().unwrap();
        if best >= 20 {
            return Err(format!("planted bug `{label}` only shrank to {best} blocks"));
        }
        writeln!(
            out,
            "  {label:<18} caught in {}/16 cases, best reproducer {best} blocks",
            outcome.failures.len()
        )
        .unwrap();
    }

    writeln!(out, "all phases honoured their contracts").unwrap();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_smoke_passes() {
        let report = corpus_smoke_with(DEFAULT_CORPUS_SEED, 12).expect("smoke passes");
        for needle in ["phase 1", "phase 2", "phase 3", "phase 4", "honoured"] {
            assert!(report.contains(needle), "missing `{needle}` in:\n{report}");
        }
    }

    #[test]
    fn smoke_reports_are_deterministic_per_seed() {
        let a = corpus_smoke_with(5, 8).expect("smoke passes");
        let b = corpus_smoke_with(5, 8).expect("smoke passes");
        assert_eq!(a, b);
    }
}
