//! The output-correctness gate: every profile the system hands back must
//! equal the repository's one-shot replay oracle, byte for byte.

use aprof_core::{ProfileReport, TrmsProfiler};
use aprof_wire::WireReader;
use std::collections::BTreeMap;

/// One-shot strict replay of a wire trace into a trms profile — what
/// `aprof-cli replay` computes, and what the daemon must agree with.
pub fn replay(bytes: &[u8]) -> Result<ProfileReport, String> {
    let mut reader = WireReader::new(bytes).map_err(|e| e.to_string())?.strict();
    let mut profiler = TrmsProfiler::new();
    profiler
        .consume_stream(&mut reader)
        .map_err(|e| e.to_string())?;
    let names = reader.routines().clone();
    Ok(profiler.into_report(&names))
}

/// The one-shot replays of a tenant's committed streams in lexicographic
/// stream-id order; their `ProfileReport::merge` is the tenant's expected
/// `/profile`. `streams` pairs each stream id with the index of its
/// trace's report in `reports`.
pub fn tenant_reports(
    streams: &[(String, usize)],
    reports: &[ProfileReport],
) -> Vec<ProfileReport> {
    let mut sorted: Vec<&(String, usize)> = streams.iter().collect();
    sorted.sort();
    sorted.iter().map(|(_, i)| reports[*i].clone()).collect()
}

/// What one tenant must hold: its committed streams, each a stream id and
/// the index of its trace's one-shot replay in `reports`.
pub struct Tenant<'a> {
    pub name: String,
    pub streams: Vec<(String, usize)>,
    pub reports: &'a [ProfileReport],
}

/// Groups committed `(tenant, stream id, trace index)` triples by tenant.
pub fn by_tenant<'a>(
    committed: &[(String, String, usize)],
    reports: &'a [ProfileReport],
) -> Vec<Tenant<'a>> {
    let mut groups: BTreeMap<&str, Vec<(String, usize)>> = BTreeMap::new();
    for (tenant, stream, i) in committed {
        groups.entry(tenant).or_default().push((stream.clone(), *i));
    }
    groups
        .into_iter()
        .map(|(name, streams)| Tenant {
            name: name.to_owned(),
            streams,
            reports,
        })
        .collect()
}

/// The tenant half of the gate: each tenant's `/profile`, as `answer`
/// returns it, must equal `ProfileReport::merge` of the one-shot replays
/// of its committed streams in lexicographic stream-id order. An error
/// from `answer` (no answer, a transport failure) is a violation too.
/// Returns the violations.
pub fn tenant_violations(
    tenants: &[Tenant],
    mut answer: impl FnMut(&str) -> Result<String, String>,
) -> Vec<String> {
    let mut bad = Vec::new();
    for t in tenants {
        let want = ProfileReport::merge(&tenant_reports(&t.streams, t.reports)).to_canonical_text();
        match answer(&t.name) {
            Ok(got) => bad.extend(same_profile(&format!("tenant {}", t.name), &got, &want).err()),
            Err(e) => bad.push(format!("tenant {}: {e}", t.name)),
        }
    }
    bad
}

/// Compares two canonical profile texts; the error names the first line
/// that differs.
pub fn same_profile(what: &str, got: &str, want: &str) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let line = got.lines().zip(want.lines()).position(|(g, w)| g != w);
    let at = match line {
        Some(n) => format!(
            "line {}: got {:?}, want {:?}",
            n + 1,
            got.lines().nth(n),
            want.lines().nth(n)
        ),
        None => format!(
            "{} lines vs {} lines",
            got.lines().count(),
            want.lines().count()
        ),
    };
    Err(format!(
        "{what}: profile differs from the one-shot replay oracle at {at}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{record, Spec};
    use crate::spans::Tracer;

    fn trace(name: &'static str, size: u64) -> Vec<u8> {
        let spec = Spec {
            name,
            size,
            seed: 5,
        };
        record(spec, &Tracer::new(false), None)
            .expect("records")
            .bytes
    }

    #[test]
    fn replay_is_the_identity_oracle() {
        let bytes = trace("dedup", 64);
        let a = replay(&bytes).unwrap().to_canonical_text();
        let b = replay(&bytes).unwrap().to_canonical_text();
        assert!(same_profile("dedup", &a, &b).is_ok());
    }

    /// Replays of two small traces, and the aggregate a daemon holding
    /// `streams` of `tenant` answers.
    fn reports() -> Vec<ProfileReport> {
        vec![
            replay(&trace("dedup", 64)).unwrap(),
            replay(&trace("mysqld", 64)).unwrap(),
        ]
    }

    fn committed(tenant: &str, streams: &[(&str, usize)]) -> Vec<(String, String, usize)> {
        streams
            .iter()
            .map(|&(s, i)| (tenant.to_owned(), s.to_owned(), i))
            .collect()
    }

    fn aggregate(streams: &[(&str, usize)], reports: &[ProfileReport]) -> String {
        let streams: Vec<(String, usize)> =
            streams.iter().map(|&(s, i)| (s.to_owned(), i)).collect();
        ProfileReport::merge(&tenant_reports(&streams, reports)).to_canonical_text()
    }

    #[test]
    fn the_gate_accepts_a_daemon_that_agrees() {
        let reports = reports();
        let mut all = committed("t1", &[("b", 1), ("a", 0)]);
        all.extend(committed("t2", &[("c", 0)]));
        let tenants = by_tenant(&all, &reports);
        assert_eq!(tenants.len(), 2);
        let daemon = |t: &str| {
            Ok(match t {
                "t1" => aggregate(&[("a", 0), ("b", 1)], &reports),
                _ => aggregate(&[("c", 0)], &reports),
            })
        };
        assert_eq!(tenant_violations(&tenants, daemon), Vec::<String>::new());
    }

    #[test]
    fn a_planted_mismatch_is_rejected() {
        let reports = reports();
        let mut all = committed("t1", &[("b", 1), ("a", 0)]);
        all.extend(committed("t2", &[("c", 0), ("d", 1)]));
        let tenants = by_tenant(&all, &reports);
        // The daemon "lost" stream d of the second tenant.
        let daemon = |t: &str| {
            Ok(match t {
                "t1" => aggregate(&[("a", 0), ("b", 1)], &reports),
                _ => aggregate(&[("c", 0)], &reports),
            })
        };
        let bad = tenant_violations(&tenants, daemon);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(
            bad[0].contains("tenant t2") && bad[0].contains("oracle"),
            "{bad:?}"
        );

        // The client missed a commit the daemon holds.
        let short = by_tenant(&committed("t1", &[("a", 0)]), &reports);
        let holds_both = |_: &str| Ok(aggregate(&[("a", 0), ("b", 1)], &reports));
        assert_eq!(tenant_violations(&short, holds_both).len(), 1);

        // A tenant that was never answered.
        let never = |_: &str| Err("never answered".to_owned());
        let bad = tenant_violations(&short, never);
        assert!(bad[0].contains("tenant t1: never answered"), "{bad:?}");

        // One changed byte is enough.
        let want = aggregate(&[("a", 0)], &reports);
        let mut flipped = want.clone().into_bytes();
        let last = flipped.len() - 2;
        flipped[last] = if flipped[last] == b'1' { b'2' } else { b'1' };
        let flipped = String::from_utf8(flipped).unwrap();
        assert_eq!(tenant_violations(&short, |_| Ok(flipped.clone())).len(), 1);
    }

    #[test]
    fn corrupt_traces_fail_replay() {
        let mut bytes = trace("dedup", 64);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        assert!(replay(&bytes).is_err());
    }
}
