//! Property tests: ShadowMemory behaves like a `BTreeMap<u64, T>` with
//! default-on-missing semantics.

use aprof_shadow::{ShadowMemory, PAGE_CELLS};
use aprof_trace::Addr;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Base of the guest VM's bump-allocated heap (`aprof_vm::GuestMemory`):
/// guest programs use cells on both sides of it.
const HEAP_BASE: u64 = 0x1_0000;

/// Addresses the way guest memory sees them: within a few cells of a page
/// edge, on pages just below and just above `HEAP_BASE`, plus the top cell
/// of the address space.
fn guest_addr() -> impl Strategy<Value = u64> {
    let page = PAGE_CELLS as u64;
    let first = HEAP_BASE / page - 8;
    prop_oneof![
        8 => (first..first + 16, 0u64..8).prop_map(move |(p, d)| p * page + d - 4),
        1 => Just(u64::MAX),
    ]
}

/// Replays `ops` (write on `Some`, read on `None`) against both the shadow
/// memory and a map model, checking every read and the final contents.
fn check_against_model<T>(ops: Vec<(u64, Option<T>)>)
where
    T: Copy + Default + PartialEq + std::fmt::Debug,
{
    let mut shadow: ShadowMemory<T> = ShadowMemory::new();
    let mut model: BTreeMap<u64, T> = BTreeMap::new();
    for (addr, write) in ops {
        match write {
            Some(v) => {
                shadow.set(Addr::new(addr), v);
                model.insert(addr, v);
            }
            None => {
                let expect = model.get(&addr).copied().unwrap_or_default();
                prop_assert_eq!(shadow.get(Addr::new(addr)), expect);
            }
        }
    }
    for (&addr, &v) in &model {
        prop_assert_eq!(shadow.get(Addr::new(addr)), v);
    }
}

proptest! {
    /// Scattered `u32` tool state, and `i64` guest data (negative values
    /// included) clustered on page edges around the guest heap base.
    #[test]
    fn matches_map_model(
        ops in prop::collection::vec(
            (any::<u64>(), prop::option::of(any::<u32>())), 1..200),
        guest in prop::collection::vec(
            (guest_addr(), prop::option::of(any::<i64>())), 1..200),
    ) {
        check_against_model(ops);
        check_against_model(guest);
    }

    #[test]
    fn for_each_mut_sees_every_nondefault(values in prop::collection::btree_map(
        0u64..1_000_000, 1u32..u32::MAX, 1..100)) {
        let mut shadow: ShadowMemory<u32> = ShadowMemory::new();
        for (&a, &v) in &values {
            shadow.set(Addr::new(a), v);
        }
        let mut seen = BTreeMap::new();
        shadow.for_each_mut(|a, v| {
            if *v != 0 {
                seen.insert(a.raw(), *v);
            }
        });
        prop_assert_eq!(seen, values);
    }
}
