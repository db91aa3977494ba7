//! Sparse guest memory with a bump allocator.

use aprof_shadow::ShadowMemory;
use aprof_trace::Addr;

/// Word-granular guest memory: a sparse map from 64-bit cell addresses to
/// `i64` values. Never-written cells read as 0.
///
/// The cells live in the same arena-paged [`ShadowMemory`] the analysis
/// tools use for their shadow state, so guest data and tool state are paged
/// and accounted identically (256-cell pages, capacity-charged bytes).
///
/// Allocation is a monotone bump pointer starting above a reserved low
/// region, so every `alloc` returns fresh, never-aliased addresses — which
/// keeps profiling results independent of any allocator reuse policy.
///
/// # Example
///
/// ```
/// use aprof_vm::GuestMemory;
/// use aprof_trace::Addr;
/// let mut m = GuestMemory::new();
/// let base = m.alloc(16);
/// m.write(base, 7);
/// assert_eq!(m.read(base), 7);
/// assert_eq!(m.read(base.offset(1)), 0);
/// ```
#[derive(Debug, Default)]
pub struct GuestMemory {
    cells: ShadowMemory<i64>,
    brk: u64,
}

/// Base of the allocatable region; lower addresses are available to guest
/// programs as "static" storage.
const HEAP_BASE: u64 = 0x1_0000;

impl GuestMemory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        GuestMemory { cells: ShadowMemory::new(), brk: HEAP_BASE }
    }

    /// Reads one cell (0 if never written).
    #[inline]
    pub fn read(&self, addr: Addr) -> i64 {
        self.cells.get(addr)
    }

    /// Writes one cell.
    #[inline]
    pub fn write(&mut self, addr: Addr, value: i64) {
        self.cells.set(addr, value);
    }

    /// Allocates `cells` fresh cells and returns the base address.
    pub fn alloc(&mut self, cells: u64) -> Addr {
        let base = self.brk;
        self.brk += cells.max(1);
        Addr::new(base)
    }

    /// Resident bytes of guest data: the page store's
    /// [`ShadowStats::bytes`](aprof_shadow::ShadowStats::bytes).
    pub fn resident_bytes(&self) -> usize {
        self.cells.stats().bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_default_is_zero() {
        let m = GuestMemory::new();
        assert_eq!(m.read(Addr::new(12345)), 0);
        assert_eq!(m.resident_bytes(), 0);
    }

    #[test]
    fn alloc_is_monotone_and_fresh() {
        let mut m = GuestMemory::new();
        let a = m.alloc(10);
        let b = m.alloc(10);
        assert!(b.raw() >= a.raw() + 10);
        let c = m.alloc(0);
        let d = m.alloc(1);
        assert!(d.raw() > c.raw(), "zero-size allocations still get unique bases");
    }

    #[test]
    fn write_read_across_pages() {
        let mut m = GuestMemory::new();
        for i in 0..10u64 {
            m.write(Addr::new(i * 5000), i as i64 + 1);
        }
        for i in 0..10u64 {
            assert_eq!(m.read(Addr::new(i * 5000)), i as i64 + 1);
        }
        assert!(m.resident_bytes() > 0);
    }
}
