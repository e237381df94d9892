//! Simulated address-space layout and traced arrays.
//!
//! The instrumented kernels own real Rust buffers for their computation
//! *and* a [`TracedArray`] descriptor per data structure assigning it a
//! region of the simulated 48-bit physical address space. Every access to
//! OA/NA/property/frontier data emits one memory instruction with a
//! synthetic PC (one per static access site) and the structure's id, so
//! the memory system sees exactly the reference stream the algorithm
//! produces on real hardware.

use simcore::block::PAGE_BYTES;
use simcore::trace::{StructId, Tracer};

/// Structure ids shared across all kernels. The Expert Programmer router
/// (Fig. 13) and the T-OPT oracle key off these.
pub mod sid {
    use simcore::trace::StructId;

    pub const NONE: StructId = 0;
    /// Offset array (OA) of the working CSR/CSC.
    pub const OA: StructId = 1;
    /// Neighbors array (NA).
    pub const NA: StructId = 2;
    /// Primary per-vertex property array, indexed through the NA — the
    /// paper's canonical cache-averse structure (outgoing_contrib for PR,
    /// comp for CC, parent for BFS, dist for SSSP, ...).
    pub const PROP_A: StructId = 3;
    /// Secondary per-vertex property array (scores for PR, sigma for BC).
    pub const PROP_B: StructId = 4;
    /// Frontier queue / bucket array.
    pub const FRONTIER: StructId = 5;
    /// Frontier membership bitmap.
    pub const BITMAP: StructId = 6;
    /// Edge weights (SSSP), laid out parallel to the NA.
    pub const WEIGHTS: StructId = 7;
    /// Degree array (PR needs d+(u)).
    pub const DEGREE: StructId = 8;
}

/// Allocates disjoint, page-aligned regions of the simulated address space.
///
/// Each simulated core uses its own `asid`, keeping multi-programmed mixes
/// disjoint (as in the paper's Section IV-D methodology) while still
/// contending for shared LLC sets and DRAM banks.
#[derive(Debug)]
pub struct AddressSpace {
    next: u64,
}

impl AddressSpace {
    /// One terabyte of simulated space per address-space id.
    pub fn new(asid: u8) -> Self {
        AddressSpace { next: (u64::from(asid) << 40) + PAGE_BYTES }
    }

    /// Allocate a region for `len` elements of `elem_size` bytes, page
    /// aligned, with a guard page after it.
    pub fn alloc(&mut self, sid: StructId, elem_size: u64, len: u64) -> TracedArray {
        let base = self.next;
        let bytes = (elem_size * len).div_ceil(PAGE_BYTES) * PAGE_BYTES;
        self.next = base + bytes + PAGE_BYTES; // guard page
        TracedArray { base, elem_size, sid, len }
    }
}

/// A data structure's placement in the simulated address space.
#[derive(Debug, Clone, Copy)]
pub struct TracedArray {
    pub base: u64,
    pub elem_size: u64,
    pub sid: StructId,
    pub len: u64,
}

impl TracedArray {
    /// Simulated byte address of element `i`.
    #[inline]
    pub fn addr(&self, i: u64) -> u64 {
        debug_assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        self.base + i * self.elem_size
    }

    /// Emit a load of element `i` from access site `pc`.
    #[inline]
    pub fn load<T: Tracer + ?Sized>(&self, t: &mut T, pc: u16, i: u64) {
        t.load(pc, self.sid, self.addr(i));
    }

    /// Emit a load of element `i` carrying a T-OPT next-use hint.
    #[inline]
    pub fn load_hinted<T: Tracer + ?Sized>(&self, t: &mut T, pc: u16, i: u64, next_use: u32) {
        t.mem(simcore::trace::MemRef::read(pc, self.sid, self.addr(i)).with_next_use(next_use));
    }

    /// Emit a store to element `i` from access site `pc`.
    #[inline]
    pub fn store<T: Tracer + ?Sized>(&self, t: &mut T, pc: u16, i: u64) {
        t.store(pc, self.sid, self.addr(i));
    }

    pub fn bytes(&self) -> u64 {
        self.elem_size * self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::trace::RecordingTracer;

    #[test]
    fn allocations_are_disjoint_and_page_aligned() {
        let mut space = AddressSpace::new(0);
        let a = space.alloc(sid::OA, 8, 1000);
        let b = space.alloc(sid::NA, 4, 5000);
        assert_eq!(a.base % PAGE_BYTES, 0);
        assert_eq!(b.base % PAGE_BYTES, 0);
        assert!(a.base + a.bytes() < b.base, "regions must not overlap");
    }

    #[test]
    fn distinct_asids_never_collide() {
        let mut s0 = AddressSpace::new(0);
        let mut s1 = AddressSpace::new(1);
        let a = s0.alloc(sid::PROP_A, 4, 1 << 30);
        let b = s1.alloc(sid::PROP_A, 4, 1 << 30);
        assert!(a.addr(a.len - 1) < b.base);
    }

    #[test]
    fn element_addressing() {
        let mut space = AddressSpace::new(0);
        let a = space.alloc(sid::PROP_A, 4, 100);
        assert_eq!(a.addr(1) - a.addr(0), 4);
        assert_eq!(a.addr(99), a.base + 99 * 4);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    #[cfg(debug_assertions)] // `addr` bounds-checks via debug_assert! only
    fn oob_index_caught_in_debug() {
        let mut space = AddressSpace::new(0);
        let a = space.alloc(sid::PROP_A, 4, 10);
        let _ = a.addr(10);
    }

    #[test]
    fn loads_carry_sid_and_pc() {
        let mut space = AddressSpace::new(0);
        let a = space.alloc(sid::NA, 4, 10);
        let mut rec = RecordingTracer::new(100);
        a.load(&mut rec, 0x42, 3);
        a.store(&mut rec, 0x43, 4);
        a.load_hinted(&mut rec, 0x44, 5, 777);
        rec.bubble(1);
        let events: Vec<_> = rec.finish().events.iter().collect();
        assert_eq!(events[0].pc, 0x42);
        assert_eq!(events[0].sid, sid::NA);
        assert_eq!(events[0].addr, a.addr(3));
        assert!(events[1].is_write());
        assert_eq!(events[2].next_use, 777);
    }
}
