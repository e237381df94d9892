//! The trace contract between the instrumented GAP kernels and the simulator.
//!
//! Kernels *push* events into a [`Tracer`]: one [`MemRef`] per memory
//! instruction plus "bubble" events standing in for the surrounding
//! non-memory instructions. A compact recorded form ([`CompactTrace`]) lets
//! one kernel execution be replayed through every evaluated system
//! configuration, mirroring ChampSim's trace-driven methodology.

/// Identifies which program data structure an access touches.
///
/// Structure ids drive the Expert Programmer router (Fig. 13) and let the
/// T-OPT replacement policy restrict its oracle to irregular property data.
pub type StructId = u8;

/// Structure id used for accesses that belong to no tracked array
/// (stack-like or scalar traffic).
pub const SID_NONE: StructId = 0;

/// A single memory reference as emitted by an instrumented kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRef {
    /// Byte address of the access (48-bit physical).
    pub addr: u64,
    /// Synthetic program counter: one per static access site in the kernel.
    pub pc: u16,
    /// Data-structure id of the array being accessed.
    pub sid: StructId,
    /// True for stores.
    pub is_write: bool,
    /// Oracle next-use distance hint for the T-OPT replacement policy:
    /// the global access-position at which this block's vertex is next
    /// referenced. `u32::MAX` means "no hint / never again".
    pub next_use: u32,
}

impl MemRef {
    /// A plain read with no oracle hint.
    pub fn read(pc: u16, sid: StructId, addr: u64) -> Self {
        MemRef { addr, pc, sid, is_write: false, next_use: u32::MAX }
    }

    /// A plain write with no oracle hint.
    pub fn write(pc: u16, sid: StructId, addr: u64) -> Self {
        MemRef { addr, pc, sid, is_write: true, next_use: u32::MAX }
    }

    /// Attach a T-OPT next-use hint.
    pub fn with_next_use(mut self, pos: u32) -> Self {
        self.next_use = pos;
        self
    }
}

/// Sink for the instruction stream produced by an instrumented kernel.
///
/// Kernels must call [`Tracer::done`] at loop boundaries and stop promptly
/// once it returns true; this implements the windowed (SimPoint-like)
/// simulation regions.
pub trait Tracer {
    /// Emit one memory instruction.
    fn mem(&mut self, r: MemRef);
    /// Emit `n` non-memory instructions.
    fn bubble(&mut self, n: u32);
    /// True once the simulation window is exhausted.
    fn done(&self) -> bool;

    /// Convenience: emit a read.
    fn load(&mut self, pc: u16, sid: StructId, addr: u64) {
        self.mem(MemRef::read(pc, sid, addr));
    }

    /// Convenience: emit a write.
    fn store(&mut self, pc: u16, sid: StructId, addr: u64) {
        self.mem(MemRef::write(pc, sid, addr));
    }
}

/// A tracer that discards everything; used to run kernels for their
/// computational result only (e.g. in correctness tests).
#[derive(Debug, Default)]
pub struct NullTracer {
    instrs: u64,
    limit: Option<u64>,
}

impl NullTracer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Stop the kernel after `limit` instructions (still discarding events).
    pub fn with_limit(limit: u64) -> Self {
        NullTracer { instrs: 0, limit: Some(limit) }
    }

    pub fn instructions(&self) -> u64 {
        self.instrs
    }
}

impl Tracer for NullTracer {
    fn mem(&mut self, _r: MemRef) {
        self.instrs += 1;
    }

    fn bubble(&mut self, n: u32) {
        self.instrs += u64::from(n);
    }

    fn done(&self) -> bool {
        self.limit.is_some_and(|l| self.instrs >= l)
    }
}

/// One entry of a [`CompactTrace`] (16 bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Byte address for memory events; bubble count for bubble events.
    pub addr: u64,
    pub next_use: u32,
    pub pc: u16,
    pub sid: StructId,
    pub flags: u8,
}

impl TraceEvent {
    pub const FLAG_MEM: u8 = 1 << 0;
    pub const FLAG_WRITE: u8 = 1 << 1;

    pub fn is_mem(&self) -> bool {
        self.flags & Self::FLAG_MEM != 0
    }

    pub fn is_write(&self) -> bool {
        self.flags & Self::FLAG_WRITE != 0
    }

    pub fn as_mem_ref(&self) -> MemRef {
        debug_assert!(self.is_mem());
        MemRef {
            addr: self.addr,
            pc: self.pc,
            sid: self.sid,
            is_write: self.is_write(),
            next_use: self.next_use,
        }
    }
}

/// A recorded, windowed instruction trace for one workload.
///
/// Recording once and replaying through every system configuration keeps
/// every comparison in the evaluation input-identical, exactly like the
/// paper's SimPoint traces.
#[derive(Debug, Clone, Default)]
pub struct CompactTrace {
    pub events: Vec<TraceEvent>,
    pub instructions: u64,
}

impl CompactTrace {
    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Count of memory references in the trace.
    pub fn mem_refs(&self) -> u64 {
        self.events.iter().filter(|e| e.is_mem()).count() as u64
    }

    /// Approximate in-memory footprint of the recorded trace in bytes.
    pub fn footprint_bytes(&self) -> usize {
        self.events.len() * std::mem::size_of::<TraceEvent>()
    }
}

/// Tracer that records a [`CompactTrace`] up to an instruction limit,
/// optionally fast-forwarding first.
#[derive(Debug)]
pub struct RecordingTracer {
    trace: CompactTrace,
    limit: u64,
    pending_bubbles: u64,
    /// Instructions still to skip before recording starts (the SimPoint
    /// fast-forward into the workload's representative phase).
    skip_remaining: u64,
}

impl RecordingTracer {
    /// Record up to `limit` instructions (memory refs + bubbles).
    pub fn new(limit: u64) -> Self {
        Self::with_skip(0, limit)
    }

    /// Fast-forward `skip` instructions (counted, not recorded), then
    /// record up to `limit` — the SimPoint methodology of Section IV-C:
    /// the recorded region starts inside the kernel's steady-state phase.
    pub fn with_skip(skip: u64, limit: u64) -> Self {
        RecordingTracer {
            trace: CompactTrace::default(),
            limit,
            pending_bubbles: 0,
            skip_remaining: skip,
        }
    }

    fn flush_bubbles(&mut self) {
        if self.pending_bubbles > 0 {
            self.trace.events.push(TraceEvent {
                addr: self.pending_bubbles,
                next_use: 0,
                pc: 0,
                sid: SID_NONE,
                flags: 0,
            });
            self.pending_bubbles = 0;
        }
    }

    /// Finish recording and return the trace.
    pub fn finish(mut self) -> CompactTrace {
        self.flush_bubbles();
        self.trace
    }
}

impl Tracer for RecordingTracer {
    fn mem(&mut self, r: MemRef) {
        if self.skip_remaining > 0 {
            self.skip_remaining -= 1;
            return;
        }
        if self.done() {
            return;
        }
        self.flush_bubbles();
        let mut flags = TraceEvent::FLAG_MEM;
        if r.is_write {
            flags |= TraceEvent::FLAG_WRITE;
        }
        self.trace.events.push(TraceEvent {
            addr: r.addr,
            next_use: r.next_use,
            pc: r.pc,
            sid: r.sid,
            flags,
        });
        self.trace.instructions += 1;
    }

    fn bubble(&mut self, n: u32) {
        let mut n = u64::from(n);
        if self.skip_remaining > 0 {
            let skipped = n.min(self.skip_remaining);
            self.skip_remaining -= skipped;
            n -= skipped;
            if n == 0 {
                return;
            }
        }
        if self.done() {
            return;
        }
        let n = n.min(self.limit - self.trace.instructions);
        self.pending_bubbles += n;
        self.trace.instructions += n;
    }

    fn done(&self) -> bool {
        self.trace.instructions >= self.limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_respects_limit() {
        let mut t = RecordingTracer::new(10);
        for i in 0..20 {
            t.load(1, 2, i * 64);
        }
        assert!(t.done());
        let trace = t.finish();
        assert_eq!(trace.instructions, 10);
        assert_eq!(trace.len(), 10);
    }

    #[test]
    fn bubbles_coalesce() {
        let mut t = RecordingTracer::new(100);
        t.bubble(3);
        t.bubble(4);
        t.load(1, 0, 64);
        t.bubble(2);
        let trace = t.finish();
        assert_eq!(trace.instructions, 10);
        // coalesced: [bubble(7), mem, bubble(2)]
        assert_eq!(trace.len(), 3);
        // A bubble event carries its instruction count in `addr`.
        assert!(!trace.events[0].is_mem() && trace.events[0].addr == 7);
        assert!(trace.events[1].is_mem());
        assert!(!trace.events[2].is_mem() && trace.events[2].addr == 2);
    }

    #[test]
    fn bubble_clamped_at_limit() {
        let mut t = RecordingTracer::new(5);
        t.bubble(100);
        assert!(t.done());
        let trace = t.finish();
        assert_eq!(trace.instructions, 5);
    }

    #[test]
    fn skip_fast_forwards_before_recording() {
        let mut t = RecordingTracer::with_skip(100, 10);
        // 90 bubbles + 10 loads are skipped entirely.
        t.bubble(90);
        for i in 0..10 {
            t.load(1, 0, i * 64);
        }
        assert!(!t.done());
        // Recording starts here.
        t.load(2, 0, 0xAA40);
        t.bubble(50);
        let trace = t.finish();
        assert_eq!(trace.instructions, 10);
        assert_eq!(trace.events[0].pc, 2);
    }

    #[test]
    fn skip_splits_a_straddling_bubble() {
        let mut t = RecordingTracer::with_skip(5, 100);
        t.bubble(8); // 5 skipped, 3 recorded
        let trace = t.finish();
        assert_eq!(trace.instructions, 3);
    }

    #[test]
    fn mem_ref_round_trip() {
        let mut t = RecordingTracer::new(10);
        let r = MemRef::write(7, 3, 0xdead_beef).with_next_use(42);
        t.mem(r);
        let trace = t.finish();
        assert_eq!(trace.events[0].as_mem_ref(), r);
    }

    #[test]
    fn null_tracer_counts_and_limits() {
        let mut t = NullTracer::with_limit(8);
        t.bubble(5);
        assert!(!t.done());
        t.load(0, 0, 0);
        t.store(0, 0, 64);
        t.load(0, 0, 128);
        assert!(t.done());
        assert_eq!(t.instructions(), 8);
    }
}
