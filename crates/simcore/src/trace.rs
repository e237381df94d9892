//! The trace contract between the instrumented GAP kernels and the simulator.
//!
//! Kernels *push* events into a [`Tracer`]: one [`MemRef`] per memory
//! instruction plus "bubble" events standing in for the surrounding
//! non-memory instructions. A compact recorded form ([`CompactTrace`]) lets
//! one kernel execution be replayed through every evaluated system
//! configuration, mirroring ChampSim's trace-driven methodology.
//!
//! Recorded events are stored packed, one `u64` word each
//! ([`PackedEvents`]); [`TraceEvent`] is the decoded 16-byte view replay
//! and tests read.

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

    /// An upper bound on the instructions this tracer still accepts
    /// (fast-forward included) before [`Tracer::done`] turns true; every
    /// instruction emitted past it is dropped. `None` when unbounded.
    /// Kernels size per-run tables with it (the T-OPT oracle).
    fn remaining(&self) -> Option<u64> {
        None
    }

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

    fn remaining(&self) -> Option<u64> {
        self.limit.map(|l| l.saturating_sub(self.instrs))
    }
}

/// One decoded entry of a [`CompactTrace`] (16 bytes; stored packed).
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

    /// A bubble event standing for `n` non-memory instructions.
    pub(crate) fn bubble(n: u64) -> Self {
        TraceEvent { addr: n, next_use: 0, pc: 0, sid: SID_NONE, flags: 0 }
    }

    /// The memory event recording `r`.
    pub(crate) fn mem(r: &MemRef) -> Self {
        let write = if r.is_write { Self::FLAG_WRITE } else { 0 };
        TraceEvent {
            addr: r.addr,
            next_use: r.next_use,
            pc: r.pc,
            sid: r.sid,
            flags: Self::FLAG_MEM | write,
        }
    }

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

// Packed word layout. Memory events (bit 63 set): write bit, hinted bit,
// 4-bit sid, 9-bit pc, 48-bit address; a hinted event's `next_use` is the
// next entry of the hint side table. Other words (bit 63 clear): a bubble
// count in the low 62 bits, or, with the escape bit set, an index into the
// escape table that holds events verbatim.
const MEM: u64 = 1 << 63;
const WRITE: u64 = 1 << 62;
const HINTED: u64 = 1 << 61;
const SID_SHIFT: u32 = 57;
const SID_MASK: u64 = 0xf;
const PC_SHIFT: u32 = 48;
const PC_MASK: u64 = 0x1ff;
const ADDR_MASK: u64 = (1 << 48) - 1;
const ESCAPE: u64 = 1 << 62;
const PAYLOAD_MASK: u64 = (1 << 62) - 1;
/// Events per hint-rank entry (`1 << RANK_SHIFT`): a seek decodes at most
/// this many words.
const RANK_SHIFT: u32 = 6;
const RANK_BLOCK: usize = 1 << RANK_SHIFT;

fn is_hinted(word: u64) -> bool {
    word & (MEM | HINTED) == MEM | HINTED
}

/// The events of a [`CompactTrace`], one `u64` word each.
///
/// Memory events keep their address, pc, sid and write flag in the word;
/// the T-OPT `next_use` of hinted events goes to a `u32` side table, so an
/// unhinted trace costs 8 B per event and a hinted event 12 B. A
/// per-64-event rank over the side table keeps seeking to any event index
/// O(1) ([`PackedEvents::iter_from`]). Events whose fields do not fit the
/// word (a pc above 511, a sid above 15, an address at or above 2^48, a
/// bubble count at or above 2^62, or non-canonical flags) are kept verbatim
/// in an escape table, so every event round-trips exactly. The suite
/// kernels never need it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PackedEvents {
    words: Vec<u64>,
    hints: Vec<u32>,
    /// `hint_rank[b]`: hints held by events `0..RANK_BLOCK * b`.
    hint_rank: Vec<usize>,
    escapes: Vec<TraceEvent>,
}

impl PackedEvents {
    pub fn len(&self) -> usize {
        self.words.len()
    }

    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Resident bytes of the packed events: words, hint table, rank and
    /// escape table.
    pub fn footprint_bytes(&self) -> usize {
        use std::mem::size_of;
        self.words.len() * size_of::<u64>()
            + self.hints.len() * size_of::<u32>()
            + self.hint_rank.len() * size_of::<usize>()
            + self.escapes.len() * size_of::<TraceEvent>()
    }

    fn push_word(&mut self, word: u64) {
        if self.words.len().is_multiple_of(RANK_BLOCK) {
            self.hint_rank.push(self.hints.len());
        }
        self.words.push(word);
    }

    fn push_escape(&mut self, e: TraceEvent) {
        self.push_word(ESCAPE | self.escapes.len() as u64);
        self.escapes.push(e);
    }

    /// Append a memory event.
    fn push_mem(&mut self, r: &MemRef) {
        if u64::from(r.pc) > PC_MASK || u64::from(r.sid) > SID_MASK || r.addr > ADDR_MASK {
            return self.push_escape(TraceEvent::mem(r));
        }
        let mut word = MEM | u64::from(r.sid) << SID_SHIFT | u64::from(r.pc) << PC_SHIFT | r.addr;
        if r.is_write {
            word |= WRITE;
        }
        let hinted = r.next_use != u32::MAX;
        if hinted {
            word |= HINTED;
        }
        self.push_word(word);
        if hinted {
            self.hints.push(r.next_use);
        }
    }

    /// Append a bubble event of `n` instructions.
    fn push_bubble(&mut self, n: u64) {
        if n > PAYLOAD_MASK {
            return self.push_escape(TraceEvent::bubble(n));
        }
        self.push_word(n);
    }

    /// Append any event; it decodes back exactly.
    fn push(&mut self, e: TraceEvent) {
        if e == TraceEvent::bubble(e.addr) {
            self.push_bubble(e.addr);
        } else if e.is_mem() && e.flags & !(TraceEvent::FLAG_MEM | TraceEvent::FLAG_WRITE) == 0 {
            self.push_mem(&e.as_mem_ref());
        } else {
            self.push_escape(e);
        }
    }

    /// Release spare capacity once recording is over.
    fn shrink_to_fit(&mut self) {
        self.words.shrink_to_fit();
        self.hints.shrink_to_fit();
        self.hint_rank.shrink_to_fit();
        self.escapes.shrink_to_fit();
    }

    /// Decoded events in order.
    pub fn iter(&self) -> Events<'_> {
        Events { packed: self, pos: 0, hint: 0 }
    }

    /// Decoded events from index `from` on (empty past the end). Costs one
    /// rank lookup and at most 63 word reads.
    pub fn iter_from(&self, from: usize) -> Events<'_> {
        let pos = from.min(self.len());
        let block = pos >> RANK_SHIFT;
        let base = self.hint_rank.get(block).copied().unwrap_or(self.hints.len());
        let skipped = self.words.get(block << RANK_SHIFT..pos).unwrap_or_default();
        let hint = base + skipped.iter().filter(|&&w| is_hinted(w)).count();
        Events { packed: self, pos, hint }
    }
}

impl FromIterator<TraceEvent> for PackedEvents {
    fn from_iter<I: IntoIterator<Item = TraceEvent>>(iter: I) -> Self {
        let mut packed = PackedEvents::default();
        for e in iter {
            packed.push(e);
        }
        packed
    }
}

/// Sequential decoder over [`PackedEvents`]; also the replay cursor.
#[derive(Debug, Clone)]
pub struct Events<'a> {
    packed: &'a PackedEvents,
    pos: usize,
    /// Index of the next hint-table entry.
    hint: usize,
}

impl Events<'_> {
    /// Index of the next event this iterator yields.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// Restart from the first event once every event has been yielded
    /// (how multicore replay wraps a trace shorter than its window).
    pub(crate) fn wrap(&mut self) {
        if self.pos >= self.packed.len() {
            self.pos = 0;
            self.hint = 0;
        }
    }
}

impl Iterator for Events<'_> {
    type Item = TraceEvent;

    #[inline]
    fn next(&mut self) -> Option<TraceEvent> {
        let word = *self.packed.words.get(self.pos)?;
        self.pos += 1;
        if word & MEM != 0 {
            let next_use = if word & HINTED != 0 {
                let h = self.packed.hints.get(self.hint).copied().unwrap_or(u32::MAX);
                self.hint += 1;
                h
            } else {
                u32::MAX
            };
            let write = if word & WRITE != 0 { TraceEvent::FLAG_WRITE } else { 0 };
            Some(TraceEvent {
                addr: word & ADDR_MASK,
                next_use,
                pc: ((word >> PC_SHIFT) & PC_MASK) as u16,
                sid: ((word >> SID_SHIFT) & SID_MASK) as StructId,
                flags: TraceEvent::FLAG_MEM | write,
            })
        } else if word & ESCAPE == 0 {
            Some(TraceEvent::bubble(word))
        } else {
            let slot = usize::try_from(word & PAYLOAD_MASK).ok();
            slot.and_then(|i| self.packed.escapes.get(i)).copied()
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.packed.len().saturating_sub(self.pos);
        (left, Some(left))
    }
}

impl ExactSizeIterator for Events<'_> {}

/// A recorded, windowed instruction trace for one workload.
///
/// Recording once and replaying through every system configuration keeps
/// every comparison in the evaluation input-identical, exactly like the
/// paper's SimPoint traces.
#[derive(Debug, Clone, Default)]
pub struct CompactTrace {
    pub events: PackedEvents,
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

    /// In-memory footprint of the recorded trace in bytes.
    pub fn footprint_bytes(&self) -> usize {
        self.events.footprint_bytes()
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
            self.trace.events.push_bubble(self.pending_bubbles);
            self.pending_bubbles = 0;
        }
    }

    /// Finish recording and return the trace.
    pub fn finish(mut self) -> CompactTrace {
        self.flush_bubbles();
        self.trace.events.shrink_to_fit();
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
        self.trace.events.push_mem(&r);
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

    fn remaining(&self) -> Option<u64> {
        let window = self.limit.saturating_sub(self.trace.instructions);
        Some(self.skip_remaining.saturating_add(window))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
        let events: Vec<TraceEvent> = trace.events.iter().collect();
        assert_eq!(events.len(), 3);
        // A bubble event carries its instruction count in `addr`.
        assert_eq!(events[0], TraceEvent::bubble(7));
        assert!(events[1].is_mem());
        assert_eq!(events[2], TraceEvent::bubble(2));
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
        assert_eq!(trace.events.iter().next().map(|e| e.pc), Some(2));
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
        assert_eq!(trace.events.iter().next().map(|e| e.as_mem_ref()), Some(r));
    }

    #[test]
    fn remaining_counts_fast_forward_and_window() {
        let mut t = RecordingTracer::with_skip(5, 10);
        assert_eq!(t.remaining(), Some(15));
        t.bubble(7); // 5 skipped, 2 recorded
        assert_eq!(t.remaining(), Some(8));
        for i in 0..20 {
            t.load(1, 0, i * 64);
        }
        assert_eq!(t.remaining(), Some(0));
        assert!(t.done());
        assert_eq!(NullTracer::new().remaining(), None);
        let mut n = NullTracer::with_limit(4);
        n.bubble(3);
        assert_eq!(n.remaining(), Some(1));
    }

    #[test]
    fn unhinted_events_cost_one_word() {
        let mut t = RecordingTracer::new(1_000);
        for i in 0..100 {
            t.load(0x14, 2, i * 64);
            t.bubble(3);
        }
        let plain = t.finish();
        let mut t = RecordingTracer::new(1_000);
        for i in 0..100u32 {
            t.mem(MemRef::read(0x15, 5, u64::from(i) * 64).with_next_use(i));
            t.bubble(3);
        }
        let hinted = t.finish();
        let rank = 4 * std::mem::size_of::<usize>();
        assert_eq!(plain.footprint_bytes(), 200 * 8 + rank);
        assert_eq!(hinted.footprint_bytes(), 200 * 8 + 100 * 4 + rank);
    }

    /// A random `MemRef`, biased towards the packed form's field
    /// boundaries and past them (escape values).
    fn random_ref(rng: &mut StdRng) -> MemRef {
        let pc = match rng.random_range(0..6u32) {
            0 => 0,
            1 => 511,
            2 => 512,
            3 => u16::MAX,
            _ => rng.random_range(0..0x80u16),
        };
        let sid = match rng.random_range(0..5u32) {
            0 => 15,
            1 => 16,
            2 => u8::MAX,
            _ => rng.random_range(0..9u8),
        };
        let addr = match rng.random_range(0..7u32) {
            0 => 0,
            1 => ADDR_MASK,
            2 => ADDR_MASK + 1,
            3 => u64::MAX,
            4 => rng.random_range(0..u64::MAX),
            _ => rng.random_range(0..ADDR_MASK),
        };
        let next_use = match rng.random_range(0..5u32) {
            0 => 0,
            1 => u32::MAX - 1,
            2 => rng.random_range(0..u32::MAX),
            _ => u32::MAX,
        };
        MemRef { addr, pc, sid, is_write: rng.random_range(0..2u32) == 1, next_use }
    }

    /// A recorded trace with memory events, hints, escapes and bubbles,
    /// and the event sequence it must decode to.
    fn random_trace(seed: u64, events: usize) -> (CompactTrace, Vec<TraceEvent>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rec = RecordingTracer::new(u64::MAX);
        let mut want = Vec::new();
        for _ in 0..events / 2 {
            let r = random_ref(&mut rng);
            rec.mem(r);
            want.push(TraceEvent::mem(&r));
            // One bubble call per gap, so each becomes one event.
            let n = match rng.random_range(0..4u32) {
                0 => u32::MAX,
                _ => rng.random_range(1..40u32),
            };
            rec.bubble(n);
            want.push(TraceEvent::bubble(u64::from(n)));
        }
        (rec.finish(), want)
    }

    #[test]
    fn recorded_events_round_trip_every_field() {
        for case in 0..32 {
            let (trace, want) = random_trace(0x7EACE + case, 400);
            let got: Vec<TraceEvent> = trace.events.iter().collect();
            assert_eq!(got, want, "case {case}");
            for (g, w) in got.iter().zip(&want).filter(|(g, _)| g.is_mem()) {
                assert_eq!(g.as_mem_ref(), w.as_mem_ref(), "case {case}");
            }
            assert!(!trace.events.escapes.is_empty(), "case {case} exercises the escape table");
        }
    }

    #[test]
    fn suite_shaped_events_never_escape() {
        let mut rng = StdRng::seed_from_u64(0x5u64);
        let mut rec = RecordingTracer::new(u64::MAX);
        for _ in 0..5_000 {
            let addr = rng.random_range(0..ADDR_MASK);
            let r = MemRef::read(rng.random_range(0..0x77u16), rng.random_range(0..9u8), addr);
            rec.mem(r.with_next_use(rng.random_range(0..u32::MAX)));
            rec.bubble(rng.random_range(1..u32::MAX));
        }
        let trace = rec.finish();
        assert!(trace.events.escapes.is_empty());
        assert_eq!(trace.footprint_bytes(), 10_000 * 8 + 5_000 * 4 + 157 * 8);
    }

    #[test]
    fn bubbles_round_trip_up_to_the_recorders_limit() {
        // Counts past the 62-bit payload escape.
        let counts =
            [0, 1, u64::from(u32::MAX), PAYLOAD_MASK, PAYLOAD_MASK + 1, u64::MAX - 1, u64::MAX];
        let want: Vec<TraceEvent> = counts.iter().map(|&n| TraceEvent::bubble(n)).collect();
        let packed: PackedEvents = want.iter().copied().collect();
        assert_eq!(packed.iter().collect::<Vec<_>>(), want);
        assert_eq!(packed.escapes.len(), 3);
        // Coalesced recorder bubbles keep their full count, clamped at the
        // recorder's limit.
        let limit = 5 * u64::from(u32::MAX) + 3;
        let mut rec = RecordingTracer::new(limit);
        for _ in 0..7 {
            rec.bubble(u32::MAX);
        }
        let trace = rec.finish();
        assert_eq!(trace.instructions, limit);
        assert_eq!(trace.events.iter().collect::<Vec<_>>(), [TraceEvent::bubble(limit)]);
    }

    #[test]
    fn non_canonical_events_round_trip_through_the_escape_table() {
        let odd = [
            TraceEvent { addr: 0x1000, next_use: 5, pc: 3, sid: 1, flags: 2 },
            TraceEvent { addr: 7, next_use: 1, pc: 0, sid: 0, flags: 0 },
            TraceEvent { addr: 64, next_use: 9, pc: 1, sid: 1, flags: 0x81 },
            TraceEvent { addr: 0, next_use: 0, pc: 0, sid: 0, flags: 0 },
        ];
        let packed: PackedEvents = odd.iter().copied().collect();
        assert_eq!(packed.iter().collect::<Vec<_>>(), odd);
        assert_eq!(packed.escapes.len(), 3, "the zero-count bubble packs");
    }

    #[test]
    fn decoding_from_any_seek_position_matches_sequential_decoding() {
        let (trace, want) = random_trace(0x5EEC, 700);
        let len = trace.len();
        for from in 0..=len + 2 {
            let tail: Vec<TraceEvent> = trace.events.iter_from(from).collect();
            assert_eq!(tail, want[from.min(len)..], "seek to {from}");
            assert_eq!(trace.events.iter_from(from).len(), len.saturating_sub(from));
        }
        // A wrapped cursor restarts with the first hint.
        let mut cursor = trace.events.iter_from(len - 1);
        assert_eq!(cursor.next(), want.last().copied());
        cursor.wrap();
        assert_eq!(cursor.pos(), 0);
        assert_eq!(cursor.collect::<Vec<_>>(), want);
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
