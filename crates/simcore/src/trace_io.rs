//! The identity of a recorded trace.
//!
//! Traces are recorded once per harness process and replayed from memory
//! against every design; they are never written to disk. What persists
//! is their identity, [`trace_checksum`]: sweep resume keys, checkpoint
//! headers and the simserve result cache embed it, so records and
//! snapshots taken against a regenerated (different) trace are detected
//! and re-run, never silently reused.

use crate::trace::CompactTrace;
use simstate::Fnv1a;

/// FNV-1a over a trace's logical content, all little-endian: the
/// instruction count, the event count, then each decoded event's `addr`,
/// `next_use`, `pc`, `sid` and `flags` (16 bytes per event). The packed
/// storage layout is not part of the identity.
pub fn trace_checksum(trace: &CompactTrace) -> u64 {
    let mut sum = Fnv1a::new();
    sum.update(&trace.instructions.to_le_bytes());
    sum.update(&(trace.events.len() as u64).to_le_bytes());
    for e in trace.events.iter() {
        sum.update(&e.addr.to_le_bytes());
        sum.update(&e.next_use.to_le_bytes());
        sum.update(&e.pc.to_le_bytes());
        sum.update(&[e.sid, e.flags]);
    }
    sum.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;

    #[test]
    fn trace_checksum_pins_the_identity_bytes() {
        let event = TraceEvent { addr: 0x1000, next_use: 5, pc: 3, sid: 1, flags: 2 };
        let trace = CompactTrace { events: [event].into_iter().collect(), instructions: 4 };
        assert_eq!(trace_checksum(&trace), 0x29af_35aa_8c94_e2b5);
        // Distinct traces get distinct identities.
        let moved = TraceEvent { addr: event.addr ^ 0x40, ..event };
        let other = CompactTrace { events: [moved].into_iter().collect(), instructions: 4 };
        assert_ne!(trace_checksum(&other), trace_checksum(&trace));
    }

    #[test]
    fn trace_checksum_hashes_the_decoded_events_not_the_packing() {
        let events = [
            TraceEvent::bubble(3),
            TraceEvent { addr: 0x40, next_use: 9, pc: 0x15, sid: 2, flags: 1 },
            TraceEvent { addr: 0x80, next_use: u32::MAX, pc: 0x14, sid: 3, flags: 3 },
            TraceEvent { addr: 1 << 50, next_use: u32::MAX, pc: 600, sid: 20, flags: 1 },
            TraceEvent::bubble(u64::MAX),
        ];
        let trace = CompactTrace { events: events.iter().copied().collect(), instructions: 11 };
        // The identity as it was defined over 16-byte stored events.
        let mut want = Fnv1a::new();
        want.update(&11u64.to_le_bytes());
        want.update(&(events.len() as u64).to_le_bytes());
        for e in &events {
            want.update(&e.addr.to_le_bytes());
            want.update(&e.next_use.to_le_bytes());
            want.update(&e.pc.to_le_bytes());
            want.update(&[e.sid, e.flags]);
        }
        assert_eq!(trace_checksum(&trace), want.finish());
    }
}
