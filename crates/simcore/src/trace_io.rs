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
/// instruction count, the event count, then each event's `addr`,
/// `next_use`, `pc`, `sid` and `flags` (16 bytes per event).
pub fn trace_checksum(trace: &CompactTrace) -> u64 {
    let mut sum = Fnv1a::new();
    sum.update(&trace.instructions.to_le_bytes());
    sum.update(&(trace.events.len() as u64).to_le_bytes());
    for e in &trace.events {
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
        let trace = CompactTrace { events: vec![event], instructions: 4 };
        assert_eq!(trace_checksum(&trace), 0x29af_35aa_8c94_e2b5);
        // Distinct traces get distinct identities.
        let mut other = trace.clone();
        other.events[0].addr ^= 0x40;
        assert_ne!(trace_checksum(&other), trace_checksum(&trace));
    }
}
