//! Cache replacement policies: LRU (Table I), SRRIP (extension) and
//! T-OPT (the paper's state-of-the-art comparison point), driven by the
//! cache through three hooks: `on_hit`, `on_fill`, and `victim`.

mod topt;

pub use topt::TOPT_DEFAULT_DISTANCE;

use crate::config::ReplacementKind;

/// Per-access context handed to replacement hooks.
#[derive(Debug, Clone, Copy)]
pub struct ReplCtx {
    /// Oracle next-use position for this block (`u32::MAX` = no hint).
    pub next_use: u32,
    /// Current global access position at this cache. 64-bit so the
    /// ordering never wraps: a u32 counter silently corrupts age-based
    /// victim selection once a long run passes 2^32 accesses.
    pub pos: u64,
    /// Data-structure id of the access.
    pub sid: u8,
}

impl ReplCtx {
    pub const NONE: ReplCtx = ReplCtx { next_use: u32::MAX, pos: 0, sid: 0 };
}

/// Enum-dispatched replacement state for the cache hot path: static
/// dispatch and flat `set * ways + way` arrays, so `on_hit`/`on_fill`/
/// `victim` inline into the cache's access loop. The golden fixtures pin
/// its behaviour bit-for-bit.
#[derive(Debug)]
pub enum ReplState {
    Lru { ways: usize, stamps: Vec<u64>, clock: u64 },
    Srrip { ways: usize, rrpv: Vec<u8> },
    TOpt { ways: usize, next_use: Vec<u64>, stamps: Vec<u64>, clock: u64 },
}

/// Maximum (eviction-candidate) re-reference prediction value of SRRIP's
/// 2-bit RRPV. Fills insert at `MAX - 1` ("long" re-reference interval);
/// hits promote to 0.
const SRRIP_MAX_RRPV: u8 = 3;

impl ReplState {
    pub fn new(kind: ReplacementKind, sets: usize, ways: usize) -> Self {
        match kind {
            ReplacementKind::Lru => ReplState::Lru { ways, stamps: vec![0; sets * ways], clock: 0 },
            ReplacementKind::Srrip => {
                ReplState::Srrip { ways, rrpv: vec![SRRIP_MAX_RRPV; sets * ways] }
            }
            ReplacementKind::TOpt => ReplState::TOpt {
                ways,
                next_use: vec![u64::MAX; sets * ways],
                stamps: vec![0; sets * ways],
                clock: 0,
            },
        }
    }

    #[inline]
    pub fn on_hit(&mut self, set: usize, way: usize, ctx: ReplCtx) {
        match self {
            ReplState::Lru { ways, stamps, clock } => {
                *clock += 1;
                stamps[set * *ways + way] = *clock;
            }
            ReplState::Srrip { ways, rrpv } => rrpv[set * *ways + way] = 0,
            ReplState::TOpt { ways, next_use, stamps, clock } => {
                let idx = set * *ways + way;
                next_use[idx] = topt::predicted(ctx);
                *clock += 1;
                stamps[idx] = *clock;
            }
        }
    }

    #[inline]
    pub fn on_fill(&mut self, set: usize, way: usize, ctx: ReplCtx) {
        match self {
            ReplState::Lru { ways, stamps, clock } => {
                *clock += 1;
                stamps[set * *ways + way] = *clock;
            }
            ReplState::Srrip { ways, rrpv } => rrpv[set * *ways + way] = SRRIP_MAX_RRPV - 1,
            ReplState::TOpt { .. } => self.on_hit(set, way, ctx),
        }
    }

    /// Serialize the policy state (variant discriminant + metadata arrays).
    pub fn save_state(&self, w: &mut simstate::StateSink) {
        w.tag(b"REPL");
        match self {
            ReplState::Lru { stamps, clock, .. } => {
                w.put_u8(0);
                w.put_u64s(stamps);
                w.put_u64(*clock);
            }
            ReplState::Srrip { rrpv, .. } => {
                w.put_u8(1);
                w.put_bytes(rrpv);
            }
            ReplState::TOpt { next_use, stamps, clock, .. } => {
                w.put_u8(2);
                w.put_u64s(next_use);
                w.put_u64s(stamps);
                w.put_u64(*clock);
            }
        }
    }

    /// Restore policy state saved by [`Self::save_state`]. The live variant
    /// and geometry must match the stored one (the policy kind is part of
    /// the system configuration, so a mismatch means a stale snapshot).
    pub fn load_state(
        &mut self,
        r: &mut simstate::StateSource,
    ) -> Result<(), simstate::StateError> {
        r.expect_tag(b"REPL")?;
        let disc = r.get_u8()?;
        let expected = match self {
            ReplState::Lru { .. } => 0,
            ReplState::Srrip { .. } => 1,
            ReplState::TOpt { .. } => 2,
        };
        if disc != expected {
            return Err(simstate::StateError::BadValue {
                what: "replacement policy discriminant",
                found: u64::from(disc),
            });
        }
        match self {
            ReplState::Lru { stamps, clock, .. } => {
                r.read_u64s_into("lru stamps", stamps)?;
                *clock = r.get_u64()?;
            }
            ReplState::Srrip { rrpv, .. } => {
                r.read_bytes_into("srrip rrpv", rrpv)?;
            }
            ReplState::TOpt { next_use, stamps, clock, .. } => {
                r.read_u64s_into("topt next_use", next_use)?;
                r.read_u64s_into("topt stamps", stamps)?;
                *clock = r.get_u64()?;
            }
        }
        Ok(())
    }

    #[inline]
    pub fn victim(&mut self, set: usize) -> usize {
        match self {
            ReplState::Lru { ways, stamps, .. } => {
                let base = set * *ways;
                let mut victim = 0;
                let mut oldest = u64::MAX;
                for (w, &s) in stamps[base..base + *ways].iter().enumerate() {
                    if s < oldest {
                        oldest = s;
                        victim = w;
                    }
                }
                victim
            }
            ReplState::Srrip { ways, rrpv } => {
                let set_rrpv = &mut rrpv[set * *ways..(set + 1) * *ways];
                loop {
                    if let Some(w) = set_rrpv.iter().position(|&r| r == SRRIP_MAX_RRPV) {
                        return w;
                    }
                    for r in set_rrpv.iter_mut() {
                        *r += 1;
                    }
                }
            }
            ReplState::TOpt { ways, next_use, stamps, .. } => {
                let base = set * *ways;
                let mut victim = 0;
                let mut farthest = 0u64;
                let mut oldest = u64::MAX;
                for w in 0..*ways {
                    let nu = next_use[base + w];
                    let st = stamps[base + w];
                    // Prefer the farthest predicted next use; break ties LRU.
                    if nu > farthest || (nu == farthest && st < oldest) {
                        farthest = nu;
                        oldest = st;
                        victim = w;
                    }
                }
                victim
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lru(sets: usize, ways: usize) -> ReplState {
        ReplState::new(ReplacementKind::Lru, sets, ways)
    }

    fn srrip(sets: usize, ways: usize) -> ReplState {
        ReplState::new(ReplacementKind::Srrip, sets, ways)
    }

    fn topt(ways: usize) -> ReplState {
        ReplState::new(ReplacementKind::TOpt, 1, ways)
    }

    fn ctx(next_use: u32, pos: u64) -> ReplCtx {
        ReplCtx { next_use, pos, sid: 0 }
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut p = lru(1, 4);
        for w in 0..4 {
            p.on_fill(0, w, ReplCtx::NONE);
        }
        p.on_hit(0, 0, ReplCtx::NONE); // way 0 becomes MRU
        assert_eq!(p.victim(0), 1);
        p.on_hit(0, 1, ReplCtx::NONE);
        assert_eq!(p.victim(0), 2);
    }

    #[test]
    fn lru_mru_never_victim() {
        let mut p = lru(2, 8);
        for w in 0..8 {
            p.on_fill(1, w, ReplCtx::NONE);
        }
        for hit in [3usize, 7, 0, 5] {
            p.on_hit(1, hit, ReplCtx::NONE);
            assert_ne!(p.victim(1), hit);
        }
    }

    #[test]
    fn lru_sets_are_independent() {
        let mut p = lru(2, 2);
        p.on_fill(0, 0, ReplCtx::NONE);
        p.on_fill(0, 1, ReplCtx::NONE);
        p.on_fill(1, 1, ReplCtx::NONE);
        p.on_fill(1, 0, ReplCtx::NONE);
        assert_eq!(p.victim(0), 0);
        assert_eq!(p.victim(1), 1);
    }

    #[test]
    fn srrip_fills_inserted_long_are_early_victims() {
        let mut p = srrip(1, 4);
        for w in 0..4 {
            p.on_fill(0, w, ReplCtx::NONE);
        }
        p.on_hit(0, 2, ReplCtx::NONE);
        // All non-hit ways age to MAX together; way 0 is found first.
        assert_eq!(p.victim(0), 0);
    }

    #[test]
    fn srrip_victim_terminates_and_ages() {
        let mut p = srrip(1, 2);
        p.on_hit(0, 0, ReplCtx::NONE);
        p.on_hit(0, 1, ReplCtx::NONE);
        // Both RRPV=0: aging must occur until one reaches MAX.
        let v = p.victim(0);
        assert!(v < 2);
    }

    #[test]
    fn topt_evicts_farthest_next_use() {
        let mut p = topt(4);
        p.on_fill(0, 0, ctx(100, 0));
        p.on_fill(0, 1, ctx(5000, 0));
        p.on_fill(0, 2, ctx(10, 0));
        p.on_fill(0, 3, ctx(900, 0));
        assert_eq!(p.victim(0), 1);
    }

    #[test]
    fn topt_unhinted_lines_use_default_distance() {
        let mut p = topt(2);
        // Hinted line re-referenced very soon; unhinted assumed far.
        p.on_fill(0, 0, ctx(10, 0));
        p.on_fill(0, 1, ctx(u32::MAX, 0));
        assert_eq!(p.victim(0), 1);
        // Hinted line re-referenced beyond the default distance loses.
        let mut p = topt(2);
        p.on_fill(0, 0, ctx(TOPT_DEFAULT_DISTANCE * 3, 0));
        p.on_fill(0, 1, ctx(u32::MAX, 0));
        assert_eq!(p.victim(0), 0);
    }

    #[test]
    fn topt_hit_refreshes_prediction() {
        let mut p = topt(2);
        p.on_fill(0, 0, ctx(1_000_000, 0));
        p.on_fill(0, 1, ctx(5000, 0));
        assert_eq!(p.victim(0), 0);
        // Way 0 is referenced and its next use is now imminent.
        p.on_hit(0, 0, ctx(600, 550));
        assert_eq!(p.victim(0), 1);
    }

    #[test]
    fn topt_ties_break_lru() {
        let mut p = topt(2);
        p.on_fill(0, 0, ctx(100, 0));
        p.on_fill(0, 1, ctx(100, 0));
        // Way 0 was filled first (older stamp) -> victim.
        assert_eq!(p.victim(0), 0);
    }
}
