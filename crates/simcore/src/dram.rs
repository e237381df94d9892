//! DDR4-like main-memory timing model: channels x banks, open-page row
//! buffers, and data-bus occupancy (Table I: 2.933 GT/s DDR4,
//! tRP = tRCD = tCAS = 24 bus cycles).

use crate::config::DramConfig;
use crate::stats::DramStats;

/// Row-buffer outcome of an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOutcome {
    Hit,
    /// Bank was idle (no row open): activate + CAS.
    Miss,
    /// Another row was open: precharge + activate + CAS.
    Conflict,
}

#[derive(Debug, Clone, Copy)]
struct Bank {
    open_row: Option<u64>,
    next_free: u64,
}

/// Scoreboard DRAM model. All times are core cycles.
#[derive(Debug)]
pub struct Dram {
    cfg: DramConfig,
    banks: Vec<Bank>,
    bus_free: Vec<u64>,
    pub stats: DramStats,
    // Pre-converted core-cycle latencies.
    cas: u64,
    rcd_cas: u64,
    rp_rcd_cas: u64,
    burst: u64,
    /// Telemetry hook (disabled by default; row conflicts emit events).
    tel: simtel::TelemetryHandle,
}

impl Dram {
    pub fn new(cfg: &DramConfig) -> Self {
        let n = cfg.channels * cfg.banks_per_channel;
        Dram {
            cfg: *cfg,
            banks: vec![Bank { open_row: None, next_free: 0 }; n],
            bus_free: vec![0; cfg.channels],
            stats: DramStats::default(),
            cas: cfg.to_core_cycles(cfg.t_cas),
            rcd_cas: cfg.to_core_cycles(cfg.t_rcd + cfg.t_cas),
            rp_rcd_cas: cfg.to_core_cycles(cfg.t_rp + cfg.t_rcd + cfg.t_cas),
            burst: cfg.to_core_cycles(cfg.t_burst),
            tel: simtel::TelemetryHandle::disabled(),
        }
    }

    /// Attach the telemetry handle row-conflict events flow through.
    pub fn attach_telemetry(&mut self, tel: simtel::TelemetryHandle) {
        self.tel = tel;
    }

    /// Address mapping: low block bits pick the channel (spreads sequential
    /// blocks across channels), the next bits are the column within a row
    /// (64 blocks = one 4 KiB row), then bank, then row — so a sequential
    /// stream enjoys row-buffer hits while still rotating banks across rows.
    fn map(&self, block: u64) -> (usize, usize, u64) {
        let channels = self.cfg.channels as u64;
        let banks = self.cfg.banks_per_channel as u64;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the remainder is below the channel count, itself a usize"
        )]
        let channel = (block % channels) as usize;
        let rest = block / channels / 64; // strip column bits
        let bank = (rest % banks) as usize;
        let row = rest / banks;
        (channel, bank, row)
    }

    /// Service a block access issued at `now`; returns the completion cycle.
    pub fn access(&mut self, block: u64, is_write: bool, now: u64) -> u64 {
        let (channel, bank_idx, row) = self.map(block);
        let bank = &mut self.banks[channel * self.cfg.banks_per_channel + bank_idx];

        let (outcome, access_lat) = match bank.open_row {
            Some(r) if r == row => (RowOutcome::Hit, self.cas),
            Some(_) => (RowOutcome::Conflict, self.rp_rcd_cas),
            None => (RowOutcome::Miss, self.rcd_cas),
        };

        let start = now.max(bank.next_free);
        let data_ready = start + access_lat;
        // Serialize the channel data bus for the burst transfer.
        let bus_start = data_ready.max(self.bus_free[channel]);
        let done = bus_start + self.burst;

        bank.open_row = Some(row);
        // Bank occupancy: column reads to an open row pipeline at the
        // burst rate (tCCD); activations/precharges occupy the bank for
        // their array time. The full CAS latency is paid once per request
        // (data_ready), not per-bank serialization.
        bank.next_free = start + (access_lat - self.cas) + self.burst;
        self.bus_free[channel] = done;

        match outcome {
            RowOutcome::Hit => self.stats.row_hits += 1,
            RowOutcome::Miss => self.stats.row_misses += 1,
            RowOutcome::Conflict => {
                self.stats.row_conflicts += 1;
                self.tel.event(start, || simtel::EventKind::DramRowConflict);
            }
        }
        if is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
            self.stats.total_read_latency += done - now;
        }
        done
    }

    /// Issue a prefetch access at `now`, unless the target bank or the
    /// channel bus is already backed up by more than `slack` cycles — in
    /// which case the prefetch is dropped (real memory controllers bound
    /// their prefetch queues and drop on overflow, which is what keeps
    /// useless next-line prefetches on random streams from saturating the
    /// DRAM). Returns true if the prefetch was issued.
    pub fn try_prefetch(&mut self, block: u64, now: u64, slack: u64) -> bool {
        let (channel, bank_idx, _) = self.map(block);
        let bank = &self.banks[channel * self.cfg.banks_per_channel + bank_idx];
        if bank.next_free > now + slack || self.bus_free[channel] > now + slack {
            self.stats.prefetches_dropped += 1;
            return false;
        }
        self.access(block, false, now);
        true
    }

    /// Serialize row-buffer and bus scoreboard state plus stats. Config
    /// and the derived latencies are not stored (validated via the
    /// snapshot's config hash); the telemetry handle is re-attached by the
    /// caller after restore.
    pub fn save_state(&self, w: &mut simstate::StateSink) {
        w.tag(b"DRAM");
        w.put_usize(self.banks.len());
        for bank in &self.banks {
            w.put_opt_u64(bank.open_row);
            w.put_u64(bank.next_free);
        }
        w.put_u64s(&self.bus_free);
        self.stats.save_state(w);
    }

    /// Restore state saved by [`Self::save_state`] into a model of the same
    /// channel/bank geometry.
    pub fn load_state(
        &mut self,
        r: &mut simstate::StateSource,
    ) -> Result<(), simstate::StateError> {
        r.expect_tag(b"DRAM")?;
        let n = r.get_usize()?;
        if n != self.banks.len() {
            return Err(simstate::StateError::ShapeMismatch {
                what: "dram banks",
                expected: self.banks.len() as u64,
                found: n as u64,
            });
        }
        for bank in &mut self.banks {
            bank.open_row = r.get_opt_u64()?;
            bank.next_free = r.get_u64()?;
        }
        r.read_u64s_into("dram bus_free", &mut self.bus_free)?;
        self.stats.load_state(r)?;
        Ok(())
    }

    /// Best-case (unloaded row hit) access latency in core cycles.
    pub fn min_latency(&self) -> u64 {
        self.cas + self.burst
    }

    /// Unloaded closed-row latency in core cycles.
    pub fn closed_row_latency(&self) -> u64 {
        self.rcd_cas + self.burst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;

    fn dram() -> Dram {
        Dram::new(&SystemConfig::baseline(1).dram)
    }

    #[test]
    fn first_access_is_row_miss() {
        let mut d = dram();
        let done = d.access(0, false, 0);
        assert_eq!(d.stats.row_misses, 1);
        assert_eq!(done, d.closed_row_latency());
    }

    #[test]
    fn same_row_second_access_is_hit() {
        let mut d = dram();
        let t1 = d.access(0, false, 0);
        // Next sequential block within the same channel stride lands in the
        // same row: block + channels stays in the same bank/row.
        let same_row_block = d.cfg.channels as u64;
        let t2 = d.access(same_row_block, false, t1);
        assert_eq!(d.stats.row_hits, 1);
        assert_eq!(t2 - t1, d.min_latency());
    }

    #[test]
    fn different_row_same_bank_conflicts() {
        let mut d = dram();
        let stride = (d.cfg.channels * d.cfg.banks_per_channel * 64) as u64;
        let t1 = d.access(0, false, 0);
        let t2 = d.access(stride, false, t1);
        assert_eq!(d.stats.row_conflicts, 1);
        assert!(t2 - t1 > d.min_latency());
    }

    #[test]
    fn sequential_blocks_hit_open_row() {
        let mut d = dram();
        let mut t = d.access(0, false, 0);
        // The next 63 blocks of the same channel stay within the row.
        for i in 1..64u64 {
            t = d.access(i * d.cfg.channels as u64, false, t);
        }
        assert_eq!(d.stats.row_hits, 63);
        assert_eq!(d.stats.row_misses, 1);
    }

    #[test]
    fn completion_is_monotonic_per_bank() {
        let mut d = dram();
        let mut last = 0;
        for i in 0..100u64 {
            let done = d.access(i * 977, false, i);
            assert!(done > i);
            // Global completion need not be monotonic across banks, but must
            // always be after issue.
            last = last.max(done);
        }
        assert!(last > 0);
    }

    #[test]
    fn busy_bank_queues_requests() {
        let mut d = dram();
        let t1 = d.access(0, false, 0);
        // Immediately hitting the same bank at cycle 0 queues behind t1.
        let stride = (d.cfg.channels * d.cfg.banks_per_channel * 64) as u64;
        let t2 = d.access(stride, false, 0);
        assert!(t2 > t1);
    }

    #[test]
    fn reads_and_writes_counted() {
        let mut d = dram();
        d.access(0, false, 0);
        d.access(64, true, 0);
        assert_eq!(d.stats.reads, 1);
        assert_eq!(d.stats.writes, 1);
        assert!(d.stats.mean_read_latency() > 0.0);
    }

    #[test]
    fn parallel_banks_overlap() {
        let mut d = dram();
        // Two accesses to different banks of the same channel at the same
        // cycle: bank latencies overlap, only the burst serializes on the
        // data bus.
        let bank_stride = 64 * d.cfg.channels as u64;
        let t1 = d.access(0, false, 0);
        let t2 = d.access(bank_stride, false, 0);
        assert!(t2 - t1 <= d.burst, "bank overlap broken: {t1} vs {t2}");
    }
}
