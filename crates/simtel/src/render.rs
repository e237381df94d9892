//! Terminal renderers for interval timelines: an ASCII chart for eyes,
//! CSV for spreadsheets. Both are deterministic functions of the
//! interval list.

use crate::TelemetryInterval;
use std::fmt::Write as _;

const BAR_WIDTH: usize = 40;

/// A proportional bar of `value` against `max`, `BAR_WIDTH` cells wide.
#[expect(
    clippy::cast_possible_truncation,
    reason = "a float-to-int cast saturates, and the clamp bounds the cell count"
)]
fn bar(value: f64, max: f64) -> String {
    if max <= 0.0 || value <= 0.0 {
        return String::new();
    }
    let cells = ((value / max) * BAR_WIDTH as f64).round() as usize;
    "#".repeat(cells.clamp(1, BAR_WIDTH))
}

/// Per-interval IPC and L1D MPKI bars, scaled to the run's maxima.
pub fn ascii_timeline(intervals: &[TelemetryInterval]) -> String {
    let mut out = String::new();
    if intervals.is_empty() {
        out.push_str("(no intervals)\n");
        return out;
    }
    let max_ipc = intervals.iter().map(TelemetryInterval::ipc).fold(0.0_f64, f64::max);
    let max_mpki = intervals.iter().map(|iv| iv.l1d.mpki(iv.instructions)).fold(0.0_f64, f64::max);
    let _ = writeln!(
        out,
        "{:>5} {:>14} {:>8} {:>8}  {:<w$}  {:<w$}",
        "intvl",
        "cycles",
        "ipc",
        "mpki",
        "ipc bar",
        "l1d-mpki bar",
        w = BAR_WIDTH
    );
    for iv in intervals {
        let ipc = iv.ipc();
        let mpki = iv.l1d.mpki(iv.instructions);
        let _ = writeln!(
            out,
            "{:>5} {:>14} {:>8.3} {:>8.1}  {:<w$}  {:<w$}",
            iv.index,
            format!("{}..{}", iv.start_cycle, iv.end_cycle),
            ipc,
            mpki,
            bar(ipc, max_ipc),
            bar(mpki, max_mpki),
            w = BAR_WIDTH
        );
    }
    out
}

/// CSV with one row per interval (header included).
pub fn csv_timeline(intervals: &[TelemetryInterval]) -> String {
    let mut out = String::from(
        "index,core,start_cycle,end_cycle,instructions,ipc,\
         l1d_mpki,sdc_mpki,l2c_mpki,llc_mpki,dram_row_hit_rate,\
         mshr_high_water,lp_sdc_routes,lp_hierarchy_routes,sdc_bypasses,\
         stall_rob_full,stall_mshr_full,stall_dram_wait,stall_busy\n",
    );
    for iv in intervals {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{},{},{},{},{},{},{},{}",
            iv.index,
            iv.core,
            iv.start_cycle,
            iv.end_cycle,
            iv.instructions,
            iv.ipc(),
            iv.l1d.mpki(iv.instructions),
            iv.sdc.mpki(iv.instructions),
            iv.l2c.mpki(iv.instructions),
            iv.llc.mpki(iv.instructions),
            iv.dram.row_hit_rate(),
            iv.mshr_high_water,
            iv.lp.sdc_routes,
            iv.lp.hierarchy_routes,
            iv.sdc_bypasses,
            iv.stalls.rob_full,
            iv.stalls.mshr_full,
            iv.stalls.dram_wait,
            iv.stalls.busy,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LevelDelta;

    fn intervals() -> Vec<TelemetryInterval> {
        vec![
            TelemetryInterval {
                index: 0,
                start_cycle: 0,
                end_cycle: 200,
                instructions: 100,
                l1d: LevelDelta { accesses: 40, hits: 30, misses: 10 },
                ..Default::default()
            },
            TelemetryInterval {
                index: 1,
                start_cycle: 200,
                end_cycle: 600,
                instructions: 100,
                l1d: LevelDelta { accesses: 40, hits: 38, misses: 2 },
                ..Default::default()
            },
        ]
    }

    #[test]
    fn ascii_renders_one_row_per_interval() {
        let s = ascii_timeline(&intervals());
        assert_eq!(s.lines().count(), 3, "header + two rows");
        assert!(s.contains("0..200"));
        assert!(s.contains('#'), "bars are drawn");
        assert_eq!(ascii_timeline(&[]), "(no intervals)\n");
    }

    #[test]
    fn ascii_scales_bars_to_the_maximum() {
        let s = ascii_timeline(&intervals());
        let rows: Vec<&str> = s.lines().skip(1).collect();
        // Interval 0 has the higher MPKI, so its bar must be the longer one.
        let hashes = |row: &str| row.rsplit("  ").next().map(|b| b.matches('#').count());
        assert!(hashes(rows[0]) > hashes(rows[1]));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let s = csv_timeline(&intervals());
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("index,core,start_cycle"));
        let cols = lines[0].split(',').count();
        for row in &lines[1..] {
            assert_eq!(row.split(',').count(), cols, "ragged row: {row}");
        }
        assert!(lines[1].starts_with("0,0,0,200,100,0.500000"));
    }
}
