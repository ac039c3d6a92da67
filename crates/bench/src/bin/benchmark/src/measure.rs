//! Host measurements: readers of `/proc`, the host speed probe, and the
//! order statistics reported over them. Each `/proc` reader returns `None`
//! when `/proc` is missing or reads unexpectedly, so the metric is left out
//! instead of failing the run.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// The host speed probe's time on the reference machine (2 vCPUs, Xeon at
/// 2.0 GHz) at its fastest: the quietest minutes of its shared host.
/// Multiplying a time by `REFERENCE_PROBE_S / host_probe_s()` measured
/// around it gives the time the reference machine would take when quiet.
pub const REFERENCE_PROBE_S: f64 = 0.030;

/// Seconds this host takes for a fixed amount of simulator-like work: the
/// geometric mean of an event-queue loop and a random walk over memory.
///
/// The reference machine is a guest on a shared host whose speed drifts by
/// up to 2× for minutes at a time as other tenants load it, with no stolen
/// time to show for it: every loop simply runs slower. Both loops call
/// nothing in the simulator, so a change to it cannot move the probe. Timed
/// right before and after a pass, they slow down with it, so the pass time
/// divided by the probe holds far steadier from run to run than the raw
/// pass time (measurements in the package README).
pub fn host_probe_s() -> f64 {
    (timer_heap_loop() * table_walk_loop()).sqrt()
}

/// Pop the earliest of 32,768 timers from a binary heap and re-arm it up to
/// 50 µs later, 600,000 times.
fn timer_heap_loop() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut heap: BinaryHeap<Reverse<(u64, u64)>> = (0..32_768)
        .map(|token| Reverse((xorshift(&mut x) % 50_000, token)))
        .collect();
    for _ in 0..600_000 {
        let Reverse((at, token)) = heap.pop().expect("the heap never drains");
        heap.push(Reverse((at + 1 + xorshift(&mut x) % 50_000, token)));
    }
    black_box(heap);
    t0.elapsed().as_secs_f64()
}

/// Two million dependent read-modify-writes at random slots of a 16 MiB
/// table, which is written once before the clock starts.
fn table_walk_loop() -> f64 {
    const SLOTS: usize = 1 << 21;
    let mut table: Vec<u64> = (0..SLOTS as u64).collect();
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    let mut acc = 0u64;
    let t0 = Instant::now();
    for _ in 0..2_000_000 {
        let slot = xorshift(&mut x) as usize & (SLOTS - 1);
        acc = acc.wrapping_add(table[slot]);
        table[slot] = acc;
    }
    black_box((acc, table));
    t0.elapsed().as_secs_f64()
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// `/proc/<pid>/stat` counts CPU time in clock ticks; Linux fixes
/// `USER_HZ` at 100 on every architecture the simulator builds for.
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds this process has used so far, all threads
/// (joined ones included).
pub fn cpu_seconds() -> Option<f64> {
    parse_stat_cpu(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

fn parse_stat_cpu(stat: &str) -> Option<f64> {
    // The command name (field 2) is parenthesized and may hold spaces, so
    // count fields from the last ')': utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SEC)
}

fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line["VmHWM:".len()..]
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so spreads
/// printed here match the ones the acceptance check computes. A single
/// value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() == 1 {
        return (v[0], v[0], v[0]);
    }
    let m = v.len() + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (q(1), q(2), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_counts_user_and_system_ticks() {
        let stat = "4242 (my (odd) prog) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 1 0";
        assert_eq!(parse_stat_cpu(stat), Some(3.0));
    }

    #[test]
    fn vm_hwm_reads_kib_as_mib() {
        let status = "Name:\tbenchmark\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(2.0));
    }

    #[test]
    fn proc_readers_degrade_to_none() {
        assert_eq!(parse_stat_cpu(""), None);
        assert_eq!(parse_stat_cpu("12 (x) R 1 2"), None);
        assert_eq!(
            parse_stat_cpu("12 (x) R 1 2 3 4 5 6 7 8 9 10 ten 3 0 0"),
            None
        );
        assert_eq!(parse_vm_hwm_mb(""), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // Two values extrapolate: statistics.quantiles([4, 2], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[4.0, 2.0]), (1.5, 3.0, 4.5));
        assert_eq!(median(&[7.0]), 7.0);
    }
}
