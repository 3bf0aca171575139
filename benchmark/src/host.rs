//! The host block: what the numbers were measured on, so results from
//! different machines are never compared blind.

use std::process::Command;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpuinfo_field(field: &str) -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// First line of a command's standard output, or `fallback`.
fn command_line(program: &str, args: &[&str], fallback: &str) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_string))
        })
        .unwrap_or_else(|| fallback.into())
}

/// Peak resident set (VmHWM) of this process, megabytes.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn block(workload: &str, seed: u64, seconds: f64, trace: bool) -> String {
    format!(
        "{{\"nproc\":{},\"cpu_model\":{:?},\"llc\":{:?},\"rustc\":{:?},\"git_rev\":{:?},\"workload\":{:?},\"seed\":{},\"seconds\":{},\"trace\":{}}}",
        nproc(),
        cpuinfo_field("model name"),
        cpuinfo_field("cache size"),
        command_line("rustc", &["--version"], "unknown"),
        command_line("git", &["rev-parse", "HEAD"], "unavailable (not a git checkout)"),
        workload,
        seed,
        seconds,
        trace
    )
}

/// Reference rows run after each set-up repetition (about 3 ms).
pub const SETUP_REFERENCE_ROWS: usize = 1 << 16;
/// A timed loop runs the reference over one batch's worth of rows after
/// every `REFERENCE_EVERY`-th batch.
pub const REFERENCE_EVERY: usize = 4;

/// Rows of the speed reference's own data: 16 MB, beyond L2, as the
/// serving path's tuple pool and window are.
const REFERENCE_ROWS: usize = 1 << 17;
const REFERENCE_DIM: usize = 16;
const REFERENCE_RING: usize = 4_096;
/// The reference's time per row on a 2-vCPU Intel Xeon host (2026) in
/// about its faster state; a host-speed factor of 1 means that speed.
const REFERENCE_NS_PER_ROW: f64 = 50.0;

/// A fixed kernel, owned by the benchmark and independent of the seed,
/// run beside each workload's own work to measure how fast the host is
/// running it. On a shared host the speed of one thread moves by up to
/// 2× over minutes with the load of other tenants; this kernel has the
/// serving path's resource profile (per 16-wide row: a dot product, a
/// copy into a ring buffer and eight projections, rows streamed from
/// beyond L2). Over seven steady_ingest runs whose throughput spread 10%
/// (IQR over median), throughput multiplied by this factor spread 1%.
/// Timings divided by [`SpeedReference::factor`] are in host-normalised
/// seconds.
pub struct SpeedReference {
    rows: Vec<f64>,
    ring: Vec<f64>,
    coef: [f64; REFERENCE_DIM],
    next: usize,
    slot: usize,
    ns: u64,
    done: u64,
}

impl SpeedReference {
    pub fn new() -> Self {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let rows = (0..REFERENCE_ROWS * REFERENCE_DIM)
            .map(|_| {
                // xorshift64, mapped to [-1, 1)
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
            })
            .collect();
        SpeedReference {
            rows,
            ring: vec![0.0; REFERENCE_RING * REFERENCE_DIM],
            coef: std::array::from_fn(|k| 0.1 * k as f64 - 0.7),
            next: 0,
            slot: 0,
            ns: 0,
            done: 0,
        }
    }

    /// Run the kernel over the next `n` rows, timed.
    pub fn run(&mut self, n: usize) {
        let start = std::time::Instant::now();
        let mut selected = 0u64;
        for _ in 0..n {
            let row = &self.rows[self.next * REFERENCE_DIM..(self.next + 1) * REFERENCE_DIM];
            let margin: f64 = row.iter().zip(&self.coef).map(|(x, c)| x * c).sum();
            self.ring[self.slot * REFERENCE_DIM..(self.slot + 1) * REFERENCE_DIM]
                .copy_from_slice(row);
            let violation = (0..8)
                .map(|p| {
                    row.iter()
                        .enumerate()
                        .map(|(k, x)| x * ((k + p) as f64 * 0.01))
                        .sum::<f64>()
                        - 1.0
                })
                .fold(0.0, f64::max);
            selected += u64::from(margin + violation > 0.0);
            self.next = (self.next + 1) % REFERENCE_ROWS;
            self.slot = (self.slot + 1) % REFERENCE_RING;
        }
        std::hint::black_box(selected);
        self.ns += start.elapsed().as_nanos() as u64;
        self.done += n as u64;
    }

    /// How much slower than [`REFERENCE_NS_PER_ROW`] the host ran the
    /// kernel since the last call (1 when it has not run), and restart
    /// the count.
    pub fn factor(&mut self) -> f64 {
        let factor = match self.done {
            0 => 1.0,
            n => self.ns as f64 / n as f64 / REFERENCE_NS_PER_ROW,
        };
        self.ns = 0;
        self.done = 0;
        factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_factor_is_per_row_time_over_nominal_and_restarts() {
        let mut reference = SpeedReference::new();
        assert_eq!(reference.factor(), 1.0);
        reference.run(1_000);
        reference.ns = 100_000;
        assert_eq!(reference.factor(), 100.0 / REFERENCE_NS_PER_ROW);
        // The count restarted.
        assert_eq!(reference.factor(), 1.0);
        // Rows wrap around the reference's data.
        reference.run(REFERENCE_ROWS + 3);
        assert_eq!(reference.next, 1_003);
        assert!(reference.factor() > 0.0);
    }
}
