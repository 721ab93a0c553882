//! What every workload shares: the run settings, the pass schedule, the
//! set-up timer, the outcome a workload reports, and the process
//! counters read from `/proc`.

use std::time::Instant;

use crate::stats::median;

/// The settings of one benchmark run.
pub struct RunConfig {
    /// The workload seed; a workload derives all of its inputs from it.
    pub seed: u64,
    /// How long the timed passes run.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub traced: bool,
}

/// A metric value with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The end-to-end figures every workload reports, each in the workload's
/// own unit of work (see `METRICS.md`).
#[derive(Default)]
pub struct Headline {
    /// Units of work completed per second.
    pub rate_per_s: f64,
    /// Median latency of the workload's user-visible operation.
    pub p50_ms: f64,
    /// Its tail: the highest percentile the sample supports.
    pub tail_ms: f64,
    /// Useful outcomes divided by attempts.
    pub yield_ratio: f64,
}

/// Failed checks listed in an outcome; more are only counted.
const MAX_PROBLEMS: usize = 20;

/// What a workload reports back to `main`.
#[derive(Default)]
pub struct Outcome {
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// Operations whose outputs failed a check.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// Median set-up time.
    pub setup_s: f64,
    pub headline: Headline,
    /// The workload's end-to-end metrics under their own names.
    pub named: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Wall times of the untraced and of the traced passes.
    pub untraced_walls: Vec<f64>,
    pub traced_walls: Vec<f64>,
}

impl Outcome {
    /// Records the result of one output check of one operation.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < MAX_PROBLEMS {
                self.problems.push(problem());
            }
        }
    }

    /// Adds the checks another worker recorded into its own outcome.
    pub fn absorb_checks(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = MAX_PROBLEMS.saturating_sub(self.problems.len());
        self.problems.extend(other.problems.into_iter().take(room));
    }
}

/// Decides which timed pass comes next. Untraced runs repeat passes until
/// the time budget is spent (at least one pass). Traced runs alternate an
/// untraced and a traced pass, at least two of each, so the tracing
/// overhead compares passes made under the same conditions.
pub struct Schedule {
    start: Instant,
    budget: f64,
    traced_run: bool,
    untraced: usize,
    traced: usize,
}

impl Schedule {
    pub fn new(config: &RunConfig) -> Self {
        Schedule {
            start: Instant::now(),
            budget: config.seconds,
            traced_run: config.traced,
            untraced: 0,
            traced: 0,
        }
    }

    /// `Some(traced)` for the next pass, `None` when the run is over.
    pub fn next_pass(&mut self) -> Option<bool> {
        let spent = self.start.elapsed().as_secs_f64() >= self.budget;
        if !self.traced_run {
            if self.untraced >= 1 && spent {
                return None;
            }
            self.untraced += 1;
            return Some(false);
        }
        if self.untraced > self.traced {
            self.traced += 1;
            return Some(true);
        }
        if self.traced >= 2 && spent {
            return None;
        }
        self.untraced += 1;
        Some(false)
    }

    /// Passes scheduled so far, the current one included.
    pub fn passes(&self) -> usize {
        self.untraced + self.traced
    }
}

/// Times a workload's set-up. A sample averages enough back-to-back
/// set-ups to last 20 ms, so a set-up of nanoseconds is timed as steadily
/// as a long one; the results of all but the last set-up of a sample are
/// dropped inside the timing. [`SetupTimer::start`] takes the first sample
/// and keeps one result for the run, and a workload takes one more sample
/// before every timed pass, so the median spans the whole run and a burst
/// of host load at start-up does not set it.
pub struct SetupTimer<F> {
    setup: F,
    reps: u32,
    samples: Vec<f64>,
}

impl<T, F: FnMut() -> T> SetupTimer<F> {
    const SAMPLE_SECONDS: f64 = 0.02;

    /// Sets up until a sample's 20 ms have passed, which fixes the number
    /// of set-ups a sample averages, and returns the timer with the last
    /// result.
    pub fn start(mut setup: F) -> (Self, T) {
        let t = Instant::now();
        let mut reps = 1;
        let mut value = std::hint::black_box(setup());
        while t.elapsed().as_secs_f64() < Self::SAMPLE_SECONDS {
            drop(value);
            value = std::hint::black_box(setup());
            reps += 1;
        }
        let first = t.elapsed().as_secs_f64() / f64::from(reps);
        let timer = SetupTimer {
            setup,
            reps,
            samples: vec![first],
        };
        (timer, value)
    }

    /// Takes one more sample.
    pub fn sample(&mut self) {
        let t = Instant::now();
        for _ in 1..self.reps {
            drop(std::hint::black_box((self.setup)()));
        }
        let last = std::hint::black_box((self.setup)());
        self.samples
            .push(t.elapsed().as_secs_f64() / f64::from(self.reps));
        drop(last);
    }

    /// The median sample.
    pub fn median(&self) -> f64 {
        median(&self.samples)
    }
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    proc_status_kib("VmHWM:").map_or(0.0, |kib| kib as f64 / 1024.0)
}

fn proc_status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// User plus system CPU seconds of this process, all threads included.
pub fn process_cpu_seconds(ticks_per_second: f64) -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) as f64 / ticks_per_second,
        _ => 0.0,
    }
}

/// Runs a command and returns its trimmed standard output, or `None` when
/// it cannot run or fails.
pub fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let mut command = std::process::Command::new(program);
    command.args(args);
    // Keep git from searching above the working directory.
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(std::path::Path::to_path_buf))
    {
        command.env("GIT_CEILING_DIRECTORIES", parent);
    }
    let out = command.stderr(std::process::Stdio::null()).output().ok()?;
    if !out.status.success() {
        return None;
    }
    Some(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Clock ticks per second of `/proc/self/stat` (`getconf CLK_TCK`).
pub fn clock_ticks() -> f64 {
    command_output("getconf", &["CLK_TCK"])
        .and_then(|s| s.parse().ok())
        .unwrap_or(100.0)
}

/// A SplitMix64 step: derives independent sub-seeds from the workload
/// seed.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_runs_make_at_least_one_pass() {
        let config = RunConfig {
            seed: 0,
            seconds: 0.0,
            traced: false,
        };
        let mut s = Schedule::new(&config);
        assert_eq!(s.next_pass(), Some(false));
        assert_eq!(s.next_pass(), None);
    }

    #[test]
    fn traced_runs_alternate_at_least_two_pairs() {
        let config = RunConfig {
            seed: 0,
            seconds: 0.0,
            traced: true,
        };
        let mut s = Schedule::new(&config);
        let passes: Vec<bool> = std::iter::from_fn(|| s.next_pass()).collect();
        assert_eq!(passes, [false, true, false, true]);
        assert_eq!(s.passes(), 4);
    }

    #[test]
    fn setup_time_is_positive_and_returns_a_value() {
        let (mut timer, v) = SetupTimer::start(|| vec![1u8; 64]);
        timer.sample();
        assert_eq!(timer.samples.len(), 2);
        assert!(timer.reps > 1);
        assert!(timer.median() > 0.0);
        assert_eq!(v.len(), 64);
    }

    #[test]
    fn proc_counters_read() {
        assert!(peak_rss_mib() > 0.0);
        assert!(process_cpu_seconds(100.0) >= 0.0);
        assert_ne!(mix(1, 0), mix(1, 1));
    }
}
