//! End-to-end benchmark of the DAISM simulation stack: compiled CNN
//! serving at two precisions and approximate training, with a traced mode
//! that times every layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cnn_serve|train> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1` (see
//! `perfbench/README.md` for their definitions).

mod model;
mod serve;
mod trace;
mod train;

use model::Net;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Command-line arguments.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <cnn_serve|train> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// One metric of the result line.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload reports.
#[derive(Debug)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // A NaN or infinite value has no JSON form: report it as
                // null so the line stays parseable.
                let value =
                    if m.value.is_finite() { format!("{:?}", m.value) } else { "null".into() };
                format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// SplitMix64: the benchmark's own generator for schedules and inputs,
/// so a seed always yields the same workload.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// Ticks run before timing starts, so lazy set-up and caches settle.
const WARMUP_TICKS: u64 = 16;

/// The result of a closed loop: one client issues a tick (a burst of
/// requests, or one training step), waits for it to finish, and issues
/// the next.
#[derive(Debug, Default)]
pub struct LoopStats {
    /// Every timed tick, in order.
    pub ticks: Vec<TickTime>,
    pub requests: u64,
    pub samples: u64,
}

/// Which timed tick this was, when it started (from the start of the
/// timed loop), how long it took and how many samples it carried.
#[derive(Debug, Clone, Copy)]
pub struct TickTime {
    pub index: u64,
    pub start_ns: u64,
    pub latency_ns: u64,
    pub samples: u64,
}

/// What one tick did.
#[derive(Debug)]
pub struct Tick {
    pub requests: u64,
    pub samples: u64,
}

/// Runs `tick(i)` for [`WARMUP_TICKS`] untimed ticks, then for `seconds`
/// of timed ticks (at least `min_ticks`), timing each.
pub fn closed_loop(seconds: f64, min_ticks: usize, mut tick: impl FnMut(u64) -> Tick) -> LoopStats {
    for i in 0..WARMUP_TICKS {
        tick(i);
    }
    let mut stats = LoopStats::default();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut i = WARMUP_TICKS;
    while start.elapsed() < budget || stats.ticks.len() < min_ticks {
        let t0 = Instant::now();
        let done = tick(i);
        stats.ticks.push(TickTime {
            index: i,
            start_ns: (t0 - start).as_nanos() as u64,
            latency_ns: t0.elapsed().as_nanos() as u64,
            samples: done.samples,
        });
        stats.requests += done.requests;
        stats.samples += done.samples;
        i += 1;
    }
    eprintln!(
        "perfbench: {} timed ticks ({} requests, {} samples) in {:.3} s",
        stats.ticks.len(),
        stats.requests,
        stats.samples,
        start.elapsed().as_secs_f64()
    );
    stats
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation.
pub fn quantile(values: &[u64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] as f64 + (sorted[hi] as f64 - sorted[lo] as f64) * (pos - lo as f64)
}

/// Set-up repetitions per median.
const SETUP_REPS: usize = 15;

/// Runs `setup` [`SETUP_REPS`] times and returns the median time in
/// seconds. Workloads take one median before the timed loop and one after
/// it and report the lower as `setup_s`: the machine's slow phases last
/// seconds, so the two are rarely both slowed by a neighbour.
pub fn median_setup<T>(mut setup: impl FnMut() -> T) -> f64 {
    let times: Vec<u64> = (0..SETUP_REPS)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(setup());
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    quantile(&times, 0.5) / 1e9
}

/// Length of the windows the timed loop is cut into.
const WINDOW_NS: u64 = 500_000_000;
/// Windows with fewer ticks are too short to judge and are left out.
const MIN_WINDOW_TICKS: usize = 10;
/// A window is quiet when its median tick latency is at most this
/// multiple of the lowest window median.
const QUIET: f64 = 1.15;

/// The ticks of the quiet windows. On a shared machine a neighbour can
/// slow most ticks by 1.3–1.8× for a second or more at a time; such
/// windows measure the neighbour, not the program, and are left out. A
/// change that slows the program slows every window alike, so it still
/// shows.
pub fn quiet_ticks(stats: &LoopStats) -> Vec<TickTime> {
    let mut windows: Vec<Vec<TickTime>> = Vec::new();
    for t in &stats.ticks {
        let w = (t.start_ns / WINDOW_NS) as usize;
        if windows.len() <= w {
            windows.resize(w + 1, Vec::new());
        }
        windows[w].push(*t);
    }
    windows.retain(|w| w.len() >= MIN_WINDOW_TICKS);
    if windows.is_empty() {
        // Too few ticks to cut into windows: judge the run as a whole.
        return stats.ticks.clone();
    }
    let median =
        |w: &[TickTime]| quantile(&w.iter().map(|t| t.latency_ns).collect::<Vec<_>>(), 0.5);
    let best = windows.iter().map(|w| median(w)).fold(f64::INFINITY, f64::min);
    windows.retain(|w| median(w) <= QUIET * best);
    let quiet = windows.concat();
    eprintln!("perfbench: {} of {} timed ticks in quiet windows", quiet.len(), stats.ticks.len());
    quiet
}

/// The end-to-end metrics every workload reports, over the ticks of
/// the quiet windows.
pub fn end_to_end(stats: &LoopStats, setup_s: f64) -> Vec<Metric> {
    let ticks = quiet_ticks(stats);
    let latencies: Vec<u64> = ticks.iter().map(|t| t.latency_ns).collect();
    let busy_s = latencies.iter().sum::<u64>() as f64 / 1e9;
    let samples: u64 = ticks.iter().map(|t| t.samples).sum();
    vec![
        Metric { name: "latency_p50_ms", value: quantile(&latencies, 0.5) / 1e6, unit: "ms" },
        Metric { name: "latency_p99_ms", value: quantile(&latencies, 0.99) / 1e6, unit: "ms" },
        Metric { name: "throughput", value: samples as f64 / busy_s, unit: "samples/s" },
        Metric { name: "setup_s", value: setup_s, unit: "s" },
    ]
}

/// The per-layer metrics every workload reports, from a traced run's
/// spans in the quiet windows' `ticks`. Each tick ran `batches` batched
/// forwards and SGD updated `params` parameter values in it. A layer the
/// workload does not run reports 0. Backward MACs are twice the forward
/// ones (the weight and the input gradient GEMMs).
pub fn per_layer(
    tracer: &Tracer,
    net: &Net,
    ticks: &[TickTime],
    batches: f64,
    params: f64,
) -> Vec<Metric> {
    let mut quiet = vec![false; ticks.iter().map(|t| t.index as usize + 1).max().unwrap_or(0)];
    for t in ticks {
        quiet[t.index as usize] = true;
    }
    let self_ns = |name: &str| tracer.self_ns(name, &quiet);
    let samples = ticks.iter().map(|t| t.samples).sum::<u64>() as f64;
    let (batches, param_updates) = (batches * ticks.len() as f64, params * ticks.len() as f64);
    let macs = net.macs_per_sample();
    let macs_of = |kind: &str| -> f64 {
        let per_sample: u64 =
            net.specs.iter().zip(&macs).filter(|(s, _)| s.name() == kind).map(|(_, m)| m).sum();
        per_sample as f64 * samples
    };
    let ratio = |ns: f64, base: f64| if base > 0.0 { ns / base } else { 0.0 };
    let pointwise = |dir: &str| -> f64 {
        ["relu", "pool", "flatten"].iter().map(|k| self_ns(&format!("{k}.{dir}"))).sum()
    };
    let metric = |name, value, unit| Metric { name, value, unit };
    vec![
        metric("conv_fwd_ns_per_mac", ratio(self_ns("conv.fwd"), macs_of("conv")), "ns/MAC"),
        metric("dense_fwd_ns_per_mac", ratio(self_ns("dense.fwd"), macs_of("dense")), "ns/MAC"),
        metric("pointwise_fwd_ns_per_sample", ratio(pointwise("fwd"), samples), "ns"),
        metric("conv_bwd_ns_per_mac", ratio(self_ns("conv.bwd"), 2.0 * macs_of("conv")), "ns/MAC"),
        metric(
            "dense_bwd_ns_per_mac",
            ratio(self_ns("dense.bwd"), 2.0 * macs_of("dense")),
            "ns/MAC",
        ),
        metric("pointwise_bwd_ns_per_sample", ratio(pointwise("bwd"), samples), "ns"),
        metric("loss_ns_per_sample", ratio(self_ns("loss"), samples), "ns"),
        metric("sgd_ns_per_param", ratio(self_ns("sgd"), param_updates), "ns"),
        metric("session_self_ns_per_sample", ratio(self_ns("session.flush"), samples), "ns"),
        metric("samples_per_batch", ratio(samples, batches), "count"),
        metric("macs_per_sample", macs.iter().sum::<u64>() as f64, "count"),
    ]
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // The worker pool runs on one thread unless the caller asks for
    // more: on a small shared machine a second worker's timing depends on
    // the neighbours more than on the program.
    if std::env::var_os("RAYON_NUM_THREADS").is_none() {
        std::env::set_var("RAYON_NUM_THREADS", "1");
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "perfbench: workload={} seed={} seconds={} trace={} available_parallelism={threads} RAYON_NUM_THREADS={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::env::var("RAYON_NUM_THREADS").unwrap_or_default()
    );
    let report = match args.workload.as_str() {
        "cnn_serve" => serve::cnn(&args),
        "train" => train::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!("{}", report.to_json());
}
