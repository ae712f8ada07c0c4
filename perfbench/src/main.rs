//! Host-cost benchmark of the virtio-fpga simulator.
//!
//! Measures what it costs the host to simulate, not simulated latency:
//! simulated packets (blk: requests) per wall-second, CPU time per
//! packet, world set-up time and peak memory, per workload. Simulated
//! outputs are deterministic, so they serve as a correctness digest.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics from untraced, unmetered
//! runs. `--trace 1` prints the per-layer metrics: runner spans, counts
//! from a traced and a metered pass, and microcall costs. The last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

mod layers;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use vf_metrics::MetricsConfig;
use vf_trace::Layer;

use layers::{counted, microcalls, Micro, Tally, RECORD_CALLS};
use workloads::{call_seed, Call, Digest, Outcome, Workload};

/// Seed of the reference batch every run checks against [`GOLDEN`].
const REFERENCE_SEED: u64 = 0x5eed;
/// The reference batch runs each call with `packets / REFERENCE_DIVISOR`.
const REFERENCE_DIVISOR: usize = 8;
/// Recorded digest of each workload's metered reference batch: the
/// simulated outputs plus the metered TLP, non-posted-read and
/// descriptor-read totals of every call.
const GOLDEN: [(Workload, u64); 4] = [
    (Workload::RttSerial, 0x7f70_8bea_e25d_ec23),
    (Workload::MqPipelined, 0x136e_def2_27a1_30b9),
    (Workload::TenantsWfq64, 0xec08_6326_210a_9b7e),
    (Workload::BlkSeqRw, 0xa217_6619_7770_5569),
];
/// Round trips (blk: requests) of one set-up measurement call: the
/// shortest run each world config supports.
const SETUP_PACKETS: usize = 1;
/// Wall seconds spent repeating the set-up measurement.
const SETUP_BUDGET_S: f64 = 2.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s >= 1)
            .ok_or("--seconds must be >= 1")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The fastest of repeated timings of the same work; NaN for none.
///
/// On a shared host, interference from other tenants only ever adds
/// time, and it comes in phases lasting from milliseconds to tens of
/// seconds. The median, and even the fast decile, of a run follow the
/// load the run happened to meet; the fastest repeat follows the
/// program's own cost.
pub fn fastest(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// Wall and CPU time of every run of one call of a batch.
#[derive(Clone, Debug)]
struct CallSamples {
    span: &'static str,
    /// Packets each run of the call attempted.
    packets: u64,
    wall_ns: Vec<f64>,
    cpu_ns: Vec<f64>,
}

/// Accumulated result of running a workload's batches.
#[derive(Default)]
struct Pass {
    batches: usize,
    attempted: u64,
    failed: u64,
    grants: u64,
    calls: Vec<CallSamples>,
    digest: Option<u64>,
    /// Every batch produced the same digest.
    repeatable: bool,
}

impl Pass {
    /// Wall nanoseconds per packet of one batch: the fastest run of each
    /// call, summed, over the batch's packets.
    fn ns_per_pkt(&self) -> f64 {
        self.per_pkt(|c| fastest(&c.wall_ns))
    }

    /// Process CPU nanoseconds per packet of one batch, built the same way.
    fn cpu_ns_per_pkt(&self) -> f64 {
        self.per_pkt(|c| fastest(&c.cpu_ns))
    }

    fn per_pkt(&self, f: impl Fn(&CallSamples) -> f64) -> f64 {
        let ns: f64 = self.calls.iter().map(&f).sum();
        ns / self.calls.iter().map(|c| c.packets).sum::<u64>() as f64
    }

    /// Wall nanoseconds per packet charged to each runner span.
    fn spans(&self) -> BTreeMap<&'static str, f64> {
        let mut acc: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        for c in &self.calls {
            let e = acc.entry(c.span).or_default();
            e.0 += fastest(&c.wall_ns);
            e.1 += c.packets;
        }
        acc.into_iter()
            .map(|(k, (ns, n))| (k, ns / n as f64))
            .collect()
    }
}

/// Run whole batches of `w` until `budget_s` wall seconds have passed
/// (at least `min_batches`), each call through `run` with its seed.
fn run_pass(
    w: Workload,
    seed: u64,
    budget_s: f64,
    min_batches: usize,
    mut run: impl FnMut(&Call, u64) -> Outcome,
) -> Pass {
    let calls = w.calls();
    let mut pass = Pass {
        repeatable: true,
        calls: calls
            .iter()
            .map(|c| CallSamples {
                span: c.span,
                packets: 0,
                wall_ns: Vec::new(),
                cpu_ns: Vec::new(),
            })
            .collect(),
        ..Pass::default()
    };
    let start = Instant::now();
    while pass.batches < min_batches || start.elapsed().as_secs_f64() < budget_s {
        let mut digest = Digest::new();
        for (i, call) in calls.iter().enumerate() {
            let cpu = cpu_ns();
            let t = Instant::now();
            let out = run(call, call_seed(seed, i));
            let ns = t.elapsed().as_nanos() as f64;
            let cpu = cpu_ns() - cpu;
            let samples = &mut pass.calls[i];
            samples.packets = out.attempted;
            samples.wall_ns.push(ns);
            samples.cpu_ns.push(cpu);
            pass.attempted += out.attempted;
            pass.failed += out.failed;
            pass.grants += out.grants;
            digest.words(&[out.digest]);
        }
        let digest = digest.finish();
        if *pass.digest.get_or_insert(digest) != digest {
            pass.repeatable = false;
        }
        pass.batches += 1;
    }
    pass
}

fn plain(call: &Call, seed: u64) -> Outcome {
    call.run(seed, call.packets)
}

/// Metered counter totals summed over a pass.
#[derive(Default)]
struct Metered {
    tlps: i64,
    np_reads: i64,
    desc_reads: i64,
    violations: usize,
}

/// Run one call under a fresh metrics session and fold its counter
/// totals into `acc`.
fn metered_call(call: &Call, seed: u64, packets: usize, acc: &mut Metered) -> Outcome {
    let (out, report) = virtio_fpga::metered(MetricsConfig::default(), || call.run(seed, packets));
    acc.tlps += report.counter_total("pcie.wire.tlps");
    acc.np_reads += report.counter_total("pcie.np.issued");
    acc.desc_reads += report.counter_total("virtio.queue.desc_reads");
    acc.violations += report.violations.len();
    out
}

/// Run the metered reference batch and return its digest: every call's
/// output digest plus its metered TLP, non-posted-read and
/// descriptor-read totals.
fn reference_digest(w: Workload) -> (u64, u64) {
    let mut digest = Digest::new();
    let mut failed = 0;
    for (i, call) in w.calls().iter().enumerate() {
        let mut m = Metered::default();
        let packets = call.packets / REFERENCE_DIVISOR;
        let out = metered_call(call, call_seed(REFERENCE_SEED, i), packets, &mut m);
        failed += out.failed;
        digest.words(&[
            out.digest,
            m.tlps as u64,
            m.np_reads as u64,
            m.desc_reads as u64,
        ]);
    }
    (digest.finish(), failed)
}

fn golden(w: Workload) -> u64 {
    GOLDEN
        .iter()
        .find(|(g, _)| *g == w)
        .map(|&(_, d)| d)
        .expect("every workload has a recorded digest")
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux clock id of the calling process's user+sys CPU time, all
/// threads included.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Process user+sys CPU time in nanoseconds.
fn cpu_ns() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call, and `clock_gettime`
    // writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is supported on Linux");
    ts.tv_sec as f64 * 1e9 + ts.tv_nsec as f64
}

/// Peak resident set of the process so far, in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// The printed result: metrics in order, and the totals behind
/// `attempted` and `failed`.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
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

/// Check the reference batch against [`GOLDEN`]; print and return
/// whether it matched.
fn check_reference(w: Workload) -> bool {
    let (digest, failed) = reference_digest(w);
    let ok = failed == 0 && digest == golden(w);
    println!(
        "reference seed {REFERENCE_SEED:#x}: digest {digest:016x}, recorded {:016x} -> {}",
        golden(w),
        if ok { "match" } else { "MISMATCH" }
    );
    ok
}

/// `--trace 0`: the end-to-end metrics, with tracing and metering off.
fn end_to_end(args: &Args) -> Report {
    let w = args.workload;
    let calls = w.calls();

    // Set-up: minimal-length runs of every world config, repeated.
    let mut reps = Vec::new();
    let mut setup_failed = 0;
    let start = Instant::now();
    while reps.len() < 5 || start.elapsed().as_secs_f64() < SETUP_BUDGET_S {
        let t = Instant::now();
        for (i, call) in calls.iter().enumerate() {
            setup_failed += call.run(call_seed(args.seed, i), SETUP_PACKETS).failed;
        }
        reps.push(t.elapsed().as_secs_f64());
    }
    let setup_s = fastest(&reps);
    println!("setup: {} reps, fastest {setup_s:.6} s", reps.len());

    let pass = run_pass(w, args.seed, args.seconds as f64, 3, plain);
    let rss = peak_rss_mb();
    print_pass("timed", &pass);
    let pps = 1e9 / pass.ns_per_pkt();
    let cpu_us = pass.cpu_ns_per_pkt() / 1e3;
    let reference_ok = check_reference(w);

    let failed = pass.failed + setup_failed;
    println!(
        "failed_frac {} ({failed} of {})",
        failed as f64 / pass.attempted as f64,
        pass.attempted
    );
    let mut r = Report {
        correct: pass.repeatable && reference_ok && failed == 0,
        attempted: pass.attempted,
        failed,
        metrics: Vec::new(),
    };
    r.metric("sim_pkts_per_s", pps, "1/s");
    r.metric("cpu_us_per_pkt", cpu_us, "us");
    r.metric("setup_s", setup_s, "s");
    r.metric("peak_rss_mb", rss, "MiB");
    r
}

fn print_pass(label: &str, p: &Pass) {
    println!(
        "{label}: {} batches, {} pkts, {:.1} ns/pkt, sim_digest {:016x}{}",
        p.batches,
        p.attempted,
        p.ns_per_pkt(),
        p.digest.unwrap_or(0),
        if p.repeatable {
            ""
        } else {
            " (DIFFERS BETWEEN BATCHES)"
        }
    );
}

fn micro_ns(micros: &[Micro], name: &str) -> f64 {
    micros
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.ns)
        .expect("microcall measured")
}

/// `--trace 1`: the per-layer metrics.
fn per_layer(args: &Args) -> Report {
    let w = args.workload;
    let s = args.seconds as f64;

    let plain_pass = run_pass(w, args.seed, 0.3 * s, 2, plain);
    print_pass("plain", &plain_pass);

    let mut tally = Tally::default();
    let traced = run_pass(w, args.seed, 0.2 * s, 1, |call, seed| {
        let (out, t) = counted(|| call.run(seed, call.packets));
        tally.merge(&t);
        out
    });
    print_pass("traced", &traced);

    let mut metered = Metered::default();
    let metered_pass = run_pass(w, args.seed, 0.2 * s, 1, |call, seed| {
        metered_call(call, seed, call.packets, &mut metered)
    });
    print_pass("metered", &metered_pass);
    println!("metered watchdog violations: {}", metered.violations);

    // The other workloads' runner spans, from a short untraced pass each.
    let mut spans = plain_pass.spans();
    let mut attempted = plain_pass.attempted + traced.attempted + metered_pass.attempted;
    let mut failed = plain_pass.failed + traced.failed + metered_pass.failed;
    for other in Workload::ALL.into_iter().filter(|&o| o != w) {
        let p = run_pass(other, args.seed, 0.03 * s, 1, plain);
        attempted += p.attempted;
        failed += p.failed;
        spans.extend(p.spans());
    }

    let micros = microcalls(0.1);
    let reference_ok = check_reference(w);

    let pkts = traced.attempted as f64;
    let per_pkt =
        |layers: &[Layer]| layers.iter().map(|&l| tally.layer(l)).sum::<u64>() as f64 / pkts;
    let tlps_per_pkt = per_pkt(&[Layer::Link]);
    let sw_per_pkt = per_pkt(&[Layer::Syscall, Layer::Driver, Layer::Irq]);
    let device_per_pkt = per_pkt(&[Layer::Device]);
    let mpkts = metered_pass.attempted as f64;
    let np_per_pkt = metered.np_reads as f64 / mpkts;
    let desc_per_pkt = metered.desc_reads as f64 / mpkts;
    let grants_per_pkt = plain_pass.grants as f64 / plain_pass.attempted as f64;

    let pcie: Vec<&Micro> = micros
        .iter()
        .filter(|m| m.name.starts_with("pcie."))
        .collect();
    let ns_per_tlp = pcie.iter().map(|m| m.ns).sum::<f64>()
        / pcie.iter().map(|m| m.per_call(Layer::Link)).sum::<f64>();
    let wall = plain_pass.ns_per_pkt();
    let pcie_share = tlps_per_pkt * ns_per_tlp / wall;
    let hostsw_share = sw_per_pkt * micro_ns(&micros, "hostsw.cost_step.ns") / wall;
    let tenant_share = grants_per_pkt * micro_ns(&micros, "tenant.grant_cycle.ns") / wall;
    let unexplained = 1.0 - pcie_share - hostsw_share - tenant_share;

    println!(
        "trace records per packet ({} pkts traced):",
        traced.attempted
    );
    for (layer, name, n) in tally.rows() {
        println!("  {:<8} {:<28} {:.3}", layer.name(), name, n as f64 / pkts);
    }
    println!("microcalls (ns per call; trace records per call):");
    for m in &micros {
        let recs: Vec<String> = m
            .records
            .rows()
            .map(|(l, name, n)| format!("{}/{name} {}", l.name(), n as f64 / RECORD_CALLS as f64))
            .collect();
        println!("  {:<26} {:>12.1}  [{}]", m.name, m.ns, recs.join(", "));
    }
    println!(
        "wall {wall:.1} ns/pkt plain: pcie {:.3} = {tlps_per_pkt:.2} TLP/pkt x {ns_per_tlp:.2} ns/TLP; \
         hostsw {:.3} = {sw_per_pkt:.2} rec/pkt x cost_step; tenant {:.3} = {grants_per_pkt:.3} grants/pkt x grant_cycle; \
         unexplained {unexplained:.3}",
        pcie_share, hostsw_share, tenant_share
    );

    let consistent = plain_pass.repeatable
        && traced.repeatable
        && metered_pass.repeatable
        && traced.digest == plain_pass.digest
        && metered_pass.digest == plain_pass.digest;
    if !consistent {
        println!("digest mismatch between plain, traced and metered passes");
    }
    println!(
        "failed_frac {} ({failed} of {attempted})",
        failed as f64 / attempted as f64
    );

    let mut r = Report {
        correct: consistent && reference_ok && failed == 0,
        attempted,
        failed,
        metrics: Vec::new(),
    };
    for (name, ns) in &spans {
        r.metric(*name, *ns, "ns");
    }
    r.metric("pcie.tlps_per_pkt", tlps_per_pkt, "count/pkt");
    r.metric("pcie.np_reads_per_pkt", np_per_pkt, "count/pkt");
    r.metric("pcie.ns_per_tlp", ns_per_tlp, "ns");
    r.metric("pcie.share", pcie_share, "ratio");
    r.metric("hostsw.sw_records_per_pkt", sw_per_pkt, "count/pkt");
    r.metric("hostsw.share", hostsw_share, "ratio");
    r.metric("virtio.desc_reads_per_pkt", desc_per_pkt, "count/pkt");
    r.metric("fpga.device_records_per_pkt", device_per_pkt, "count/pkt");
    r.metric("tenant.grants_per_pkt", grants_per_pkt, "count/pkt");
    r.metric("tenant.share", tenant_share, "ratio");
    r.metric("unexplained.share", unexplained, "ratio");
    r.metric("trace.overhead_x", traced.ns_per_pkt() / wall, "x");
    r.metric("metrics.overhead_x", metered_pass.ns_per_pkt() / wall, "x");
    for m in &micros {
        r.metric(m.name, m.ns, "ns");
    }
    r
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <rtt-serial|mq-pipelined|tenants-wfq64|blk-seq-rw> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    let report = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    println!("{}", report.json());
    ExitCode::SUCCESS
}
