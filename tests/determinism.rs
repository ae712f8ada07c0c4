//! Determinism regression goldens.
//!
//! The golden fingerprints below were captured on the pre-`DriverModel`
//! tree (three hand-rolled worlds, inline cost chains) for one E1 matrix
//! cell per kernel driver and one E15 cell for the PMD, at the exact
//! seeds those experiments derive. The generic harness refactor must be
//! a pure re-plumbing: same seed + config ⇒ bit-identical `RunResult`,
//! which these tests check down to the f64 bit pattern of every summary
//! statistic.
//!
//! Re-captured once after the `SampleSet::raw()` insertion-order bugfix:
//! the old implementation sorted the sample buffer in place on the first
//! percentile query, so every mean/sum golden was the f64 reduction of
//! *sorted* data. Keeping insertion order (the fix) changes the floating
//! point summation order by a couple of ULPs. Every sample value, count,
//! percentile, and event counter is unchanged — only the rounding of the
//! sequential sums moved. The multi-queue (E19) plumbing itself is
//! bit-neutral for these single-queue worlds, which is separately pinned
//! by the fact that these fingerprints were re-verified identical before
//! and after the MQ changes under the same stats code.

use virtio_fpga::{DriverKind, RunResult, Testbed, TestbedConfig};

/// Bit-exact fingerprint of a run: summary stats as raw f64 bits plus
/// the event counters.
struct Fingerprint {
    mean: u64,
    p99: u64,
    max: u64,
    hw_mean: u64,
    sw_mean: u64,
    proc_mean: u64,
    sum: u64,
    notifications: u64,
    irqs: u64,
    verify_failures: u64,
}

fn fingerprint(r: &mut RunResult) -> Fingerprint {
    let t = r.total_summary();
    let h = r.hw_summary();
    let s = r.sw_summary();
    let p = r.proc_summary();
    let sum: f64 = r.total.raw().iter().sum();
    Fingerprint {
        mean: t.mean_us.to_bits(),
        p99: t.p99_us.to_bits(),
        max: t.max_us.to_bits(),
        hw_mean: h.mean_us.to_bits(),
        sw_mean: s.mean_us.to_bits(),
        proc_mean: p.mean_us.to_bits(),
        sum: sum.to_bits(),
        notifications: r.notifications,
        irqs: r.irqs,
        verify_failures: r.verify_failures,
    }
}

fn assert_golden(mut r: RunResult, golden: &Fingerprint) {
    let f = fingerprint(&mut r);
    assert_eq!(f.mean, golden.mean, "total mean drifted");
    assert_eq!(f.p99, golden.p99, "total p99 drifted");
    assert_eq!(f.max, golden.max, "total max drifted");
    assert_eq!(f.hw_mean, golden.hw_mean, "hw mean drifted");
    assert_eq!(f.sw_mean, golden.sw_mean, "sw mean drifted");
    assert_eq!(f.proc_mean, golden.proc_mean, "proc mean drifted");
    assert_eq!(f.sum, golden.sum, "sample sum drifted");
    assert_eq!(
        f.notifications, golden.notifications,
        "notifications drifted"
    );
    assert_eq!(f.irqs, golden.irqs, "irqs drifted");
    assert_eq!(f.verify_failures, golden.verify_failures);
}

/// E1 matrix cell, `run_matrix` seed derivation with base seed 42 and
/// payload index 2 (256 B): VirtIO seed 42·1000+2.
#[test]
fn e1_virtio_cell_matches_pre_refactor_golden() {
    let r = Testbed::new(TestbedConfig::paper(DriverKind::Virtio, 256, 2000, 42_002)).run();
    assert_golden(
        r,
        &Fingerprint {
            mean: 0x404086d9b1b79d8c,
            p99: 0x4044f4395810624e,
            max: 0x4053aae147ae147b,
            hw_mean: 0x4032aabda0dfde75,
            sw_mean: 0x402c19e353f7ced5,
            proc_mean: 0x3fd5810624dd2fd0,
            sum: 0x40f023b0978d4fdb,
            notifications: 2000,
            irqs: 2000,
            verify_failures: 0,
        },
    );
}

/// E1 matrix cell: XDMA seed 42·1000+2+500.
#[test]
fn e1_xdma_cell_matches_pre_refactor_golden() {
    let r = Testbed::new(TestbedConfig::paper(DriverKind::Xdma, 256, 2000, 42_502)).run();
    assert_golden(
        r,
        &Fingerprint {
            mean: 0x404802aca7935753,
            p99: 0x404ff395810624dd,
            max: 0x40637fdf3b645a1d,
            hw_mean: 0x4029d8151a437779,
            sw_mean: 0x40418ca761027950,
            proc_mean: 0x0000000000000000,
            sum: 0x40f7729c9ba5e347,
            notifications: 4000,
            irqs: 4000,
            verify_failures: 0,
        },
    );
}

/// E17 packed-ring cell: VirtioPacked at 256 B, seed 42·1000+2+900.
/// Captured before the multi-queue (E19) plumbing landed: MQ support
/// must not move a single RNG draw in the single-queue worlds.
#[test]
fn e17_packed_cell_matches_pre_mq_golden() {
    let r = Testbed::new(TestbedConfig::paper(
        DriverKind::VirtioPacked,
        256,
        2000,
        42_902,
    ))
    .run();
    assert_golden(
        r,
        &Fingerprint {
            mean: 0x403cc0d4a1ad644f,
            p99: 0x4042a7ae147ae148,
            max: 0x405a220c49ba5e35,
            hw_mean: 0x402c92b2bfdb4ce8,
            sw_mean: 0x402c42ee52589261,
            proc_mean: 0x3fd5810624dd2fd0,
            sum: 0x40ec144fa5e353f5,
            notifications: 2000,
            irqs: 2000,
            verify_failures: 0,
        },
    );
}

/// E15 `pmd_tails` cell: VirtioPmd at 256 B, seed 42·1000+2.
#[test]
fn e15_pmd_cell_matches_pre_refactor_golden() {
    let r = Testbed::new(TestbedConfig::paper(
        DriverKind::VirtioPmd,
        256,
        2000,
        42_002,
    ))
    .run();
    assert_golden(
        r,
        &Fingerprint {
            mean: 0x40352a906034f400,
            p99: 0x4037d16872b020c5,
            max: 0x40432a1cac083127,
            hw_mean: 0x40323e358298cbe8,
            sw_mean: 0x4004b2b62845996f,
            proc_mean: 0x3fd5810624dd2fd0,
            sum: 0x40e4ab90fdf3b648,
            notifications: 2000,
            irqs: 0,
            verify_failures: 0,
        },
    );
}

/// E24 serial virtio-blk cell: 4 KiB requests, write/read-back
/// alternation, seed 42·1000+24. Captured when the block persona was
/// promoted to a full `DriverModel` device class; pins the blk request
/// walker's DMA chain, the front end's chain layout, and the EVENT_IDX
/// choreography down to the bit.
#[test]
fn e24_blk_cell_matches_promotion_golden() {
    let r = Testbed::new(TestbedConfig::paper(
        DriverKind::VirtioBlk,
        4096,
        2000,
        42_024,
    ))
    .run();
    assert_golden(
        r,
        &Fingerprint {
            mean: 0x4050213fbbd7b204,
            p99: 0x4057449ba5e353f8,
            max: 0x405dd428f5c28f5c,
            hw_mean: 0x4047d2817763e4c4,
            sw_mean: 0x40297e6ec9e236ca,
            proc_mean: 0x401083126e978cd3,
            sum: 0x40ff80f07ae147b0,
            notifications: 2000,
            irqs: 2000,
            verify_failures: 0,
        },
    );
}

/// E24 pipelined storage runner: 4 KiB random reads at QD 8, same seed
/// derivation. Pins throughput, the per-request latency sum, and the
/// doorbell/IRQ coalescing counts (exactly one doorbell and one MSI-X
/// per 8-deep window at this depth: 250 each for 2000 requests).
#[test]
fn e24_blk_qd_sweep_matches_promotion_golden() {
    use virtio_fpga::{run_blk, BlkPattern};
    let cfg = TestbedConfig::paper(DriverKind::VirtioBlk, 4096, 2000, 42_024);
    let r = run_blk(&cfg, BlkPattern::RandomRead, 4096, 8);
    let latency_sum: f64 = r.latency.raw().iter().sum();
    assert_eq!(r.iops.to_bits(), 0x40df6d7167df1607, "IOPS drifted");
    assert_eq!(
        latency_sum.to_bits(),
        0x411da1837ef9db11,
        "latency sum drifted"
    );
    assert_eq!(r.doorbells, 250, "doorbell coalescing drifted");
    assert_eq!(r.irqs, 250, "IRQ coalescing drifted");
    assert_eq!(r.verify_failures, 0);
}

/// A multi-queue world cut down to one pair is the same workload as the
/// E12 pipelined single-queue run: same payload, depth, and suppression
/// behavior. The aggregate throughput must land in the same regime. The
/// runs are not bit-identical — the MQ engine keeps per-channel DMA tag
/// contexts (`multi_tag`), whose posted-credit pacing is slightly more
/// permissive than the single-engine FIFO model even with one channel —
/// so this pins a tight ratio band rather than a bit pattern.
#[test]
fn mq_single_pair_matches_e12_pipelined_throughput() {
    use virtio_fpga::{run_mq, run_pipelined};
    let e12 = TestbedConfig::paper(DriverKind::Virtio, 256, 4_000, 42);
    let r12 = run_pipelined(&e12, 16);
    let mut mq = TestbedConfig::paper(DriverKind::VirtioMq, 256, 4_000, 42);
    mq.options.mq_queue_pairs = 1;
    let rmq = run_mq(&mq, 16);
    let ratio = rmq.pps / r12.pps;
    assert!(
        (0.9..=1.1).contains(&ratio),
        "single-pair MQ ({:.0} pps) drifted from E12 ({:.0} pps): ratio {ratio:.3}",
        rmq.pps,
        r12.pps
    );
}

/// A result flattened field by field: each field's name with its
/// integers, and its floats and latency samples by their exact bits.
type Fields = Vec<(&'static str, Vec<u64>)>;

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Host memory recycles its backing per thread: a world built after
/// another one on the same thread reuses the memory that world dropped.
/// Each runner, run twice back to back on one thread (the second run on
/// the recycled backing) and once on a freshly spawned thread (a fresh
/// backing), must give the same result field by field.
#[test]
fn reruns_on_recycled_host_memory_are_bit_identical() {
    use virtio_fpga::{run_blk, run_mq, run_tenants, ArbiterPolicy, BlkPattern};

    fn tenants() -> Fields {
        let mut cfg = TestbedConfig::paper(DriverKind::VirtioTenant, 256, 512, 7);
        cfg.options.mq_queue_pairs = 64;
        cfg.options.tenant_policy = ArbiterPolicy::WeightedShare;
        cfg.options.tenant_vhost = true;
        let r = run_tenants(&cfg, 16);
        vec![
            ("tenants", vec![u64::from(r.tenants)]),
            ("depth", vec![r.depth as u64]),
            ("vhost", vec![u64::from(r.vhost)]),
            ("packets", vec![r.packets as u64]),
            ("pps", bits(&[r.pps])),
            ("per_tenant_pps", bits(&r.per_tenant_pps)),
            (
                "per_tenant_latency",
                r.per_tenant_latency
                    .iter()
                    .flat_map(|s| bits(s.raw()))
                    .collect(),
            ),
            ("jain_index", bits(&[r.jain_index])),
            ("doorbells", vec![r.doorbells]),
            ("irqs", vec![r.irqs]),
            ("verify_failures", vec![r.verify_failures]),
            ("link_util", bits(&[r.link_util_up, r.link_util_down])),
            ("arb", vec![r.arb_grants, r.arb_queued]),
        ]
    }

    fn mq_packed() -> Fields {
        let mut cfg = TestbedConfig::paper(DriverKind::VirtioMqPacked, 256, 1_000, 11);
        cfg.options.mq_queue_pairs = 8;
        cfg.options.pipeline_depth = 4;
        let r = run_mq(&cfg, 16);
        vec![
            ("queues", vec![u64::from(r.queues)]),
            ("depth", vec![r.depth as u64]),
            ("packets", vec![r.packets as u64]),
            ("pps", bits(&[r.pps])),
            (
                "per_queue_latency",
                r.per_queue_latency
                    .iter()
                    .flat_map(|s| bits(s.raw()))
                    .collect(),
            ),
            ("doorbells", vec![r.doorbells]),
            ("irqs", vec![r.irqs]),
            ("verify_failures", vec![r.verify_failures]),
            ("link_util", bits(&[r.link_util_up, r.link_util_down])),
            ("peak_np_inflight", vec![r.peak_np_inflight]),
        ]
    }

    fn blk_seq_read() -> Fields {
        let cfg = TestbedConfig::paper(DriverKind::VirtioBlk, 128 << 10, 64, 24);
        let r = run_blk(&cfg, BlkPattern::SequentialRead, 128 << 10, 8);
        vec![
            ("io_bytes", vec![u64::from(r.io_bytes)]),
            ("depth", vec![r.depth as u64]),
            ("requests", vec![r.requests as u64]),
            ("rates", bits(&[r.iops, r.mbps])),
            ("latency", bits(r.latency.raw())),
            ("doorbells", vec![r.doorbells]),
            ("irqs", vec![r.irqs]),
            ("verify_failures", vec![r.verify_failures]),
            ("link_util", bits(&[r.link_util_up, r.link_util_down])),
        ]
    }

    fn testbed_cell() -> Fields {
        let r = Testbed::new(TestbedConfig::paper(DriverKind::Virtio, 1024, 500, 42_003)).run();
        vec![
            ("payload", vec![r.payload as u64]),
            ("packets", vec![r.packets as u64]),
            ("seed", vec![r.seed]),
            ("total", bits(r.total.raw())),
            ("hw", bits(r.hw.raw())),
            ("sw", bits(r.sw.raw())),
            ("proc", bits(r.proc.raw())),
            ("verify_failures", vec![r.verify_failures]),
            ("notifications", vec![r.notifications]),
            ("irqs", vec![r.irqs]),
            ("desc_reads", vec![r.desc_reads]),
        ]
    }

    for (name, run) in [
        ("run_tenants", tenants as fn() -> Fields),
        ("run_mq", mq_packed),
        ("run_blk", blk_seq_read),
        ("Testbed::run", testbed_cell),
    ] {
        let first = run();
        let recycled = run();
        let fresh = std::thread::spawn(run)
            .join()
            .unwrap_or_else(|_| panic!("{name} panicked on a fresh thread"));
        for (label, other) in [
            ("rerun on this thread", &recycled),
            ("fresh thread", &fresh),
        ] {
            assert_eq!(first.len(), other.len());
            for ((field, want), (_, got)) in first.iter().zip(other) {
                assert_eq!(want, got, "{name}: {field} differs on the {label}");
            }
        }
    }
}
