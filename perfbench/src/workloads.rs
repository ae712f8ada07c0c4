//! The four workloads: which public runners of `virtio-fpga` each one
//! calls, with which configuration, and how a call's simulated outputs
//! fold into the correctness digest.
//!
//! Every workload is a closed batch: the calls of a batch run one after
//! another on the calling thread, each waiting for the previous one.
//! Every world is built with `shards = 1`, so the sharded engine takes
//! its single-shard path on this thread; no sweep pool is used.

use std::panic::{catch_unwind, AssertUnwindSafe};

use vf_sim::stats::{SampleSet, Summary};
use virtio_fpga::experiments::MQ_SWEEP_DEPTH;
use virtio_fpga::{
    run_blk, run_mq, run_tenants, ArbiterPolicy, BlkPattern, DriverKind, Testbed, TestbedConfig,
};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `Testbed::run` for VirtIO, VirtIO-packed and XDMA at 64 B and
    /// 1024 B: the paper-matrix path.
    RttSerial,
    /// `run_mq` for split and packed MQ: 8 pairs, window
    /// `MQ_SWEEP_DEPTH`, `pipeline_depth = 4`, 256 B.
    MqPipelined,
    /// `run_tenants`: 64 tenants, weighted share, vhost on, window 16,
    /// 256 B.
    TenantsWfq64,
    /// `run_blk`: 128K sequential read then 128K sequential write at QD8.
    BlkSeqRw,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::RttSerial,
        Workload::MqPipelined,
        Workload::TenantsWfq64,
        Workload::BlkSeqRw,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RttSerial => "rtt-serial",
            Workload::MqPipelined => "mq-pipelined",
            Workload::TenantsWfq64 => "tenants-wfq64",
            Workload::BlkSeqRw => "blk-seq-rw",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The runner calls of one batch, in execution order.
    pub fn calls(self) -> Vec<Call> {
        use DriverKind::*;
        match self {
            Workload::RttSerial => [Virtio, VirtioPacked, Xdma]
                .into_iter()
                .flat_map(|driver| {
                    [64, 1024].map(|payload| Call {
                        span: match driver {
                            Virtio => "core.run_world.virtio.ns_per_rtt",
                            VirtioPacked => "core.run_world.virtio_packed.ns_per_rtt",
                            _ => "core.run_world.xdma.ns_per_rtt",
                        },
                        runner: Runner::World { driver, payload },
                        packets: 2_000,
                    })
                })
                .collect(),
            Workload::MqPipelined => vec![
                Call {
                    span: "core.run_mq.split.ns_per_pkt",
                    runner: Runner::Mq(VirtioMq),
                    packets: 4_000,
                },
                Call {
                    span: "core.run_mq.packed.ns_per_pkt",
                    runner: Runner::Mq(VirtioMqPacked),
                    packets: 4_000,
                },
            ],
            Workload::TenantsWfq64 => vec![Call {
                span: "core.run_tenants.ns_per_pkt",
                runner: Runner::Tenants,
                packets: 8_192,
            }],
            Workload::BlkSeqRw => vec![
                Call {
                    span: "core.run_blk.read.ns_per_req",
                    runner: Runner::Blk(BlkPattern::SequentialRead),
                    packets: 512,
                },
                Call {
                    span: "core.run_blk.write.ns_per_req",
                    runner: Runner::Blk(BlkPattern::SequentialWrite),
                    packets: 512,
                },
            ],
        }
    }
}

/// Queue pairs of the `mq-pipelined` worlds.
const MQ_PAIRS: u16 = 8;
/// Outstanding non-posted reads per walker tag in `mq-pipelined`.
const MQ_PIPELINE_DEPTH: usize = 4;
/// Tenants of the `tenants-wfq64` world.
const TENANTS: u16 = 64;
/// Per-tenant window of the `tenants-wfq64` world.
const TENANT_WINDOW: usize = 16;
/// Payload of the MQ and tenant worlds.
const MQ_PAYLOAD: usize = 256;
/// Request size of `blk-seq-rw`.
const BLK_IO_BYTES: u32 = 128 << 10;
/// Outstanding requests of `blk-seq-rw`.
const BLK_DEPTH: usize = 8;

/// Which public runner a call drives.
#[derive(Clone, Copy, Debug)]
pub enum Runner {
    /// `Testbed::run` (serial round trips through `run_world`).
    World {
        /// Driver under test.
        driver: DriverKind,
        /// UDP payload bytes.
        payload: usize,
    },
    /// `run_mq` with the given MQ driver.
    Mq(DriverKind),
    /// `run_tenants`.
    Tenants,
    /// `run_blk` with the given pattern.
    Blk(BlkPattern),
}

/// One runner call of a batch.
#[derive(Clone, Copy, Debug)]
pub struct Call {
    /// Name of the per-layer span this call's wall time is charged to.
    pub span: &'static str,
    /// What to run.
    pub runner: Runner,
    /// Simulated round trips (blk: requests) per timed call.
    pub packets: usize,
}

/// What one call produced, reduced to what the benchmark checks.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Round trips or requests attempted.
    pub attempted: u64,
    /// Verify failures plus lost packets or requests.
    pub failed: u64,
    /// Hash of the call's simulated outputs.
    pub digest: u64,
    /// Arbiter grants (tenant worlds only, else 0).
    pub grants: u64,
}

impl Call {
    /// The testbed configuration of this call at `seed` with `packets`
    /// round trips.
    pub fn config(&self, seed: u64, packets: usize) -> TestbedConfig {
        let (driver, payload) = match self.runner {
            Runner::World { driver, payload } => (driver, payload),
            Runner::Mq(driver) => (driver, MQ_PAYLOAD),
            Runner::Tenants => (DriverKind::VirtioTenant, MQ_PAYLOAD),
            Runner::Blk(_) => (DriverKind::VirtioBlk, BLK_IO_BYTES as usize),
        };
        let mut cfg = TestbedConfig::paper(driver, payload, packets, seed);
        cfg.options.shards = 1;
        match self.runner {
            Runner::World { .. } => {}
            Runner::Mq(_) => {
                cfg.options.mq_queue_pairs = MQ_PAIRS;
                cfg.options.pipeline_depth = MQ_PIPELINE_DEPTH;
            }
            Runner::Tenants => {
                cfg.options.mq_queue_pairs = TENANTS;
                cfg.options.tenant_policy = ArbiterPolicy::WeightedShare;
                cfg.options.tenant_vhost = true;
            }
            Runner::Blk(_) => {}
        }
        cfg
    }

    /// Run the call once. A runner that panics (a wedged pipeline or
    /// lost packets trip its own assertions) counts every attempted
    /// packet as failed.
    pub fn run(&self, seed: u64, packets: usize) -> Outcome {
        let cfg = self.config(seed, packets);
        let attempted = packets as u64;
        let runner = self.runner;
        catch_unwind(AssertUnwindSafe(|| run_runner(runner, &cfg))).unwrap_or(Outcome {
            attempted,
            failed: attempted,
            digest: 0,
            grants: 0,
        })
    }
}

fn run_runner(runner: Runner, cfg: &TestbedConfig) -> Outcome {
    let attempted = cfg.packets as u64;
    let mut h = Digest::new();
    match runner {
        Runner::World { .. } => {
            let mut r = Testbed::new(cfg.clone()).run();
            h.words(&[
                r.packets as u64,
                r.verify_failures,
                r.notifications,
                r.irqs,
                r.desc_reads,
            ]);
            for s in [
                r.total_summary(),
                r.hw_summary(),
                r.sw_summary(),
                r.proc_summary(),
            ] {
                h.summary(&s);
            }
            let lost = attempted.saturating_sub(r.packets as u64);
            Outcome {
                attempted,
                failed: r.verify_failures + lost,
                digest: h.finish(),
                grants: 0,
            }
        }
        Runner::Mq(_) => {
            let mut r = run_mq(cfg, MQ_SWEEP_DEPTH);
            h.words(&[
                r.packets as u64,
                r.verify_failures,
                r.doorbells,
                r.irqs,
                r.peak_np_inflight,
            ]);
            h.floats(&[r.pps, r.link_util_up, r.link_util_down]);
            for q in &mut r.per_queue_latency {
                h.samples(q);
            }
            Outcome {
                attempted,
                failed: r.verify_failures,
                digest: h.finish(),
                grants: 0,
            }
        }
        Runner::Tenants => {
            let mut r = run_tenants(cfg, TENANT_WINDOW);
            h.words(&[
                r.packets as u64,
                r.verify_failures,
                r.doorbells,
                r.irqs,
                r.arb_grants,
                r.arb_queued,
            ]);
            h.floats(&[r.pps, r.jain_index, r.link_util_up, r.link_util_down]);
            h.floats(&r.per_tenant_pps);
            for q in &mut r.per_tenant_latency {
                h.samples(q);
            }
            Outcome {
                attempted,
                failed: r.verify_failures,
                digest: h.finish(),
                grants: r.arb_grants,
            }
        }
        Runner::Blk(pattern) => {
            let mut r = run_blk(cfg, pattern, BLK_IO_BYTES, BLK_DEPTH);
            h.words(&[r.requests as u64, r.verify_failures, r.doorbells, r.irqs]);
            h.floats(&[r.iops, r.mbps, r.link_util_up, r.link_util_down]);
            h.samples(&mut r.latency);
            Outcome {
                attempted,
                failed: r.verify_failures,
                digest: h.finish(),
                grants: 0,
            }
        }
    }
}

/// 64-bit FNV-1a over little-endian words: a stable hash of simulated
/// outputs (f64s enter by their bit patterns).
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Digest {
    /// Empty digest.
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Fold in integer words.
    pub fn words(&mut self, ws: &[u64]) {
        for w in ws {
            for b in w.to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }

    /// Fold in floats by their exact bits.
    pub fn floats(&mut self, fs: &[f64]) {
        for f in fs {
            self.words(&[f.to_bits()]);
        }
    }

    fn summary(&mut self, s: &Summary) {
        self.words(&[s.n as u64]);
        self.floats(&[s.mean_us, s.median_us, s.p99_us, s.max_us]);
    }

    /// Fold in a sample set's summary; an empty set (a queue a short
    /// run never used) enters as its length alone.
    fn samples(&mut self, s: &mut SampleSet) {
        if s.is_empty() {
            self.words(&[0]);
        } else {
            self.summary(&s.summary());
        }
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Seed of call `index` of a batch, derived from the run's seed so the
/// same seed always gives the same inputs (splitmix64 finaliser).
pub fn call_seed(seed: u64, index: usize) -> u64 {
    let mut z = seed
        .wrapping_add((index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
