//! E24: the virtio-blk device class, end to end.
//!
//! The block persona stopped being a stub: this module brings the
//! controller's request-queue walker, the in-kernel virtio-blk front
//! end (`vf_hostsw::virtio_blk`), and the shared [`DriverModel`]
//! harness together into two workloads:
//!
//! * `BlkWorld` — the serial request-response world behind
//!   `Testbed::run` for `DriverKind::VirtioBlk`: one synchronous
//!   `pwrite`/`pread` round trip per packet, alternating a write with a
//!   read-back-verify of the same sectors, measured exactly like the
//!   net worlds (total / hw / sw / proc per request);
//! * [`run_blk`] — the queue-depth throughput runner: a
//!   [`BlkPattern`] workload (4K random read/write, 128K sequential)
//!   keeps `depth` requests outstanding through one request queue,
//!   reporting IOPS, MB/s, per-request latency, and doorbell/IRQ
//!   economics — the storage analogue of `run_mq`;
//! * [`run_xdma_storage`] — the vendor-driver baseline: the same I/O
//!   pattern through the XDMA character device, one pinned transfer per
//!   request, no queueing. Its throughput is queue-depth-independent by
//!   construction, which is the comparison E24 draws.
//!
//! Read workloads are verified against a deterministic disk image
//! ([`pattern_bytes`]) loaded at bring-up; write workloads verify the
//! status byte of every completion. Everything is deterministic in
//! `cfg.seed`.

use vf_fpga::{bar0, MmioEvent, Persona, VirtioFpgaDevice, XdmaExampleDesign};
use vf_hostsw::{probe_blk, BlkProbeOutcome, CostEngine, VirtioBlkDriver, XdmaCharDriver};
use vf_pcie::{enumerate, HostMemory, MmioAllocator, PcieLink, MSI_ADDR_BASE};
use vf_sim::{SampleSet, SimRng, Simulation, Time, World};
use vf_virtio::block::{self, blk_status, SECTOR_SIZE};
use vf_virtio::feature;
use vf_xdma::{CardMemory, ChannelDir};

use crate::driver_model::{DriverModel, RoundTripRecorder, RunStats};
use crate::inflight::InFlight;
use crate::testbed::{build_blk_device, DriverKind, TestbedConfig, Transport};

/// Data segments per request the device advertises (`seg_max`); a
/// 128 KiB request therefore crosses the link as 4 × 32 KiB
/// descriptors plus header and status.
pub const BLK_SEG_MAX: u32 = 4;

/// Multiplier of the disk-image hash.
const PATTERN_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Deterministic disk image byte at absolute disk offset `i`.
fn pattern_at(i: u64) -> u8 {
    (i.wrapping_mul(PATTERN_MUL) >> 56) as u8
}

/// The deterministic disk image: `len` bytes starting at `sector`.
/// Read workloads verify against this instead of carrying every
/// expected buffer through the run.
pub fn pattern_bytes(sector: u64, len: usize) -> Vec<u8> {
    let base = sector * SECTOR_SIZE as u64;
    (0..len as u64).map(|k| pattern_at(base + k)).collect()
}

/// Fill `buf` with the disk image starting at `sector`: the in-place
/// form of [`pattern_bytes`]. The hash of offset `i + 1` is the hash of
/// `i` plus [`PATTERN_MUL`], so each byte costs one add and one shift.
pub(crate) fn fill_pattern(sector: u64, buf: &mut [u8]) {
    let mut h = (sector * SECTOR_SIZE as u64).wrapping_mul(PATTERN_MUL);
    for b in buf {
        *b = (h >> 56) as u8;
        h = h.wrapping_add(PATTERN_MUL);
    }
}

/// Whether `data` is exactly `pattern_bytes(sector, len)`: the same
/// length and every byte equal. Compares one sector at a time against
/// a stack buffer, so verifying a read allocates nothing.
pub(crate) fn matches_pattern(sector: u64, len: usize, data: &[u8]) -> bool {
    if data.len() != len {
        return false;
    }
    let mut want = [0u8; SECTOR_SIZE];
    data.chunks(SECTOR_SIZE).zip(sector..).all(|(got, s)| {
        let want = &mut want[..got.len()];
        fill_pattern(s, want);
        got == want
    })
}

// ---------------------------------------------------------------------
// Bring-up
// ---------------------------------------------------------------------

/// A fully brought-up virtio-blk testbed: enumerated block device with
/// the pattern image loaded, probed front end, cost engine.
pub(crate) struct BlkParts {
    pub(crate) mem: HostMemory,
    pub(crate) link: PcieLink,
    pub(crate) device: VirtioFpgaDevice,
    pub(crate) driver: VirtioBlkDriver,
    pub(crate) cost: CostEngine,
    pub(crate) payload_rng: SimRng,
    pub(crate) negotiated: BlkProbeOutcome,
}

impl BlkParts {
    /// Bring the stack up for `cfg`, sizing the driver for `depth`
    /// outstanding requests of up to `max_io` bytes.
    pub(crate) fn new(cfg: &TestbedConfig, depth: usize, max_io: usize) -> Self {
        let mut mem = HostMemory::testbed_default();
        let link = PcieLink::new(cfg.calibration.link.clone());
        let rng = SimRng::new(cfg.seed);
        let cost = CostEngine::new(
            cfg.calibration.costs.clone(),
            cfg.calibration.noise.clone(),
            rng.derive(1),
        );

        let mut device = build_blk_device(cfg);
        // Ship the deterministic image (host-side load, so it works on
        // read-only disks too).
        let Persona::Block { disk, .. } = &mut device.persona else {
            unreachable!("build_blk_device builds a block persona");
        };
        let capacity = disk.capacity();
        const CHUNK: u64 = 256;
        let mut chunk = vec![0u8; CHUNK as usize * SECTOR_SIZE];
        let mut s = 0;
        while s < capacity {
            let n = CHUNK.min(capacity - s);
            let buf = &mut chunk[..n as usize * SECTOR_SIZE];
            fill_pattern(s, buf);
            disk.load(s, buf);
            s += n;
        }

        let mut alloc = MmioAllocator::new();
        let info = enumerate(&mut device.config_space, &mut alloc);
        assert_eq!(info.vendor, vf_pcie::VIRTIO_VENDOR_ID);

        let mut want = feature::VERSION_1;
        if cfg.options.event_idx {
            want |= feature::RING_EVENT_IDX;
        }
        want |= block::feature::SEG_MAX | block::feature::FLUSH | block::feature::RO;
        let mut driver = VirtioBlkDriver::init(
            &mut mem,
            cfg.options.queue_size,
            want,
            BLK_SEG_MAX,
            depth,
            max_io,
        );
        let negotiated =
            probe_blk(&mut Transport(&mut device), &driver, want).expect("blk probe must succeed");
        driver.features = negotiated.features;
        assert_eq!(negotiated.capacity, capacity);

        device.msix_enable();
        device.msix.program(0, MSI_ADDR_BASE, 0x40);
        assert!(device.is_live());

        BlkParts {
            mem,
            link,
            device,
            driver,
            cost,
            payload_rng: rng.derive(2),
            negotiated,
        }
    }

    fn run_stats(&self) -> RunStats {
        RunStats {
            notifications: self.device.stats.notifications,
            irqs: self.device.stats.irqs_sent,
            desc_reads: self.device.stats.desc_reads,
            walker_peak_inflight: self.device.stats.walker_peak_inflight,
        }
    }

    /// Ring the request-queue doorbell: functional decode now, TLP
    /// arrival after the link flight. Returns (cpu-done, arrival).
    fn ring_doorbell(&mut self, t: Time) -> (Time, Time) {
        let off =
            bar0::NOTIFY + u64::from(block::REQUEST_QUEUE) * u64::from(bar0::NOTIFY_MULTIPLIER);
        let ev = self
            .device
            .mmio_write(off, 2, u64::from(block::REQUEST_QUEUE));
        debug_assert_eq!(ev, Some(MmioEvent::Notify(block::REQUEST_QUEUE)));
        let arrival = self.link.mmio_write(t, 2);
        let d = self.cost.step(self.cost.costs.mmio_write_cpu);
        vf_trace::span_at(vf_trace::Layer::Driver, "doorbell_mmio", t, t + d, 0, 0);
        (t + d, arrival)
    }
}

// ---------------------------------------------------------------------
// Serial world (Testbed::run / DriverModel)
// ---------------------------------------------------------------------

/// Events of the serial virtio-blk round-trip flow.
pub(crate) enum BlkEv {
    /// Application issues the next synchronous request.
    AppSend,
    /// Doorbell TLP lands in the device.
    Doorbell(u16),
    /// Completion MSI-X reaches the host.
    Irq,
}

/// The serial virtio-blk world: one outstanding request, alternating a
/// write with a read-back-verify of the same sectors — so every other
/// round trip checks data integrity end to end, and both DMA
/// directions are exercised like the echo worlds do.
pub(crate) struct BlkWorld {
    parts: BlkParts,
    io_bytes: usize,
    /// Requests issued so far (even → write, odd → read-back).
    issued: usize,
    /// Payload of the write the next read verifies.
    expected: Vec<u8>,
    /// Disk slots the workload cycles through.
    slots: u64,
    sectors_per_io: u64,
    pending_read: bool,
    cpu_free: Time,
    rec: RoundTripRecorder,
}

impl BlkWorld {
    fn new(cfg: &TestbedConfig) -> Self {
        let io_bytes = cfg.payload.max(1);
        let parts = BlkParts::new(cfg, 1, io_bytes);
        let sectors_per_io = (io_bytes as u64).div_ceil(SECTOR_SIZE as u64);
        let slots = parts.negotiated.capacity / sectors_per_io;
        assert!(slots > 0, "I/O size exceeds the disk");
        BlkWorld {
            parts,
            io_bytes,
            issued: 0,
            expected: Vec::new(),
            slots,
            sectors_per_io,
            pending_read: false,
            cpu_free: Time::ZERO,
            rec: RoundTripRecorder::new(cfg.packets),
        }
    }
}

impl World for BlkWorld {
    type Msg = BlkEv;

    fn deliver(&mut self, now: Time, msg: BlkEv, sched: &mut vf_sim::Scheduler<BlkEv>) {
        match msg {
            BlkEv::AppSend => {
                if self.rec.packets_left == 0 {
                    return;
                }
                self.rec
                    .begin_rtt(now, "rtt_virtio_blk", self.io_bytes as u64);
                let mut t = now;
                let d = self.parts.cost.step(self.parts.cost.costs.syscall_entry);
                vf_trace::span_at(vf_trace::Layer::Syscall, "io_submit_entry", t, t + d, 0, 0);
                t += d;
                let sector = (self.issued as u64 / 2 % self.slots) * self.sectors_per_io;
                let sub = if self.issued.is_multiple_of(2) {
                    // The write payload is the next read's expectation.
                    self.expected.resize(self.io_bytes, 0);
                    self.parts.payload_rng.fill_bytes(&mut self.expected);
                    self.pending_read = false;
                    self.parts
                        .driver
                        .submit_write(
                            &mut self.parts.mem,
                            sector,
                            &self.expected,
                            &mut self.parts.cost,
                        )
                        .expect("serial world never exceeds depth 1")
                } else {
                    self.pending_read = true;
                    self.parts
                        .driver
                        .submit_read(
                            &mut self.parts.mem,
                            sector,
                            self.io_bytes as u32,
                            &mut self.parts.cost,
                        )
                        .expect("serial world never exceeds depth 1")
                };
                vf_trace::span_at(
                    vf_trace::Layer::Driver,
                    "virtio_blk_submit",
                    t,
                    t + sub.cpu,
                    self.io_bytes as u64,
                    0,
                );
                t += sub.cpu;
                self.issued += 1;
                if sub.notify {
                    let (t_cpu, arrival) = self.parts.ring_doorbell(t);
                    t = t_cpu;
                    sched.at(arrival, BlkEv::Doorbell(block::REQUEST_QUEUE));
                }
                // The synchronous caller blocks until the completion IRQ.
                vf_trace::set_now(t);
                t += self.parts.cost.step(self.parts.cost.costs.block_schedule);
                self.cpu_free = t;
            }
            BlkEv::Doorbell(queue) => {
                let out = self.parts.device.process_block_notify(
                    now,
                    queue,
                    &mut self.parts.mem,
                    &mut self.parts.link,
                );
                for c in &out.completions {
                    if let Some(irq_at) = c.irq_at {
                        sched.at(irq_at, BlkEv::Irq);
                    }
                }
            }
            BlkEv::Irq => {
                let t_irq = now.max(self.cpu_free);
                vf_trace::set_now(t_irq);
                let mut t = t_irq + self.parts.cost.irq_to_napi();
                let (done, cpu) = self
                    .parts
                    .driver
                    .poll_completions(&mut self.parts.mem, &mut self.parts.cost);
                vf_trace::span_at(vf_trace::Layer::Driver, "blk_poll_done", t, t + cpu, 0, 0);
                t += cpu;
                if done.is_empty() {
                    return;
                }
                for d in &done {
                    if d.status != blk_status::OK {
                        self.rec.verify_failures += 1;
                    }
                    if self.pending_read && d.data != self.expected {
                        self.rec.verify_failures += 1;
                    }
                }
                let d = self.parts.cost.step(self.parts.cost.costs.wakeup_to_run);
                vf_trace::span_at(vf_trace::Layer::Irq, "wakeup_to_run", t, t + d, 0, 0);
                t += d;
                let d = self.parts.cost.step(self.parts.cost.costs.syscall_exit);
                vf_trace::span_at(vf_trace::Layer::Syscall, "io_submit_exit", t, t + d, 0, 0);
                t += d;
                self.cpu_free = t;
                let hw = self.parts.device.counters.last_hw();
                let proc = self.parts.device.counters.processing.last;
                self.rec.record(t, hw, proc);
                if self.rec.packets_left > 0 {
                    let next = t + self
                        .parts
                        .cost
                        .step(self.parts.cost.costs.app_loop_overhead);
                    sched.at(next, BlkEv::AppSend);
                }
            }
        }
    }
}

impl DriverModel for BlkWorld {
    type Telemetry = ();

    fn build(cfg: &TestbedConfig) -> Self {
        BlkWorld::new(cfg)
    }

    fn initial_event() -> BlkEv {
        BlkEv::AppSend
    }

    fn describe(msg: &BlkEv) -> Option<(vf_trace::Layer, &'static str)> {
        match msg {
            BlkEv::AppSend => Some((vf_trace::Layer::App, "app_submit")),
            BlkEv::Doorbell(_) => Some((vf_trace::Layer::Device, "doorbell")),
            BlkEv::Irq => Some((vf_trace::Layer::Irq, "msix_blk")),
        }
    }

    fn finish(self) -> (RoundTripRecorder, RunStats, ()) {
        let stats = self.parts.run_stats();
        (self.rec, stats, ())
    }
}

// ---------------------------------------------------------------------
// Queue-depth throughput runner
// ---------------------------------------------------------------------

/// Storage access pattern of one [`run_blk`] / [`run_xdma_storage`]
/// sweep point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlkPattern {
    /// Reads of uniformly random aligned slots.
    RandomRead,
    /// Writes of uniformly random aligned slots.
    RandomWrite,
    /// Reads walking the disk in order, wrapping.
    SequentialRead,
    /// Writes walking the disk in order, wrapping.
    SequentialWrite,
}

impl BlkPattern {
    /// Report label.
    pub fn name(self) -> &'static str {
        match self {
            BlkPattern::RandomRead => "rand-read",
            BlkPattern::RandomWrite => "rand-write",
            BlkPattern::SequentialRead => "seq-read",
            BlkPattern::SequentialWrite => "seq-write",
        }
    }

    /// Whether the pattern issues reads (data verified against the
    /// pattern image) or writes (status verified).
    pub fn is_read(self) -> bool {
        matches!(self, BlkPattern::RandomRead | BlkPattern::SequentialRead)
    }

    fn is_random(self) -> bool {
        matches!(self, BlkPattern::RandomRead | BlkPattern::RandomWrite)
    }
}

/// Result of one storage sweep point.
#[derive(Clone, Debug)]
pub struct BlkRunResult {
    /// Access pattern.
    pub pattern: BlkPattern,
    /// Bytes per request.
    pub io_bytes: u32,
    /// Outstanding requests held (1 for the XDMA baseline).
    pub depth: usize,
    /// Requests completed.
    pub requests: usize,
    /// Requests per second.
    pub iops: f64,
    /// Data throughput in MB/s (`iops × io_bytes / 1e6`).
    pub mbps: f64,
    /// Per-request completion latency samples.
    pub latency: SampleSet,
    /// Doorbell MMIO writes (virtio) / transfers programmed (XDMA).
    pub doorbells: u64,
    /// MSI-X messages sent.
    pub irqs: u64,
    /// Status or data verification failures (must stay 0).
    pub verify_failures: u64,
    /// Fraction of the run the device→host wire was busy.
    pub link_util_up: f64,
    /// Fraction of the run the host→device wire was busy.
    pub link_util_down: f64,
}

impl BlkRunResult {
    /// Doorbells per request (EVENT_IDX coalescing at work under depth).
    pub fn doorbells_per_request(&self) -> f64 {
        self.doorbells as f64 / self.requests as f64
    }

    /// Interrupts per request.
    pub fn irqs_per_request(&self) -> f64 {
        self.irqs as f64 / self.requests as f64
    }
}

/// Pipelined-window events.
enum BlkPipeEv {
    Pump,
    Doorbell(u16),
    Irq,
}

struct BlkPipelinedWorld {
    parts: BlkParts,
    pattern: BlkPattern,
    io_bytes: u32,
    depth: usize,
    to_send: usize,
    in_flight: usize,
    next_slot: u64,
    slots: u64,
    sectors_per_io: u64,
    /// tag → (submit instant, sector, is_read) for completion timing
    /// and verification.
    pending: InFlight<(Time, u64, bool)>,
    /// Write payload, sized on the first write and refilled from
    /// `payload_rng` for every write.
    payload: Vec<u8>,
    latency: SampleSet,
    completed: usize,
    verify_failures: u64,
    cpu_free: Time,
}

impl BlkPipelinedWorld {
    fn new(cfg: &TestbedConfig, pattern: BlkPattern, io_bytes: u32, depth: usize) -> Self {
        let parts = BlkParts::new(cfg, depth, io_bytes as usize);
        let sectors_per_io = u64::from(io_bytes).div_ceil(SECTOR_SIZE as u64);
        let slots = parts.negotiated.capacity / sectors_per_io;
        assert!(slots > 0, "I/O size exceeds the disk");
        BlkPipelinedWorld {
            parts,
            pattern,
            io_bytes,
            depth,
            to_send: cfg.packets,
            in_flight: 0,
            next_slot: 0,
            slots,
            sectors_per_io,
            pending: InFlight::new(),
            payload: Vec::new(),
            latency: SampleSet::with_capacity(cfg.packets),
            completed: 0,
            verify_failures: 0,
            cpu_free: Time::ZERO,
        }
    }

    fn next_sector(&mut self) -> u64 {
        let slot = if self.pattern.is_random() {
            self.parts.payload_rng.below(self.slots)
        } else {
            let s = self.next_slot;
            self.next_slot = (self.next_slot + 1) % self.slots;
            s
        };
        slot * self.sectors_per_io
    }

    /// Top up the window; returns (cpu-done, coalesced doorbell arrival).
    fn refill(&mut self, now: Time) -> (Time, Option<Time>) {
        let mut t = now;
        let mut doorbell_at: Option<Time> = None;
        while self.in_flight < self.depth && self.to_send > 0 {
            let sector = self.next_sector();
            let is_read = self.pattern.is_read();
            let sub = if is_read {
                self.parts
                    .driver
                    .submit_read(
                        &mut self.parts.mem,
                        sector,
                        self.io_bytes,
                        &mut self.parts.cost,
                    )
                    .expect("window sized to the driver depth")
            } else {
                self.payload.resize(self.io_bytes as usize, 0);
                self.parts.payload_rng.fill_bytes(&mut self.payload);
                self.parts
                    .driver
                    .submit_write(
                        &mut self.parts.mem,
                        sector,
                        &self.payload,
                        &mut self.parts.cost,
                    )
                    .expect("window sized to the driver depth")
            };
            t += sub.cpu;
            self.pending.insert(sub.tag, (t, sector, is_read));
            if sub.notify {
                let (t_cpu, arrival) = self.parts.ring_doorbell(t);
                t = t_cpu;
                doorbell_at = Some(doorbell_at.map_or(arrival, |d: Time| d.max(arrival)));
            }
            self.in_flight += 1;
            self.to_send -= 1;
        }
        vf_metrics::gauge_set("blk.driver.inflight", 0, self.in_flight as i64);
        (t, doorbell_at)
    }
}

impl World for BlkPipelinedWorld {
    type Msg = BlkPipeEv;

    fn deliver(&mut self, now: Time, msg: BlkPipeEv, sched: &mut vf_sim::Scheduler<BlkPipeEv>) {
        self.parts.link.advance_epoch(now);
        match msg {
            BlkPipeEv::Pump => {
                let (mut t, doorbell) = self.refill(now);
                if let Some(at) = doorbell {
                    sched.at(at, BlkPipeEv::Doorbell(block::REQUEST_QUEUE));
                }
                t += self.parts.cost.step(self.parts.cost.costs.syscall_entry);
                t += self.parts.cost.step(self.parts.cost.costs.block_schedule);
                self.cpu_free = t;
            }
            BlkPipeEv::Doorbell(queue) => {
                let out = self.parts.device.process_block_notify(
                    now,
                    queue,
                    &mut self.parts.mem,
                    &mut self.parts.link,
                );
                for c in &out.completions {
                    if let Some(irq_at) = c.irq_at {
                        sched.at(irq_at, BlkPipeEv::Irq);
                    }
                }
            }
            BlkPipeEv::Irq => {
                let mut t = now.max(self.cpu_free) + self.parts.cost.irq_to_napi();
                let (done, cpu) = self
                    .parts
                    .driver
                    .poll_completions(&mut self.parts.mem, &mut self.parts.cost);
                if done.is_empty() {
                    return;
                }
                t += cpu;
                for d in &done {
                    let (t0, sector, is_read) = self.pending.take(d.tag).expect("known tag");
                    let bad_read = is_read
                        && self.pattern.is_read()
                        && !matches_pattern(sector, self.io_bytes as usize, &d.data);
                    if d.status != blk_status::OK || bad_read {
                        self.verify_failures += 1;
                    }
                    let lat = (t - t0).quantize(Time::from_ns(1));
                    self.latency.push(lat);
                    vf_metrics::hist_record("blk.req.latency_ps", 0, lat.as_ps());
                    vf_metrics::counter_add("blk.req.completed", 0, 1);
                    self.in_flight -= 1;
                    self.completed += 1;
                }
                t += self.parts.cost.step(self.parts.cost.costs.wakeup_to_run);
                self.cpu_free = t;
                vf_metrics::gauge_set("blk.driver.inflight", 0, self.in_flight as i64);
                if self.to_send > 0 || self.in_flight > 0 {
                    sched.at(t, BlkPipeEv::Pump);
                }
            }
        }
    }
}

/// Run the E24 storage workload: `cfg.packets` requests of `io_bytes`
/// each following `pattern`, with `depth` requests kept outstanding
/// through the request queue.
pub fn run_blk(
    cfg: &TestbedConfig,
    pattern: BlkPattern,
    io_bytes: u32,
    depth: usize,
) -> BlkRunResult {
    assert_eq!(
        cfg.driver,
        DriverKind::VirtioBlk,
        "run_blk drives the virtio-blk front end"
    );
    assert!(depth >= 1, "at least one outstanding request");
    assert!(
        depth * (2 + BLK_SEG_MAX as usize) <= cfg.options.queue_size as usize,
        "window must fit the request ring"
    );
    let world = BlkPipelinedWorld::new(cfg, pattern, io_bytes, depth);
    let mut sim = Simulation::new(world);
    let start = Time::from_us(10);
    sim.schedule(start, BlkPipeEv::Pump);
    sim.run_expect_idle(Time::from_secs(3600), 500_000_000, "blk pipeline");
    let elapsed = sim.now() - start;
    let w = sim.world;
    assert_eq!(w.completed, cfg.packets, "requests lost");
    let stats = w.parts.run_stats();
    let link = &w.parts.link;
    let wire = |bytes: u64| {
        Time::from_ps(bytes * link.cfg.ps_per_byte()).as_us_f64() / elapsed.as_us_f64()
    };
    BlkRunResult {
        pattern,
        io_bytes,
        depth,
        requests: cfg.packets,
        iops: cfg.packets as f64 / (elapsed.as_us_f64() / 1e6),
        mbps: cfg.packets as f64 * f64::from(io_bytes) / 1e6 / (elapsed.as_us_f64() / 1e6),
        latency: w.latency,
        doorbells: stats.notifications,
        irqs: stats.irqs,
        verify_failures: w.verify_failures,
        link_util_up: wire(link.up_wire_bytes),
        link_util_down: wire(link.down_wire_bytes),
    }
}

// ---------------------------------------------------------------------
// XDMA storage baseline
// ---------------------------------------------------------------------

enum XdmaStorageEv {
    AppSend,
    Mmio { off: u64, val: u32 },
    ChannelIrq(ChannelDir),
}

struct XdmaStorageWorld {
    mem: HostMemory,
    link: PcieLink,
    design: XdmaExampleDesign,
    driver: XdmaCharDriver,
    cost: CostEngine,
    rng: SimRng,
    pattern: BlkPattern,
    io_bytes: u32,
    buf: u64,
    /// Write payload, sized on the first write and refilled from `rng`
    /// for every write.
    payload: Vec<u8>,
    card_slots: u64,
    next_slot: u64,
    card_slot: u64,
    to_send: usize,
    completed: usize,
    send_time: Time,
    latency: SampleSet,
    verify_failures: u64,
    cpu_free: Time,
}

impl XdmaStorageWorld {
    fn new(cfg: &TestbedConfig, pattern: BlkPattern, io_bytes: u32) -> Self {
        let mut mem = HostMemory::testbed_default();
        let link = PcieLink::new(cfg.calibration.link.clone());
        let rng = SimRng::new(cfg.seed);
        let cost = CostEngine::new(
            cfg.calibration.costs.clone(),
            cfg.calibration.noise.clone(),
            rng.derive(1),
        );
        // Card sized to hold several I/O-sized slots (the 64 KiB BRAM of
        // the round-trip worlds is too small for 128 KiB requests).
        let card_len = (io_bytes as usize * 4).next_power_of_two().max(64 * 1024);
        let mut design = XdmaExampleDesign::new(card_len);
        design.set_card_memory(cfg.options.card_memory.store(card_len));
        if pattern.is_read() {
            // The baseline reads the same deterministic image the
            // virtio-blk disk ships with.
            let mut chunk = vec![0u8; 64 * SECTOR_SIZE];
            let mut off = 0u64;
            while (off as usize) < card_len {
                let n = (card_len - off as usize).min(chunk.len());
                fill_pattern(off / SECTOR_SIZE as u64, &mut chunk[..n]);
                design.card.write(off, &chunk[..n]);
                off += n as u64;
            }
        }

        let info = enumerate(&mut design.config_space, &mut MmioAllocator::new());
        assert_eq!(info.vendor, vf_pcie::XILINX_VENDOR_ID);
        let driver = XdmaCharDriver::init(&mut mem);
        for (off, val) in driver.init_mmio_writes() {
            design.bar.write32(off, val);
        }
        design.msix.enabled = true;
        design.msix.program(vf_xdma::VEC_H2C, MSI_ADDR_BASE, 0x30);
        design.msix.program(vf_xdma::VEC_C2H, MSI_ADDR_BASE, 0x31);

        let buf = mem.alloc(io_bytes as usize, 4096);
        XdmaStorageWorld {
            mem,
            link,
            design,
            driver,
            cost,
            rng: rng.derive(2),
            pattern,
            io_bytes,
            buf,
            payload: Vec::new(),
            card_slots: (card_len / io_bytes as usize) as u64,
            next_slot: 0,
            card_slot: 0,
            to_send: cfg.packets,
            completed: 0,
            send_time: Time::ZERO,
            latency: SampleSet::with_capacity(cfg.packets),
            verify_failures: 0,
            cpu_free: Time::ZERO,
        }
    }

    fn pick_slot(&mut self) -> u64 {
        if self.pattern.is_random() {
            self.rng.below(self.card_slots)
        } else {
            let s = self.next_slot;
            self.next_slot = (self.next_slot + 1) % self.card_slots;
            s
        }
    }
}

impl World for XdmaStorageWorld {
    type Msg = XdmaStorageEv;

    fn deliver(
        &mut self,
        now: Time,
        msg: XdmaStorageEv,
        sched: &mut vf_sim::Scheduler<XdmaStorageEv>,
    ) {
        match msg {
            XdmaStorageEv::AppSend => {
                if self.to_send == 0 {
                    return;
                }
                self.to_send -= 1;
                self.send_time = now;
                let mut t = now;
                self.card_slot = self.pick_slot();
                let card_addr = self.card_slot * u64::from(self.io_bytes);
                t += self.cost.step(self.cost.costs.syscall_entry);
                let setup = if self.pattern.is_read() {
                    self.driver.read_setup(
                        &mut self.mem,
                        self.buf,
                        card_addr,
                        self.io_bytes,
                        &mut self.cost,
                    )
                } else {
                    self.payload.resize(self.io_bytes as usize, 0);
                    self.rng.fill_bytes(&mut self.payload);
                    HostMemory::write(&mut self.mem, self.buf, &self.payload);
                    self.driver.write_setup(
                        &mut self.mem,
                        self.buf,
                        card_addr,
                        self.io_bytes,
                        &mut self.cost,
                    )
                };
                t += setup.cpu;
                for &(off, val) in &setup.mmio_writes {
                    let arrival = self.link.mmio_write(t, 4);
                    t += self.cost.step(self.cost.costs.mmio_write_cpu);
                    sched.at(arrival, XdmaStorageEv::Mmio { off, val });
                }
                t += self.cost.step(self.cost.costs.block_schedule);
                self.cpu_free = t;
            }
            XdmaStorageEv::Mmio { off, val } => {
                let run = self
                    .design
                    .mmio_write(now, off, val, &mut self.mem, &mut self.link)
                    .expect("descriptor list is well-formed");
                if let Some(run) = run {
                    if let Some(irq_at) = run.irq_at {
                        sched.at(irq_at, XdmaStorageEv::ChannelIrq(run.dir));
                    }
                }
            }
            XdmaStorageEv::ChannelIrq(dir) => {
                // The character-device ISR: status + completed-count
                // reads (each a non-posted stall), ack, handler body,
                // wakeup, per-transfer teardown, syscall exit.
                let t_irq = now.max(self.cpu_free);
                let mut t = t_irq + self.cost.irq_entry();
                let status_off = match dir {
                    ChannelDir::H2C => vf_xdma::regs::target::H2C + vf_xdma::regs::chan::STATUS_RC,
                    ChannelDir::C2H => vf_xdma::regs::target::C2H + vf_xdma::regs::chan::STATUS_RC,
                };
                let _ = self.design.mmio_read(status_off);
                t = self.link.mmio_read(t, 4);
                t += self.cost.step(self.cost.costs.mmio_read_cpu);
                let completed_off = match dir {
                    ChannelDir::H2C => vf_xdma::regs::target::H2C + vf_xdma::regs::chan::COMPLETED,
                    ChannelDir::C2H => vf_xdma::regs::target::C2H + vf_xdma::regs::chan::COMPLETED,
                };
                let _ = self.design.mmio_read(completed_off);
                t = self.link.mmio_read(t, 4);
                t += self.cost.step(self.cost.costs.mmio_read_cpu);
                self.design.bar.ack_channel(dir);
                t += self.cost.step(self.cost.costs.mmio_write_cpu);
                t += self.driver.isr_body(&mut self.cost);
                t += self.cost.step(self.cost.costs.wakeup_to_run);
                t += self.driver.teardown(dir, &mut self.cost);
                t += self.cost.step(self.cost.costs.syscall_exit);

                if self.pattern.is_read() {
                    let d = self.cost.copy_user(self.io_bytes as usize);
                    t += d;
                    let len = self.io_bytes as usize;
                    let got = self.mem.slice(self.buf, len);
                    let sector = self.card_slot * u64::from(self.io_bytes) / SECTOR_SIZE as u64;
                    if !matches_pattern(sector, len, got) {
                        self.verify_failures += 1;
                    }
                }
                self.latency
                    .push((t - self.send_time).quantize(Time::from_ns(1)));
                self.completed += 1;
                self.cpu_free = t;
                if self.to_send > 0 {
                    let next = t + self.cost.step(self.cost.costs.app_loop_overhead);
                    sched.at(next, XdmaStorageEv::AppSend);
                }
            }
        }
    }
}

/// Run the storage pattern through the XDMA character device: one
/// pinned, programmed, interrupt-completed transfer per request. The
/// driver exposes no request queue, so this baseline cannot benefit
/// from queue depth — the structural contrast E24 measures.
pub fn run_xdma_storage(cfg: &TestbedConfig, pattern: BlkPattern, io_bytes: u32) -> BlkRunResult {
    assert_eq!(
        cfg.driver,
        DriverKind::Xdma,
        "run_xdma_storage drives the vendor driver"
    );
    let world = XdmaStorageWorld::new(cfg, pattern, io_bytes);
    let mut sim = Simulation::new(world);
    let start = Time::from_us(10);
    sim.schedule(start, XdmaStorageEv::AppSend);
    sim.run_expect_idle(Time::from_secs(3600), 500_000_000, "xdma storage");
    let elapsed = sim.now() - start;
    let w = sim.world;
    assert_eq!(w.completed, cfg.packets, "requests lost");
    let link = &w.link;
    let wire = |bytes: u64| {
        Time::from_ps(bytes * link.cfg.ps_per_byte()).as_us_f64() / elapsed.as_us_f64()
    };
    BlkRunResult {
        pattern,
        io_bytes,
        depth: 1,
        requests: cfg.packets,
        iops: cfg.packets as f64 / (elapsed.as_us_f64() / 1e6),
        mbps: cfg.packets as f64 * f64::from(io_bytes) / 1e6 / (elapsed.as_us_f64() / 1e6),
        latency: w.latency,
        doorbells: w.driver.transfers[0] + w.driver.transfers[1],
        irqs: w.design.msix.fired,
        verify_failures: w.verify_failures,
        link_util_up: wire(link.up_wire_bytes),
        link_util_down: wire(link.down_wire_bytes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::Testbed;

    fn cfg(packets: usize) -> TestbedConfig {
        TestbedConfig::paper(DriverKind::VirtioBlk, 4096, packets, 91)
    }

    #[test]
    fn pattern_helpers_agree_with_pattern_bytes() {
        for (sector, len) in [
            (0u64, 0usize),
            (0, 1),
            (3, 511),
            (7, 512),
            (9, 513),
            (1234, 128 << 10),
            (32767, 4096),
        ] {
            let want = pattern_bytes(sector, len);
            let mut buf = vec![0xAA; len];
            fill_pattern(sector, &mut buf);
            assert_eq!(buf, want, "fill_pattern: sector {sector} len {len}");
            assert!(
                matches_pattern(sector, len, &want),
                "matches_pattern: sector {sector} len {len}"
            );
        }
    }

    #[test]
    fn matches_pattern_rejects_corrupt_shifted_and_short_buffers() {
        let (sector, len) = (40u64, 4 * SECTOR_SIZE + 100);
        let good = pattern_bytes(sector, len);
        // A single flipped bit in the first, a boundary, and the last byte.
        for i in [
            0,
            SECTOR_SIZE - 1,
            SECTOR_SIZE,
            2 * SECTOR_SIZE + 7,
            len - 1,
        ] {
            let mut bad = good.clone();
            bad[i] ^= 1;
            assert!(!matches_pattern(sector, len, &bad), "flipped byte {i}");
        }
        // The right bytes for the neighbouring sector.
        assert!(!matches_pattern(sector + 1, len, &good));
        assert!(!matches_pattern(
            sector,
            len,
            &pattern_bytes(sector + 1, len)
        ));
        // Correct prefix, wrong length.
        assert!(!matches_pattern(sector, len, &good[..len - 1]));
        assert!(!matches_pattern(sector, len, &[]));
        assert!(!matches_pattern(sector, len - 1, &good));
    }

    #[test]
    fn serial_blk_world_round_trips() {
        let r = Testbed::new(cfg(200)).run();
        assert_eq!(r.verify_failures, 0);
        // Serial request-response: one doorbell and one completion IRQ
        // per request, bring-up excluded (the probe rings nothing).
        assert_eq!(r.notifications, 200);
        assert_eq!(r.irqs, 200);
        assert!(r.total.mean() > 0.0);
        assert!(r.hw.mean() > 0.0, "FPGA counters must cover the DMA phase");
    }

    /// Regression for the feature-offer bug: the block persona used to
    /// offer `0` extra feature bits, so no front end could negotiate
    /// `SEG_MAX`/`FLUSH` and every request collapsed to one data
    /// descriptor. The device must offer what the persona implements.
    #[test]
    fn blk_feature_offer_includes_seg_max_and_flush() {
        let parts = BlkParts::new(&cfg(1), 1, 4096);
        assert_ne!(parts.negotiated.features & block::feature::SEG_MAX, 0);
        assert_ne!(parts.negotiated.features & block::feature::FLUSH, 0);
        assert_eq!(parts.negotiated.seg_max, BLK_SEG_MAX);
        assert_eq!(parts.driver.seg_max, BLK_SEG_MAX);
        // Not read-only by default → RO must not be offered.
        assert_eq!(parts.negotiated.features & block::feature::RO, 0);
    }

    #[test]
    fn read_only_disk_negotiates_ro_and_serves_reads() {
        let mut c = cfg(300);
        c.options.blk_read_only = true;
        let parts = BlkParts::new(&c, 1, 4096);
        assert_ne!(parts.negotiated.features & block::feature::RO, 0);
        drop(parts);
        let r = run_blk(&c, BlkPattern::RandomRead, 4096, 4);
        assert_eq!(r.verify_failures, 0);
        assert_eq!(r.requests, 300);
    }

    #[test]
    fn queue_depth_scales_4k_random_read() {
        let c = cfg(600);
        let qd1 = run_blk(&c, BlkPattern::RandomRead, 4096, 1);
        let qd2 = run_blk(&c, BlkPattern::RandomRead, 4096, 2);
        let qd4 = run_blk(&c, BlkPattern::RandomRead, 4096, 4);
        assert_eq!(qd1.verify_failures, 0);
        assert_eq!(qd4.verify_failures, 0);
        assert!(
            qd2.iops > qd1.iops && qd4.iops > qd2.iops,
            "QD must scale: {} / {} / {} IOPS",
            qd1.iops,
            qd2.iops,
            qd4.iops
        );
    }

    #[test]
    fn depth_coalesces_doorbells_and_irqs() {
        let c = cfg(1_000);
        let deep = run_blk(&c, BlkPattern::RandomWrite, 4096, 16);
        assert_eq!(deep.verify_failures, 0);
        assert!(
            deep.doorbells_per_request() < 0.8,
            "doorbells/request = {}",
            deep.doorbells_per_request()
        );
        assert!(
            deep.irqs_per_request() < 0.8,
            "irqs/request = {}",
            deep.irqs_per_request()
        );
    }

    #[test]
    fn sequential_128k_uses_multi_segment_chains() {
        let small = run_blk(&cfg(150), BlkPattern::SequentialRead, 4096, 4);
        let large = run_blk(&cfg(150), BlkPattern::SequentialRead, 128 << 10, 4);
        assert_eq!(large.verify_failures, 0);
        assert!(
            large.mbps > small.mbps,
            "128K seq ({} MB/s) must out-stream 4K seq ({} MB/s)",
            large.mbps,
            small.mbps
        );
    }

    #[test]
    fn pipelined_blk_is_deterministic() {
        let a = run_blk(&cfg(400), BlkPattern::RandomRead, 4096, 8);
        let b = run_blk(&cfg(400), BlkPattern::RandomRead, 4096, 8);
        assert_eq!(a.iops.to_bits(), b.iops.to_bits());
        assert_eq!(a.mbps.to_bits(), b.mbps.to_bits());
        assert_eq!(a.latency.raw(), b.latency.raw());
        assert_eq!(a.doorbells, b.doorbells);
        assert_eq!(a.irqs, b.irqs);
    }

    #[test]
    fn xdma_storage_baseline_completes_and_verifies() {
        let c = TestbedConfig::paper(DriverKind::Xdma, 4096, 200, 91);
        let read = run_xdma_storage(&c, BlkPattern::RandomRead, 4096);
        assert_eq!(read.verify_failures, 0);
        assert_eq!(read.requests, 200);
        assert!(read.iops > 0.0);
        let write = run_xdma_storage(&c, BlkPattern::SequentialWrite, 128 << 10);
        assert_eq!(write.verify_failures, 0);
    }

    #[test]
    fn xdma_storage_is_deterministic() {
        let c = TestbedConfig::paper(DriverKind::Xdma, 4096, 300, 17);
        let a = run_xdma_storage(&c, BlkPattern::SequentialRead, 4096);
        let b = run_xdma_storage(&c, BlkPattern::SequentialRead, 4096);
        assert_eq!(a.iops.to_bits(), b.iops.to_bits());
        assert_eq!(a.latency.raw(), b.latency.raw());
    }
}
