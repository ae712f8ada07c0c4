//! E19/E21 — the multi-queue virtio-net (`VIRTIO_NET_F_MQ`) worlds.
//!
//! The single-queue worlds top out where one host core saturates: every
//! sendto, NAPI poll, and wakeup serializes on the same simulated CPU.
//! This module brings up a net device with N RX/TX queue pairs plus the
//! control virtqueue, activates the pairs with `MQ_VQ_PAIRS_SET`, and
//! drives them from a [`MultiCoreHost`] — flow *i* is pinned to queue
//! pair *i*, whose MSI-X vector interrupts CPU *i*, so two queues never
//! serialize on one core. On the device side the controller's RSS-style
//! walker steers each echoed flow back to its pair
//! ([`VirtioFpgaDevice::rss_steer`]); the queues share nothing but the
//! PCIe link, which is exactly the paper's Gen2 x2 bottleneck the
//! experiment sweeps toward.
//!
//! E21's multi-tenant runs drive the same device: tenant *i* owns
//! pair *i*, and the tenancy layer ([`crate::tenant`]: QoS arbiter,
//! vhost relay, per-tenant window and pause) is the only thing that
//! sets them apart. Two worlds cover both experiments over one
//! bring-up (`MqParts`):
//!
//! * `MqWorld` — serial request-response, round-robin across pairs,
//!   recorded through the standard [`RoundTripRecorder`] so
//!   `DriverKind::VirtioMq`, `VirtioMqPacked` and `VirtioTenant` run
//!   through [`crate::Testbed::run`] and the trace reconciliation
//!   harness like every other driver;
//! * the pipelined world behind [`run_mq`] and [`crate::run_tenants`] —
//!   offered load with a per-flow window, the E19/E21 measurement
//!   proper: aggregate pps, per-flow latency, doorbell/irq suppression,
//!   and link utilization. Echoes are checked against payloads
//!   regenerated from the in-flight table's RNG snapshots, so the send
//!   path stores no payload.
//!
//! Without tenancy a doorbell walks its queue directly; with it, the
//! doorbell asks the arbiter for the walker engine first.

use vf_fpga::user_logic::UdpEcho;
use vf_fpga::{bar0, MmioEvent, Persona, VirtioFpgaDevice};
use vf_hostsw::{
    probe_mq, Ipv4Addr, MacAddr, MultiCoreHost, SockError, UdpStack, VirtioNetMqDriver,
    CTRL_QUEUE_SIZE,
};
use vf_pcie::{enumerate, HostMemory, MmioAllocator, PcieLink, MSI_ADDR_BASE};
use vf_sim::{SampleSet, Scheduler, SimRng, Simulation, Time, World};
use vf_tenant::TenantConfig;
use vf_trace::Layer;
use vf_virtio::net::VirtioNetConfig;
use vf_virtio::{feature, net, DeviceType};

use crate::driver_model::{DriverModel, RoundTripRecorder, RunStats};
use crate::inflight::{InFlight, PayloadLayout, Pending};
use crate::tenant::Tenancy;
use crate::testbed::{DriverKind, RssMode, TestbedConfig, Transport};

/// Most queue pairs a world will drive. Bounded by the static RTT-name
/// tables (trace roots must be `&'static str`), not by the device model;
/// 64 so the E21 tenant sweep can slice one pair per tenant up to 64
/// tenants.
pub const MAX_QUEUE_PAIRS: u16 = 64;

// Per-pair (`rtt_mq_q<i>`) and per-tenant (`rtt_tenant_t<i>`)
// round-trip trace names, indexed by pair.
macro_rules! rtt_names {
    ($($i:literal)*) => {
        const MQ_RTT_NAMES: [&str; MAX_QUEUE_PAIRS as usize] = [$(concat!("rtt_mq_q", $i)),*];
        const TENANT_RTT_NAMES: [&str; MAX_QUEUE_PAIRS as usize] =
            [$(concat!("rtt_tenant_t", $i)),*];
    };
}
rtt_names!(
    0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31
    32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59 60 61 62 63
);

/// UDP source-port base; flow `i` sends from `FLOW_PORT_BASE + i`. A
/// multiple of every power-of-two pair count, so the device's
/// `dst_port % pairs` steering maps flow `i` exactly to pair `i`.
pub(crate) const FLOW_PORT_BASE: u16 = 40_000;

/// The Toeplitz indirection table the MQ bring-up programs: every slot
/// defaults to `slot % pairs`, then each measured flow's hash slot is
/// pinned to its pair — so flow `i` (UDP source port
/// `FLOW_PORT_BASE + i`) steers to pair `i` exactly like the modulo
/// fallback, while unpinned traffic still spreads over all pairs.
fn pinned_rss_table(pairs: u16) -> Vec<u16> {
    let mut table: Vec<u16> = (0..net::RSS_TABLE_LEN as u16)
        .map(|slot| slot % pairs)
        .collect();
    for pair in 0..pairs {
        let port = FLOW_PORT_BASE + pair;
        let slot = net::toeplitz_hash(&net::RSS_DEFAULT_KEY, &port.to_be_bytes()) as usize
            & (net::RSS_TABLE_LEN - 1);
        table[slot] = pair;
    }
    table
}

/// A fully brought-up multi-queue testbed: device with `2N + 1` queues,
/// probed MQ driver, `MQ_VQ_PAIRS_SET` acknowledged, one host core per
/// pair. Bring-up (including the ctrl-vq exchange) happens "before
/// time zero": the link is re-created afterwards and the device stats
/// snapshot in `base_stats` is subtracted from reported counters.
pub(crate) struct MqParts {
    pub(crate) mem: HostMemory,
    pub(crate) link: PcieLink,
    pub(crate) device: VirtioFpgaDevice,
    pub(crate) driver: VirtioNetMqDriver,
    pub(crate) stack: UdpStack,
    pub(crate) host: MultiCoreHost,
    pub(crate) payload_rng: SimRng,
    pub(crate) fpga_ip: Ipv4Addr,
    pub(crate) pairs: u16,
    base_notifications: u64,
    base_irqs: u64,
    base_desc_reads: u64,
}

impl MqParts {
    pub(crate) fn new(cfg: &TestbedConfig) -> Self {
        assert_eq!(
            cfg.options.device_type,
            DeviceType::Net,
            "MQ is a net-device feature"
        );
        let pairs = cfg.options.mq_queue_pairs;
        assert!(
            (1..=MAX_QUEUE_PAIRS).contains(&pairs),
            "mq_queue_pairs must be in 1..={MAX_QUEUE_PAIRS}"
        );
        assert!(
            pairs.is_power_of_two(),
            "the port-modulo flow steering pins flows to pairs only for \
             power-of-two pair counts"
        );
        let mut mem = HostMemory::testbed_default();
        // The MQ controller keeps one DMA tag context per queue pair, so
        // one pair's latency chain never blocks another pair's TLPs from
        // using idle wire — only real wire occupancy (and the shared
        // posted-credit pipeline) serializes across pairs.
        let mut link_cfg = cfg.calibration.link.clone();
        link_cfg.multi_tag = true;
        // E20: each walker tag may keep `pipeline_depth` non-posted
        // reads in flight; beyond depth 1 the completions relax their
        // ordering (safe for descriptor reads — see DESIGN.md).
        link_cfg.max_outstanding_np = cfg.options.pipeline_depth.max(1);
        link_cfg.relaxed_ordering = link_cfg.max_outstanding_np > 1;
        let mut link = PcieLink::new(link_cfg.clone());
        let rng = SimRng::new(cfg.seed);
        let host = MultiCoreHost::new(
            pairs as usize,
            &cfg.calibration.costs,
            &cfg.calibration.noise,
            &rng,
        );

        let netcfg = VirtioNetConfig::with_queue_pairs(pairs);
        // 2N data queues + the ctrl queue, in spec order.
        let mut queue_sizes = vec![cfg.options.queue_size; 2 * pairs as usize];
        queue_sizes.push(CTRL_QUEUE_SIZE);
        let mut device = VirtioFpgaDevice::new(
            Persona::Net { cfg: netcfg },
            net::feature::MAC
                | net::feature::MTU
                | net::feature::STATUS
                | net::feature::CSUM
                | net::feature::GUEST_CSUM
                | net::feature::CTRL_VQ
                | net::feature::MQ,
            &queue_sizes,
            Box::new(UdpEcho::default()),
        );
        device.set_card_memory(cfg.options.card_memory.store(256 * 1024));
        let mut alloc = MmioAllocator::new();
        let info = enumerate(&mut device.config_space, &mut alloc);
        assert_eq!(info.vendor, vf_pcie::VIRTIO_VENDOR_ID);

        // E21's tenant front ends pick their ring layout per option, not
        // per driver kind; the dedicated MQ kinds keep the fused mapping.
        let packed = cfg.driver == DriverKind::VirtioMqPacked
            || (cfg.driver == DriverKind::VirtioTenant && cfg.options.tenant_packed);
        let mut want = feature::VERSION_1;
        if cfg.options.event_idx && !packed {
            // The packed front end runs without EVENT_IDX (every TX
            // publish rings the doorbell), like the E17 single-queue one.
            want |= feature::RING_EVENT_IDX;
        }
        want |= net::feature::MAC
            | net::feature::MTU
            | net::feature::STATUS
            | net::feature::CTRL_VQ
            | net::feature::MQ;
        if cfg.options.csum_offload {
            want |= net::feature::CSUM | net::feature::GUEST_CSUM;
        }
        if packed {
            want |= feature::RING_PACKED;
        }
        let mut driver = VirtioNetMqDriver::init(&mut mem, cfg.options.queue_size, pairs, want);
        let out = probe_mq(&mut Transport(&mut device), &driver, want).expect("mq probe");
        assert_eq!(out.max_pairs, pairs);
        device.msix_enable();
        // One vector per queue: 2N data vectors + the ctrl vector.
        for v in 0..(2 * pairs as u64 + 1) {
            device
                .msix
                .program(v as usize, MSI_ADDR_BASE, 0x40 + v as u32);
        }
        assert!(device.is_live());

        // Activate all pairs through the control virtqueue. This is
        // part of `ndo_open`, so it runs at bring-up time, before the
        // measured workload.
        let ctrl_q = net::ctrl_queue_index(pairs);
        let ctrl_command = |device: &mut VirtioFpgaDevice,
                            mem: &mut HostMemory,
                            link: &mut PcieLink,
                            driver: &mut VirtioNetMqDriver,
                            notify: bool| {
            assert!(notify, "ctrl command must ring the doorbell");
            let ev = device.mmio_write(
                bar0::NOTIFY + u64::from(ctrl_q) * u64::from(bar0::NOTIFY_MULTIPLIER),
                2,
                u64::from(ctrl_q),
            );
            debug_assert_eq!(ev, Some(MmioEvent::Notify(ctrl_q)));
            let ctrl_out = device.process_ctrl_notify(Time::ZERO, ctrl_q, mem, link);
            assert!(ctrl_out.delivered);
            assert_eq!(driver.ctrl_ack(mem), Some(net::ctrl::OK));
        };
        let notify = driver.set_queue_pairs(&mut mem, pairs);
        ctrl_command(&mut device, &mut mem, &mut link, &mut driver, notify);
        assert_eq!(device.active_queue_pairs(), pairs);

        // RSS bring-up (default): program the Toeplitz indirection
        // table through the control queue, pinning each measured flow
        // to its pair. `RssMode::PortModulo` skips this, leaving the
        // device on the legacy `dst_port % pairs` fallback.
        if cfg.options.rss == RssMode::Toeplitz {
            let table = pinned_rss_table(pairs);
            let notify = driver.set_rss(&mut mem, &table, &net::RSS_DEFAULT_KEY);
            ctrl_command(&mut device, &mut mem, &mut link, &mut driver, notify);
            assert_eq!(device.rss_indirection(), Some(&table[..]));
        }

        let host_ip = Ipv4Addr::new(10, 0, 0, 1);
        let fpga_ip = Ipv4Addr::new(10, 0, 0, 2);
        let mut stack = UdpStack::new(host_ip, MacAddr([0x02, 0, 0, 0, 0, 0x01]));
        stack.routes.add(Ipv4Addr::new(10, 0, 0, 0), 24, None, 2);
        stack.arp.add_static(fpga_ip, MacAddr(netcfg.mac));

        MqParts {
            base_notifications: device.stats.notifications,
            base_irqs: device.stats.irqs_sent,
            base_desc_reads: device.stats.desc_reads,
            mem,
            // Bring-up used the link; measurements start on a quiet one.
            link: PcieLink::new(link_cfg),
            device,
            driver,
            stack,
            host,
            payload_rng: rng.derive(2),
            fpga_ip,
            pairs,
        }
    }

    /// Walk flow `pair`'s TX queue: the device echoes every chain, RSS
    /// steers each response to its pair (hashing the flow onto the
    /// active pairs), and that pair's completion interrupt is raised,
    /// or handed to its vhost worker if `vhost`. Returns when the
    /// walker engine is done.
    pub(crate) fn walk(
        &mut self,
        pair: u16,
        now: Time,
        vhost: bool,
        sched: &mut Scheduler<MqEv>,
    ) -> Time {
        let out = self.device.process_tx_notify(
            now,
            net::tx_queue_of_pair(pair),
            &mut self.mem,
            &mut self.link,
        );
        let mut engine_done = out.done_at;
        for resp in &out.responses {
            let rx_q = self.device.rss_steer(&resp.data);
            let rxo = self.device.deliver_response(
                resp.ready_at,
                rx_q,
                resp,
                &mut self.mem,
                &mut self.link,
            );
            engine_done = engine_done.max(rxo.done_at);
            if let Some(irq_at) = rxo.irq_at {
                let dst = rx_q / 2;
                if vhost {
                    sched.at(irq_at, MqEv::WorkerRx(dst, resp.data.len() as u32));
                } else {
                    sched.at(irq_at, MqEv::RxIrq(dst));
                }
            }
        }
        engine_done
    }

    /// Device stats with the bring-up (ctrl-vq) traffic subtracted.
    pub(crate) fn run_stats(&self) -> RunStats {
        RunStats {
            notifications: self.device.stats.notifications - self.base_notifications,
            irqs: self.device.stats.irqs_sent - self.base_irqs,
            desc_reads: self.device.stats.desc_reads - self.base_desc_reads,
            // A high-water mark, not a counter: bring-up's ctrl
            // exchange never uses the pipelined walkers, so no base to
            // subtract.
            walker_peak_inflight: self.device.stats.walker_peak_inflight,
        }
    }
}

// ---------------------------------------------------------------------
// What both worlds share: bring-up, tenancy layer, device-side events
// ---------------------------------------------------------------------

/// Events of both worlds, each tagged with the flow (queue pair or
/// tenant) it belongs to.
pub(crate) enum MqEv {
    /// Flow `n`'s application sends: one packet in the serial world, a
    /// window top-up followed by blocking in the pipelined one.
    Send(u16),
    /// Flow `n`'s doorbell reaches the device (directly, or relayed by
    /// its vhost worker).
    Doorbell(u16),
    /// Tenancy: the walker engine goes idle; the arbiter grants the
    /// next tenant.
    EngineFree,
    /// Tenancy with vhost: tenant `n`'s worker picks up a completion of
    /// `bytes`.
    WorkerRx(u16, u32),
    /// Flow `n`'s MSI-X reaches its host core (or guest vCPU).
    RxIrq(u16),
}

/// The brought-up device plus the optional tenancy layer, and the
/// doorbell, walk and relay handling both worlds run alike.
struct MqCore {
    parts: MqParts,
    tenancy: Option<Tenancy>,
}

impl MqCore {
    fn new(cfg: &TestbedConfig) -> Self {
        let parts = MqParts::new(cfg);
        let tenancy =
            (cfg.driver == DriverKind::VirtioTenant).then(|| Tenancy::new(cfg, parts.pairs));
        MqCore { parts, tenancy }
    }

    /// Ring flow `pair`'s TX doorbell at `t`, after a publish of a
    /// `frame_len`-byte frame. Directly, the host core writes the
    /// notify register; under vhost the guest's notify is a vmexit into
    /// the kick eventfd and the tenant's worker writes it. Returns the
    /// core's time spent (traced as a driver span if `traced`) and the
    /// doorbell's arrival at the device.
    fn kick(&mut self, pair: u16, t: Time, frame_len: usize, traced: bool) -> (Time, Time) {
        let parts = &mut self.parts;
        let tx_q = net::tx_queue_of_pair(pair);
        let ev = parts.device.mmio_write(
            bar0::NOTIFY + u64::from(tx_q) * u64::from(bar0::NOTIFY_MULTIPLIER),
            2,
            u64::from(tx_q),
        );
        debug_assert_eq!(ev, Some(MmioEvent::Notify(tx_q)));
        let cost = &mut parts.host.cpu_for_pair(pair).cost;
        let span = |name, d| {
            if traced {
                vf_trace::span_at(Layer::Driver, name, t, t + d, u64::from(tx_q), 0);
            }
            d
        };
        match &mut self.tenancy {
            Some(ten) if ten.vhost => {
                let d = span("vmexit_kick", cost.step(cost.costs.vmexit_kick));
                let rung = ten.workers[pair as usize].tx(t + d, frame_len);
                (d, parts.link.mmio_write(rung, 2))
            }
            _ => {
                let arrival = parts.link.mmio_write(t, 2);
                (
                    span("doorbell_mmio", cost.step(cost.costs.mmio_write_cpu)),
                    arrival,
                )
            }
        }
    }

    /// Doorbells, engine-free wakeups and vhost relays: the events
    /// both worlds handle alike. Without tenancy a doorbell walks its
    /// queue at once.
    fn device_event(&mut self, now: Time, msg: MqEv, sched: &mut Scheduler<MqEv>) {
        let parts = &mut self.parts;
        match (msg, &mut self.tenancy) {
            (MqEv::Doorbell(pair), None) => {
                parts.walk(pair, now, false, sched);
            }
            (MqEv::Doorbell(tenant), Some(ten)) => ten.doorbell(parts, tenant, now, sched),
            (MqEv::EngineFree, Some(ten)) => ten.engine_free(parts, now, sched),
            (MqEv::WorkerRx(tenant, bytes), Some(ten)) => {
                let seen = ten.workers[tenant as usize].rx(now, bytes as usize);
                sched.at(seen, MqEv::RxIrq(tenant));
            }
            _ => unreachable!("not a device-side event of this run"),
        }
    }
}

// ---------------------------------------------------------------------
// Serial world (Testbed::run / trace reconciliation)
// ---------------------------------------------------------------------

/// Serial request-response over N queue pairs (or M tenants), one
/// round trip at a time, one flow per core in round-robin. Recorded
/// through the standard [`RoundTripRecorder`], so `DriverKind::VirtioMq`,
/// `VirtioMqPacked` and `VirtioTenant` run through [`crate::Testbed::run`]
/// and the trace harness; each flow's round trips carry their own
/// `rtt_mq_q<i>` or `rtt_tenant_t<i>` root, which the Perfetto export
/// splits into per-flow tracks.
pub(crate) struct MqWorld {
    core: MqCore,
    rtt_names: &'static [&'static str; MAX_QUEUE_PAIRS as usize],
    /// The payload in flight, drawn from `MqParts::payload_rng`.
    expected: Vec<u8>,
    sent: usize,
    rec: RoundTripRecorder,
}

impl MqWorld {
    fn send(&mut self, now: Time, pair: u16, sched: &mut Scheduler<MqEv>) {
        if self.rec.packets_left == 0 {
            return;
        }
        self.sent += 1;
        let name = self.rtt_names[pair as usize];
        self.rec.begin_rtt(now, name, self.expected.len() as u64);
        let parts = &mut self.core.parts;
        parts.payload_rng.fill_bytes(&mut self.expected);
        let offload = parts.driver.pairs[pair as usize].csum_offload();
        let cpu = parts.host.cpu_for_pair(pair);
        let mut t = now;
        let (frame, d) = parts
            .stack
            .sendto(
                parts.fpga_ip,
                FLOW_PORT_BASE + pair,
                7,
                &self.expected,
                offload,
                &mut cpu.cost,
            )
            .expect("send path configured");
        let len = self.expected.len() as u64;
        vf_trace::span_at(Layer::Syscall, "sendto", t, t + d, len, u64::from(pair));
        t += d;
        let res = parts
            .driver
            .xmit(&mut parts.mem, pair, &frame, &mut cpu.cost);
        let len = frame.len() as u64;
        vf_trace::span_at(
            Layer::Driver,
            "virtio_xmit",
            t,
            t + res.cpu,
            len,
            u64::from(pair),
        );
        t += res.cpu;
        if res.notify {
            let (d, arrival) = self.core.kick(pair, t, frame.len(), true);
            t += d;
            sched.at(arrival, MqEv::Doorbell(pair));
        }
        vf_trace::set_now(t);
        let cpu = self.core.parts.host.cpu_for_pair(pair);
        t += cpu.cost.send_return_then_block();
        cpu.free = t;
    }

    fn rx_irq(&mut self, now: Time, pair: u16, sched: &mut Scheduler<MqEv>) {
        let parts = &mut self.core.parts;
        let cpu = parts.host.cpu_for_pair(pair);
        let t_irq = now.max(cpu.free);
        vf_trace::set_now(t_irq);
        let mut t = t_irq + cpu.cost.irq_to_napi();
        let (frames, d) = parts.driver.napi_poll(&mut parts.mem, pair, &mut cpu.cost);
        vf_trace::span_at(Layer::Driver, "napi_poll", t, t + d, 0, u64::from(pair));
        t += d;
        let mut delivered_payload: Option<Vec<u8>> = None;
        for rx in frames {
            let validated = rx.hdr.flags & net::HDR_F_DATA_VALID != 0;
            match parts.stack.netif_receive(
                &rx.frame,
                FLOW_PORT_BASE + pair,
                validated,
                &mut cpu.cost,
            ) {
                Ok((parsed, d)) => {
                    let len = rx.frame.len() as u64;
                    vf_trace::span_at(Layer::Syscall, "udp_rx", t, t + d, len, u64::from(pair));
                    t += d;
                    delivered_payload = Some(parsed.payload);
                }
                Err(SockError::BadChecksum) => {
                    self.rec.verify_failures += 1;
                }
                Err(e) => panic!("receive path failed: {e:?}"),
            }
        }
        let d = cpu.cost.step(cpu.cost.costs.wakeup_to_run);
        vf_trace::span_at(Layer::Irq, "wakeup_to_run", t, t + d, 0, 0);
        t += d;
        let len = delivered_payload.as_ref().map_or(0, |p| p.len());
        let d = parts.stack.recvfrom_return(len, &mut cpu.cost);
        vf_trace::span_at(Layer::Syscall, "recvfrom_return", t, t + d, len as u64, 0);
        t += d;
        cpu.free = t;

        if delivered_payload.as_deref() != Some(&self.expected[..]) {
            self.rec.verify_failures += 1;
        }
        let hw = parts.device.counters.last_hw();
        let proc = parts.device.counters.processing.last;
        self.rec.record(t, hw, proc);
        if self.rec.packets_left > 0 {
            let next = t + cpu.cost.step(cpu.cost.costs.app_loop_overhead);
            let pair = (self.sent % parts.pairs as usize) as u16;
            sched.at(next, MqEv::Send(pair));
        }
    }
}

impl World for MqWorld {
    type Msg = MqEv;

    fn deliver(&mut self, now: Time, msg: MqEv, sched: &mut Scheduler<MqEv>) {
        self.core.parts.link.advance_epoch(now);
        match msg {
            MqEv::Send(pair) => self.send(now, pair, sched),
            MqEv::RxIrq(pair) => self.rx_irq(now, pair, sched),
            ev => self.core.device_event(now, ev, sched),
        }
    }
}

impl DriverModel for MqWorld {
    type Telemetry = ();

    fn build(cfg: &TestbedConfig) -> Self {
        let core = MqCore::new(cfg);
        MqWorld {
            rtt_names: if core.tenancy.is_some() {
                &TENANT_RTT_NAMES
            } else {
                &MQ_RTT_NAMES
            },
            core,
            expected: vec![0; cfg.payload],
            sent: 0,
            rec: RoundTripRecorder::new(cfg.packets),
        }
    }

    fn initial_event() -> MqEv {
        MqEv::Send(0)
    }

    fn describe(msg: &MqEv) -> Option<(Layer, &'static str)> {
        Some(match msg {
            MqEv::Send(_) => (Layer::App, "app_send"),
            MqEv::Doorbell(_) => (Layer::Device, "doorbell"),
            MqEv::EngineFree => (Layer::Device, "engine_free"),
            MqEv::WorkerRx(..) => (Layer::Driver, "vhost_relay"),
            MqEv::RxIrq(_) => (Layer::Irq, "msix_rx"),
        })
    }

    fn finish(self) -> (RoundTripRecorder, RunStats, ()) {
        let stats = self.core.parts.run_stats();
        (self.rec, stats, ())
    }
}

// ---------------------------------------------------------------------
// Pipelined world (the E19 and E21 measurements)
// ---------------------------------------------------------------------

/// Result of one [`run_mq`] sweep point.
pub struct MqThroughputResult {
    /// Active queue pairs.
    pub queues: u16,
    /// Per-queue window depth used.
    pub depth: usize,
    /// Total packets across all queues.
    pub packets: usize,
    /// Aggregate throughput (packets/s).
    pub pps: f64,
    /// Per-queue round-trip latency samples.
    pub per_queue_latency: Vec<SampleSet>,
    /// Doorbell MMIO writes (bring-up excluded).
    pub doorbells: u64,
    /// MSI-X messages sent (bring-up excluded).
    pub irqs: u64,
    /// Echo verification failures.
    pub verify_failures: u64,
    /// Fraction of the run the upstream (device→host) wire was busy.
    pub link_util_up: f64,
    /// Fraction of the run the downstream (host→device) wire was busy.
    pub link_util_down: f64,
    /// Highest number of non-posted reads one walker tag held in
    /// flight (0 when the serial walkers ran, i.e. depth 1).
    pub peak_np_inflight: u64,
}

impl MqThroughputResult {
    /// Doorbells per packet (per-queue EVENT_IDX coalescing at work).
    pub fn doorbells_per_packet(&self) -> f64 {
        self.doorbells as f64 / self.packets as f64
    }

    /// Interrupts per packet.
    pub fn irqs_per_packet(&self) -> f64 {
        self.irqs as f64 / self.packets as f64
    }

    /// Mean round-trip latency pooled over every queue (µs).
    pub fn mean_latency_us(&mut self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for s in &self.per_queue_latency {
            sum += s.raw().iter().sum::<f64>();
            n += s.raw().len();
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

/// One flow's windowed workload (queue pair or tenant *i*, on its own
/// core): the E12 workload, with the flow's own window depth and pause
/// flag from its [`TenantConfig`] (the default one for MQ runs).
pub(crate) struct Flow {
    payload_rng: SimRng,
    to_send: usize,
    in_flight: usize,
    seq: u32,
    pending: InFlight<Pending>,
    pub(crate) latency: SampleSet,
    depth: usize,
    pub(crate) paused: bool,
    pub(crate) completed: usize,
    pub(crate) last_completion: Time,
}

struct MqPipelinedWorld {
    core: MqCore,
    flows: Vec<Flow>,
    /// Scratch payload: each send draws into it, each echo is checked
    /// against its regeneration in it.
    payload: Vec<u8>,
    verify_failures: u64,
}

impl MqPipelinedWorld {
    fn new(cfg: &TestbedConfig, depth: usize) -> Self {
        let core = MqCore::new(cfg);
        let rng = SimRng::new(cfg.seed);
        let tenant_cfgs: Vec<TenantConfig> = match &core.tenancy {
            Some(ten) => ten.cfgs.clone(),
            None => vec![TenantConfig::default(); core.parts.pairs as usize],
        };
        let active = tenant_cfgs.iter().filter(|c| !c.paused).count();
        assert!(active > 0, "at least one tenant must be active");
        let (per_flow, remainder) = (cfg.packets / active, cfg.packets % active);
        let mut rank = 0;
        let flows = tenant_cfgs
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let to_send = if c.paused {
                    0
                } else {
                    rank += 1;
                    per_flow + usize::from(rank <= remainder)
                };
                Flow {
                    // One payload stream per flow: concurrent flows must
                    // not race for draws from a shared stream.
                    payload_rng: rng.derive(100 + i as u64),
                    to_send,
                    in_flight: 0,
                    seq: 0,
                    pending: InFlight::new(),
                    latency: SampleSet::with_capacity(to_send + 1),
                    depth: c.depth_or(depth),
                    paused: c.paused,
                    completed: 0,
                    last_completion: Time::ZERO,
                }
            })
            .collect();
        MqPipelinedWorld {
            core,
            flows,
            // Sequence number needs 4 bytes of payload.
            payload: vec![0; cfg.payload.max(4)],
            verify_failures: 0,
        }
    }

    /// Top up flow `pair`'s window, then block in `recvfrom`.
    fn send(&mut self, now: Time, pair: u16, sched: &mut Scheduler<MqEv>) {
        let q = &mut self.flows[pair as usize];
        let mut t = now;
        let mut doorbell_at: Option<Time> = None;
        while q.in_flight < q.depth && q.to_send > 0 {
            let layout = PayloadLayout::StampOverFill;
            q.pending
                .send(layout, &mut q.payload_rng, q.seq, t, &mut self.payload);
            let parts = &mut self.core.parts;
            let cpu = parts.host.cpu_for_pair(pair);
            let (frame, cpu_t) = parts
                .stack
                .sendto(
                    parts.fpga_ip,
                    FLOW_PORT_BASE + pair,
                    7,
                    &self.payload,
                    false,
                    &mut cpu.cost,
                )
                .expect("send path configured");
            t += cpu_t;
            let res = parts
                .driver
                .xmit(&mut parts.mem, pair, &frame, &mut cpu.cost);
            t += res.cpu;
            if res.notify {
                let (d, arrival) = self.core.kick(pair, t, frame.len(), false);
                t += d;
                doorbell_at = Some(doorbell_at.map_or(arrival, |d: Time| d.max(arrival)));
            }
            q.in_flight += 1;
            q.to_send -= 1;
            q.seq += 1;
        }
        if let Some(at) = doorbell_at {
            sched.at(at, MqEv::Doorbell(pair));
        }
        let cpu = self.core.parts.host.cpu_for_pair(pair);
        t += cpu.cost.step(cpu.cost.costs.syscall_entry);
        t += cpu.cost.step(cpu.cost.costs.block_schedule);
        cpu.free = t;
        cpu.blocked = true;
    }

    fn rx_irq(&mut self, now: Time, pair: u16, sched: &mut Scheduler<MqEv>) {
        let parts = &mut self.core.parts;
        let q = &mut self.flows[pair as usize];
        let cpu = parts.host.cpu_for_pair(pair);
        let mut t = now.max(cpu.free) + cpu.cost.blocking_extra();
        t += cpu.cost.step(cpu.cost.costs.hardirq_entry);
        t += cpu.cost.step(cpu.cost.costs.softirq_latency);
        let (frames, cpu_t) = parts.driver.napi_poll(&mut parts.mem, pair, &mut cpu.cost);
        t += cpu_t;
        if frames.is_empty() {
            return;
        }
        if cpu.blocked {
            t += cpu.cost.step(cpu.cost.costs.wakeup_to_run);
            cpu.blocked = false;
        }
        for rx in frames {
            let (parsed, cpu_t) = parts
                .stack
                .netif_receive(&rx.frame, FLOW_PORT_BASE + pair, false, &mut cpu.cost)
                .unwrap_or_else(|e| panic!("receive path failed: {e:?}"));
            t += cpu_t;
            t += parts
                .stack
                .recvfrom_return(parsed.payload.len(), &mut cpu.cost);
            let layout = PayloadLayout::StampOverFill;
            let Some((t0, matched)) =
                q.pending
                    .complete(layout, &parsed.payload, &mut self.payload)
            else {
                // Not an outstanding sequence number: nothing to time.
                self.verify_failures += 1;
                continue;
            };
            self.verify_failures += u64::from(!matched);
            q.latency.push((t - t0).quantize(Time::from_ns(1)));
            q.in_flight -= 1;
            q.completed += 1;
            q.last_completion = t;
        }
        cpu.free = t;
        if q.to_send > 0 || q.in_flight > 0 {
            sched.at(t, MqEv::Send(pair));
        }
    }
}

impl World for MqPipelinedWorld {
    type Msg = MqEv;

    fn deliver(&mut self, now: Time, msg: MqEv, sched: &mut Scheduler<MqEv>) {
        self.core.parts.link.advance_epoch(now);
        match msg {
            MqEv::Send(pair) => self.send(now, pair, sched),
            MqEv::RxIrq(pair) => self.rx_irq(now, pair, sched),
            ev => self.core.device_event(now, ev, sched),
        }
    }
}

/// What [`run_mq`] and [`crate::run_tenants`] report alike.
pub(crate) struct PipelinedRun {
    pub(crate) pairs: u16,
    /// First send of every active flow.
    pub(crate) start: Time,
    pub(crate) pps: f64,
    pub(crate) flows: Vec<Flow>,
    pub(crate) stats: RunStats,
    pub(crate) verify_failures: u64,
    pub(crate) link_util_up: f64,
    pub(crate) link_util_down: f64,
    pub(crate) tenancy: Option<Tenancy>,
}

/// Run the pipelined world: every active flow keeps its window full
/// until the flows drain `cfg.packets` round trips between them.
pub(crate) fn run_pipelined_mq(cfg: &TestbedConfig, depth: usize) -> PipelinedRun {
    let world = MqPipelinedWorld::new(cfg, depth);
    for q in &world.flows {
        assert!(
            q.depth <= cfg.options.queue_size as usize / 2,
            "window must fit the TX ring ({} two-descriptor chains)",
            cfg.options.queue_size / 2
        );
    }
    let what = if world.core.tenancy.is_some() {
        "tenant pipeline"
    } else {
        "mq pipeline"
    };
    let mut sim = Simulation::new(world);
    let start = Time::from_us(10);
    for pair in 0..sim.world.core.parts.pairs {
        if !sim.world.flows[pair as usize].paused {
            sim.schedule_at(start, MqEv::Send(pair));
        }
    }
    sim.run_expect_idle(Time::from_secs(3600), 500_000_000, what);
    let elapsed = sim.now() - start;
    let w = sim.world;
    let received: usize = w.flows.iter().map(|q| q.completed).sum();
    assert_eq!(received, cfg.packets, "packets lost");
    let link = &w.core.parts.link;
    let wire = |bytes: u64| {
        Time::from_ps(bytes * link.cfg.ps_per_byte()).as_us_f64() / elapsed.as_us_f64()
    };
    PipelinedRun {
        pairs: w.core.parts.pairs,
        start,
        pps: cfg.packets as f64 / (elapsed.as_us_f64() / 1e6),
        stats: w.core.parts.run_stats(),
        verify_failures: w.verify_failures,
        link_util_up: wire(link.up_wire_bytes),
        link_util_down: wire(link.down_wire_bytes),
        flows: w.flows,
        tenancy: w.core.tenancy,
    }
}

/// Run the E19 pipelined multi-queue workload: `mq_queue_pairs` pairs
/// (from `cfg.options`), each with a `depth`-deep window, until
/// `cfg.packets` total round trips complete.
pub fn run_mq(cfg: &TestbedConfig, depth: usize) -> MqThroughputResult {
    assert!(
        matches!(
            cfg.driver,
            DriverKind::VirtioMq | DriverKind::VirtioMqPacked
        ),
        "run_mq drives the MQ front ends"
    );
    let run = run_pipelined_mq(cfg, depth);
    MqThroughputResult {
        queues: run.pairs,
        depth,
        packets: cfg.packets,
        pps: run.pps,
        per_queue_latency: run.flows.into_iter().map(|q| q.latency).collect(),
        doorbells: run.stats.notifications,
        irqs: run.stats.irqs,
        verify_failures: run.verify_failures,
        link_util_up: run.link_util_up,
        link_util_down: run.link_util_down,
        peak_np_inflight: run.stats.walker_peak_inflight,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::Testbed;

    fn cfg_for(driver: DriverKind, pairs: u16, packets: usize) -> TestbedConfig {
        let mut c = TestbedConfig::paper(driver, 256, packets, 77);
        c.options.mq_queue_pairs = pairs;
        c
    }

    fn cfg(pairs: u16, packets: usize) -> TestbedConfig {
        cfg_for(DriverKind::VirtioMq, pairs, packets)
    }

    #[test]
    fn serial_world_round_robins_all_pairs() {
        let r = Testbed::new(cfg(4, 400)).run();
        assert_eq!(r.verify_failures, 0);
        // Serial request-response: exactly one doorbell and one RX irq
        // per packet, bring-up traffic excluded.
        assert_eq!(r.notifications, 400);
        assert_eq!(r.irqs, 400);
    }

    #[test]
    fn serial_single_pair_behaves_like_a_net_device() {
        let r = Testbed::new(cfg(1, 300)).run();
        assert_eq!(r.verify_failures, 0);
        assert_eq!(r.notifications, 300);
    }

    #[test]
    fn pipelined_mq_scales_beyond_one_queue() {
        let one = run_mq(&cfg(1, 1_200), 16);
        let four = run_mq(&cfg(4, 1_200), 16);
        assert_eq!(one.verify_failures, 0);
        assert_eq!(four.verify_failures, 0);
        assert!(
            four.pps > 2.0 * one.pps,
            "4 queues: {} pps vs 1 queue: {} pps",
            four.pps,
            one.pps
        );
    }

    #[test]
    fn per_queue_suppression_still_engages() {
        let r = run_mq(&cfg(2, 2_000), 16);
        assert!(
            r.irqs_per_packet() < 0.8,
            "irqs/packet = {}",
            r.irqs_per_packet()
        );
        assert!(
            r.doorbells_per_packet() < 0.8,
            "doorbells/packet = {}",
            r.doorbells_per_packet()
        );
    }

    /// The metered delivery total is the engine's own count at run end,
    /// not the value published at the last sample boundary.
    #[test]
    fn metered_event_total_reconciles_with_engine() {
        let c = cfg(4, 600);
        let (delivered, report) = crate::metered(vf_metrics::MetricsConfig::default(), || {
            let mut sim = vf_sim::Simulation::new(MqPipelinedWorld::new(&c, 8));
            for pair in 0..4 {
                sim.schedule_at(Time::from_us(10), MqEv::Send(pair));
            }
            sim.run_expect_idle(Time::from_secs(3600), 500_000_000, "mq pipeline");
            sim.events_delivered()
        });
        assert!(delivered > 0);
        assert_eq!(
            report.counter_total("sim.events.delivered"),
            delivered as i64
        );
    }

    #[test]
    fn pipelined_mq_is_deterministic() {
        let a = run_mq(&cfg(2, 600), 8);
        let b = run_mq(&cfg(2, 600), 8);
        assert_eq!(a.pps.to_bits(), b.pps.to_bits());
        for (x, y) in a.per_queue_latency.iter().zip(&b.per_queue_latency) {
            assert_eq!(x.raw(), y.raw());
        }
    }

    /// The Toeplitz indirection table pins every measured flow to the
    /// same pair the modulo fallback picks, and its bring-up traffic is
    /// excluded from measurement — so the two steering modes must
    /// produce bit-identical runs. This is the E19 golden-equivalence
    /// guarantee the RSS satellite demands.
    #[test]
    fn toeplitz_steering_is_bit_identical_to_modulo() {
        let a = run_mq(&cfg(4, 800), 8);
        let mut c = cfg(4, 800);
        c.options.rss = RssMode::PortModulo;
        let b = run_mq(&c, 8);
        assert_eq!(a.pps.to_bits(), b.pps.to_bits());
        for (x, y) in a.per_queue_latency.iter().zip(&b.per_queue_latency) {
            assert_eq!(x.raw(), y.raw());
        }
    }

    #[test]
    fn packed_mq_world_round_trips_serially() {
        let r = Testbed::new(cfg_for(DriverKind::VirtioMqPacked, 4, 300)).run();
        assert_eq!(r.verify_failures, 0);
        // No EVENT_IDX on the packed front end: one doorbell per packet
        // and one unconditional RX vector per delivery.
        assert_eq!(r.notifications, 300);
        assert_eq!(r.irqs, 300);
    }

    #[test]
    fn packed_mq_pipeline_is_deterministic() {
        let mk = || {
            let mut c = cfg_for(DriverKind::VirtioMqPacked, 2, 400);
            c.options.pipeline_depth = 4;
            c
        };
        let a = run_mq(&mk(), 8);
        let b = run_mq(&mk(), 8);
        assert_eq!(a.verify_failures, 0);
        assert_eq!(a.pps.to_bits(), b.pps.to_bits());
    }

    /// E20's headline: depth > 1 strictly beats the serial walkers at
    /// 256 B for both ring layouts, and the link reports the deeper
    /// window actually materialized.
    #[test]
    fn pipelined_walkers_beat_serial_at_256b() {
        for driver in [DriverKind::VirtioMq, DriverKind::VirtioMqPacked] {
            let base = run_mq(&cfg_for(driver, 4, 1_000), 16);
            let mut deep_cfg = cfg_for(driver, 4, 1_000);
            deep_cfg.options.pipeline_depth = 4;
            let deep = run_mq(&deep_cfg, 16);
            assert_eq!(deep.verify_failures, 0);
            assert_eq!(base.peak_np_inflight, 0, "{driver:?} serial walkers");
            assert!(
                deep.peak_np_inflight > 1,
                "{driver:?} pipelined walkers never overlapped reads"
            );
            assert!(
                deep.pps > base.pps,
                "{driver:?}: depth 4 ({:.0} pps) must beat depth 1 ({:.0} pps)",
                deep.pps,
                base.pps
            );
        }
    }

    #[test]
    fn every_queue_carries_traffic() {
        let mut r = run_mq(&cfg(4, 1_000), 8);
        for (i, s) in r.per_queue_latency.iter().enumerate() {
            assert_eq!(s.raw().len(), 250, "queue {i} packet count");
        }
        assert!(r.mean_latency_us() > 0.0);
    }
}
