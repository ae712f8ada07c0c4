//! The in-kernel virtio-net front-end driver model.
//!
//! Embodies the VirtIO design philosophy the paper evaluates (§IV-A):
//! all ring addresses are shared with the device **once, during device
//! initialization**; at runtime, transmitting costs two buffer writes, a
//! ring publish, and at most one doorbell, while receiving is driven by
//! pre-posted buffers and a NAPI poll off the MSI-X interrupt.
//!
//! Functional state lives in simulated host memory via the real
//! `vf-virtio` driver-side rings; CPU time is charged through the
//! [`CostEngine`](crate::cost). The probe sequence ([`probe`])
//! exercises the same modern-PCI transport the FPGA device model
//! exposes.
//!
//! The ring layout follows the negotiated features: with `RING_PACKED`
//! both queues are packed rings (E17), otherwise split rings. CPU costs
//! are charged identically for both on purpose — E17 isolates the
//! *device-side* descriptor-fetch difference, not a host-software delta.
//! The packed rings run without `RING_EVENT_IDX`, so every TX publish
//! rings the doorbell and the device never suppresses the RX vector.

use vf_pcie::HostMemory;
use vf_sim::Time;
use vf_virtio::driver_queue::BufferSpec;
use vf_virtio::net::{VirtioNetHdr, HDR_F_NEEDS_CSUM};
use vf_virtio::pci::common;
use vf_virtio::{feature as core_feature, net, status, DriverRing, GuestMemory};

use crate::cost::CostEngine;
use crate::mq_ctrl::MqProbeOutcome;

/// How the driver lays out one RX buffer: header + frame space.
pub const RX_BUF_SIZE: u32 = 2048;

/// Result of a transmit call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct XmitResult {
    /// Whether the device must be notified (doorbell MMIO write).
    pub notify: bool,
    /// CPU time consumed by the transmit path.
    pub cpu: Time,
    /// Id of the published chain (split head / packed buffer id).
    pub head: u16,
}

/// A frame delivered to the stack by the NAPI poll.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RxFrame {
    /// The virtio-net header the device wrote.
    pub hdr: VirtioNetHdr,
    /// The Ethernet frame bytes.
    pub frame: Vec<u8>,
}

/// The driver instance bound to one virtio-net device.
#[derive(Clone, Debug)]
pub struct VirtioNetDriver {
    /// Driver side of `transmitq1`.
    pub tx: DriverRing,
    /// Driver side of `receiveq1`.
    pub rx: DriverRing,
    /// Negotiated feature bits.
    pub features: u64,
    tx_slots: Vec<u64>,
    next_tx_slot: usize,
    rx_buf_of_id: Vec<Option<u64>>,
    /// TX chains awaiting completion-clean (freed lazily on later xmits,
    /// as virtio-net frees old skbs).
    pub tx_inflight: u16,
}

impl VirtioNetDriver {
    /// Allocate rings and buffers, post all RX buffers. `queue_size` per
    /// direction; `features` picks the ring layout (`RING_PACKED`) and,
    /// on split rings, `RING_EVENT_IDX`.
    pub fn init(mem: &mut HostMemory, queue_size: u16, features: u64) -> Self {
        let packed = features & core_feature::RING_PACKED != 0;
        let event_idx = features & core_feature::RING_EVENT_IDX != 0;
        let ring_bytes = DriverRing::bytes(queue_size, packed);
        let tx_ring = mem.alloc(ring_bytes, 4096);
        let rx_ring = mem.alloc(ring_bytes, 4096);
        let tx = DriverRing::new(mem, tx_ring, queue_size, packed, event_idx);
        let mut rx = DriverRing::new(mem, rx_ring, queue_size, packed, event_idx);
        // TX completions are harvested lazily on later transmits — the
        // driver does not want TX interrupts (virtqueue_disable_cb).
        tx.disable_interrupts(mem);

        // Packed slots are RCB-aligned so the device's merged
        // header+frame burst starts on a read-chunk boundary — otherwise
        // the split-vs-packed comparison (E17) would pick up a chunk
        // crossing that is an allocator accident, not ring structure.
        let align = if packed { 512 } else { 64 };
        // TX slots: header + frame contiguous, one slot per descriptor
        // pair that can be in flight.
        let tx_slots: Vec<u64> = (0..queue_size / 2)
            .map(|_| mem.alloc(RX_BUF_SIZE as usize, align))
            .collect();

        // RX buffers: post every one (header written inline by the
        // device, VERSION_1 single-buffer layout).
        let mut rx_buf_of_id = vec![None; queue_size as usize];
        for _ in 0..queue_size {
            let buf = mem.alloc(RX_BUF_SIZE as usize, align);
            let id = rx
                .add(mem, &[BufferSpec::writable(buf, RX_BUF_SIZE)])
                .expect("fresh queue cannot be full");
            rx_buf_of_id[id as usize] = Some(buf);
        }
        VirtioNetDriver {
            tx,
            rx,
            features,
            tx_slots,
            next_tx_slot: 0,
            rx_buf_of_id,
            tx_inflight: 0,
        }
    }

    /// True if checksum offload to the device was negotiated.
    pub fn csum_offload(&self) -> bool {
        self.features & net::feature::CSUM != 0
    }

    /// Transmit one Ethernet frame. Charges: TX-completion cleaning of
    /// earlier packets, header+frame writes, ring add/publish, and the
    /// notify decision. The doorbell MMIO itself is charged by the caller
    /// (it needs the link).
    pub fn xmit(
        &mut self,
        mem: &mut HostMemory,
        frame: &[u8],
        cost: &mut CostEngine,
    ) -> XmitResult {
        let mut cpu = Time::ZERO;
        // Free old completed TX chains (lazy clean, as virtio-net does).
        let mut cleaned = false;
        while self.tx.pop_used(mem).is_some() {
            self.tx_inflight -= 1;
            cleaned = true;
            cpu += cost.step(Time::from_ns(150));
        }
        if cleaned {
            // pop_used re-armed the TX used_event; park it again.
            self.tx.disable_interrupts(mem);
        }

        let slot = self.tx_slots[self.next_tx_slot % self.tx_slots.len()];
        self.next_tx_slot += 1;
        let hdr = if self.csum_offload() {
            // Ask the device to complete the UDP checksum: csum_start =
            // start of UDP header, csum_offset = 6 (UDP checksum field).
            VirtioNetHdr {
                flags: HDR_F_NEEDS_CSUM,
                csum_start: (crate::packet::ETH_HDR_LEN + crate::packet::IPV4_HDR_LEN) as u16,
                csum_offset: 6,
                num_buffers: 1,
                ..Default::default()
            }
        } else {
            VirtioNetHdr {
                num_buffers: 1,
                ..Default::default()
            }
        };
        hdr.write_to(mem, slot);
        GuestMemory::write(mem, slot + VirtioNetHdr::LEN as u64, frame);
        cpu += cost.copy_user(frame.len());

        let (head, notify) = self
            .tx
            .add_notify(
                mem,
                &[
                    BufferSpec::readable(slot, VirtioNetHdr::LEN as u32),
                    BufferSpec::readable(slot + VirtioNetHdr::LEN as u64, frame.len() as u32),
                ],
            )
            .expect("TX ring full: more in-flight packets than slots");
        self.tx_inflight += 1;
        cpu += cost.step(cost.costs.virtio_xmit);
        XmitResult { notify, cpu, head }
    }

    /// NAPI poll: harvest received frames, repost their buffers. Charges
    /// per-frame receive-path costs.
    pub fn napi_poll(
        &mut self,
        mem: &mut HostMemory,
        cost: &mut CostEngine,
    ) -> (Vec<RxFrame>, Time) {
        let mut frames = Vec::new();
        let mut cpu = Time::ZERO;
        while let Some(used) = self.rx.pop_used(mem) {
            let buf = self.rx_buf_of_id[used.id as usize]
                .take()
                .expect("used RX id without a posted buffer");
            let hdr = VirtioNetHdr::read_from(mem, buf);
            let frame_len = (used.len as usize).saturating_sub(VirtioNetHdr::LEN);
            let frame = GuestMemory::read_vec(mem, buf + VirtioNetHdr::LEN as u64, frame_len);
            cpu += cost.step(cost.costs.virtio_napi_rx);
            frames.push(RxFrame { hdr, frame });
            // Repost the buffer.
            let id = self
                .rx
                .add(mem, &[BufferSpec::writable(buf, RX_BUF_SIZE)])
                .expect("repost cannot fail: we just freed a chain");
            self.rx_buf_of_id[id as usize] = Some(buf);
        }
        (frames, cpu)
    }
}

/// The modern-PCI transport as the driver sees it: MMIO into the BAR
/// regions the VirtIO capabilities located. Implemented by the FPGA
/// device model.
pub trait VirtioTransport {
    /// Read from the common-config structure.
    fn common_read(&mut self, off: u64, len: usize) -> u64;
    /// Write to the common-config structure.
    fn common_write(&mut self, off: u64, len: usize, val: u64);
    /// Read from the device-specific config structure.
    fn device_cfg_read(&mut self, off: u64, len: usize) -> u64;
}

/// Errors during device probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeError {
    /// Device rejected our feature selection (FEATURES_OK read back 0).
    FeaturesRejected,
    /// Device reports fewer queues than the device type needs.
    NotEnoughQueues {
        /// Queues the device exposes.
        have: u16,
        /// Queues required.
        need: u16,
    },
}

/// Result of a successful probe.
#[derive(Clone, Copy, Debug)]
pub struct ProbeOutcome {
    /// Negotiated feature bits.
    pub features: u64,
    /// Device MAC address (from device config).
    pub mac: [u8; 6],
    /// Device MTU.
    pub mtu: u16,
}

/// The virtio-pci + virtio-net probe sequence (VirtIO 1.2 §3.1.1): reset,
/// ACKNOWLEDGE, DRIVER, feature negotiation through the select windows,
/// FEATURES_OK with read-back verification, queue programming, DRIVER_OK,
/// then device-config reads. This is exactly the MMIO the kernel issues
/// at `virtio_pci` probe time.
pub fn probe<T: VirtioTransport>(
    transport: &mut T,
    driver: &VirtioNetDriver,
    want_features: u64,
) -> Result<ProbeOutcome, ProbeError> {
    probe_net(transport, std::slice::from_ref(driver), None, want_features).map(|out| {
        ProbeOutcome {
            features: out.features,
            mac: out.mac,
            mtu: out.mtu,
        }
    })
}

/// Probe body shared by the single-queue and multi-queue front ends and
/// by both ring layouts: `pairs` are the data-queue pairs (pair *i* is
/// `receiveq` `2i` / `transmitq` `2i+1`); `ctrl`, when present, makes
/// this the `VIRTIO_NET_F_MQ` bring-up, with the control queue
/// programmed last at the index `max_virtqueue_pairs` fixes.
///
/// Every queue gets MSI-X vector = queue index. A packed driver cannot
/// fall back to split rings, so if `RING_PACKED` does not land it gives
/// up with `FAILED` before `FEATURES_OK`.
pub(crate) fn probe_net<T: VirtioTransport>(
    transport: &mut T,
    pairs: &[VirtioNetDriver],
    ctrl: Option<&DriverRing>,
    want_features: u64,
) -> Result<MqProbeOutcome, ProbeError> {
    use common as c;
    let num_pairs = pairs.len() as u16;
    // Reset + early status.
    transport.common_write(c::DEVICE_STATUS, 1, 0);
    transport.common_write(c::DEVICE_STATUS, 1, status::ACKNOWLEDGE as u64);
    transport.common_write(
        c::DEVICE_STATUS,
        1,
        (status::ACKNOWLEDGE | status::DRIVER) as u64,
    );

    // Read offered features through the two select windows.
    transport.common_write(c::DEVICE_FEATURE_SELECT, 4, 0);
    let lo = transport.common_read(c::DEVICE_FEATURE, 4);
    transport.common_write(c::DEVICE_FEATURE_SELECT, 4, 1);
    let hi = transport.common_read(c::DEVICE_FEATURE, 4);
    let offered = lo | (hi << 32);
    let accept = (offered & want_features) | core_feature::VERSION_1;
    if pairs[0].rx.is_packed() && accept & core_feature::RING_PACKED == 0 {
        transport.common_write(
            c::DEVICE_STATUS,
            1,
            (status::ACKNOWLEDGE | status::DRIVER | status::FAILED) as u64,
        );
        return Err(ProbeError::FeaturesRejected);
    }

    transport.common_write(c::DRIVER_FEATURE_SELECT, 4, 0);
    transport.common_write(c::DRIVER_FEATURE, 4, accept & 0xFFFF_FFFF);
    transport.common_write(c::DRIVER_FEATURE_SELECT, 4, 1);
    transport.common_write(c::DRIVER_FEATURE, 4, accept >> 32);
    transport.common_write(
        c::DEVICE_STATUS,
        1,
        (status::ACKNOWLEDGE | status::DRIVER | status::FEATURES_OK) as u64,
    );
    // §3.1.1 step 4 failure — the device refused the set, or N pairs
    // without MQ, a spec violation. Status bits can only be added, so
    // the driver gives up by writing FAILED *on top of* the bits it
    // already set — this is what makes FAILED visible to the device.
    if transport.common_read(c::DEVICE_STATUS, 1) as u8 & status::FEATURES_OK == 0
        || (num_pairs > 1 && accept & net::feature::MQ == 0)
    {
        transport.common_write(
            c::DEVICE_STATUS,
            1,
            (status::ACKNOWLEDGE | status::DRIVER | status::FEATURES_OK | status::FAILED) as u64,
        );
        return Err(ProbeError::FeaturesRejected);
    }

    let need = 2 * num_pairs + u16::from(ctrl.is_some());
    let num_queues = transport.common_read(c::NUM_QUEUES, 2) as u16;
    if num_queues < need {
        return Err(ProbeError::NotEnoughQueues {
            have: num_queues,
            need,
        });
    }

    let mut queues = Vec::with_capacity(need as usize);
    for (i, pair) in pairs.iter().enumerate() {
        queues.push((net::rx_queue_of_pair(i as u16), &pair.rx));
        queues.push((net::tx_queue_of_pair(i as u16), &pair.tx));
    }
    let mut max_pairs = num_pairs;
    if let Some(ctrl) = ctrl {
        // `max_virtqueue_pairs` sits at device-config offset 8 and fixes
        // the ctrl queue's index; readable once FEATURES_OK is set.
        max_pairs = transport.device_cfg_read(8, 2) as u16;
        if max_pairs < num_pairs {
            return Err(ProbeError::NotEnoughQueues {
                have: 2 * max_pairs + 1,
                need,
            });
        }
        queues.push((net::ctrl_queue_index(max_pairs), ctrl));
    }
    for (qi, ring) in queues {
        let (size, desc, driver_area, device_area) = ring.programming();
        transport.common_write(c::QUEUE_SELECT, 2, qi as u64);
        transport.common_write(c::QUEUE_SIZE, 2, size as u64);
        transport.common_write(c::QUEUE_MSIX_VECTOR, 2, qi as u64);
        transport.common_write(c::QUEUE_DESC_LO, 4, desc & 0xFFFF_FFFF);
        transport.common_write(c::QUEUE_DESC_HI, 4, desc >> 32);
        transport.common_write(c::QUEUE_DRIVER_LO, 4, driver_area & 0xFFFF_FFFF);
        transport.common_write(c::QUEUE_DRIVER_HI, 4, driver_area >> 32);
        transport.common_write(c::QUEUE_DEVICE_LO, 4, device_area & 0xFFFF_FFFF);
        transport.common_write(c::QUEUE_DEVICE_HI, 4, device_area >> 32);
        transport.common_write(c::QUEUE_ENABLE, 2, 1);
    }

    transport.common_write(
        c::DEVICE_STATUS,
        1,
        (status::ACKNOWLEDGE | status::DRIVER | status::FEATURES_OK | status::DRIVER_OK) as u64,
    );

    // Device-specific config: MAC + MTU.
    let mut mac = [0u8; 6];
    let mac_lo = transport.device_cfg_read(0, 4);
    let mac_hi = transport.device_cfg_read(4, 2);
    mac[..4].copy_from_slice(&(mac_lo as u32).to_le_bytes());
    mac[4..].copy_from_slice(&(mac_hi as u16).to_le_bytes());
    let mtu = transport.device_cfg_read(10, 2) as u16;

    Ok(MqProbeOutcome {
        features: accept,
        mac,
        mtu,
        max_pairs,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use vf_sim::{NoiseModel, SimRng};
    use vf_virtio::{DeviceRing, QueueRegs};

    use crate::cost::HostCosts;

    /// Every test body below runs once per ring layout: split, packed.
    pub(crate) const PACKED: [bool; 2] = [false, true];

    fn cost_engine() -> CostEngine {
        CostEngine::new(
            HostCosts::fedora37(),
            NoiseModel::noiseless(),
            SimRng::new(5),
        )
    }

    /// Driver features for one ring layout: split rings run EVENT_IDX,
    /// packed rings never request it.
    pub(crate) fn driver_features(packed: bool) -> u64 {
        let layout = if packed {
            core_feature::RING_PACKED
        } else {
            core_feature::RING_EVENT_IDX
        };
        core_feature::VERSION_1 | net::feature::MAC | layout
    }

    /// The device half of the ring `drv` programs.
    pub(crate) fn device_ring(drv: &DriverRing) -> DeviceRing {
        let (size, desc, driver, device) = drv.programming();
        let regs = QueueRegs {
            size_max: size,
            size,
            msix_vector: 0,
            enabled: true,
            notify_off: 0,
            desc,
            driver,
            device,
        };
        let features = if drv.is_packed() {
            core_feature::RING_PACKED
        } else {
            core_feature::RING_EVENT_IDX
        };
        DeviceRing::enable(&regs, features, 0, false)
    }

    /// Take the next published chain off `dev`.
    pub(crate) fn take(dev: &mut DeviceRing, mem: &HostMemory) -> vf_virtio::RingChain {
        dev.begin_pass(mem);
        dev.next_chain(mem).unwrap().expect("a published chain").0
    }

    /// How many chains the device can take off `dev` right now.
    fn takeable(dev: &mut DeviceRing, mem: &HostMemory) -> usize {
        dev.begin_pass(mem);
        std::iter::from_fn(|| dev.next_chain(mem).unwrap()).count()
    }

    #[test]
    fn init_posts_all_rx_buffers() {
        for packed in PACKED {
            let mut mem = HostMemory::testbed_default();
            let drv = VirtioNetDriver::init(&mut mem, 64, driver_features(packed));
            assert_eq!((drv.rx.is_packed(), drv.tx.is_packed()), (packed, packed));
            assert_eq!(drv.rx.num_free(), 0);
            assert_eq!(drv.tx.num_free(), 64);
            assert_eq!(takeable(&mut device_ring(&drv.rx), &mem), 64);
        }
    }

    #[test]
    fn xmit_publishes_two_descriptor_chain() {
        for packed in PACKED {
            let mut mem = HostMemory::testbed_default();
            let mut cost = cost_engine();
            let mut drv = VirtioNetDriver::init(&mut mem, 64, driver_features(packed));
            let frame = vec![0xEE; 106];
            let res = drv.xmit(&mut mem, &frame, &mut cost);
            assert!(res.notify, "first xmit must ring the doorbell");
            assert!(res.cpu > Time::ZERO);

            let chain = take(&mut device_ring(&drv.tx), &mem).chain;
            assert_eq!(chain.bufs.len(), 2);
            assert_eq!(chain.bufs[0].len as usize, VirtioNetHdr::LEN);
            assert_eq!(chain.bufs[1].len as usize, frame.len());
            // Frame bytes visible to the device.
            let got = GuestMemory::read_vec(&mem, chain.bufs[1].addr, frame.len());
            assert_eq!(got, frame);
            // Without EVENT_IDX the packed ring notifies on every
            // publish; the split ring waits for the device's avail_event.
            let res2 = drv.xmit(&mut mem, &frame, &mut cost);
            assert_eq!(res2.notify, packed);
        }
    }

    #[test]
    fn csum_offload_sets_needs_csum() {
        for packed in PACKED {
            let mut mem = HostMemory::testbed_default();
            let mut cost = cost_engine();
            let features = driver_features(packed) | net::feature::CSUM;
            let mut drv = VirtioNetDriver::init(&mut mem, 8, features);
            assert!(drv.csum_offload());
            drv.xmit(&mut mem, &[0u8; 60], &mut cost);
            let chain = take(&mut device_ring(&drv.tx), &mem).chain;
            let hdr = VirtioNetHdr::read_from(&mem, chain.bufs[0].addr);
            assert_eq!(hdr.flags, HDR_F_NEEDS_CSUM);
            assert_eq!(hdr.csum_start, 34);
            assert_eq!(hdr.csum_offset, 6);
        }
    }

    #[test]
    fn rx_round_trip_through_napi() {
        for packed in PACKED {
            let mut mem = HostMemory::testbed_default();
            let mut cost = cost_engine();
            let mut drv = VirtioNetDriver::init(&mut mem, 16, driver_features(packed));
            let mut dev = device_ring(&drv.rx);

            // Device receives a frame and writes it into the first posted
            // buffer.
            let frame = vec![0x5A; 80];
            let chain = take(&mut dev, &mem);
            let buf = chain.chain.bufs[0];
            assert!(buf.writable);
            VirtioNetHdr {
                num_buffers: 1,
                ..Default::default()
            }
            .write_to(&mut mem, buf.addr);
            GuestMemory::write(&mut mem, buf.addr + VirtioNetHdr::LEN as u64, &frame);
            dev.complete(&mut mem, &chain, (VirtioNetHdr::LEN + frame.len()) as u32);

            let (frames, cpu) = drv.napi_poll(&mut mem, &mut cost);
            assert_eq!(frames.len(), 1);
            assert_eq!(frames[0].frame, frame);
            assert!(cpu > Time::ZERO);
            // Buffer reposted: the device again sees a full complement of
            // posted RX buffers (15 untouched + 1 reposted).
            assert_eq!(takeable(&mut dev, &mem), 16);
        }
    }

    #[test]
    fn tx_lazy_clean_frees_ring_space() {
        for packed in PACKED {
            let mut mem = HostMemory::testbed_default();
            let mut cost = cost_engine();
            let mut drv = VirtioNetDriver::init(&mut mem, 8, driver_features(packed));
            let mut dev = device_ring(&drv.tx);
            // 4 slots × 2 descriptors = ring capacity 8; send 4, complete,
            // send 4 more.
            for _ in 0..4 {
                drv.xmit(&mut mem, &[1u8; 64], &mut cost);
            }
            assert_eq!(drv.tx.num_free(), 0);
            dev.begin_pass(&mem);
            while let Some((chain, _)) = dev.next_chain(&mem).unwrap() {
                dev.complete(&mut mem, &chain, 0);
            }
            for _ in 0..4 {
                drv.xmit(&mut mem, &[2u8; 64], &mut cost);
            }
            assert_eq!(drv.tx_inflight, 4);
        }
    }

    /// A loopback transport backed directly by the device-side structures,
    /// to exercise the probe sequence end to end.
    pub(crate) struct LoopbackTransport {
        pub(crate) cfg: vf_virtio::CommonCfg,
        pub(crate) netcfg: vf_virtio::net::VirtioNetConfig,
    }

    impl VirtioTransport for LoopbackTransport {
        fn common_read(&mut self, off: u64, len: usize) -> u64 {
            self.cfg.read(off, len)
        }
        fn common_write(&mut self, off: u64, len: usize, val: u64) {
            let _ = self.cfg.write(off, len, val);
        }
        fn device_cfg_read(&mut self, off: u64, len: usize) -> u64 {
            self.netcfg.read(off, len)
        }
    }

    /// The queue registers as the probe left them, in `programming()`
    /// order.
    pub(crate) fn programmed(cfg: &vf_virtio::CommonCfg, queue: u16) -> (u16, u64, u64, u64) {
        let q = cfg.queue(queue);
        (q.size, q.desc, q.driver, q.device)
    }

    #[test]
    fn probe_full_sequence() {
        for packed in PACKED {
            let mut mem = HostMemory::testbed_default();
            let drv = VirtioNetDriver::init(&mut mem, 256, driver_features(packed));
            let offered = core_feature::VERSION_1
                | core_feature::RING_EVENT_IDX
                | core_feature::RING_PACKED
                | net::feature::MAC
                | net::feature::MTU
                | net::feature::CSUM;
            let mut t = LoopbackTransport {
                cfg: vf_virtio::CommonCfg::new(offered, &[256, 256]),
                netcfg: vf_virtio::net::VirtioNetConfig::testbed_default(),
            };
            let want = driver_features(packed) | net::feature::CSUM;
            let out = probe(&mut t, &drv, want).unwrap();
            assert_eq!(out.mac, t.netcfg.mac);
            assert_eq!(out.mtu, 1500);
            assert!(out.features & core_feature::VERSION_1 != 0);
            assert!(out.features & net::feature::CSUM != 0);
            // MTU feature wasn't requested → not negotiated.
            assert_eq!(out.features & net::feature::MTU, 0);
            // The layout lands as requested; EVENT_IDX was offered but the
            // packed front end runs without it.
            assert_eq!(out.features & core_feature::RING_PACKED != 0, packed);
            assert_eq!(out.features & core_feature::RING_EVENT_IDX == 0, packed);
            assert!(t.cfg.negotiation.is_live());
            assert!(t.cfg.queue(0).enabled && t.cfg.queue(1).enabled);
            // Packed queues program only the descriptor area.
            assert_eq!(programmed(&t.cfg, 0), drv.rx.programming());
            assert_eq!(programmed(&t.cfg, 1), drv.tx.programming());
            assert_eq!(t.cfg.queue(1).driver == 0, packed);
        }
    }

    #[test]
    fn probe_fails_without_packed_offer() {
        // Single-queue and multi-queue packed drivers share the probe
        // body; neither can fall back to split rings.
        let mut mem = HostMemory::testbed_default();
        let want = driver_features(true) | net::feature::CTRL_VQ | net::feature::MQ;
        let single = VirtioNetDriver::init(&mut mem, 16, want);
        let mq = crate::VirtioNetMqDriver::init(&mut mem, 16, 2, want);
        let split_only = core_feature::VERSION_1
            | core_feature::RING_EVENT_IDX
            | net::feature::MAC
            | net::feature::CTRL_VQ
            | net::feature::MQ;
        for multi_queue in [false, true] {
            let mut t = LoopbackTransport {
                cfg: vf_virtio::CommonCfg::new(split_only, &[16; 5]),
                netcfg: vf_virtio::net::VirtioNetConfig::with_queue_pairs(2),
            };
            let err = if multi_queue {
                crate::probe_mq(&mut t, &mq, want).unwrap_err()
            } else {
                probe(&mut t, &single, want).unwrap_err()
            };
            assert_eq!(err, ProbeError::FeaturesRejected);
            let st = t.cfg.read(common::DEVICE_STATUS, 1) as u8;
            assert!(st & status::FAILED != 0, "driver must leave FAILED behind");
            assert_eq!(st & status::FEATURES_OK, 0, "gave up before FEATURES_OK");
            assert!(!t.cfg.negotiation.is_live());
        }
    }

    /// A transport that advertises a feature bit its device core never
    /// offered — drives the probe into the FEATURES_OK rejection path.
    struct LyingTransport {
        inner: LoopbackTransport,
        select: u64,
    }

    impl VirtioTransport for LyingTransport {
        fn common_read(&mut self, off: u64, len: usize) -> u64 {
            let v = self.inner.common_read(off, len);
            if off == common::DEVICE_FEATURE && self.select == 0 {
                v | (1 << 7) // bogus feature bit
            } else {
                v
            }
        }
        fn common_write(&mut self, off: u64, len: usize, val: u64) {
            if off == common::DEVICE_FEATURE_SELECT {
                self.select = val;
            }
            self.inner.common_write(off, len, val);
        }
        fn device_cfg_read(&mut self, off: u64, len: usize) -> u64 {
            self.inner.device_cfg_read(off, len)
        }
    }

    #[test]
    fn probe_rejection_leaves_failed_status_on_device() {
        let mut mem = HostMemory::testbed_default();
        let drv = VirtioNetDriver::init(&mut mem, 16, driver_features(false));
        let mut t = LyingTransport {
            inner: LoopbackTransport {
                cfg: vf_virtio::CommonCfg::new(driver_features(false), &[16, 16]),
                netcfg: vf_virtio::net::VirtioNetConfig::testbed_default(),
            },
            select: 0,
        };
        assert_eq!(
            probe(&mut t, &drv, driver_features(false) | (1 << 7)).unwrap_err(),
            ProbeError::FeaturesRejected
        );
        let st = t.inner.cfg.read(common::DEVICE_STATUS, 1) as u8;
        assert!(
            st & status::FAILED != 0,
            "device must see the driver's FAILED write"
        );
        assert_eq!(st & status::FEATURES_OK, 0);
        assert!(!t.inner.cfg.negotiation.is_live());
    }

    #[test]
    fn probe_rejects_insufficient_queues() {
        let mut mem = HostMemory::testbed_default();
        let drv = VirtioNetDriver::init(&mut mem, 16, driver_features(false));
        let mut t = LoopbackTransport {
            cfg: vf_virtio::CommonCfg::new(core_feature::VERSION_1, &[16]),
            netcfg: vf_virtio::net::VirtioNetConfig::testbed_default(),
        };
        assert_eq!(
            probe(&mut t, &drv, core_feature::VERSION_1).unwrap_err(),
            ProbeError::NotEnoughQueues { have: 1, need: 2 }
        );
    }
}
