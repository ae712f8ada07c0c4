//! Multi-queue virtio-net front end (`VIRTIO_NET_F_MQ`).
//!
//! Wraps N independent [`VirtioNetDriver`] queue pairs (each pair owns
//! its rings, TX slabs, and pre-posted RX buffers exactly like the
//! single-queue driver) plus the control virtqueue through which the
//! driver tells the device how many pairs to spread flows over
//! (VirtIO 1.2 §5.1.6.5.5). Queue numbering follows §5.1.2: pair *i*
//! is `receiveq` `2i` / `transmitq` `2i+1`, ctrl vq last, on either
//! ring layout — so the device model's steering and MSI-X routing are
//! layout-agnostic. With `RING_PACKED` negotiated every ring, the
//! control queue included, is packed (E20's MQ×packed fusion).
//!
//! [`probe_mq`] runs the same modern-PCI bring-up as the single-queue
//! [`probe`](crate::virtio_net::probe), but programs `2N + 1` queues,
//! giving every queue its own MSI-X vector (vector = queue index) so
//! each pair's completions interrupt a different host core.

use vf_pcie::HostMemory;
use vf_sim::Time;
use vf_virtio::driver_queue::BufferSpec;
use vf_virtio::{feature as core_feature, DriverRing};

use crate::cost::CostEngine;
use crate::mq_ctrl;
use crate::virtio_net::{ProbeError, RxFrame, VirtioNetDriver, VirtioTransport, XmitResult};

pub use crate::mq_ctrl::{MqProbeOutcome, CTRL_QUEUE_SIZE};

/// The multi-queue driver: N data-queue pairs plus the control queue.
#[derive(Clone, Debug)]
pub struct VirtioNetMqDriver {
    /// One fully-independent single-queue driver per pair.
    pub pairs: Vec<VirtioNetDriver>,
    /// Driver side of the control virtqueue.
    pub ctrl: DriverRing,
    /// Negotiated feature bits.
    pub features: u64,
    ctrl_cmd_buf: u64,
    ctrl_rss_buf: u64,
    ctrl_ack_buf: u64,
}

impl VirtioNetMqDriver {
    /// Allocate `pairs` queue pairs of `queue_size` descriptors each,
    /// plus the control ring and its command/ack bounce buffers.
    pub fn init(mem: &mut HostMemory, queue_size: u16, pairs: u16, features: u64) -> Self {
        assert!(pairs >= 1, "need at least one queue pair");
        let packed = features & core_feature::RING_PACKED != 0;
        let event_idx = features & core_feature::RING_EVENT_IDX != 0;
        let pair_drivers = (0..pairs)
            .map(|_| VirtioNetDriver::init(mem, queue_size, features))
            .collect();
        let ctrl_ring = mem.alloc(DriverRing::bytes(CTRL_QUEUE_SIZE, packed), 4096);
        let ctrl = DriverRing::new(mem, ctrl_ring, CTRL_QUEUE_SIZE, packed, event_idx);
        let ctrl_cmd_buf = mem.alloc(16, 16);
        let ctrl_rss_buf = mem.alloc(mq_ctrl::RSS_CMD_MAX, 16);
        let ctrl_ack_buf = mem.alloc(1, 1);
        VirtioNetMqDriver {
            pairs: pair_drivers,
            ctrl,
            features,
            ctrl_cmd_buf,
            ctrl_rss_buf,
            ctrl_ack_buf,
        }
    }

    /// Number of queue pairs this driver instance drives.
    pub fn num_pairs(&self) -> u16 {
        self.pairs.len() as u16
    }

    /// Transmit `frame` on queue pair `pair`.
    pub fn xmit(
        &mut self,
        mem: &mut HostMemory,
        pair: u16,
        frame: &[u8],
        cost: &mut CostEngine,
    ) -> XmitResult {
        self.pairs[pair as usize].xmit(mem, frame, cost)
    }

    /// NAPI poll of queue pair `pair`'s RX ring.
    pub fn napi_poll(
        &mut self,
        mem: &mut HostMemory,
        pair: u16,
        cost: &mut CostEngine,
    ) -> (Vec<RxFrame>, Time) {
        self.pairs[pair as usize].napi_poll(mem, cost)
    }

    /// Publish a `VIRTIO_NET_CTRL_MQ_VQ_PAIRS_SET` command on the
    /// control queue. Returns whether the ctrl queue's doorbell must
    /// ring (it always does for the first command, and always on a
    /// packed ring).
    pub fn set_queue_pairs(&mut self, mem: &mut HostMemory, pairs: u16) -> bool {
        mq_ctrl::write_pairs_cmd(mem, self.ctrl_cmd_buf, self.ctrl_ack_buf, pairs);
        let (cmd, ack) = (self.ctrl_cmd_buf, self.ctrl_ack_buf);
        // The split front end hands the class/command and the pair count
        // over as two buffers; the packed one as a single 4-byte buffer.
        let split_chain = [
            BufferSpec::readable(cmd, 2),
            BufferSpec::readable(cmd + 2, 2),
            BufferSpec::writable(ack, 1),
        ];
        let packed_chain = [BufferSpec::readable(cmd, 4), BufferSpec::writable(ack, 1)];
        let chain: &[BufferSpec] = if self.ctrl.is_packed() {
            &packed_chain
        } else {
            &split_chain
        };
        self.ctrl.add_notify(mem, chain).expect("ctrl ring full").1
    }

    /// Publish a `MQ_RSS_CONFIG` command carrying `table` (the
    /// indirection table, power-of-two entries) and the 40-byte
    /// Toeplitz `key`. Returns whether the doorbell must ring.
    pub fn set_rss(&mut self, mem: &mut HostMemory, table: &[u16], key: &[u8]) -> bool {
        let len = mq_ctrl::write_rss_cmd(mem, self.ctrl_rss_buf, self.ctrl_ack_buf, table, key);
        self.ctrl
            .add_notify(
                mem,
                &[
                    BufferSpec::readable(self.ctrl_rss_buf, len),
                    BufferSpec::writable(self.ctrl_ack_buf, 1),
                ],
            )
            .expect("ctrl ring full")
            .1
    }

    /// Reap the ack of the oldest completed control command, if any.
    pub fn ctrl_ack(&mut self, mem: &mut HostMemory) -> Option<u8> {
        self.ctrl
            .pop_used(mem)
            .map(|_| mem.slice(self.ctrl_ack_buf, 1)[0])
    }
}

/// Modern-PCI bring-up of an MQ device: feature negotiation (the caller
/// includes `MQ | CTRL_VQ` in `want_features`), programming of the
/// `2N` data queues **and** the control queue — each with MSI-X
/// vector = queue index — then `DRIVER_OK` and device-config reads.
pub fn probe_mq<T: VirtioTransport>(
    transport: &mut T,
    driver: &VirtioNetMqDriver,
    want_features: u64,
) -> Result<MqProbeOutcome, ProbeError> {
    crate::virtio_net::probe_net(transport, &driver.pairs, Some(&driver.ctrl), want_features)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vf_virtio::net::{self, VirtioNetConfig};
    use vf_virtio::pci::{common, CommonCfg};
    use vf_virtio::GuestMemory;

    use crate::virtio_net::tests::{device_ring, programmed, take, LoopbackTransport, PACKED};

    fn want(packed: bool) -> u64 {
        crate::virtio_net::tests::driver_features(packed) | net::feature::CTRL_VQ | net::feature::MQ
    }

    fn loopback(pairs: u16, queues: usize) -> LoopbackTransport {
        let offered = core_feature::VERSION_1
            | core_feature::RING_EVENT_IDX
            | core_feature::RING_PACKED
            | net::feature::MAC
            | net::feature::CTRL_VQ
            | net::feature::MQ;
        LoopbackTransport {
            cfg: CommonCfg::new(offered, &vec![256; queues]),
            netcfg: VirtioNetConfig::with_queue_pairs(pairs),
        }
    }

    /// The device-readable bytes of a ctrl chain, and its ack buffer.
    fn ctrl_chain(mem: &HostMemory, chain: &vf_virtio::Chain) -> (Vec<u8>, u64) {
        let readable = chain
            .bufs
            .iter()
            .filter(|b| !b.writable)
            .flat_map(|b| mem.slice(b.addr, b.len as usize).to_vec())
            .collect();
        let ack = chain.bufs.iter().rev().find(|b| b.writable).unwrap();
        (readable, ack.addr)
    }

    #[test]
    fn probe_programs_all_pairs_and_ctrl() {
        for packed in PACKED {
            let mut mem = HostMemory::testbed_default();
            let drv = VirtioNetMqDriver::init(&mut mem, 256, 4, want(packed));
            let mut t = loopback(4, 9);
            let out = probe_mq(&mut t, &drv, want(packed)).unwrap();
            assert_eq!(out.max_pairs, 4);
            assert!(out.features & net::feature::MQ != 0);
            assert_eq!(out.features & core_feature::RING_PACKED != 0, packed);
            // Every data queue and the ctrl queue are enabled with
            // vector = queue index.
            for qi in 0..9u16 {
                t.common_write(common::QUEUE_SELECT, 2, qi as u64);
                assert_eq!(t.common_read(common::QUEUE_ENABLE, 2), 1, "queue {qi}");
                assert_eq!(
                    t.common_read(common::QUEUE_MSIX_VECTOR, 2),
                    qi as u64,
                    "vector of queue {qi}"
                );
                // Packed queues program only the descriptor area.
                assert_eq!(t.cfg.queue(qi).driver == 0, packed, "queue {qi}");
            }
            assert_eq!(programmed(&t.cfg, 8), drv.ctrl.programming());
        }
    }

    #[test]
    fn probe_fails_when_device_has_too_few_queues() {
        let mut mem = HostMemory::testbed_default();
        let drv = VirtioNetMqDriver::init(&mut mem, 256, 4, want(false));
        // Device only exposes 2 pairs + ctrl = 5 queues.
        let mut t = loopback(2, 5);
        match probe_mq(&mut t, &drv, want(false)) {
            Err(ProbeError::NotEnoughQueues { have, need }) => {
                assert_eq!(have, 5);
                assert_eq!(need, 9);
            }
            other => panic!("expected NotEnoughQueues, got {other:?}"),
        }
    }

    #[test]
    fn ctrl_command_round_trips_through_the_ring() {
        for packed in PACKED {
            let mut mem = HostMemory::testbed_default();
            let mut drv = VirtioNetMqDriver::init(&mut mem, 64, 2, want(packed));
            assert!(drv.set_queue_pairs(&mut mem, 2), "first command notifies");
            // Device side: consume the chain, write OK, complete. Split
            // hands the command over as 2 + 2 bytes, packed as 4.
            let mut dev = device_ring(&drv.ctrl);
            let chain = take(&mut dev, &mem);
            assert_eq!(chain.chain.bufs.len(), if packed { 2 } else { 3 });
            let (readable, ack) = ctrl_chain(&mem, &chain.chain);
            assert_eq!(
                &readable[..2],
                &[net::ctrl::CLASS_MQ, net::ctrl::MQ_VQ_PAIRS_SET]
            );
            assert_eq!(u16::from_le_bytes([readable[2], readable[3]]), 2);
            GuestMemory::write(&mut mem, ack, &[net::ctrl::OK]);
            dev.complete(&mut mem, &chain, 1);
            assert_eq!(drv.ctrl_ack(&mut mem), Some(net::ctrl::OK));
            assert_eq!(drv.ctrl_ack(&mut mem), None);
        }
    }

    #[test]
    fn rss_command_serializes_table_and_key() {
        for packed in PACKED {
            let mut mem = HostMemory::testbed_default();
            let mut drv = VirtioNetMqDriver::init(&mut mem, 64, 2, want(packed));
            let table: Vec<u16> = (0..net::RSS_TABLE_LEN as u16).map(|i| i % 2).collect();
            assert!(drv.set_rss(&mut mem, &table, &net::RSS_DEFAULT_KEY));
            let mut dev = device_ring(&drv.ctrl);
            let chain = take(&mut dev, &mem);
            let (readable, ack) = ctrl_chain(&mem, &chain.chain);
            assert_eq!(
                &readable[..2],
                &[net::ctrl::CLASS_MQ, net::ctrl::MQ_RSS_CONFIG]
            );
            assert_eq!(
                u16::from_le_bytes([readable[2], readable[3]]) as usize,
                net::RSS_TABLE_LEN
            );
            let entries: Vec<u16> = readable[4..4 + 2 * net::RSS_TABLE_LEN]
                .chunks_exact(2)
                .map(|c| u16::from_le_bytes([c[0], c[1]]))
                .collect();
            assert_eq!(entries, table);
            let key_off = 4 + 2 * net::RSS_TABLE_LEN;
            assert_eq!(readable[key_off] as usize, net::RSS_KEY_LEN);
            assert_eq!(&readable[key_off + 1..], &net::RSS_DEFAULT_KEY);
            GuestMemory::write(&mut mem, ack, &[net::ctrl::OK]);
            dev.complete(&mut mem, &chain, 1);
            assert_eq!(drv.ctrl_ack(&mut mem), Some(net::ctrl::OK));
        }
    }

    #[test]
    fn pairs_are_independent_drivers() {
        for packed in PACKED {
            let mut mem = HostMemory::testbed_default();
            let drv = VirtioNetMqDriver::init(&mut mem, 128, 3, want(packed));
            assert_eq!(drv.num_pairs(), 3);
            // Distinct rings per pair.
            let mut descs: Vec<u64> = drv.pairs.iter().map(|p| p.tx.programming().1).collect();
            descs.extend(drv.pairs.iter().map(|p| p.rx.programming().1));
            descs.push(drv.ctrl.programming().1);
            descs.sort_unstable();
            descs.dedup();
            assert_eq!(descs.len(), 7, "every ring lives at its own address");
        }
    }
}
