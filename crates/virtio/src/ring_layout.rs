//! One ring-layout type per side of a virtqueue.
//!
//! Whether a queue is split (VirtIO 1.2 §2.7) or packed (§2.8) is
//! negotiated at run time: `RING_PACKED` lands at probe and decides what
//! the device builds at `QUEUE_ENABLE`. So the layout is a property of
//! each queue, not a type parameter: [`DriverRing`] is the front-end half
//! and [`DeviceRing`] the back-end half, and every front end and device
//! walker is written once against them. Only the methods here look at the
//! layout. What they hide:
//!
//! * **kicks** — split asks EVENT_IDX or `USED_F_NO_NOTIFY`; packed runs
//!   without event-suppression structures and always kicks;
//! * **interrupt suppression** — split parks `used_event` or sets
//!   `AVAIL_F_NO_INTERRUPT`; a packed device never interrupts for a
//!   host-driven (TX) queue and always does for the others;
//! * **descriptor reads** — split reads the avail index and ring entries,
//!   then each chain's descriptor table; packed reads only descriptors,
//!   whose flags carry availability;
//! * **the used write** — split writes an 8-byte used entry and the
//!   2-byte used index; packed rewrites the chain's head descriptor.

use crate::device_queue::{Chain, ChainError, DeviceQueue};
use crate::driver_queue::{BufferSpec, DriverQueue, QueueError};
use crate::features::feature;
use crate::mem::GuestMemory;
use crate::packed::{PackedDesc, PackedDeviceQueue, PackedDriverQueue};
use crate::pci::QueueRegs;
use crate::ring::{UsedElem, VirtqueueLayout};

/// Bytes a packed walker reads per chain: one burst covers a short chain
/// plus the look-ahead slot whose stale AVAIL phase ends the walk.
pub const PACKED_DESC_BURST: usize = 64;

/// Driver half of one virtqueue.
#[derive(Clone, Debug)]
pub enum DriverRing {
    /// Descriptor table, avail ring and used ring.
    Split(DriverQueue),
    /// One descriptor ring written by both sides.
    Packed(PackedDriverQueue),
}

impl DriverRing {
    /// Guest memory a ring of `size` descriptors occupies.
    pub fn bytes(size: u16, packed: bool) -> usize {
        if packed {
            size as usize * PackedDesc::SIZE as usize
        } else {
            VirtqueueLayout::contiguous(0, size).total_bytes() as usize
        }
    }

    /// Driver state over zeroed ring memory at `base`, [`Self::bytes`]
    /// long. `event_idx` matters to the split layout only.
    pub fn new<M: GuestMemory>(
        mem: &mut M,
        base: u64,
        size: u16,
        packed: bool,
        event_idx: bool,
    ) -> Self {
        if packed {
            DriverRing::Packed(PackedDriverQueue::new(base, size))
        } else {
            let layout = VirtqueueLayout::contiguous(base, size);
            DriverRing::Split(DriverQueue::new(mem, layout, event_idx))
        }
    }

    /// True for the packed layout.
    pub fn is_packed(&self) -> bool {
        matches!(self, DriverRing::Packed(_))
    }

    /// Free descriptors.
    pub fn num_free(&self) -> u16 {
        match self {
            DriverRing::Split(q) => q.num_free(),
            DriverRing::Packed(q) => q.num_free(),
        }
    }

    /// Add a chain and make it visible to the device, without deciding
    /// on a kick. Returns the id its used entry will carry.
    pub fn add<M: GuestMemory>(
        &mut self,
        mem: &mut M,
        bufs: &[BufferSpec],
    ) -> Result<u16, QueueError> {
        match self {
            DriverRing::Split(q) => q.add_and_publish(mem, bufs),
            DriverRing::Packed(q) => {
                let free = q.num_free();
                q.add(mem, bufs).ok_or(if bufs.is_empty() {
                    QueueError::EmptyChain
                } else {
                    QueueError::NoSpace {
                        needed: bufs.len().try_into().unwrap_or(u16::MAX),
                        free,
                    }
                })
            }
        }
    }

    /// [`Self::add`], then decide whether the device must be notified.
    pub fn add_notify<M: GuestMemory>(
        &mut self,
        mem: &mut M,
        bufs: &[BufferSpec],
    ) -> Result<(u16, bool), QueueError> {
        match self {
            DriverRing::Split(q) => {
                let old = q.avail_idx();
                let head = q.add_and_publish(mem, bufs)?;
                Ok((head, q.needs_notify(mem, old)))
            }
            DriverRing::Packed(_) => self.add(mem, bufs).map(|id| (id, true)),
        }
    }

    /// Consume one used entry, freeing its chain.
    pub fn pop_used<M: GuestMemory>(&mut self, mem: &mut M) -> Option<UsedElem> {
        match self {
            DriverRing::Split(q) => q.pop_used(mem),
            DriverRing::Packed(q) => q.pop_used(mem).map(|u| UsedElem {
                id: u.id.into(),
                len: u.len,
            }),
        }
    }

    /// Ask for no completion interrupts, for a queue whose completions
    /// are harvested lazily. Packed leaves this to the device, which
    /// never interrupts for a host-driven queue.
    pub fn disable_interrupts<M: GuestMemory>(&self, mem: &mut M) {
        if let DriverRing::Split(q) = self {
            q.disable_interrupts(mem);
        }
    }

    /// What the driver programs into the queue registers: `(size, desc,
    /// driver_area, device_area)`. A packed ring has no driver or device
    /// area, so both are zero.
    pub fn programming(&self) -> (u16, u64, u64, u64) {
        match self {
            DriverRing::Split(q) => {
                let l = q.layout();
                (l.size, l.desc, l.avail, l.used)
            }
            DriverRing::Packed(q) => (q.size(), q.ring(), 0, 0),
        }
    }
}

/// One DMA access the device makes to ring memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RingDma {
    /// Guest-physical address.
    pub addr: u64,
    /// Bytes.
    pub len: usize,
}

/// A chain the device took off a ring of either layout.
#[derive(Clone, Debug)]
pub struct RingChain {
    /// The buffers, and the id (`head`) the used entry reports.
    pub chain: Chain,
    /// Descriptors fetched for it.
    pub descs: usize,
    /// Packed only: the slot the used descriptor goes to, and its wrap.
    slot: u16,
    wrap: bool,
}

/// The used write that completes a chain.
#[derive(Clone, Copy, Debug)]
pub struct UsedWrite {
    /// Split: the 8-byte used entry. Packed: the 16-byte head descriptor.
    pub entry: RingDma,
    /// Split: the 2-byte used index. Packed: none.
    pub index: Option<RingDma>,
    /// Split: the used index before this completion.
    old_used: u16,
}

/// Device half of one virtqueue.
#[derive(Clone, Debug)]
pub enum DeviceRing {
    /// Descriptor table, avail ring and used ring.
    Split(DeviceQueue),
    /// One descriptor ring written by both sides.
    Packed(PackedDeviceQueue),
}

impl DeviceRing {
    /// The device half of queue `index` as the driver programmed `regs`
    /// under the `negotiated` features. `host_driven` marks a queue the
    /// host fills with work (a transmitq): its split backlog gauge is
    /// stall-watched, and its packed completions never interrupt.
    pub fn enable(regs: &QueueRegs, negotiated: u64, index: u16, host_driven: bool) -> Self {
        if negotiated & feature::RING_PACKED != 0 {
            let mut q = PackedDeviceQueue::new(regs.desc, regs.size);
            q.set_metrics_index(index.into());
            q.set_interrupts(!host_driven);
            DeviceRing::Packed(q)
        } else {
            let event_idx = negotiated & feature::RING_EVENT_IDX != 0;
            let indirect = negotiated & feature::RING_INDIRECT_DESC != 0;
            let mut q = DeviceQueue::new(regs.layout(), event_idx, indirect);
            q.set_metrics_index(index.into(), host_driven);
            DeviceRing::Split(q)
        }
    }

    /// Trace name of this ring's descriptor reads.
    pub fn desc_read_name(&self) -> &'static str {
        match self {
            DeviceRing::Split(_) => "desc_read_split",
            DeviceRing::Packed(_) => "desc_read_packed",
        }
    }

    /// Start a pass that drains the ring. Split fetches the avail index
    /// and every new ring entry in one burst — they are contiguous —
    /// and the pass ends at that index; packed has no separate
    /// structure to read.
    pub fn begin_pass<M: GuestMemory>(&mut self, mem: &M) -> Option<RingDma> {
        match self {
            DeviceRing::Split(q) => {
                let pending = q.begin_pass(mem);
                Some(RingDma {
                    addr: q.layout().avail_idx_addr(),
                    len: (2 + 2 * pending).min(64),
                })
            }
            DeviceRing::Packed(_) => None,
        }
    }

    /// The next chain of the pass and the descriptor read that fetches
    /// it, or `None` at the end of the pass. An error means the device
    /// cannot tell where the chain ends, and the pass must stop.
    pub fn next_chain<M: GuestMemory>(
        &mut self,
        mem: &M,
    ) -> Result<Option<(RingChain, RingDma)>, ChainError> {
        match self {
            DeviceRing::Split(q) if q.last_avail() == q.pass_end() => Ok(None),
            DeviceRing::Split(q) => Self::take_split(q, mem).map(Some),
            DeviceRing::Packed(q) => Ok(Self::take_packed(q, mem)?.map(|chain| {
                let addr = q.desc_addr(chain.slot);
                let read = RingDma {
                    addr,
                    len: PACKED_DESC_BURST,
                };
                (chain, read)
            })),
        }
    }

    /// The read that tells the device whether a buffer is posted, and
    /// how many descriptors it fetches. Split reads the avail index with
    /// the next ring entry; packed reads the next descriptor itself.
    pub fn poll_read(&self) -> (RingDma, usize) {
        match self {
            DeviceRing::Split(q) => (
                RingDma {
                    addr: q.layout().avail_idx_addr(),
                    len: 8,
                },
                0,
            ),
            DeviceRing::Packed(q) => (
                RingDma {
                    addr: q.desc_addr(q.next_slot()),
                    len: PackedDesc::SIZE as usize,
                },
                1,
            ),
        }
    }

    /// Take the buffer [`Self::poll_read`] looked for, with the
    /// descriptor read still to issue: none on packed, whose poll
    /// already fetched the descriptor.
    pub fn take_posted<M: GuestMemory>(
        &mut self,
        mem: &M,
    ) -> Result<Option<(RingChain, Option<RingDma>)>, ChainError> {
        match self {
            DeviceRing::Split(q) if q.pending(mem) == 0 => Ok(None),
            DeviceRing::Split(q) => {
                Self::take_split(q, mem).map(|(chain, read)| Some((chain, Some(read))))
            }
            DeviceRing::Packed(q) => Ok(Self::take_packed(q, mem)?.map(|chain| (chain, None))),
        }
    }

    fn take_split<M: GuestMemory>(
        q: &mut DeviceQueue,
        mem: &M,
    ) -> Result<(RingChain, RingDma), ChainError> {
        let (chain, fetches) = q.resolve_at(mem, q.last_avail())?;
        q.advance();
        let read = RingDma {
            addr: q.layout().desc_addr(chain.head),
            len: 16 * fetches,
        };
        let chain = RingChain {
            chain,
            descs: fetches,
            slot: 0,
            wrap: false,
        };
        Ok((chain, read))
    }

    fn take_packed<M: GuestMemory>(
        q: &mut PackedDeviceQueue,
        mem: &M,
    ) -> Result<Option<RingChain>, ChainError> {
        Ok(q.take_chain(mem)?.map(|c| RingChain {
            descs: c.bufs.len(),
            chain: Chain {
                head: c.id,
                bufs: c.bufs,
            },
            slot: c.start_slot,
            wrap: c.wrap,
        }))
    }

    /// Publish the completion of `chain` with `written` bytes; returns
    /// the used write to time.
    pub fn complete<M: GuestMemory>(
        &mut self,
        mem: &mut M,
        chain: &RingChain,
        written: u32,
    ) -> UsedWrite {
        match self {
            DeviceRing::Split(q) => {
                let old_used = q.complete(mem, chain.chain.head, written);
                let layout = q.layout();
                UsedWrite {
                    entry: RingDma {
                        addr: layout.used_ring_addr(old_used % layout.size),
                        len: 8,
                    },
                    index: Some(RingDma {
                        addr: layout.used_idx_addr(),
                        len: 2,
                    }),
                    old_used,
                }
            }
            DeviceRing::Packed(q) => {
                q.write_used(mem, chain.chain.head, chain.slot, chain.wrap, written);
                UsedWrite {
                    entry: RingDma {
                        addr: q.desc_addr(chain.slot),
                        len: PackedDesc::SIZE as usize,
                    },
                    index: None,
                    old_used: 0,
                }
            }
        }
    }

    /// Does the completion `used` interrupt the driver?
    pub fn should_interrupt<M: GuestMemory>(&mut self, mem: &M, used: &UsedWrite) -> bool {
        match self {
            DeviceRing::Split(q) => q.should_interrupt(mem, used.old_used),
            DeviceRing::Packed(q) => q.interrupts(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::VecMemory;

    fn regs(desc: u64, size: u16) -> QueueRegs {
        let layout = VirtqueueLayout::contiguous(desc, size);
        QueueRegs {
            size_max: size,
            size,
            msix_vector: 0,
            enabled: true,
            notify_off: 0,
            desc: layout.desc,
            driver: layout.avail,
            device: layout.used,
        }
    }

    /// A driver/device pair over one ring of each layout.
    fn pair(packed: bool, host_driven: bool) -> (VecMemory, DriverRing, DeviceRing) {
        let mut mem = VecMemory::new(1 << 20);
        let drv = DriverRing::new(&mut mem, 0x1000, 8, packed, false);
        let features = if packed { feature::RING_PACKED } else { 0 };
        let dev = DeviceRing::enable(&regs(0x1000, 8), features, 1, host_driven);
        (mem, drv, dev)
    }

    #[test]
    fn chains_round_trip_on_both_layouts() {
        for packed in [false, true] {
            let (mut mem, mut drv, mut dev) = pair(packed, false);
            assert_eq!(drv.is_packed(), packed);
            let (id, kick) = drv
                .add_notify(
                    &mut mem,
                    &[
                        BufferSpec::readable(0x8000, 12),
                        BufferSpec::writable(0x9000, 64),
                    ],
                )
                .unwrap();
            assert!(kick, "first publish kicks (packed: {packed})");
            assert_eq!(drv.num_free(), 6);
            let meta = dev.begin_pass(&mem);
            assert_eq!(meta.is_some(), !packed, "only split reads an avail burst");
            let (chain, read) = dev.next_chain(&mem).unwrap().unwrap();
            assert_eq!(chain.chain.head, id);
            assert_eq!(chain.descs, 2);
            assert_eq!(chain.chain.writable_len(), 64);
            assert_eq!(read.len, if packed { PACKED_DESC_BURST } else { 32 });
            assert!(dev.next_chain(&mem).unwrap().is_none(), "pass ends");
            let used = dev.complete(&mut mem, &chain, 40);
            assert_eq!(used.index.is_some(), !packed);
            assert!(dev.should_interrupt(&mem, &used));
            let elem = drv.pop_used(&mut mem).unwrap();
            assert_eq!((elem.id, elem.len), (id.into(), 40));
            assert_eq!(drv.num_free(), 8);
        }
    }

    #[test]
    fn packed_host_driven_queue_never_interrupts() {
        let (mut mem, mut drv, mut dev) = pair(true, true);
        drv.add(&mut mem, &[BufferSpec::readable(0x8000, 8)])
            .unwrap();
        let (chain, _) = dev.next_chain(&mem).unwrap().unwrap();
        let used = dev.complete(&mut mem, &chain, 0);
        assert!(!dev.should_interrupt(&mem, &used));
    }

    #[test]
    fn poll_then_take_posted() {
        for packed in [false, true] {
            let (mut mem, mut drv, mut dev) = pair(packed, false);
            assert!(dev.take_posted(&mem).unwrap().is_none());
            drv.add(&mut mem, &[BufferSpec::writable(0x8000, 2048)])
                .unwrap();
            let (poll, descs) = dev.poll_read();
            assert_eq!((poll.len, descs), if packed { (16, 1) } else { (8, 0) });
            let (chain, read) = dev.take_posted(&mem).unwrap().unwrap();
            assert_eq!(read.is_none(), packed, "packed poll read the descriptor");
            assert!(chain.chain.bufs[0].writable);
        }
    }

    #[test]
    fn programming_zeroes_packed_areas() {
        let mut mem = VecMemory::new(1 << 20);
        let split = DriverRing::new(&mut mem, 0x1000, 8, false, true);
        let l = VirtqueueLayout::contiguous(0x1000, 8);
        assert_eq!(split.programming(), (8, l.desc, l.avail, l.used));
        let packed = DriverRing::new(&mut mem, 0x4000, 8, true, true);
        assert_eq!(packed.programming(), (8, 0x4000, 0, 0));
        assert_eq!(DriverRing::bytes(8, true), 128);
    }
}
