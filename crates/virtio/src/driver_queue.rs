//! Driver-side virtqueue operation.
//!
//! This is the front-end half of the protocol: what the in-kernel
//! virtio-net/virtio-console drivers do with a queue. It embodies the
//! design philosophy the paper contrasts with vendor drivers (§IV-A): the
//! addresses of *all* ring structures are shared with the device once, at
//! initialization; at runtime, exposing a buffer is a couple of memory
//! writes plus — at most — a single doorbell.
//!
//! The implementation manages the free-descriptor list, builds chains,
//! publishes avail entries, decides whether a notification (doorbell) is
//! required (`VIRTIO_F_EVENT_IDX` aware), and consumes used entries.

use crate::mem::GuestMemory;
use crate::ring::{
    vring_need_event, Desc, UsedElem, VirtqueueLayout, AVAIL_F_NO_INTERRUPT, DESC_F_NEXT,
    DESC_F_WRITE, USED_F_NO_NOTIFY,
};

/// One buffer of a chain being added.
#[derive(Clone, Copy, Debug)]
pub struct BufferSpec {
    /// Guest-physical address.
    pub addr: u64,
    /// Length in bytes.
    pub len: u32,
    /// Device-writable (a response buffer)?
    pub writable: bool,
}

impl BufferSpec {
    /// Device-readable buffer.
    pub fn readable(addr: u64, len: u32) -> Self {
        BufferSpec {
            addr,
            len,
            writable: false,
        }
    }

    /// Device-writable buffer.
    pub fn writable(addr: u64, len: u32) -> Self {
        BufferSpec {
            addr,
            len,
            writable: true,
        }
    }
}

/// Errors from driver-side queue operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueError {
    /// Not enough free descriptors for the requested chain.
    NoSpace {
        /// Descriptors requested.
        needed: u16,
        /// Descriptors free.
        free: u16,
    },
    /// An empty chain was requested.
    EmptyChain,
    /// Writable buffers must follow readable ones within a chain.
    WritableBeforeReadable,
}

/// Driver-side state of one virtqueue.
#[derive(Clone, Debug)]
pub struct DriverQueue {
    layout: VirtqueueLayout,
    /// Head of the free-descriptor list (chained through `next`).
    free_head: u16,
    num_free: u16,
    /// Shadow of our published avail index.
    avail_idx: u16,
    /// Last used index we consumed.
    last_used: u16,
    /// Whether `VIRTIO_F_EVENT_IDX` was negotiated.
    event_idx: bool,
    /// Per-head chain length, for freeing without rewalking flags.
    chain_len: Vec<u16>,
    /// Doorbells actually issued (for the event-count comparisons in the
    /// evaluation).
    pub notifications_sent: u64,
}

impl DriverQueue {
    /// Initialize driver state over a queue at `layout`, building the free
    /// list and zeroing the driver-owned structures (the kernel allocates
    /// rings zeroed).
    pub fn new<M: GuestMemory>(mem: &mut M, layout: VirtqueueLayout, event_idx: bool) -> Self {
        let n = layout.size;
        // Chain every descriptor into the free list: i → i+1.
        for i in 0..n {
            Desc {
                addr: 0,
                len: 0,
                flags: if i + 1 < n { DESC_F_NEXT } else { 0 },
                next: if i + 1 < n { i + 1 } else { 0 },
            }
            .write_at(mem, layout.desc, i);
        }
        mem.write_u16(layout.avail_flags_addr(), 0);
        mem.write_u16(layout.avail_idx_addr(), 0);
        mem.write_u16(layout.used_event_addr(), 0);
        DriverQueue {
            layout,
            free_head: 0,
            num_free: n,
            avail_idx: 0,
            last_used: 0,
            event_idx,
            chain_len: vec![0; n as usize],
            notifications_sent: 0,
        }
    }

    /// The queue's layout.
    pub fn layout(&self) -> &VirtqueueLayout {
        &self.layout
    }

    /// Free descriptors remaining.
    pub fn num_free(&self) -> u16 {
        self.num_free
    }

    /// Our published avail index.
    pub fn avail_idx(&self) -> u16 {
        self.avail_idx
    }

    /// Build a descriptor chain from `bufs` and return its head without
    /// publishing it. Spec rule: all readable buffers precede all
    /// writable ones.
    pub fn add_chain<M: GuestMemory>(
        &mut self,
        mem: &mut M,
        bufs: &[BufferSpec],
    ) -> Result<u16, QueueError> {
        if bufs.is_empty() {
            return Err(QueueError::EmptyChain);
        }
        let needed = bufs.len() as u16;
        if needed > self.num_free {
            return Err(QueueError::NoSpace {
                needed,
                free: self.num_free,
            });
        }
        if let Some(first_w) = bufs.iter().position(|b| b.writable) {
            if bufs[first_w..].iter().any(|b| !b.writable) {
                return Err(QueueError::WritableBeforeReadable);
            }
        }

        let head = self.free_head;
        let mut idx = head;
        for (i, buf) in bufs.iter().enumerate() {
            let cur = Desc::read_at(mem, self.layout.desc, idx);
            let next_free = cur.next;
            let last = i + 1 == bufs.len();
            Desc {
                addr: buf.addr,
                len: buf.len,
                flags: (if buf.writable { DESC_F_WRITE } else { 0 })
                    | (if last { 0 } else { DESC_F_NEXT }),
                next: if last { 0 } else { next_free },
            }
            .write_at(mem, self.layout.desc, idx);
            if !last {
                idx = next_free;
            } else {
                self.free_head = next_free;
            }
        }
        self.num_free -= needed;
        self.chain_len[head as usize] = needed;
        Ok(head)
    }

    /// Publish a built chain in the avail ring. Returns the new avail
    /// index (already written to memory). The write ordering — ring entry
    /// first, then the index — mirrors the store-release the real driver
    /// issues.
    pub fn publish<M: GuestMemory>(&mut self, mem: &mut M, head: u16) -> u16 {
        let slot = self.avail_idx % self.layout.size;
        mem.write_u16(self.layout.avail_ring_addr(slot), head);
        self.avail_idx = self.avail_idx.wrapping_add(1);
        mem.write_u16(self.layout.avail_idx_addr(), self.avail_idx);
        self.avail_idx
    }

    /// Publish several built chains with a single avail-index store.
    ///
    /// A poll-mode driver that builds a burst of chains pays the
    /// store-release cost once for the whole burst: every ring entry is
    /// written first, then the index advances past all of them in one
    /// write. Returns the new avail index (already written to memory).
    /// An empty batch is a no-op and returns the current index.
    ///
    /// A batch longer than the ring would lap itself — slot
    /// `avail_idx + i (mod size)` revisits entries the same call just
    /// wrote, handing the device a corrupt ring — so it is rejected
    /// before touching memory.
    pub fn publish_batch<M: GuestMemory>(
        &mut self,
        mem: &mut M,
        heads: &[u16],
    ) -> Result<u16, QueueError> {
        if heads.is_empty() {
            return Ok(self.avail_idx);
        }
        if heads.len() > self.layout.size as usize {
            return Err(QueueError::NoSpace {
                needed: heads.len().try_into().unwrap_or(u16::MAX),
                free: self.layout.size,
            });
        }
        for (i, &head) in heads.iter().enumerate() {
            let slot = self.avail_idx.wrapping_add(i as u16) % self.layout.size;
            mem.write_u16(self.layout.avail_ring_addr(slot), head);
        }
        self.avail_idx = self.avail_idx.wrapping_add(heads.len() as u16);
        mem.write_u16(self.layout.avail_idx_addr(), self.avail_idx);
        Ok(self.avail_idx)
    }

    /// Convenience: add + publish in one call.
    pub fn add_and_publish<M: GuestMemory>(
        &mut self,
        mem: &mut M,
        bufs: &[BufferSpec],
    ) -> Result<u16, QueueError> {
        let head = self.add_chain(mem, bufs)?;
        self.publish(mem, head);
        Ok(head)
    }

    /// After publishing, must the driver ring the doorbell? `old_idx` is
    /// the avail index before the batch being decided on.
    ///
    /// Without EVENT_IDX the device's `USED_F_NO_NOTIFY` flag gates
    /// notifications; with EVENT_IDX the device's `avail_event` field does
    /// (VirtIO 1.2 §2.7.10).
    pub fn needs_notify<M: GuestMemory>(&mut self, mem: &M, old_idx: u16) -> bool {
        let need = if self.event_idx {
            let avail_event = mem.read_u16(self.layout.avail_event_addr());
            vring_need_event(avail_event, self.avail_idx, old_idx)
        } else {
            mem.read_u16(self.layout.used_flags_addr()) & USED_F_NO_NOTIFY == 0
        };
        if need {
            self.notifications_sent += 1;
        }
        need
    }

    /// Consume one used entry, returning it and freeing its chain.
    pub fn pop_used<M: GuestMemory>(&mut self, mem: &mut M) -> Option<UsedElem> {
        let used_idx = mem.read_u16(self.layout.used_idx_addr());
        if used_idx == self.last_used {
            return None;
        }
        let slot = self.last_used % self.layout.size;
        let entry_addr = self.layout.used_ring_addr(slot);
        let elem = UsedElem {
            id: mem.read_u32(entry_addr),
            len: mem.read_u32(entry_addr + 4),
        };
        self.last_used = self.last_used.wrapping_add(1);
        self.free_chain(mem, elem.id as u16);
        if self.event_idx {
            // Tell the device where we are: interrupt again once it moves
            // past our consumption point.
            mem.write_u16(self.layout.used_event_addr(), self.last_used);
        }
        Some(elem)
    }

    /// Consume up to `max` used entries in one pass, freeing their
    /// chains.
    ///
    /// The used index is read once for the whole batch and — when
    /// `VIRTIO_F_EVENT_IDX` is negotiated — `used_event` is written once,
    /// after the last entry, instead of per entry. This is the consume
    /// half of a poll-mode burst: one cache-missing index read amortized
    /// over every completion it reveals.
    pub fn pop_used_batch<M: GuestMemory>(&mut self, mem: &mut M, max: usize) -> Vec<UsedElem> {
        let used_idx = mem.read_u16(self.layout.used_idx_addr());
        let pending = used_idx.wrapping_sub(self.last_used) as usize;
        let take = pending.min(max);
        let mut out = Vec::with_capacity(take);
        for _ in 0..take {
            let slot = self.last_used % self.layout.size;
            let entry_addr = self.layout.used_ring_addr(slot);
            let elem = UsedElem {
                id: mem.read_u32(entry_addr),
                len: mem.read_u32(entry_addr + 4),
            };
            self.last_used = self.last_used.wrapping_add(1);
            self.free_chain(mem, elem.id as u16);
            out.push(elem);
        }
        if self.event_idx && !out.is_empty() {
            mem.write_u16(self.layout.used_event_addr(), self.last_used);
        }
        out
    }

    /// Number of used entries waiting (peek without consuming).
    pub fn used_pending<M: GuestMemory>(&self, mem: &M) -> u16 {
        mem.read_u16(self.layout.used_idx_addr())
            .wrapping_sub(self.last_used)
    }

    /// Our consumption point (`last_used`), for interrupt-policy
    /// decisions.
    pub fn last_used(&self) -> u16 {
        self.last_used
    }

    /// Park `used_event` half a ring ahead of our consumption point —
    /// the EVENT_IDX equivalent of `virtqueue_disable_cb()`: the device
    /// will not interrupt for the next 2¹⁵ completions. virtio-net uses
    /// this on the TX queue, whose completions are harvested lazily on
    /// later transmits.
    pub fn park_used_event<M: GuestMemory>(&self, mem: &mut M) {
        if self.event_idx {
            mem.write_u16(
                self.layout.used_event_addr(),
                self.last_used.wrapping_add(0x7FFF),
            );
        }
    }

    /// Ask the device not to interrupt for completions — the
    /// `virtqueue_disable_cb()` of a queue whose completions are
    /// harvested lazily: park `used_event` under EVENT_IDX, otherwise set
    /// `AVAIL_F_NO_INTERRUPT`.
    pub(crate) fn disable_interrupts<M: GuestMemory>(&self, mem: &mut M) {
        if self.event_idx {
            self.park_used_event(mem);
        } else {
            self.set_no_interrupt(mem, true);
        }
    }

    /// Set/clear `AVAIL_F_NO_INTERRUPT` (a polling driver's interrupt
    /// suppression when EVENT_IDX is off).
    pub fn set_no_interrupt<M: GuestMemory>(&self, mem: &mut M, suppress: bool) {
        mem.write_u16(
            self.layout.avail_flags_addr(),
            if suppress { AVAIL_F_NO_INTERRUPT } else { 0 },
        );
    }

    fn free_chain<M: GuestMemory>(&mut self, mem: &mut M, head: u16) {
        let n = self.chain_len[head as usize];
        assert!(n > 0, "freeing a chain that was never added: head {head}");
        self.chain_len[head as usize] = 0;
        // Walk to the tail, relink tail → old free head.
        let mut idx = head;
        for _ in 1..n {
            let d = Desc::read_at(mem, self.layout.desc, idx);
            debug_assert!(d.has_next(), "chain shorter than recorded");
            idx = d.next;
        }
        let mut tail = Desc::read_at(mem, self.layout.desc, idx);
        tail.flags |= DESC_F_NEXT;
        tail.next = self.free_head;
        tail.write_at(mem, self.layout.desc, idx);
        self.free_head = head;
        self.num_free += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::VecMemory;

    fn setup(size: u16, event_idx: bool) -> (VecMemory, DriverQueue) {
        let mut mem = VecMemory::new(1 << 20);
        let layout = VirtqueueLayout::contiguous(0x1000, size);
        let q = DriverQueue::new(&mut mem, layout, event_idx);
        (mem, q)
    }

    #[test]
    fn fresh_queue_all_free() {
        let (_, q) = setup(8, false);
        assert_eq!(q.num_free(), 8);
        assert_eq!(q.avail_idx(), 0);
    }

    #[test]
    fn add_chain_writes_descriptors() {
        let (mut mem, mut q) = setup(8, false);
        let head = q
            .add_chain(
                &mut mem,
                &[
                    BufferSpec::readable(0x10_000, 64),
                    BufferSpec::writable(0x20_000, 128),
                ],
            )
            .unwrap();
        assert_eq!(q.num_free(), 6);
        let d0 = Desc::read_at(&mem, q.layout().desc, head);
        assert_eq!(d0.addr, 0x10_000);
        assert_eq!(d0.len, 64);
        assert!(d0.has_next() && !d0.is_write());
        let d1 = Desc::read_at(&mem, q.layout().desc, d0.next);
        assert_eq!(d1.addr, 0x20_000);
        assert!(!d1.has_next() && d1.is_write());
    }

    #[test]
    fn publish_updates_avail_ring_and_idx() {
        let (mut mem, mut q) = setup(8, false);
        let head = q
            .add_chain(&mut mem, &[BufferSpec::readable(0x1_0000, 10)])
            .unwrap();
        q.publish(&mut mem, head);
        assert_eq!(mem.read_u16(q.layout().avail_idx_addr()), 1);
        assert_eq!(mem.read_u16(q.layout().avail_ring_addr(0)), head);
    }

    #[test]
    fn chain_order_rule_enforced() {
        let (mut mem, mut q) = setup(8, false);
        let err = q
            .add_chain(
                &mut mem,
                &[BufferSpec::writable(0, 8), BufferSpec::readable(8, 8)],
            )
            .unwrap_err();
        assert_eq!(err, QueueError::WritableBeforeReadable);
        assert_eq!(q.num_free(), 8, "failed add must not leak descriptors");
    }

    #[test]
    fn exhaustion_and_reuse() {
        let (mut mem, mut q) = setup(4, false);
        let mut heads = Vec::new();
        for i in 0..4 {
            heads.push(
                q.add_and_publish(&mut mem, &[BufferSpec::readable(i * 64, 64)])
                    .unwrap(),
            );
        }
        assert_eq!(q.num_free(), 0);
        assert!(matches!(
            q.add_chain(&mut mem, &[BufferSpec::readable(0, 1)]),
            Err(QueueError::NoSpace { needed: 1, free: 0 })
        ));
        // Device completes the second chain.
        mem.write_u32(q.layout().used_ring_addr(0), heads[1] as u32);
        mem.write_u32(q.layout().used_ring_addr(0) + 4, 0);
        mem.write_u16(q.layout().used_idx_addr(), 1);
        let elem = q.pop_used(&mut mem).unwrap();
        assert_eq!(elem.id, heads[1] as u32);
        assert_eq!(q.num_free(), 1);
        // And the freed descriptor is immediately reusable.
        let h = q
            .add_chain(&mut mem, &[BufferSpec::readable(0, 1)])
            .unwrap();
        assert_eq!(h, heads[1]);
    }

    #[test]
    fn pop_used_empty_returns_none() {
        let (mut mem, mut q) = setup(4, false);
        assert!(q.pop_used(&mut mem).is_none());
        assert_eq!(q.used_pending(&mem), 0);
    }

    #[test]
    fn notify_gated_by_no_notify_flag() {
        let (mut mem, mut q) = setup(4, false);
        let old = q.avail_idx();
        let h = q
            .add_chain(&mut mem, &[BufferSpec::readable(0, 4)])
            .unwrap();
        q.publish(&mut mem, h);
        assert!(q.needs_notify(&mem, old));
        // Device sets NO_NOTIFY; next publish needs no doorbell.
        mem.write_u16(q.layout().used_flags_addr(), USED_F_NO_NOTIFY);
        let old = q.avail_idx();
        let h = q
            .add_chain(&mut mem, &[BufferSpec::readable(0, 4)])
            .unwrap();
        q.publish(&mut mem, h);
        assert!(!q.needs_notify(&mem, old));
        assert_eq!(q.notifications_sent, 1);
    }

    #[test]
    fn notify_event_idx_mode() {
        let (mut mem, mut q) = setup(8, true);
        // Device asks to be notified when avail idx crosses 2
        // (avail_event = 1 means: notify on the publish that makes
        // idx exceed 1).
        mem.write_u16(q.layout().avail_event_addr(), 1);
        let old = q.avail_idx();
        for i in 0..2 {
            let h = q
                .add_chain(&mut mem, &[BufferSpec::readable(i * 8, 8)])
                .unwrap();
            q.publish(&mut mem, h);
        }
        assert!(q.needs_notify(&mem, old)); // crossed event 1 (0→2)
        let old = q.avail_idx();
        let h = q
            .add_chain(&mut mem, &[BufferSpec::readable(64, 8)])
            .unwrap();
        q.publish(&mut mem, h);
        assert!(!q.needs_notify(&mem, old)); // 2→3 does not recross
    }

    #[test]
    fn used_event_written_when_event_idx() {
        let (mut mem, mut q) = setup(4, true);
        let h = q
            .add_and_publish(&mut mem, &[BufferSpec::readable(0, 4)])
            .unwrap();
        mem.write_u32(q.layout().used_ring_addr(0), h as u32);
        mem.write_u32(q.layout().used_ring_addr(0) + 4, 4);
        mem.write_u16(q.layout().used_idx_addr(), 1);
        q.pop_used(&mut mem).unwrap();
        assert_eq!(mem.read_u16(q.layout().used_event_addr()), 1);
    }

    #[test]
    fn multi_descriptor_chain_frees_fully() {
        let (mut mem, mut q) = setup(8, false);
        let bufs: Vec<BufferSpec> = (0..5)
            .map(|i| BufferSpec::readable(i as u64 * 64, 64))
            .collect();
        let head = q.add_and_publish(&mut mem, &bufs).unwrap();
        assert_eq!(q.num_free(), 3);
        mem.write_u32(q.layout().used_ring_addr(0), head as u32);
        mem.write_u32(q.layout().used_ring_addr(0) + 4, 0);
        mem.write_u16(q.layout().used_idx_addr(), 1);
        q.pop_used(&mut mem).unwrap();
        assert_eq!(q.num_free(), 8);
    }

    #[test]
    fn publish_batch_single_index_store() {
        let (mut mem, mut q) = setup(8, false);
        let heads: Vec<u16> = (0..3)
            .map(|i| {
                q.add_chain(&mut mem, &[BufferSpec::readable(i * 64, 64)])
                    .unwrap()
            })
            .collect();
        // Nothing published yet: the index in memory is still 0.
        assert_eq!(mem.read_u16(q.layout().avail_idx_addr()), 0);
        let new_idx = q.publish_batch(&mut mem, &heads).unwrap();
        assert_eq!(new_idx, 3);
        assert_eq!(mem.read_u16(q.layout().avail_idx_addr()), 3);
        for (i, &h) in heads.iter().enumerate() {
            assert_eq!(mem.read_u16(q.layout().avail_ring_addr(i as u16)), h);
        }
    }

    #[test]
    fn publish_batch_empty_is_noop() {
        let (mut mem, mut q) = setup(4, false);
        assert_eq!(q.publish_batch(&mut mem, &[]).unwrap(), 0);
        assert_eq!(mem.read_u16(q.layout().avail_idx_addr()), 0);
    }

    #[test]
    fn publish_batch_wraps_ring() {
        let (mut mem, mut q) = setup(4, false);
        // Advance the ring close to wrap: publish and complete 3 chains.
        for round in 0..3_u16 {
            let h = q
                .add_and_publish(&mut mem, &[BufferSpec::readable(0, 4)])
                .unwrap();
            mem.write_u32(q.layout().used_ring_addr(round % 4), h as u32);
            mem.write_u32(q.layout().used_ring_addr(round % 4) + 4, 0);
            mem.write_u16(q.layout().used_idx_addr(), round + 1);
            q.pop_used(&mut mem).unwrap();
        }
        // A 2-entry batch now spans slots 3 and 0.
        let heads: Vec<u16> = (0..2)
            .map(|i| {
                q.add_chain(&mut mem, &[BufferSpec::readable(i * 8, 8)])
                    .unwrap()
            })
            .collect();
        assert_eq!(q.publish_batch(&mut mem, &heads).unwrap(), 5);
        assert_eq!(mem.read_u16(q.layout().avail_ring_addr(3)), heads[0]);
        assert_eq!(mem.read_u16(q.layout().avail_ring_addr(0)), heads[1]);
    }

    #[test]
    fn publish_batch_longer_than_ring_is_rejected() {
        // Regression: a batch longer than the queue size used to lap the
        // avail ring, overwriting its own earlier entries, and still
        // advance the index past them — a corrupt ring from the device's
        // point of view.
        let (mut mem, mut q) = setup(4, false);
        let heads = [0u16, 1, 2, 3, 0];
        let err = q.publish_batch(&mut mem, &heads).unwrap_err();
        assert_eq!(err, QueueError::NoSpace { needed: 5, free: 4 });
        // Nothing was written: index still 0, ring untouched.
        assert_eq!(q.avail_idx(), 0);
        assert_eq!(mem.read_u16(q.layout().avail_idx_addr()), 0);
        for slot in 0..4_u16 {
            assert_eq!(mem.read_u16(q.layout().avail_ring_addr(slot)), 0);
        }
        // A full-ring batch is still fine.
        assert_eq!(q.publish_batch(&mut mem, &heads[..4]).unwrap(), 4);
    }

    #[test]
    fn pop_used_batch_consumes_and_frees() {
        let (mut mem, mut q) = setup(8, true);
        let heads: Vec<u16> = (0..4)
            .map(|i| {
                q.add_and_publish(&mut mem, &[BufferSpec::readable(i * 64, 64)])
                    .unwrap()
            })
            .collect();
        assert_eq!(q.num_free(), 4);
        for (slot, &h) in heads.iter().enumerate() {
            mem.write_u32(q.layout().used_ring_addr(slot as u16), h as u32);
            mem.write_u32(q.layout().used_ring_addr(slot as u16) + 4, 64);
        }
        mem.write_u16(q.layout().used_idx_addr(), 4);
        // Bounded batch takes only `max`…
        let first = q.pop_used_batch(&mut mem, 3);
        assert_eq!(first.len(), 3);
        assert_eq!(
            first.iter().map(|e| e.id).collect::<Vec<_>>(),
            heads[..3].iter().map(|&h| h as u32).collect::<Vec<_>>()
        );
        // …and writes used_event once, at the post-batch position.
        assert_eq!(mem.read_u16(q.layout().used_event_addr()), 3);
        let rest = q.pop_used_batch(&mut mem, 16);
        assert_eq!(rest.len(), 1);
        assert_eq!(q.num_free(), 8);
        assert_eq!(mem.read_u16(q.layout().used_event_addr()), 4);
        // Empty batch leaves used_event untouched.
        assert!(q.pop_used_batch(&mut mem, 16).is_empty());
        assert_eq!(mem.read_u16(q.layout().used_event_addr()), 4);
    }

    #[test]
    fn batch_roundtrip_matches_serial_ops() {
        // The batched APIs must leave identical driver state to the
        // one-at-a-time APIs they replace.
        let (mut mem_a, mut qa) = setup(8, true);
        let (mut mem_b, mut qb) = setup(8, true);
        let heads_a: Vec<u16> = (0..5)
            .map(|i| {
                qa.add_chain(&mut mem_a, &[BufferSpec::readable(i * 32, 32)])
                    .unwrap()
            })
            .collect();
        let heads_b: Vec<u16> = (0..5)
            .map(|i| {
                qb.add_chain(&mut mem_b, &[BufferSpec::readable(i * 32, 32)])
                    .unwrap()
            })
            .collect();
        assert_eq!(heads_a, heads_b);
        for &h in &heads_a {
            qa.publish(&mut mem_a, h);
        }
        qb.publish_batch(&mut mem_b, &heads_b).unwrap();
        assert_eq!(qa.avail_idx(), qb.avail_idx());
        for slot in 0..5_u16 {
            assert_eq!(
                mem_a.read_u16(qa.layout().avail_ring_addr(slot)),
                mem_b.read_u16(qb.layout().avail_ring_addr(slot))
            );
        }
        for (mem, q, heads) in [
            (&mut mem_a, &mut qa, &heads_a),
            (&mut mem_b, &mut qb, &heads_b),
        ] {
            for (slot, &h) in heads.iter().enumerate() {
                mem.write_u32(q.layout().used_ring_addr(slot as u16), h as u32);
                mem.write_u32(q.layout().used_ring_addr(slot as u16) + 4, 0);
            }
            mem.write_u16(q.layout().used_idx_addr(), 5);
        }
        let mut serial = Vec::new();
        while let Some(e) = qa.pop_used(&mut mem_a) {
            serial.push(e.id);
        }
        let batched: Vec<u32> = qb
            .pop_used_batch(&mut mem_b, usize::MAX)
            .iter()
            .map(|e| e.id)
            .collect();
        assert_eq!(serial, batched);
        assert_eq!(qa.num_free(), qb.num_free());
        assert_eq!(qa.last_used(), qb.last_used());
        assert_eq!(
            mem_a.read_u16(qa.layout().used_event_addr()),
            mem_b.read_u16(qb.layout().used_event_addr())
        );
    }

    #[test]
    fn avail_idx_wraps() {
        let (mut mem, mut q) = setup(2, false);
        for round in 0..40_u32 {
            let h = q
                .add_and_publish(&mut mem, &[BufferSpec::readable(0, 4)])
                .unwrap();
            // Device immediately completes it.
            let slot = (round % 2) as u16;
            mem.write_u32(q.layout().used_ring_addr(slot), h as u32);
            mem.write_u32(q.layout().used_ring_addr(slot) + 4, 0);
            mem.write_u16(q.layout().used_idx_addr(), (round + 1) as u16);
            q.pop_used(&mut mem).unwrap();
        }
        assert_eq!(q.avail_idx(), 40);
        assert_eq!(q.num_free(), 2);
    }
}
