//! The in-flight table of the windowed runners.
//!
//! Every pipelined runner tags its requests with a number that only
//! ever increments (wrapping): the echo sequence number of E12 and
//! E19/E21, the virtio-blk request tag of E24. [`InFlight`] keeps one
//! slot per tag from the oldest outstanding one onwards, so a lookup is
//! an index and its length is bounded by the span of outstanding tags,
//! whatever order completions arrive in.
//!
//! The echo runners store no payloads. Each [`Pending`] entry keeps
//! the flow's payload-RNG state from just before the payload was drawn,
//! and [`InFlight::complete`] regenerates the payload into one reused
//! buffer to check the echo, the way `blk` checks reads against its
//! disk pattern.

use std::collections::VecDeque;

use vf_sim::{SimRng, Time};

/// Outstanding requests by tag: `slots[i]` holds tag `oldest + i`,
/// `None` once it completed. Completed slots at the front are dropped.
pub(crate) struct InFlight<T> {
    oldest: u32,
    slots: VecDeque<Option<T>>,
}

impl<T> InFlight<T> {
    pub(crate) fn new() -> Self {
        InFlight {
            oldest: 0,
            slots: VecDeque::new(),
        }
    }

    /// Record `entry` under `tag`, which must be the tag after the
    /// newest one recorded (0 for the first).
    pub(crate) fn insert(&mut self, tag: u32, entry: T) {
        assert_eq!(
            tag.wrapping_sub(self.oldest) as usize,
            self.slots.len(),
            "in-flight tags must be recorded in order"
        );
        self.slots.push_back(Some(entry));
    }

    /// Remove and return the entry of `tag`; `None` if the tag is not
    /// outstanding (never recorded, or already taken).
    pub(crate) fn take(&mut self, tag: u32) -> Option<T> {
        let entry = self
            .slots
            .get_mut(tag.wrapping_sub(self.oldest) as usize)?
            .take()?;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.oldest = self.oldest.wrapping_add(1);
        }
        Some(entry)
    }
}

/// Where an echo runner puts the 4-byte little-endian sequence number
/// among the payload bytes it draws from its flow's stream.
#[derive(Clone, Copy)]
pub(crate) enum PayloadLayout {
    /// Fill the whole payload, then stamp the sequence number over its
    /// first 4 bytes (E19/E21).
    StampOverFill,
    /// Stamp the sequence number, then fill bytes `[4..]` (E12).
    FillAfterStamp,
}

impl PayloadLayout {
    fn draw(self, rng: &mut SimRng, seq: u32, buf: &mut [u8]) {
        match self {
            PayloadLayout::StampOverFill => {
                rng.fill_bytes(buf);
                buf[..4].copy_from_slice(&seq.to_le_bytes());
            }
            PayloadLayout::FillAfterStamp => {
                buf[..4].copy_from_slice(&seq.to_le_bytes());
                rng.fill_bytes(&mut buf[4..]);
            }
        }
    }
}

/// One outstanding echo: its send instant, and the payload stream as it
/// stood just before the payload was drawn.
pub(crate) struct Pending {
    sent: Time,
    rng: SimRng,
}

impl InFlight<Pending> {
    /// Draw payload `seq` from `rng` into `buf` (the payload length,
    /// at least 4) and record it as sent at `sent`.
    pub(crate) fn send(
        &mut self,
        layout: PayloadLayout,
        rng: &mut SimRng,
        seq: u32,
        sent: Time,
        buf: &mut [u8],
    ) {
        self.insert(
            seq,
            Pending {
                sent,
                rng: rng.clone(),
            },
        );
        layout.draw(rng, seq, buf);
    }

    /// Check echo `got` against the payload sent under its sequence
    /// number, regenerated into `buf` (the payload length). Returns the
    /// send instant and whether the echo matched byte for byte, or
    /// `None` if its sequence number is not outstanding.
    pub(crate) fn complete(
        &mut self,
        layout: PayloadLayout,
        got: &[u8],
        buf: &mut [u8],
    ) -> Option<(Time, bool)> {
        let seq = u32::from_le_bytes(got.get(..4)?.try_into().ok()?);
        let Pending { sent, mut rng } = self.take(seq)?;
        layout.draw(&mut rng, seq, buf);
        Some((sent, got == buf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<T> InFlight<T> {
        /// Slots held: the span from the oldest outstanding tag to the
        /// newest recorded one.
        fn len(&self) -> usize {
            self.slots.len()
        }
    }

    #[test]
    fn completions_in_any_order_find_their_entries() {
        let mut t = InFlight::new();
        for tag in 0..8u32 {
            t.insert(tag, tag * 10);
        }
        for tag in [5, 0, 7, 1, 2, 6, 3, 4] {
            assert_eq!(t.take(tag), Some(tag * 10));
        }
        assert_eq!(t.len(), 0);
        // The tags carry on where they left off.
        t.insert(8, 80);
        assert_eq!(t.take(8), Some(80));
    }

    #[test]
    fn an_early_gap_holds_the_span_until_it_completes() {
        let mut t = InFlight::new();
        for tag in 0..4u32 {
            t.insert(tag, ());
        }
        for tag in 1..4 {
            t.take(tag).unwrap();
        }
        assert_eq!(t.len(), 4, "tag 0 is still outstanding");
        t.take(0).unwrap();
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn unknown_and_repeated_tags_return_none() {
        let mut t = InFlight::new();
        t.insert(0, 'a');
        t.insert(1, 'b');
        assert_eq!(t.take(9), None, "never recorded");
        assert_eq!(t.take(u32::MAX), None, "before the oldest");
        assert_eq!(t.take(1), Some('b'));
        assert_eq!(t.take(1), None, "seen twice");
        assert_eq!(t.take(0), Some('a'));
        assert_eq!(t.take(0), None, "seen twice after the front moved");
    }

    #[test]
    fn tags_wrap_past_u32_max() {
        let mut t = InFlight {
            oldest: u32::MAX - 1,
            slots: VecDeque::new(),
        };
        t.insert(u32::MAX - 1, 1);
        t.insert(u32::MAX, 2);
        t.insert(0, 3);
        assert_eq!(t.take(0), Some(3));
        assert_eq!(t.take(u32::MAX - 1), Some(1));
        assert_eq!(t.take(u32::MAX), Some(2));
        assert_eq!(t.len(), 0);
    }

    #[test]
    #[should_panic(expected = "recorded in order")]
    fn out_of_order_insert_panics() {
        let mut t = InFlight::new();
        t.insert(0, ());
        t.insert(2, ());
    }

    /// A window of 16 kept full over 10k sends, each completion picked
    /// pseudo-randomly from the window: the table holds exactly the
    /// span from the oldest outstanding tag to the newest, never more.
    #[test]
    fn length_stays_bounded_at_depth_16() {
        let mut rng = SimRng::new(5);
        let mut t = InFlight::new();
        let mut outstanding: Vec<u32> = Vec::new();
        let mut peak = 0;
        for tag in 0..10_000u32 {
            t.insert(tag, tag);
            outstanding.push(tag);
            if outstanding.len() == 16 {
                let done = outstanding.swap_remove(rng.below(16) as usize);
                assert_eq!(t.take(done), Some(done));
            }
            let oldest = *outstanding.iter().min().expect("window is never empty");
            assert_eq!(t.len(), (tag - oldest + 1) as usize);
            peak = peak.max(t.len());
        }
        // A tag survives k picks with probability (15/16)^k: a span of
        // 512 needs one to outlive ~500 (this seed peaks at 137).
        assert!(peak < 512, "span peaked at {peak}");
        for done in outstanding {
            t.take(done).unwrap();
        }
        assert_eq!(t.len(), 0);
    }

    fn round_trip(layout: PayloadLayout, len: usize, flip: Option<usize>) -> Option<(Time, bool)> {
        let mut stream = SimRng::new(9).derive(100);
        let mut t = InFlight::new();
        let mut buf = vec![0u8; len];
        let mut sent = Vec::new();
        for seq in 0..3u32 {
            t.send(
                layout,
                &mut stream,
                seq,
                Time::from_ns(u64::from(seq)),
                &mut buf,
            );
            sent.push(buf.clone());
        }
        let mut echo = sent[1].clone();
        if let Some(i) = flip {
            echo[i] ^= 0x01;
        }
        t.complete(layout, &echo, &mut buf)
    }

    #[test]
    fn regenerated_payloads_verify_echoes_in_both_layouts() {
        for layout in [PayloadLayout::StampOverFill, PayloadLayout::FillAfterStamp] {
            assert_eq!(round_trip(layout, 29, None), Some((Time::from_ns(1), true)));
            // A flipped filler byte is a mismatch under the right seq.
            for i in [4, 17, 28] {
                assert_eq!(
                    round_trip(layout, 29, Some(i)),
                    Some((Time::from_ns(1), false)),
                    "byte {i}"
                );
            }
            // A flipped seq byte points at seq 0: its payload differs.
            assert_eq!(
                round_trip(layout, 29, Some(0)),
                Some((Time::from_ns(0), false))
            );
            // Seq 1 ^ 0x100 was never sent.
            assert_eq!(round_trip(layout, 29, Some(1)), None);
        }
    }

    /// The draws match the runners' historical payloads: E19/E21 fill
    /// the whole buffer and stamp the seq over it; E12 stamps and fills
    /// the rest, so it draws 4 bytes fewer.
    #[test]
    fn layouts_draw_the_historical_payloads() {
        let mut a = SimRng::new(3);
        let mut b = a.clone();
        let mut buf = [0u8; 12];
        PayloadLayout::StampOverFill.draw(&mut a, 7, &mut buf);
        let mut want = [0u8; 12];
        b.fill_bytes(&mut want);
        want[..4].copy_from_slice(&7u32.to_le_bytes());
        assert_eq!(buf, want);

        PayloadLayout::FillAfterStamp.draw(&mut a, 8, &mut buf);
        want[..4].copy_from_slice(&8u32.to_le_bytes());
        b.fill_bytes(&mut want[4..]);
        assert_eq!(buf, want);
        assert_eq!(a.next_u64(), b.next_u64(), "same number of draws");
    }

    #[test]
    fn short_echo_is_not_outstanding() {
        let mut t: InFlight<Pending> = InFlight::new();
        let mut buf = [0u8; 8];
        assert_eq!(
            t.complete(PayloadLayout::StampOverFill, &[1, 2], &mut buf),
            None
        );
    }
}
