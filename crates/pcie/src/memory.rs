//! Host physical memory.
//!
//! A flat little-endian byte store standing in for the host's DRAM. Both
//! sides of the testbed touch it:
//!
//! * the host software model reads/writes it directly (zero simulated
//!   cost beyond the modeled software-step costs — cache effects are part
//!   of the step cost distributions);
//! * device models access it *functionally* through the same API while
//!   the PCIe link model supplies the timing (DESIGN.md §2.2).
//!
//! A bump allocator hands out DMA-able buffers (virtqueue rings, sk_buff
//! data, XDMA descriptor lists) the way the kernel's `dma_alloc_coherent`
//! would, with alignment guarantees.
//!
//! Backings are recycled per thread (DESIGN.md §2.2). A fresh 64 MiB
//! `vec![0; _]` is above glibc's mmap threshold, so every world would
//! page-fault on each page it touches and `munmap` the lot on drop.
//! Instead each memory tracks which 64-byte lines were written; dropping
//! it zeroes just those lines and parks the backing in a small
//! thread-local pool, from which the next [`HostMemory::new`] of the same
//! size takes it. Every world still starts from all-zero memory.

use std::cell::RefCell;

/// Bytes per dirty-tracking line.
const LINE: usize = 64;

/// Most backings one thread keeps for reuse.
const POOL_CAP: usize = 2;

thread_local! {
    /// All-zero `(data, dirty)` backings of dropped memories, oldest first;
    /// `new` takes the newest of the size it needs.
    static POOL: RefCell<Vec<(Vec<u8>, Vec<u64>)>> = const { RefCell::new(Vec::new()) };
}

/// Flat host memory with a bump allocator.
pub struct HostMemory {
    data: Vec<u8>,
    /// One bit per [`LINE`] of `data`: set once any byte of it is written.
    dirty: Vec<u64>,
    base: u64,
    next: u64,
}

impl HostMemory {
    /// Create `size` bytes of host memory whose physical window starts at
    /// `base` (non-zero bases catch address-mixing bugs in device models).
    pub fn new(base: u64, size: usize) -> Self {
        let recycled = POOL
            .try_with(|pool| {
                let mut pool = pool.borrow_mut();
                let i = pool.iter().rposition(|(data, _)| data.len() == size)?;
                Some(pool.remove(i))
            })
            .ok()
            .flatten();
        let (data, dirty) =
            recycled.unwrap_or_else(|| (vec![0; size], vec![0; size.div_ceil(LINE).div_ceil(64)]));
        HostMemory {
            data,
            dirty,
            base,
            next: base,
        }
    }

    /// Default testbed memory: 64 MiB at 1 MiB.
    pub fn testbed_default() -> Self {
        HostMemory::new(0x10_0000, 64 << 20)
    }

    /// First address of the window.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// One past the last valid address.
    pub fn end(&self) -> u64 {
        self.base + self.data.len() as u64
    }

    fn offset(&self, addr: u64, len: usize) -> usize {
        let in_window = addr >= self.base
            && addr
                .checked_add(len as u64)
                .is_some_and(|end| end <= self.end());
        assert!(
            in_window,
            "host memory access out of range: {addr:#x}+{len:#x} not in [{:#x}, {:#x})",
            self.base,
            self.end()
        );
        (addr - self.base) as usize
    }

    /// Allocate `len` bytes aligned to `align` (power of two). Returns the
    /// physical address. Allocation is monotonic — experiments build their
    /// working set once at init, as the drivers under test do.
    pub fn alloc(&mut self, len: usize, align: u64) -> u64 {
        assert!(align.is_power_of_two());
        let addr = self.next.checked_add(align - 1).map(|a| a & !(align - 1));
        match addr.and_then(|a| Some((a, a.checked_add(len as u64)?))) {
            Some((addr, end)) if end <= self.end() => {
                self.next = end;
                addr
            }
            _ => panic!(
                "host memory exhausted: need {len:#x} aligned to {align:#x} after {:#x}",
                self.next
            ),
        }
    }

    /// Bytes currently allocated.
    pub fn allocated(&self) -> u64 {
        self.next - self.base
    }

    /// Read `buf.len()` bytes from `addr`.
    pub fn read(&self, addr: u64, buf: &mut [u8]) {
        let o = self.offset(addr, buf.len());
        buf.copy_from_slice(&self.data[o..o + buf.len()]);
    }

    /// Borrow a slice of memory (read-only views for packet parsing).
    pub fn slice(&self, addr: u64, len: usize) -> &[u8] {
        let o = self.offset(addr, len);
        &self.data[o..o + len]
    }

    /// Write `bytes` at `addr`.
    pub fn write(&mut self, addr: u64, bytes: &[u8]) {
        let o = self.offset(addr, bytes.len());
        self.data[o..o + bytes.len()].copy_from_slice(bytes);
        if !bytes.is_empty() {
            set_bits(&mut self.dirty, o / LINE, (o + bytes.len() - 1) / LINE);
        }
    }

    /// Zero `len` bytes at `addr`.
    pub fn zero(&mut self, addr: u64, len: usize) {
        let o = self.offset(addr, len);
        self.data[o..o + len].fill(0);
    }

    /// Read a little-endian `u16`.
    pub fn read_u16(&self, addr: u64) -> u16 {
        let mut b = [0u8; 2];
        self.read(addr, &mut b);
        u16::from_le_bytes(b)
    }

    /// Read a little-endian `u32`.
    pub fn read_u32(&self, addr: u64) -> u32 {
        let mut b = [0u8; 4];
        self.read(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Read a little-endian `u64`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Write a little-endian `u16`.
    pub fn write_u16(&mut self, addr: u64, v: u16) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Write a little-endian `u32`.
    pub fn write_u32(&mut self, addr: u64, v: u32) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Write a little-endian `u64`.
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        self.write(addr, &v.to_le_bytes());
    }
}

impl Drop for HostMemory {
    fn drop(&mut self) {
        let mut data = std::mem::take(&mut self.data);
        let mut dirty = std::mem::take(&mut self.dirty);
        zero_dirty_lines(&mut data, &mut dirty);
        // `try_with` fails only while this thread's locals are being torn
        // down; the backing is then simply freed.
        let _ = POOL.try_with(|pool| {
            let mut pool = pool.borrow_mut();
            if pool.len() == POOL_CAP {
                pool.remove(0);
            }
            pool.push((data, dirty));
        });
    }
}

/// Set bits `first..=last` of `bits`.
fn set_bits(bits: &mut [u64], first: usize, last: usize) {
    let (fw, lw) = (first / 64, last / 64);
    let lo = !0u64 << (first % 64);
    let hi = !0u64 >> (63 - last % 64);
    if fw == lw {
        bits[fw] |= lo & hi;
    } else {
        bits[fw] |= lo;
        bits[fw + 1..lw].fill(!0);
        bits[lw] |= hi;
    }
}

/// Zero each line of `data` whose bit is set in `dirty`, one `fill` per
/// run of set bits, and clear `dirty`. Lines never written, and so the
/// pages under them, stay untouched.
fn zero_dirty_lines(data: &mut [u8], dirty: &mut [u64]) {
    let mut fill = |from: usize, to: usize| {
        let end = (to * LINE).min(data.len());
        data[from * LINE..end].fill(0);
    };
    // Each set bit of `edges` is a line where a run starts or ends; the
    // top bit of the previous word carries a run across word boundaries.
    let mut start = None;
    let mut carry = 0;
    for (c, chunk) in dirty.chunks_mut(8).enumerate() {
        // Most of a large window is never written: skip clean cache
        // lines of the bitmap eight words at a time.
        if carry == 0 && chunk.iter().fold(0, |acc, w| acc | w) == 0 {
            continue;
        }
        for (i, word) in chunk.iter_mut().enumerate() {
            let bits = std::mem::take(word);
            let mut edges = bits ^ (bits << 1 | carry);
            carry = bits >> 63;
            while edges != 0 {
                let line = (c * 8 + i) * 64 + edges.trailing_zeros() as usize;
                edges &= edges - 1;
                match start.take() {
                    None => start = Some(line),
                    Some(from) => fill(from, line),
                }
            }
        }
    }
    if let Some(from) = start {
        fill(from, dirty.len() * 64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_respects_alignment() {
        let mut m = HostMemory::new(0x1000, 1 << 20);
        let a = m.alloc(10, 1);
        let b = m.alloc(100, 64);
        let c = m.alloc(4, 4096);
        assert_eq!(a, 0x1000);
        assert_eq!(b % 64, 0);
        assert!(b >= a + 10);
        assert_eq!(c % 4096, 0);
        assert!(m.allocated() >= 114);
    }

    #[test]
    fn read_write_round_trip() {
        let mut m = HostMemory::new(0, 4096);
        m.write(100, &[1, 2, 3, 4]);
        let mut buf = [0u8; 4];
        m.read(100, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4]);
        assert_eq!(m.slice(100, 4), &[1, 2, 3, 4]);
    }

    #[test]
    fn little_endian_integers() {
        let mut m = HostMemory::new(0, 4096);
        m.write_u16(0, 0x1234);
        m.write_u32(8, 0xDEAD_BEEF);
        m.write_u64(16, 0x0123_4567_89AB_CDEF);
        assert_eq!(m.slice(0, 2), &[0x34, 0x12]);
        assert_eq!(m.read_u16(0), 0x1234);
        assert_eq!(m.read_u32(8), 0xDEAD_BEEF);
        assert_eq!(m.read_u64(16), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn zero_fills() {
        let mut m = HostMemory::new(0, 64);
        m.write(0, &[0xFF; 64]);
        m.zero(8, 16);
        assert_eq!(m.slice(7, 1), &[0xFF]);
        assert_eq!(m.slice(8, 16), &[0u8; 16]);
        assert_eq!(m.slice(24, 1), &[0xFF]);
    }

    #[test]
    fn base_offset_addressing() {
        let mut m = HostMemory::new(0x10_0000, 4096);
        m.write_u32(0x10_0010, 42);
        assert_eq!(m.read_u32(0x10_0010), 42);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn below_base_panics() {
        let m = HostMemory::new(0x1000, 64);
        let _ = m.read_u32(0xFFF);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn past_end_panics() {
        let m = HostMemory::new(0, 64);
        let _ = m.read_u32(62);
    }

    /// A range whose end overflows `u64` is out of the window, not a
    /// wrapped sum that slips past the check.
    #[test]
    #[should_panic(expected = "host memory access out of range")]
    fn range_end_past_u64_max_panics_in_range_check() {
        let m = HostMemory::testbed_default();
        let _ = m.read_u32(u64::MAX - 1);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn oversized_alloc_panics() {
        let mut m = HostMemory::new(0, 4096);
        let _ = m.alloc(8192, 8);
    }

    /// An allocation whose end overflows `u64` is exhaustion, not a
    /// wrapped sum that hands out a range overlapping the next one.
    #[test]
    #[should_panic(expected = "host memory exhausted")]
    fn alloc_end_past_u64_max_panics() {
        let mut m = HostMemory::new(0x1000, 4096);
        let _ = m.alloc(usize::MAX, 8);
    }

    /// Likewise when rounding up to the alignment overflows: the
    /// wrapped address would be 0, outside a window near `u64::MAX`.
    #[test]
    #[should_panic(expected = "host memory exhausted")]
    fn alloc_alignment_past_u64_max_panics() {
        let mut m = HostMemory::new(u64::MAX - 0x1fff, 4096);
        let _ = m.alloc(16, 1 << 63);
    }

    /// One step of a recycling script: `(kind, at, len, fill)`, where
    /// `at` is scaled into the window and `kind` picks the operation.
    fn mem_script() -> impl proptest::prelude::Strategy<Value = Vec<(u8, u32, usize, u8)>> {
        use proptest::prelude::*;
        let step = (0u8..6, any::<u32>(), 0usize..9000, 1u8..=255);
        proptest::collection::vec(step, 1..40)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// A dropped memory's backing comes back all-zero to the next
        /// memory of its size on this thread, and never to another size.
        #[test]
        fn recycled_backing_reads_all_zero(
            lines in 1usize..16_384,
            tail in 0usize..64,
            script in mem_script(),
        ) {
            let size = lines * 64 + tail;
            let base = 0x4000_0000u64;
            let mut m = HostMemory::new(base, size);
            let ptr = m.data.as_ptr();
            for (kind, at, len, fill) in script {
                let len = len.min(size);
                let off = match at % 4 {
                    // The window's last byte(s).
                    0 => size - len,
                    // Straddle a 64-byte line or a 4 KiB page.
                    1 => ((at as usize % size) & !63).saturating_sub(len / 2),
                    2 => ((at as usize % size) & !4095).saturating_sub(len / 2),
                    _ => at as usize % (size - len + 1),
                }
                .min(size - len);
                let addr = base + off as u64;
                match kind {
                    0 => m.write(addr, &vec![fill; len]),
                    1 => m.write(addr, &[]),
                    2 if len >= 2 => m.write_u16(addr, u16::from(fill) | 0x100),
                    3 if len >= 4 => m.write_u32(addr, u32::from(fill) << 24 | 1),
                    4 if len >= 8 => m.write_u64(addr, u64::from(fill) << 56 | 1),
                    _ => m.zero(addr, len),
                }
            }
            let _ = m.alloc(size.min(100), 1);
            drop(m);

            let other = HostMemory::new(base, size + 64);
            proptest::prop_assert_ne!(other.data.as_ptr(), ptr, "backing handed to another size");
            drop(other);

            let again = HostMemory::new(base, size);
            proptest::prop_assert_eq!(again.data.as_ptr(), ptr, "backing not recycled");
            proptest::prop_assert_eq!(again.allocated(), 0);
            proptest::prop_assert_eq!(again.end() - again.base(), size as u64);
            proptest::prop_assert!(again.slice(base, size).iter().all(|&b| b == 0));
            proptest::prop_assert!(again.dirty.iter().all(|&w| w == 0));
        }
    }

    #[test]
    fn dirty_lines_are_zeroed_and_nothing_else() {
        // Runs inside a word, across word and 8-word chunk boundaries,
        // ending exactly on a word boundary and on a chunk boundary before
        // a clean chunk, and reaching the partial last line.
        let runs = [
            (0, 0),
            (3, 9),
            (63, 64),
            (100, 127),
            (300, 511),
            (1530, 1540),
            (2000, 2047),
        ];
        let mut data = vec![0xFFu8; 2047 * LINE + 10];
        let mut dirty = vec![0u64; 32];
        for (first, last) in runs {
            set_bits(&mut dirty, first, last);
        }
        for line in 0..2048 {
            let want = runs.iter().any(|&(f, l)| (f..=l).contains(&line));
            assert_eq!(dirty[line / 64] >> (line % 64) & 1 == 1, want, "bit {line}");
        }
        zero_dirty_lines(&mut data, &mut dirty);
        assert!(dirty.iter().all(|&w| w == 0));
        for (line, bytes) in data.chunks(LINE).enumerate() {
            let want = if runs.iter().any(|&(f, l)| (f..=l).contains(&line)) {
                0
            } else {
                0xFF
            };
            assert!(bytes.iter().all(|&b| b == want), "line {line}");
        }
    }
}
