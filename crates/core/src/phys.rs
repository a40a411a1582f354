//! Physical memory: frames, physical addresses, and a sparse byte store.
//!
//! The Memory Translation Layer allocates physical memory in 4 KiB *frames*
//! (the base allocation granularity of §4.5.2). [`PhysicalMemory`] provides a
//! functional backing store for those frames so that higher-level mechanisms
//! — copy-on-write cloning, VB promotion, swapping, delayed allocation — can
//! be verified end to end on real data, not just on metadata.

use core::fmt;
use std::collections::HashMap;

/// Size of a physical frame in bytes (4 KiB, the base allocation unit).
pub const FRAME_BYTES: u64 = 4096;

/// Log2 of [`FRAME_BYTES`].
pub const FRAME_SHIFT: u32 = 12;

/// A physical frame number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Frame(pub u64);

impl Frame {
    /// The physical address of the first byte of the frame.
    #[inline]
    pub const fn base(self) -> PhysAddr {
        PhysAddr(self.0 << FRAME_SHIFT)
    }

    /// The frame containing a physical address.
    #[inline]
    pub const fn containing(addr: PhysAddr) -> Frame {
        Frame(addr.0 >> FRAME_SHIFT)
    }

    /// The frame `n` frames after this one.
    #[inline]
    pub const fn offset(self, n: u64) -> Frame {
        Frame(self.0 + n)
    }
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "frame#{}", self.0)
    }
}

/// A byte-granularity physical address.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysAddr(pub u64);

impl PhysAddr {
    /// The raw address value.
    #[inline]
    pub const fn to_bits(self) -> u64 {
        self.0
    }

    /// Byte offset within the containing frame.
    #[inline]
    pub const fn frame_offset(self) -> u64 {
        self.0 & (FRAME_BYTES - 1)
    }

    /// The address `delta` bytes later.
    #[inline]
    pub const fn offset(self, delta: u64) -> PhysAddr {
        PhysAddr(self.0 + delta)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#012x}", self.0)
    }
}

impl From<Frame> for PhysAddr {
    fn from(frame: Frame) -> Self {
        frame.base()
    }
}

/// A sparse physical memory: frames materialise on first write.
///
/// Reads of never-written bytes return zero, mirroring hardware that
/// zero-fills freshly allocated frames. The store is deliberately simple —
/// correctness infrastructure for the functional model, not a timing model
/// (timing lives in `vbi-mem-sim`).
///
/// # Examples
///
/// ```
/// use vbi_core::phys::{Frame, PhysicalMemory};
///
/// let mut mem = PhysicalMemory::new(1024);
/// let addr = Frame(3).base().offset(16);
/// mem.write_u64(addr, 0xdead_beef);
/// assert_eq!(mem.read_u64(addr), 0xdead_beef);
/// assert_eq!(mem.read_u64(addr.offset(8)), 0);
/// ```
#[derive(Debug, Clone)]
pub struct PhysicalMemory {
    total_frames: u64,
    frames: HashMap<u64, Box<[u8; FRAME_BYTES as usize]>>,
}

impl PhysicalMemory {
    /// Creates a physical memory of `total_frames` frames.
    pub fn new(total_frames: u64) -> Self {
        Self { total_frames, frames: HashMap::new() }
    }

    /// Total capacity in frames.
    pub fn total_frames(&self) -> u64 {
        self.total_frames
    }

    /// Total capacity in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_frames * FRAME_BYTES
    }

    /// Number of frames that have been materialised by writes.
    pub fn resident_frames(&self) -> usize {
        self.frames.len()
    }

    /// Whether `frame` lies within the memory.
    pub fn contains(&self, frame: Frame) -> bool {
        frame.0 < self.total_frames
    }

    /// Extends the memory by `count` frames (cross-shard frame adoption).
    /// The store is sparse, so growth is free until the new frames are
    /// written.
    pub fn grow(&mut self, count: u64) {
        self.total_frames += count;
    }

    fn check(&self, addr: PhysAddr) {
        assert!(
            addr.0 < self.total_bytes(),
            "physical address {addr} beyond end of memory ({} frames)",
            self.total_frames
        );
    }

    /// Reads one byte.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is beyond the end of physical memory.
    pub fn read_u8(&self, addr: PhysAddr) -> u8 {
        self.check(addr);
        match self.frames.get(&Frame::containing(addr).0) {
            Some(data) => data[addr.frame_offset() as usize],
            None => 0,
        }
    }

    /// Writes one byte, materialising the frame if needed.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is beyond the end of physical memory.
    pub fn write_u8(&mut self, addr: PhysAddr, value: u8) {
        self.check(addr);
        let frame = Frame::containing(addr).0;
        let data =
            self.frames.entry(frame).or_insert_with(|| Box::new([0u8; FRAME_BYTES as usize]));
        data[addr.frame_offset() as usize] = value;
    }

    /// Reads a little-endian `u64` (may straddle frames).
    ///
    /// # Panics
    ///
    /// Panics if any byte is beyond the end of physical memory.
    pub fn read_u64(&self, addr: PhysAddr) -> u64 {
        let mut bytes = [0u8; 8];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = self.read_u8(addr.offset(i as u64));
        }
        u64::from_le_bytes(bytes)
    }

    /// Writes a little-endian `u64` (may straddle frames).
    ///
    /// # Panics
    ///
    /// Panics if any byte is beyond the end of physical memory.
    pub fn write_u64(&mut self, addr: PhysAddr, value: u64) {
        for (i, b) in value.to_le_bytes().into_iter().enumerate() {
            self.write_u8(addr.offset(i as u64), b);
        }
    }

    /// Copies a whole frame, as `clone_vb`'s copy-on-write resolution and
    /// `promote_vb` do. A source frame that was never written stays logically
    /// zero, so the destination is simply dropped back to zero.
    pub fn copy_frame(&mut self, src: Frame, dst: Frame) {
        assert!(self.contains(src) && self.contains(dst), "copy_frame out of range");
        match self.frames.get(&src.0).cloned() {
            Some(data) => {
                self.frames.insert(dst.0, data);
            }
            None => {
                self.frames.remove(&dst.0);
            }
        }
    }

    /// Extracts a frame's contents (e.g. for swap-out). Returns `None` for a
    /// logically zero frame.
    pub fn take_frame(&mut self, frame: Frame) -> Option<Box<[u8; FRAME_BYTES as usize]>> {
        self.frames.remove(&frame.0)
    }

    /// Installs previously extracted contents (e.g. for swap-in).
    pub fn put_frame(&mut self, frame: Frame, data: Box<[u8; FRAME_BYTES as usize]>) {
        assert!(self.contains(frame), "put_frame out of range");
        self.frames.insert(frame.0, data);
    }

    /// Zeroes a frame (used when a freed frame is recycled).
    pub fn zero_frame(&mut self, frame: Frame) {
        self.frames.remove(&frame.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_address_math() {
        assert_eq!(Frame(0).base(), PhysAddr(0));
        assert_eq!(Frame(2).base(), PhysAddr(8192));
        assert_eq!(Frame::containing(PhysAddr(8191)), Frame(1));
        assert_eq!(Frame(3).offset(4), Frame(7));
        assert_eq!(PhysAddr(4097).frame_offset(), 1);
    }

    #[test]
    fn unwritten_memory_reads_zero() {
        let mem = PhysicalMemory::new(16);
        assert_eq!(mem.read_u8(PhysAddr(0)), 0);
        assert_eq!(mem.read_u64(PhysAddr(4090)), 0);
        assert_eq!(mem.resident_frames(), 0);
    }

    #[test]
    fn write_then_read_roundtrips() {
        let mut mem = PhysicalMemory::new(16);
        mem.write_u64(PhysAddr(100), 0x0123_4567_89ab_cdef);
        assert_eq!(mem.read_u64(PhysAddr(100)), 0x0123_4567_89ab_cdef);
        assert_eq!(mem.resident_frames(), 1);
    }

    #[test]
    fn straddling_writes_touch_both_frames() {
        let mut mem = PhysicalMemory::new(16);
        mem.write_u64(PhysAddr(4092), u64::MAX);
        assert_eq!(mem.read_u64(PhysAddr(4092)), u64::MAX);
        assert_eq!(mem.resident_frames(), 2);
    }

    #[test]
    fn copy_frame_duplicates_and_zeroes() {
        let mut mem = PhysicalMemory::new(16);
        mem.write_u64(Frame(1).base(), 42);
        mem.copy_frame(Frame(1), Frame(2));
        assert_eq!(mem.read_u64(Frame(2).base()), 42);
        // Copying a zero frame over a dirty one restores zero.
        mem.copy_frame(Frame(5), Frame(2));
        assert_eq!(mem.read_u64(Frame(2).base()), 0);
    }

    #[test]
    fn take_and_put_frame_move_contents() {
        let mut mem = PhysicalMemory::new(16);
        mem.write_u8(Frame(4).base(), 7);
        let data = mem.take_frame(Frame(4)).expect("written frame has contents");
        assert_eq!(mem.read_u8(Frame(4).base()), 0);
        mem.put_frame(Frame(9), data);
        assert_eq!(mem.read_u8(Frame(9).base()), 7);
        assert!(mem.take_frame(Frame(4)).is_none());
    }

    #[test]
    #[should_panic(expected = "beyond end of memory")]
    fn out_of_range_access_panics() {
        let mem = PhysicalMemory::new(1);
        let _ = mem.read_u8(PhysAddr(FRAME_BYTES));
    }
}
