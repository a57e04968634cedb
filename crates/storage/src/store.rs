//! Append-only simulated disk file.

use std::ops::Range;

use crate::codec::CodecId;

/// Identifier of a record inside a [`BlockFile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId(pub u32);

impl RecordId {
    #[inline]
    pub(crate) fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Asks the CPU to start loading `bytes[range]` into cache, one request
/// per 64-byte line, so that a read of those bytes soon after waits on
/// memory less. Only a hint: it reads no value, and the range is clamped
/// to `bytes`, so any range is safe and the part of it past the end asks
/// for nothing. Does nothing off x86-64.
#[inline]
#[allow(unsafe_code)]
pub fn prefetch(bytes: &[u8], range: Range<usize>) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let end = range.end.min(bytes.len());
        for line in bytes[range.start.min(end)..end].chunks(64) {
            // SAFETY: `line` lies in the live allocation `bytes` borrows,
            // and a prefetch never faults and reads nothing back.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(line.as_ptr().cast()) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (bytes, range);
}

/// An append-only record store standing in for one on-disk file.
///
/// The index crate serializes every tree node and every inverted file into
/// a record; query-time access deserializes from here, so the access path
/// exercises the same byte layouts a true disk-resident index would, and
/// record byte sizes drive the simulated block accounting.
///
/// Written records are never mutated in place — index updates append fresh
/// records (like a disk page allocator) and [`BlockFile::free`] the
/// superseded ones, so [`BlockFile::bytes`] always reports the *live*
/// footprint. Reading a freed record panics: any such access is a stale
/// pointer inside an index structure, i.e. corruption.
#[derive(Debug, Default, Clone)]
pub struct BlockFile {
    records: Vec<Box<[u8]>>,
    freed: Vec<bool>,
    bytes: u64,
    live: usize,
    codec: CodecId,
}

impl BlockFile {
    /// An empty file with the default ([`CodecId::Verbatim`]) codec.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty file stamped with `codec`. The stamp travels with the file
    /// (clones, persistence) so readers always decode records with the
    /// codec they were written under.
    pub fn with_codec(codec: CodecId) -> Self {
        BlockFile {
            codec,
            ..Self::default()
        }
    }

    /// The codec this file's records are encoded with.
    #[inline]
    pub fn codec(&self) -> CodecId {
        self.codec
    }

    /// Appends a record, returning its id.
    pub fn put(&mut self, payload: &[u8]) -> RecordId {
        let id = RecordId(
            u32::try_from(self.records.len()).expect("BlockFile exceeds u32::MAX records"),
        );
        self.bytes += payload.len() as u64;
        self.records.push(payload.into());
        self.freed.push(false);
        self.live += 1;
        id
    }

    /// Marks a record as garbage: its payload is dropped, its bytes leave
    /// the live accounting, and any later [`BlockFile::get`] of the id
    /// panics (a freed record can only be reached through a stale pointer).
    /// Record ids are never reused.
    ///
    /// # Panics
    /// Panics on an unknown id or a double free.
    pub fn free(&mut self, id: RecordId) {
        assert!(!self.freed[id.idx()], "double free of record {}", id.0);
        self.bytes -= self.records[id.idx()].len() as u64;
        self.records[id.idx()] = Box::from([]);
        self.freed[id.idx()] = true;
        self.live -= 1;
    }

    /// True when `id` was [`BlockFile::free`]d.
    #[inline]
    pub fn is_freed(&self, id: RecordId) -> bool {
        self.freed[id.idx()]
    }

    /// Borrowed view of a record's payload — the zero-copy read API.
    ///
    /// The returned slice borrows the file: readers that understand the
    /// record layout (the index crate's fixed-stride v2 node records and
    /// SoA weight columns) can decode fields in place without copying the
    /// payload into owned buffers first.
    ///
    /// # Panics
    /// Panics on an unknown or freed id, like [`BlockFile::get`].
    #[inline]
    pub fn record_bytes(&self, id: RecordId) -> &[u8] {
        self.get(id)
    }

    /// Reads a record's payload.
    ///
    /// # Panics
    /// Panics on an unknown or freed id — that is index corruption, not a
    /// user error.
    #[inline]
    pub fn get(&self, id: RecordId) -> &[u8] {
        assert!(
            !self.freed[id.idx()],
            "read of freed record {} (stale index pointer)",
            id.0
        );
        &self.records[id.idx()]
    }

    /// Asks the CPU to start loading the first `bytes` bytes of record
    /// `id` into cache, so that a read of it soon after waits less: a
    /// [`prefetch`] of the record's head. It charges no simulated I/O,
    /// leaves the page cache alone, and does nothing for an unknown or
    /// freed id (a freed record holds no bytes).
    #[inline]
    pub fn prefetch(&self, id: RecordId, bytes: usize) {
        if let Some(record) = self.records.get(id.idx()) {
            prefetch(record, 0..bytes);
        }
    }

    /// Raw payload access that tolerates freed records (persistence only —
    /// freed records serialize as empty).
    pub(crate) fn raw(&self, idx: usize) -> &[u8] {
        &self.records[idx]
    }

    /// Byte length of one record.
    #[inline]
    pub fn record_len(&self, id: RecordId) -> usize {
        self.records[id.idx()].len()
    }

    /// Number of record slots allocated (live and freed).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no record has been written.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of live (never-freed) records.
    pub fn live_records(&self) -> usize {
        self.live
    }

    /// Number of freed record slots still occupying ids. Ids must stay
    /// stable across mutations, so freed records persist as empty
    /// placeholders until a rebuild (the engine-level corpus refresh)
    /// writes the file with dense ids.
    pub fn freed_records(&self) -> usize {
        self.records.len() - self.live
    }

    /// Total payload bytes across all *live* records.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Simulated I/O blocks needed to read every live record
    /// (⌈bytes / 4096⌉ per record, minimum not applied to empty records).
    pub fn live_payload_blocks(&self) -> u64 {
        self.records
            .iter()
            .zip(&self.freed)
            .filter(|&(_, &freed)| !freed)
            .map(|(r, _)| crate::blocks_for(r.len()))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let mut f = BlockFile::new();
        let a = f.put(b"hello");
        let b = f.put(b"");
        let c = f.put(&[1, 2, 3]);
        assert_eq!(f.get(a), b"hello");
        assert_eq!(f.get(b), b"");
        assert_eq!(f.get(c), &[1, 2, 3]);
        assert_eq!(f.len(), 3);
        assert_eq!(f.bytes(), 8);
        assert_eq!(f.record_len(a), 5);
    }

    #[test]
    fn ids_are_sequential() {
        let mut f = BlockFile::new();
        assert_eq!(f.put(b"x"), RecordId(0));
        assert_eq!(f.put(b"y"), RecordId(1));
    }

    #[test]
    #[should_panic]
    fn unknown_record_panics() {
        let f = BlockFile::new();
        f.get(RecordId(0));
    }

    /// Freeing reclaims bytes from the live accounting, keeps ids stable,
    /// and turns later reads of the freed id into loud failures.
    #[test]
    fn free_reclaims_bytes_and_blocks_reads() {
        let mut f = BlockFile::new();
        let a = f.put(&[0u8; 100]);
        let b = f.put(&[0u8; 50]);
        assert_eq!(f.bytes(), 150);
        assert_eq!(f.live_records(), 2);
        f.free(a);
        assert_eq!(f.bytes(), 50);
        assert_eq!(f.live_records(), 1);
        assert_eq!(f.len(), 2, "slots are never reused");
        assert!(f.is_freed(a));
        assert!(!f.is_freed(b));
        assert_eq!(f.get(b), &[0u8; 50]);
        // New records still get fresh ids after the free.
        assert_eq!(f.put(b"x"), RecordId(2));
    }

    #[test]
    #[should_panic(expected = "freed record")]
    fn read_of_freed_record_panics() {
        let mut f = BlockFile::new();
        let a = f.put(b"data");
        f.free(a);
        f.get(a);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut f = BlockFile::new();
        let a = f.put(b"data");
        f.free(a);
        f.free(a);
    }

    #[test]
    fn freed_records_counts_placeholders() {
        let mut f = BlockFile::new();
        let a = f.put(b"a");
        f.put(b"b");
        assert_eq!(f.freed_records(), 0);
        f.free(a);
        assert_eq!(f.freed_records(), 1);
        assert_eq!(f.live_records(), 1);
        f.put(b"c");
        assert_eq!(f.freed_records(), 1, "fresh records are live");
    }

    /// A prefetch of any id, live, freed or unknown, and of any length is
    /// a no-op for the program: nothing panics, nothing changes. So is
    /// one of any byte range: empty, inside one line, over several lines,
    /// reversed, or starting or ending past the bytes.
    #[test]
    fn prefetch_is_a_hint_for_any_id() {
        let mut f = BlockFile::new();
        let a = f.put(&[7u8; 300]);
        let b = f.put(b"");
        let c = f.put(b"xyz");
        f.free(c);
        for id in [a, b, c, RecordId(3), RecordId(u32::MAX)] {
            for bytes in [0, 1, 64, 65, 300, 1 << 20] {
                f.prefetch(id, bytes);
            }
        }
        assert_eq!(f.get(a), &[7u8; 300]);
        assert_eq!((f.bytes(), f.live_records(), f.len()), (300, 2, 3));
        let record = f.get(a);
        let ends = [0, 1, 5, 63, 64, 65, 200, 299, 300, 301, usize::MAX];
        for start in ends {
            for end in ends {
                prefetch(record, start..end);
                prefetch(&[], start..end);
            }
        }
        assert_eq!(f.get(a), &[7u8; 300]);
    }

    #[test]
    fn live_payload_blocks_counts_only_live() {
        let mut f = BlockFile::new();
        let a = f.put(&[0u8; 5000]); // 2 blocks
        f.put(&[0u8; 100]); // 1 block
        assert_eq!(f.live_payload_blocks(), 3);
        f.free(a);
        assert_eq!(f.live_payload_blocks(), 1);
    }
}
