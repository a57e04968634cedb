//! Serialization helpers and pluggable per-file codecs.
//!
//! The index crate lays records out by hand (no serde): the formats are a
//! handful of fixed-width fields and length-prefixed sequences, and keeping
//! them explicit makes the simulated on-disk footprint auditable — block
//! accounting is only as good as the byte counts behind it.
//!
//! Two layers live here:
//!
//! * [`Writer`] / [`Reader`] — raw little-endian buffer access, plus the
//!   compression kernels (LEB128 varints, zigzag, bit-packing, fixed-width
//!   XOR'd floats) that the columnar layouts are built from. Every read
//!   is bounds-checked against the buffer the reader was given: a damaged
//!   record may decode to garbage or panic, but never reads past that
//!   buffer's end,
//! * [`Codec`] — the pluggable column-primitive layer. A [`BlockFile`]
//!   carries a [`CodecId`] stamped into its persistent header; the index
//!   crate asks [`codec`] for the matching implementation and routes every
//!   column of a record through it. [`Verbatim`] writes fixed-width
//!   little-endian fields (the paper-faithful baseline layout);
//!   [`Columnar`] delta/varint/bit-pack/XOR-compresses each column. Its
//!   float columns are fixed-width, not varint: one width byte
//!   `w ∈ 0..=8` per column, then `w` little-endian bytes per XOR residue,
//!   so a value decodes with one load and a mask and an all-equal column
//!   costs its width byte alone.
//!
//! [`BlockFile`]: crate::BlockFile

/// Append-only byte writer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A fresh writer, optionally pre-sized.
    pub fn with_capacity(cap: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(cap),
        }
    }

    /// A fresh empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a `u8`.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f64`.
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a LEB128 varint `u32` (1–5 bytes).
    #[inline]
    pub fn put_varint_u32(&mut self, v: u32) {
        self.put_varint_u64(u64::from(v));
    }

    /// Appends a LEB128 varint `u64` (1–10 bytes).
    #[inline]
    pub fn put_varint_u64(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Appends raw bytes.
    #[inline]
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends `n` XOR residues as one fixed-width column: a width byte
    /// `w ∈ 0..=8` (the bytes the widest residue needs), then the low `w`
    /// bytes of each residue, little-endian. A column of no residues is
    /// no bytes at all.
    fn put_xor_residues(&mut self, n: usize, residue: impl Fn(usize) -> u64) {
        if n == 0 {
            return;
        }
        let any = (0..n).fold(0u64, |acc, i| acc | residue(i));
        let width = (64 - any.leading_zeros() as usize).div_ceil(8);
        self.put_u8(width as u8);
        for i in 0..n {
            self.put_bytes(&residue(i).to_le_bytes()[..width]);
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Empties the writer and keeps its capacity, so one writer can encode
    /// record after record without allocating.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finishes and returns the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Sequential byte reader over a record payload.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> &'a [u8] {
        let s = self
            .buf
            .get(self.pos..self.pos + n)
            .expect("read past end of record");
        self.pos += n;
        s
    }

    /// Reads a `u8`.
    #[inline]
    pub fn get_u8(&mut self) -> u8 {
        self.take(1)[0]
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn get_u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take(4).try_into().unwrap())
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn get_u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take(8).try_into().unwrap())
    }

    /// Reads a little-endian `f64`.
    #[inline]
    pub fn get_f64(&mut self) -> f64 {
        f64::from_le_bytes(self.take(8).try_into().unwrap())
    }

    /// Reads a LEB128 varint `u32`, or `None` on truncated, overlong, or
    /// overflowing input. The decoder is strict: at most 5 bytes, and the
    /// 5th byte may only contribute the 4 remaining bits. It has its own
    /// loop rather than the `u64` decoder's and a conversion, because the
    /// Columnar directory walk and list decode call it for every value.
    #[inline]
    pub fn try_get_varint_u32(&mut self) -> Option<u32> {
        let mut v = 0u32;
        for shift in [0, 7, 14, 21] {
            let byte = *self.buf.get(self.pos)?;
            self.pos += 1;
            v |= u32::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Some(v);
            }
        }
        // The 5th byte holds bits 28..32 alone: anything above 0x0F
        // overflows or continues.
        let byte = *self.buf.get(self.pos)?;
        self.pos += 1;
        (byte <= 0x0F).then(|| v | u32::from(byte) << 28)
    }

    /// Reads a LEB128 varint `u64`, or `None` on truncated, overlong, or
    /// overflowing input. The decoder is strict: at most 10 bytes, and the
    /// 10th byte may only contribute the single remaining bit.
    #[inline]
    pub fn try_get_varint_u64(&mut self) -> Option<u64> {
        let mut v: u64 = 0;
        for shift in (0..63).step_by(7) {
            let byte = *self.buf.get(self.pos)?;
            self.pos += 1;
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Some(v);
            }
        }
        // The 10th byte holds bit 63 alone: anything above 1 overflows
        // or continues.
        let byte = *self.buf.get(self.pos)?;
        self.pos += 1;
        (byte <= 1).then(|| v | u64::from(byte) << 63)
    }

    /// Reads a LEB128 varint `u32`.
    ///
    /// # Panics
    /// Panics on truncated or malformed input — inside a record that is
    /// index corruption, not a user error.
    #[inline]
    pub fn get_varint_u32(&mut self) -> u32 {
        self.try_get_varint_u32().expect("corrupt varint u32")
    }

    /// Reads a LEB128 varint `u64` (panicking twin of
    /// [`Reader::try_get_varint_u64`]).
    #[inline]
    pub fn get_varint_u64(&mut self) -> u64 {
        self.try_get_varint_u64().expect("corrupt varint u64")
    }

    /// The eight bytes at the cursor as a little-endian word; `None`
    /// within eight bytes of the end of the record.
    #[inline]
    fn peek_word(&self) -> Option<u64> {
        let bytes = self.buf.get(self.pos..self.pos + 8)?;
        Some(u64::from_le_bytes(bytes.try_into().unwrap()))
    }

    /// Twin of [`Writer::put_xor_residues`]: XORs the next `slots.len()`
    /// residues into the bit patterns of `slots`, in order. A residue
    /// whose eight-byte word lies inside the record decodes with one
    /// unaligned load and a mask (the bytes past its width belong to its
    /// successors); only the last few of a column that ends the record
    /// are assembled byte-wise.
    ///
    /// # Panics
    /// Panics on a width above 8 or a column running past the record.
    fn xor_residues_into(&mut self, slots: &mut [f64]) {
        if slots.is_empty() {
            return;
        }
        let width = usize::from(self.get_u8());
        assert!(width <= 8, "corrupt float column width");
        assert!(
            slots.len() * width <= self.remaining(),
            "float column past end of record"
        );
        if width == 0 {
            return;
        }
        let mask = u64::MAX >> (64 - 8 * width);
        for slot in slots {
            let residue = match self.peek_word() {
                Some(word) => word & mask,
                None => {
                    let mut word = [0u8; 8];
                    word[..width].copy_from_slice(&self.buf[self.pos..self.pos + width]);
                    u64::from_le_bytes(word)
                }
            };
            *slot = f64::from_bits(slot.to_bits() ^ residue);
            self.pos += width;
        }
    }

    /// Current byte offset from the start of the payload.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Advances past `n` bytes without decoding them.
    ///
    /// # Panics
    /// Panics when fewer than `n` bytes remain.
    #[inline]
    pub fn skip(&mut self, n: usize) {
        assert!(n <= self.remaining(), "skip past end of record");
        self.pos += n;
    }

    /// Repositions the reader at an absolute byte offset.
    ///
    /// # Panics
    /// Panics when `pos` exceeds the payload length.
    #[inline]
    pub fn seek(&mut self, pos: usize) {
        assert!(pos <= self.buf.len(), "seek past end of record");
        self.pos = pos;
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the whole payload has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }
}

/// Zigzag-encodes a signed delta so small magnitudes of either sign get
/// short varints.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Identifier of the codec a [`BlockFile`](crate::BlockFile) was encoded
/// with. Stamped into the persistent block-file header (see
/// [`save_blockfile`](crate::save_blockfile)) so a reopened file decodes
/// with the codec it was written under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(u8)]
pub enum CodecId {
    /// Fixed-width little-endian fields — the paper-faithful baseline
    /// layout, bit-identical to the pre-codec format.
    #[default]
    Verbatim = 0,
    /// Column-split records: delta+varint integer columns, zigzag'd
    /// clustered ids, bit-packed counts, XOR'd float columns.
    Columnar = 1,
}

impl CodecId {
    /// Every codec, in id order.
    pub const ALL: [CodecId; 2] = [CodecId::Verbatim, CodecId::Columnar];

    /// The header byte for this codec.
    #[inline]
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Decodes a header byte.
    pub fn from_u8(v: u8) -> Option<CodecId> {
        match v {
            0 => Some(CodecId::Verbatim),
            1 => Some(CodecId::Columnar),
            _ => None,
        }
    }

    /// Lowercase display name.
    pub fn name(self) -> &'static str {
        match self {
            CodecId::Verbatim => "verbatim",
            CodecId::Columnar => "columnar",
        }
    }
}

/// Column-primitive layer of a block-file codec.
///
/// A codec defines how each *class* of column is put on the wire; the
/// index crate's record layouts decide which columns exist and in what
/// order. Every `get_*` method must decode exactly the bytes its `put_*`
/// twin produced (the differential harnesses pin this at the query level),
/// and encoding must be deterministic in the values — subtree adoption
/// re-serializes parsed records and relies on reproducing their bytes.
///
/// To add a codec: add a [`CodecId`] variant, implement this trait, and
/// register the instance in [`codec`]. Layouts that are structure-shared
/// between codecs pick it up immediately; the inverted-file layout also
/// branches on [`CodecId`] because only compressed lists need an explicit
/// skip table (fixed-width lists have a computable stride).
pub trait Codec: std::fmt::Debug + Send + Sync {
    /// This codec's id.
    fn id(&self) -> CodecId;

    /// A non-decreasing u32 column (sorted term ids, posting entry
    /// indexes): first value plus deltas.
    fn put_ascending_u32s(&self, w: &mut Writer, vals: &[u32]);
    /// Twin of [`Codec::put_ascending_u32s`]; appends `n` values to `out`.
    fn get_ascending_u32s(&self, r: &mut Reader, n: usize, out: &mut Vec<u32>);

    /// An unsorted but clustered u32 column (child record ids): zigzag'd
    /// deltas.
    fn put_clustered_u32s(&self, w: &mut Writer, vals: &[u32]);
    /// Twin of [`Codec::put_clustered_u32s`].
    fn get_clustered_u32s(&self, r: &mut Reader, n: usize, out: &mut Vec<u32>);

    /// A small-range u32 column (per-entry subtree counts): bit-packed to
    /// the width of the largest value.
    fn put_packed_u32s(&self, w: &mut Writer, vals: &[u32]);
    /// Twin of [`Codec::put_packed_u32s`].
    fn get_packed_u32s(&self, r: &mut Reader, n: usize, out: &mut Vec<u32>);

    /// An f64 column. A compressing codec stores the first value raw and
    /// every later one as its XOR with its predecessor, all residues at
    /// the one byte width the widest needs (a width byte, then that many
    /// little-endian bytes each): similar magnitudes drop their shared
    /// high bytes, a run of equal values drops to the width byte, and a
    /// column of one value carries no width byte at all.
    fn put_f64s(&self, w: &mut Writer, vals: &[f64]);
    /// Twin of [`Codec::put_f64s`].
    fn get_f64s(&self, r: &mut Reader, n: usize, out: &mut Vec<f64>);

    /// An f64 column XOR'd elementwise against a base column already
    /// decoded, laid out like the residues of [`Codec::put_f64s`]: a width
    /// byte, then that many bytes per value (e.g. rectangle `max` against
    /// `min`: the degenerate point rectangles of a leaf collapse to one
    /// byte per *column*).
    fn put_f64s_vs(&self, w: &mut Writer, vals: &[f64], base: &[f64]);
    /// Twin of [`Codec::put_f64s_vs`].
    fn get_f64s_vs(&self, r: &mut Reader, n: usize, base: &[f64], out: &mut Vec<f64>);
}

/// Fixed-width little-endian columns — the baseline layout.
#[derive(Debug)]
pub struct Verbatim;

impl Codec for Verbatim {
    fn id(&self) -> CodecId {
        CodecId::Verbatim
    }

    fn put_ascending_u32s(&self, w: &mut Writer, vals: &[u32]) {
        for &v in vals {
            w.put_u32(v);
        }
    }

    fn get_ascending_u32s(&self, r: &mut Reader, n: usize, out: &mut Vec<u32>) {
        // One bounds check for the column, not one per value.
        out.extend(
            r.take(4 * n)
                .chunks_exact(4)
                .map(|b| u32::from_le_bytes(b.try_into().unwrap())),
        );
    }

    fn put_clustered_u32s(&self, w: &mut Writer, vals: &[u32]) {
        self.put_ascending_u32s(w, vals);
    }

    fn get_clustered_u32s(&self, r: &mut Reader, n: usize, out: &mut Vec<u32>) {
        self.get_ascending_u32s(r, n, out);
    }

    fn put_packed_u32s(&self, w: &mut Writer, vals: &[u32]) {
        self.put_ascending_u32s(w, vals);
    }

    fn get_packed_u32s(&self, r: &mut Reader, n: usize, out: &mut Vec<u32>) {
        self.get_ascending_u32s(r, n, out);
    }

    fn put_f64s(&self, w: &mut Writer, vals: &[f64]) {
        for &v in vals {
            w.put_f64(v);
        }
    }

    fn get_f64s(&self, r: &mut Reader, n: usize, out: &mut Vec<f64>) {
        out.extend(
            r.take(8 * n)
                .chunks_exact(8)
                .map(|b| f64::from_le_bytes(b.try_into().unwrap())),
        );
    }

    fn put_f64s_vs(&self, w: &mut Writer, vals: &[f64], _base: &[f64]) {
        self.put_f64s(w, vals);
    }

    fn get_f64s_vs(&self, r: &mut Reader, n: usize, _base: &[f64], out: &mut Vec<f64>) {
        self.get_f64s(r, n, out);
    }
}

/// Delta/varint/bit-pack/XOR-compressed columns.
#[derive(Debug)]
pub struct Columnar;

impl Codec for Columnar {
    fn id(&self) -> CodecId {
        CodecId::Columnar
    }

    fn put_ascending_u32s(&self, w: &mut Writer, vals: &[u32]) {
        let mut prev = 0u32;
        for &v in vals {
            debug_assert!(v >= prev, "ascending column out of order");
            w.put_varint_u32(v - prev);
            prev = v;
        }
    }

    fn get_ascending_u32s(&self, r: &mut Reader, n: usize, out: &mut Vec<u32>) {
        out.reserve(n);
        let mut prev = 0u32;
        for _ in 0..n {
            prev += r.get_varint_u32();
            out.push(prev);
        }
    }

    fn put_clustered_u32s(&self, w: &mut Writer, vals: &[u32]) {
        let mut prev = 0i64;
        for &v in vals {
            w.put_varint_u64(zigzag(i64::from(v) - prev));
            prev = i64::from(v);
        }
    }

    fn get_clustered_u32s(&self, r: &mut Reader, n: usize, out: &mut Vec<u32>) {
        out.reserve(n);
        let mut prev = 0i64;
        for _ in 0..n {
            prev += unzigzag(r.get_varint_u64());
            out.push(u32::try_from(prev).expect("corrupt clustered column"));
        }
    }

    fn put_packed_u32s(&self, w: &mut Writer, vals: &[u32]) {
        let width = vals
            .iter()
            .map(|&v| 32 - v.leading_zeros())
            .max()
            .unwrap_or(0) as u8;
        w.put_u8(width);
        if width == 0 {
            return; // all zeros — the width byte alone encodes the column
        }
        let mut acc: u64 = 0;
        let mut bits = 0u32;
        for &v in vals {
            acc |= u64::from(v) << bits;
            bits += u32::from(width);
            while bits >= 8 {
                w.put_u8((acc & 0xFF) as u8);
                acc >>= 8;
                bits -= 8;
            }
        }
        if bits > 0 {
            w.put_u8((acc & 0xFF) as u8);
        }
    }

    fn get_packed_u32s(&self, r: &mut Reader, n: usize, out: &mut Vec<u32>) {
        out.reserve(n);
        let width = u32::from(r.get_u8());
        assert!(width <= 32, "corrupt bit-pack width");
        if width == 0 {
            out.extend(std::iter::repeat_n(0u32, n));
            return;
        }
        let mask = if width == 32 {
            u64::from(u32::MAX)
        } else {
            (1u64 << width) - 1
        };
        let mut acc: u64 = 0;
        let mut bits = 0u32;
        for _ in 0..n {
            while bits < width {
                acc |= u64::from(r.get_u8()) << bits;
                bits += 8;
            }
            out.push((acc & mask) as u32);
            acc >>= width;
            bits -= width;
        }
    }

    fn put_f64s(&self, w: &mut Writer, vals: &[f64]) {
        let Some(first) = vals.first() else {
            return;
        };
        w.put_u64(first.to_bits());
        w.put_xor_residues(vals.len() - 1, |i| {
            vals[i + 1].to_bits() ^ vals[i].to_bits()
        });
    }

    fn get_f64s(&self, r: &mut Reader, n: usize, out: &mut Vec<f64>) {
        if n == 0 {
            return;
        }
        let start = out.len();
        out.push(r.get_f64());
        out.resize(start + n, 0.0);
        let slots = &mut out[start..];
        r.xor_residues_into(&mut slots[1..]);
        // Each slot holds its residue; a running XOR turns it into its value.
        let mut prev = slots[0].to_bits();
        for slot in &mut slots[1..] {
            prev ^= slot.to_bits();
            *slot = f64::from_bits(prev);
        }
    }

    fn put_f64s_vs(&self, w: &mut Writer, vals: &[f64], base: &[f64]) {
        debug_assert_eq!(vals.len(), base.len());
        w.put_xor_residues(vals.len(), |i| vals[i].to_bits() ^ base[i].to_bits());
    }

    fn get_f64s_vs(&self, r: &mut Reader, n: usize, base: &[f64], out: &mut Vec<f64>) {
        debug_assert_eq!(base.len(), n);
        let start = out.len();
        out.extend_from_slice(&base[..n]);
        r.xor_residues_into(&mut out[start..]);
    }
}

/// The registered instance of a codec.
pub fn codec(id: CodecId) -> &'static dyn Codec {
    match id {
        CodecId::Verbatim => &Verbatim,
        CodecId::Columnar => &Columnar,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xDEADBEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f64(-2.5);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 1 + 4 + 8 + 8);

        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u32(), 0xDEADBEEF);
        assert_eq!(r.get_u64(), u64::MAX - 1);
        assert_eq!(r.get_f64(), -2.5);
        assert!(r.is_exhausted());
    }

    #[test]
    fn nan_roundtrips_bitwise() {
        let mut w = Writer::new();
        w.put_f64(f64::NAN);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.get_f64().is_nan());
    }

    #[test]
    fn remaining_tracks_position() {
        let mut w = Writer::new();
        w.put_u32(1);
        w.put_u32(2);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.remaining(), 8);
        r.get_u32();
        assert_eq!(r.remaining(), 4);
        assert_eq!(r.position(), 4);
    }

    #[test]
    #[should_panic(expected = "read past end of record")]
    fn reading_past_end_panics() {
        let bytes = [1u8, 2];
        let mut r = Reader::new(&bytes);
        r.get_u32();
    }

    #[test]
    fn codec_ids_roundtrip_and_parse() {
        for id in CodecId::ALL {
            assert_eq!(CodecId::from_u8(id.as_u8()), Some(id));
            assert_eq!(codec(id).id(), id);
        }
        assert_eq!(CodecId::from_u8(200), None);
        assert_eq!(CodecId::default(), CodecId::Verbatim);
    }

    // ---- kernel boundary tests (deterministic, seeded) -----------------

    /// Tiny deterministic generator (splitmix64) so the loop corpora are
    /// reproducible without a dependency on the workspace RNG crate.
    struct Mix(u64);
    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    fn varint_u64_roundtrip(v: u64) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_varint_u64(v);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.try_get_varint_u64(), Some(v), "value {v:#x}");
        assert!(r.is_exhausted());
        bytes
    }

    #[test]
    fn varint_boundaries() {
        assert_eq!(varint_u64_roundtrip(0).len(), 1);
        assert_eq!(varint_u64_roundtrip(1).len(), 1);
        assert_eq!(varint_u64_roundtrip(127).len(), 1);
        assert_eq!(varint_u64_roundtrip(128).len(), 2);
        assert_eq!(varint_u64_roundtrip(u64::from(u32::MAX)).len(), 5);
        assert_eq!(varint_u64_roundtrip(u64::MAX).len(), 10);
        // Every power-of-two edge.
        for shift in 0..64 {
            varint_u64_roundtrip(1u64 << shift);
            varint_u64_roundtrip((1u64 << shift) - 1);
        }
        // u32 path hits its own boundaries.
        for v in [0u32, 1, 127, 128, 16_383, 16_384, u32::MAX] {
            let mut w = Writer::new();
            w.put_varint_u32(v);
            let bytes = w.into_bytes();
            assert_eq!(Reader::new(&bytes).try_get_varint_u32(), Some(v));
        }
    }

    #[test]
    fn varint_rejects_truncated_input() {
        for v in [128u64, 1 << 20, u64::from(u32::MAX), u64::MAX] {
            let mut w = Writer::new();
            w.put_varint_u64(v);
            let bytes = w.into_bytes();
            for cut in 0..bytes.len() {
                let mut r = Reader::new(&bytes[..cut]);
                assert_eq!(r.try_get_varint_u64(), None, "cut {cut} of {v:#x}");
            }
        }
    }

    #[test]
    fn varint_rejects_overlong_and_overflowing_input() {
        // 10 continuation bytes: no terminator within the 64-bit budget.
        let overlong = [0x80u8; 10];
        assert_eq!(Reader::new(&overlong).try_get_varint_u64(), None);
        // Terminates on the 10th byte but carries more than the single
        // remaining bit (u64::MAX has 0x01 there).
        let overflow = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02];
        assert_eq!(Reader::new(&overflow).try_get_varint_u64(), None);
        // A u64 too large for u32 is rejected by the u32 decoder.
        let mut w = Writer::new();
        w.put_varint_u64(u64::from(u32::MAX) + 1);
        let bytes = w.into_bytes();
        assert_eq!(Reader::new(&bytes).try_get_varint_u32(), None);
        // So is a u32 spelled in more than 5 bytes, which the u64
        // decoder still reads.
        let padded = [0x81u8, 0x80, 0x80, 0x80, 0x80, 0x00];
        assert_eq!(Reader::new(&padded).try_get_varint_u64(), Some(1));
        assert_eq!(Reader::new(&padded).try_get_varint_u32(), None);
    }

    #[test]
    fn zigzag_boundaries() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN, 1 << 40, -(1 << 40)] {
            assert_eq!(unzigzag(zigzag(v)), v, "value {v}");
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn seeded_varint_loop() {
        let mut mix = Mix(42);
        for i in 0..4_000u64 {
            // Bias toward small values and boundary magnitudes.
            let raw = mix.next();
            let v = match i % 4 {
                0 => raw % 256,
                1 => raw % (1 << 14),
                2 => raw >> (raw % 64),
                _ => raw,
            };
            varint_u64_roundtrip(v);
        }
    }

    fn columns_roundtrip(c: &dyn Codec, vals: &[u32]) {
        let mut asc = vals.to_vec();
        asc.sort_unstable();
        let mut w = Writer::new();
        c.put_ascending_u32s(&mut w, &asc);
        c.put_clustered_u32s(&mut w, vals);
        c.put_packed_u32s(&mut w, vals);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let (mut a, mut b, mut p) = (Vec::new(), Vec::new(), Vec::new());
        c.get_ascending_u32s(&mut r, asc.len(), &mut a);
        c.get_clustered_u32s(&mut r, vals.len(), &mut b);
        c.get_packed_u32s(&mut r, vals.len(), &mut p);
        assert_eq!(a, asc);
        assert_eq!(b, vals);
        assert_eq!(p, vals);
        assert!(r.is_exhausted());
    }

    #[test]
    fn u32_columns_boundaries_both_codecs() {
        for id in CodecId::ALL {
            let c = codec(id);
            columns_roundtrip(c, &[]);
            columns_roundtrip(c, &[0]);
            columns_roundtrip(c, &[1]);
            columns_roundtrip(c, &[u32::MAX]);
            columns_roundtrip(c, &[0, u32::MAX, 0, u32::MAX]);
            columns_roundtrip(c, &[7; 513]); // max-length constant run
            let ramp: Vec<u32> = (0..2_048u32).collect();
            columns_roundtrip(c, &ramp);
        }
    }

    #[test]
    fn seeded_u32_column_loop_both_codecs() {
        let mut mix = Mix(7);
        for round in 0..64 {
            let n = (mix.next() % 200) as usize;
            let vals: Vec<u32> = (0..n)
                .map(|_| {
                    let raw = mix.next();
                    match round % 3 {
                        0 => (raw % 1024) as u32,
                        1 => (raw >> (raw % 33)) as u32,
                        _ => raw as u32,
                    }
                })
                .collect();
            for id in CodecId::ALL {
                columns_roundtrip(codec(id), &vals);
            }
        }
    }

    #[test]
    fn packed_u32s_pack_tightly() {
        let c = codec(CodecId::Columnar);
        let mut w = Writer::new();
        c.put_packed_u32s(&mut w, &[0; 100]);
        assert_eq!(w.len(), 1, "all-zero column is one width byte");
        let mut w = Writer::new();
        c.put_packed_u32s(&mut w, &[1; 100]);
        assert_eq!(w.len(), 1 + 100usize.div_ceil(8), "1-bit column");
        let mut w = Writer::new();
        c.put_packed_u32s(&mut w, &[u32::MAX; 3]);
        assert_eq!(w.len(), 1 + 12, "32-bit column falls back to full width");
    }

    fn f64_columns_roundtrip(c: &dyn Codec, vals: &[f64], base: &[f64]) {
        let mut w = Writer::new();
        c.put_f64s(&mut w, vals);
        c.put_f64s_vs(&mut w, vals, base);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        c.get_f64s(&mut r, vals.len(), &mut a);
        c.get_f64s_vs(&mut r, vals.len(), base, &mut b);
        assert!(r.is_exhausted());
        // Bit-exact, including NaN payloads and signed zeros.
        let bits = |xs: &[f64]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(vals));
        assert_eq!(bits(&b), bits(vals));
    }

    #[test]
    fn f64_columns_boundaries_both_codecs() {
        let edge = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for id in CodecId::ALL {
            let c = codec(id);
            f64_columns_roundtrip(c, &[], &[]);
            f64_columns_roundtrip(c, &edge, &edge);
            let rev: Vec<f64> = edge.iter().rev().copied().collect();
            f64_columns_roundtrip(c, &edge, &rev);
            f64_columns_roundtrip(c, &[2.5; 300], &[2.5; 300]); // long equal run
        }
    }

    #[test]
    fn seeded_f64_column_loop_both_codecs() {
        let mut mix = Mix(99);
        for _ in 0..48 {
            let n = (mix.next() % 120) as usize;
            let vals: Vec<f64> = (0..n).map(|_| f64::from_bits(mix.next())).collect();
            let base: Vec<f64> = vals.iter().map(|v| v * 0.5).collect();
            for id in CodecId::ALL {
                f64_columns_roundtrip(codec(id), &vals, &base);
            }
        }
    }

    #[test]
    fn xor_f64_collapses_equal_values() {
        let c = codec(CodecId::Columnar);
        let mut w = Writer::new();
        c.put_f64s(&mut w, &[3.25; 64]);
        assert_eq!(w.len(), 9, "first value raw, then the width byte alone");
        let mut w = Writer::new();
        c.put_f64s_vs(&mut w, &[1.5; 64], &[1.5; 64]);
        assert_eq!(w.len(), 1, "degenerate column is its width byte");
    }

    /// `n` values whose XOR residues (against the predecessor, and against
    /// `base`) all need exactly `width` bytes.
    fn f64s_of_width(width: usize, n: usize) -> (Vec<f64>, Vec<f64>) {
        let step = if width == 0 {
            0
        } else {
            0xA5u64 << (8 * (width - 1))
        };
        let bits = |i: usize| 0x3FE0_0000_0000_0000 ^ if i % 2 == 1 { step } else { 0 };
        let vals: Vec<f64> = (0..n).map(|i| f64::from_bits(bits(i))).collect();
        let base: Vec<f64> = (0..n).map(|i| f64::from_bits(bits(i) ^ step)).collect();
        (vals, base)
    }

    #[test]
    fn f64_columns_hit_every_width_and_tiny_lengths() {
        let c = codec(CodecId::Columnar);
        for width in 0..=8usize {
            for n in [0usize, 1, 2, 3, 9, 40] {
                let (vals, base) = f64s_of_width(width, n);
                f64_columns_roundtrip(c, &vals, &base);
                let mut w = Writer::new();
                c.put_f64s(&mut w, &vals);
                let want = match n {
                    0 => 0,
                    1 => 8,
                    _ => 8 + 1 + (n - 1) * width,
                };
                assert_eq!(w.len(), want, "put_f64s width {width} n {n}");
                let mut w = Writer::new();
                c.put_f64s_vs(&mut w, &vals, &base);
                let want = if n == 0 { 0 } else { 1 + n * width };
                assert_eq!(w.len(), want, "put_f64s_vs width {width} n {n}");
            }
        }
    }

    /// A column at the very end of a record has no word to over-read
    /// into; one followed by other bytes does. Both decode the same.
    #[test]
    fn f64_columns_decode_the_same_at_the_record_tail() {
        let c = codec(CodecId::Columnar);
        for width in 0..=8usize {
            let (vals, base) = f64s_of_width(width, 11);
            for trailing in 0..10usize {
                let mut w = Writer::new();
                c.put_f64s_vs(&mut w, &vals, &base);
                let column_len = w.len();
                w.put_bytes(&vec![0xFF; trailing]);
                let bytes = w.into_bytes();
                let mut r = Reader::new(&bytes);
                let mut out = Vec::new();
                c.get_f64s_vs(&mut r, vals.len(), &base, &mut out);
                assert_eq!(r.position(), column_len);
                assert_eq!(out, vals, "width {width}, {trailing} bytes after");
            }
        }
    }

    #[test]
    fn f64_columns_reject_every_truncation() {
        for width in 0..=8usize {
            for n in [1usize, 2, 9] {
                let (vals, base) = f64s_of_width(width, n);
                let c = Columnar;
                let (mut prev, mut vs) = (Writer::new(), Writer::new());
                c.put_f64s(&mut prev, &vals);
                c.put_f64s_vs(&mut vs, &vals, &base);
                let (prev, vs) = (prev.into_bytes(), vs.into_bytes());
                for cut in 0..prev.len() {
                    let res = std::panic::catch_unwind(|| {
                        let mut out = Vec::new();
                        c.get_f64s(&mut Reader::new(&prev[..cut]), n, &mut out);
                    });
                    assert!(res.is_err(), "get_f64s width {width} n {n} cut {cut}");
                }
                for cut in 0..vs.len() {
                    let res = std::panic::catch_unwind(|| {
                        let mut out = Vec::new();
                        c.get_f64s_vs(&mut Reader::new(&vs[..cut]), n, &base, &mut out);
                    });
                    assert!(res.is_err(), "get_f64s_vs width {width} n {n} cut {cut}");
                }
            }
        }
        // A width byte no writer produces.
        let res = std::panic::catch_unwind(|| {
            let bytes = [9u8; 32];
            let mut out = Vec::new();
            Columnar.get_f64s_vs(&mut Reader::new(&bytes), 2, &[0.0; 2], &mut out);
        });
        assert!(res.is_err(), "width 9 must be rejected");
    }

    #[test]
    fn columnar_decoders_reject_truncated_records() {
        let c = codec(CodecId::Columnar);
        let mut w = Writer::new();
        c.put_ascending_u32s(&mut w, &[5, 300, 70_000]);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let truncated = &bytes[..cut];
            let res = std::panic::catch_unwind(|| {
                let mut out = Vec::new();
                codec(CodecId::Columnar).get_ascending_u32s(
                    &mut Reader::new(truncated),
                    3,
                    &mut out,
                );
                out
            });
            assert!(res.is_err(), "cut {cut} must be rejected");
        }
    }
}
