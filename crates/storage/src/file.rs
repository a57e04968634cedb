//! Persisting [`BlockFile`]s to real files.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic "MBRS"  u32 version  u8 codec-id  u32 record-count
//! record-count × u64 record length
//! ⌈record-count / 8⌉ bytes of freed-flag bitmap (LSB-first)
//! concatenated record payloads
//! ```
//!
//! The format is deliberately dumb — the simulated-disk abstraction stays
//! the unit of I/O accounting; persistence only lets an index built once
//! be reopened later, as a disk-resident index should.
//!
//! Version 2 added the codec id and the freed bitmap. The codec stamp is
//! what lets a reader decode records written under a non-default codec;
//! the bitmap keeps footprint accounting exact across a save/load cycle —
//! version 1 dropped the freed flags, so a reopened file counted freed
//! placeholders as live empty records and `live_records()` /
//! `freed_records()` (and with them the engines' compaction triggers)
//! drifted from the in-memory truth.
//!
//! Version 3 marks the switch to the fixed-stride, structure-of-arrays v2
//! record layout for Verbatim tree nodes and inverted files (the layout
//! the zero-copy `NodeRef` readers decode in place). The container format
//! itself is unchanged, but payloads written under the old interleaved
//! layout would decode to garbage, so the version stamp fences them off.
//!
//! Version 4 marks the change of the Columnar float columns from one
//! LEB128 varint per XOR'd value to fixed-width residues (first value raw,
//! a width byte, then that many bytes per value — see
//! [`Codec::put_f64s`](crate::Codec::put_f64s)). The container is again
//! unchanged and Verbatim payloads are byte-identical to version 3, but a
//! version-3 Columnar payload would decode to garbage, so both are fenced.
//!
//! Version 5 marks the Columnar inverted file's new directory: one run of
//! interleaved `(term delta, list length, list size)` varint triples led by
//! its own byte length, where version 4 led with a term count and stored
//! the three as separate columns. Verbatim payloads and every other
//! Columnar record are byte-identical to version 4.

use std::io::{self, Read as _, Write as _};
use std::path::Path;

use crate::codec::CodecId;
use crate::{BlockFile, RecordId};

const MAGIC: &[u8; 4] = b"MBRS";
const VERSION: u32 = 5;

/// Writes a [`BlockFile`] to `path`, overwriting any previous content.
pub fn save_blockfile(bf: &BlockFile, path: &Path) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(MAGIC)?;
    out.write_all(&VERSION.to_le_bytes())?;
    out.write_all(&[bf.codec().as_u8()])?;
    out.write_all(&(bf.len() as u32).to_le_bytes())?;
    // `raw` tolerates freed records: they persist as empty payloads, and
    // the bitmap below records which slots those are so a reopened file
    // reproduces the exact live/freed accounting.
    for i in 0..bf.len() {
        out.write_all(&(bf.raw(i).len() as u64).to_le_bytes())?;
    }
    let mut bitmap = vec![0u8; bf.len().div_ceil(8)];
    for i in 0..bf.len() {
        if bf.is_freed(RecordId(i as u32)) {
            bitmap[i / 8] |= 1 << (i % 8);
        }
    }
    out.write_all(&bitmap)?;
    for i in 0..bf.len() {
        out.write_all(bf.raw(i))?;
    }
    out.flush()
}

/// Reads a [`BlockFile`] previously written by [`save_blockfile`].
pub fn load_blockfile(path: &Path) -> io::Result<BlockFile> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let mut input = io::BufReader::new(std::fs::File::open(path)?);
    let mut head = [0u8; 13];
    input.read_exact(&mut head)?;
    if &head[0..4] != MAGIC {
        return Err(bad("bad magic"));
    }
    let version = u32::from_le_bytes(head[4..8].try_into().unwrap());
    if version != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported version {version}"),
        ));
    }
    let codec = CodecId::from_u8(head[8]).ok_or_else(|| bad("unknown codec id"))?;
    let count = u32::from_le_bytes(head[9..13].try_into().unwrap()) as usize;

    let mut lens = Vec::with_capacity(count);
    let mut lenbuf = [0u8; 8];
    for _ in 0..count {
        input.read_exact(&mut lenbuf)?;
        lens.push(u64::from_le_bytes(lenbuf) as usize);
    }
    let mut bitmap = vec![0u8; count.div_ceil(8)];
    input.read_exact(&mut bitmap)?;

    let mut bf = BlockFile::with_codec(codec);
    let mut buf = Vec::new();
    for (i, len) in lens.into_iter().enumerate() {
        let freed = bitmap[i / 8] & (1 << (i % 8)) != 0;
        if freed && len != 0 {
            return Err(bad("freed record with non-empty payload"));
        }
        buf.resize(len, 0);
        input.read_exact(&mut buf)?;
        let id = bf.put(&buf);
        if freed {
            bf.free(id);
        }
    }
    Ok(bf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("mbrstk-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn roundtrip() {
        let mut bf = BlockFile::new();
        bf.put(b"hello");
        bf.put(b"");
        bf.put(&[0u8; 5000]);
        let path = tmp("roundtrip.bin");
        save_blockfile(&bf, &path).unwrap();
        let loaded = load_blockfile(&path).unwrap();
        assert_eq!(loaded.len(), 3);
        assert_eq!(loaded.get(crate::RecordId(0)), b"hello");
        assert_eq!(loaded.get(crate::RecordId(1)), b"");
        assert_eq!(loaded.get(crate::RecordId(2)), &[0u8; 5000]);
        assert_eq!(loaded.bytes(), bf.bytes());
        assert_eq!(loaded.codec(), CodecId::Verbatim);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn empty_file_roundtrips() {
        let bf = BlockFile::new();
        let path = tmp("empty.bin");
        save_blockfile(&bf, &path).unwrap();
        assert_eq!(load_blockfile(&path).unwrap().len(), 0);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bad_magic_rejected() {
        let path = tmp("junk.bin");
        std::fs::write(&path, b"JUNKJUNKJUNKJUNK").unwrap();
        assert!(load_blockfile(&path).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn unknown_codec_rejected() {
        let bf = BlockFile::new();
        let path = tmp("badcodec.bin");
        save_blockfile(&bf, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] = 0xEE; // clobber the codec id
        std::fs::write(&path, bytes).unwrap();
        assert!(load_blockfile(&path).is_err());
        std::fs::remove_file(path).ok();
    }

    /// A file written before the Columnar inverted-file directory changed
    /// must not load: its records would decode to a wrong tree, or panic
    /// mid-query.
    #[test]
    fn previous_version_rejected_as_invalid_data() {
        let mut bf = BlockFile::with_codec(CodecId::Columnar);
        bf.put(b"payload");
        let path = tmp("v4.bin");
        save_blockfile(&bf, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[4..8], VERSION.to_le_bytes());
        bytes[4..8].copy_from_slice(&4u32.to_le_bytes());
        std::fs::write(&path, bytes).unwrap();
        let err = load_blockfile(&path).unwrap_err();
        std::fs::remove_file(path).ok();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version 4"), "{err}");
    }

    /// The regression this version of the format fixes: freed slots used
    /// to reopen as live empty records, so every footprint accessor lied
    /// after a save/load cycle.
    #[test]
    fn freed_records_survive_roundtrip_exactly() {
        let mut bf = BlockFile::with_codec(CodecId::Columnar);
        let a = bf.put(&[1u8; 100]);
        bf.put(&[2u8; 50]);
        let c = bf.put(&[3u8; 4097]);
        bf.free(a);
        bf.free(c);

        let path = tmp("freed.bin");
        save_blockfile(&bf, &path).unwrap();
        let loaded = load_blockfile(&path).unwrap();
        std::fs::remove_file(path).ok();

        assert_eq!(loaded.codec(), CodecId::Columnar);
        assert_eq!(loaded.len(), bf.len());
        assert_eq!(loaded.live_records(), 1);
        assert_eq!(loaded.freed_records(), 2);
        assert_eq!(loaded.bytes(), 50);
        assert_eq!(loaded.live_payload_blocks(), bf.live_payload_blocks());
        assert!(loaded.is_freed(a) && loaded.is_freed(c));
        // A stale pointer into the reopened file still fails loudly.
        assert!(std::panic::catch_unwind(|| loaded.get(a)).is_err());
    }
}
