//! Bookkeeping for incremental index mutations.
//!
//! The disk-resident trees are updated copy-on-write: a mutation rewrites
//! the affected root-to-leaf path as fresh records and frees the
//! superseded ones ([`storage::BlockFile::free`]). [`TreeEdit`] reports
//! what one such mutation did — which page-cache keys went stale (the
//! engine flushes them from any attached [`storage::ShardedLru`]) and how
//! much maintenance I/O the paper's cost model assigns to it (1 simulated
//! I/O per node record touched, ⌈bytes / 4096⌉ per textual payload). That
//! is the number the benchmark's `core.dynamic.maint_io_per_mutation` row
//! records.

/// What one tree mutation did to the disk-resident structure.
#[derive(Debug, Clone, Default)]
pub struct TreeEdit {
    /// Page-cache keys of every record this mutation rewrote or freed.
    /// Stale by construction: the records they name no longer back the
    /// tree, so any cached copy must be flushed.
    pub stale_keys: Vec<u64>,
    /// Simulated I/Os spent *reading* while locating and repairing the
    /// affected path (node records plus their textual payloads).
    pub read_ios: u64,
    /// Node records written (1 simulated I/O each).
    pub node_writes: u64,
    /// 4 KB blocks of textual payload (inverted files / IntUni vectors)
    /// written.
    pub payload_blocks: u64,
}

impl TreeEdit {
    /// Total simulated maintenance I/O (reads plus writes).
    pub fn io_total(&self) -> u64 {
        self.read_ios + self.node_writes + self.payload_blocks
    }

    /// Folds another edit into this one (orphan reinsertion during node
    /// dissolution, or multi-tree engine mutations).
    pub fn absorb(&mut self, other: TreeEdit) {
        self.stale_keys.extend(other.stale_keys);
        self.read_ios += other.read_ios;
        self.node_writes += other.node_writes;
        self.payload_blocks += other.payload_blocks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_counters_and_concatenates_keys() {
        let mut a = TreeEdit {
            stale_keys: vec![1, 2],
            read_ios: 3,
            node_writes: 2,
            payload_blocks: 1,
        };
        a.absorb(TreeEdit {
            stale_keys: vec![9],
            read_ios: 1,
            node_writes: 1,
            payload_blocks: 4,
        });
        assert_eq!(a.stale_keys, vec![1, 2, 9]);
        assert_eq!(a.io_total(), 3 + 1 + 2 + 1 + 1 + 4);
    }
}
