//! Error types of the KV-store.

use cosmos_sim::FlashError;
use std::fmt;

/// Result alias for store operations.
pub type NkvResult<T> = Result<T, NkvError>;

/// Errors surfaced by the KV-store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NkvError {
    /// Underlying flash access failed (ECC, unwritten, out of range).
    Flash(FlashError),
    /// A data block failed its CRC check (corruption detected).
    CorruptBlock { sst_id: u64, block: usize },
    /// Unknown table name.
    UnknownTable(String),
    /// A record of the wrong size was handed to a fixed-record table.
    RecordSizeMismatch { table: String, expected: usize, got: usize },
    /// Records handed to the bulk loader were not in strictly ascending
    /// key order.
    UnsortedBulkLoad { table: String, prev: u64, next: u64 },
    /// A filter rule references a lane the table's layout does not have.
    InvalidLane { table: String, lane: u32 },
    /// The device ran out of flash pages.
    OutOfSpace,
    /// Invalid PE/table configuration.
    Config(String),
    /// A hand-crafted table asked for a capability the PEs of \[1\] do
    /// not have (more than one stage, a custom operator, an aggregation
    /// unit).
    UnsupportedByBaseline { parser: String, reason: String },
    /// A persisted structure (SST index page, manifest, data block
    /// record) was truncated or malformed: decoding `what` needed
    /// `need` bytes at `offset` of a `len`-byte buffer.
    Corrupt { what: &'static str, offset: usize, need: usize, len: usize },
    /// A transiently failing page read did not recover within the
    /// firmware's retry budget.
    RetriesExhausted { sst_id: u64, block: usize, attempts: u32 },
    /// A cluster shard could not serve the operation (quarantined,
    /// dead, or rejected by a device-level fault) and the query ran
    /// under the `Strict` read policy. `Available`-policy reads report
    /// the same condition as `missing_shards` instead of failing.
    ShardUnavailable { shard: usize, reason: String },
}

impl fmt::Display for NkvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NkvError::Flash(e) => write!(f, "flash error: {e}"),
            NkvError::CorruptBlock { sst_id, block } => {
                write!(f, "CRC mismatch in SST {sst_id}, block {block}")
            }
            NkvError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            NkvError::RecordSizeMismatch { table, expected, got } => {
                write!(f, "table `{table}` stores {expected}-byte records, got {got} bytes")
            }
            NkvError::UnsortedBulkLoad { table, prev, next } => {
                write!(f, "bulk load into `{table}` not sorted: key {next} after {prev}")
            }
            NkvError::InvalidLane { table, lane } => {
                write!(f, "table `{table}` has no comparator lane {lane}")
            }
            NkvError::OutOfSpace => write!(f, "flash capacity exhausted"),
            NkvError::Config(msg) => write!(f, "configuration error: {msg}"),
            NkvError::UnsupportedByBaseline { parser, reason } => write!(
                f,
                "configuration error: parser `{parser}`: {reason} is not supported by the [1] baseline"
            ),
            NkvError::Corrupt { what, offset, need, len } => {
                write!(f, "corrupt {what}: need {need} bytes at offset {offset}, have {len}")
            }
            NkvError::RetriesExhausted { sst_id, block, attempts } => write!(
                f,
                "read of SST {sst_id} block {block} still failing after {attempts} attempts"
            ),
            NkvError::ShardUnavailable { shard, reason } => {
                write!(f, "shard {shard} unavailable: {reason}")
            }
        }
    }
}

impl std::error::Error for NkvError {}

impl From<FlashError> for NkvError {
    fn from(e: FlashError) -> Self {
        NkvError::Flash(e)
    }
}

impl From<ndp_ir::IrError> for NkvError {
    fn from(e: ndp_ir::IrError) -> Self {
        match e {
            ndp_ir::IrError::UnsupportedByBaseline { parser, reason } => {
                NkvError::UnsupportedByBaseline { parser, reason }
            }
            e => NkvError::Config(e.to_string()),
        }
    }
}
