//! Journal framing: the `DITTOWAL` header, `[len][crc][payload]` frames,
//! and the torn-tail-aware stream decoder.

use super::record::{decode_record, JournalRecord};
use crate::error::ExecError;
use ditto_storage::checksum64;

/// Journal file magic: the first 8 bytes of every journal.
pub(crate) const JOURNAL_MAGIC: [u8; 8] = *b"DITTOWAL";
/// Journal format version (header byte 9). Version 2 made a
/// `StageComplete` checkpoint a delta with an ordinal; version 1 journals
/// are rejected, not read.
pub(crate) const JOURNAL_VERSION: u8 = 2;
/// Header length: magic + version byte.
pub(crate) const JOURNAL_HEADER_LEN: usize = 9;
/// Frame head length: `[len: u32][crc: u64]`.
pub(super) const FRAME_HEAD_LEN: usize = 12;
/// Seed for the per-frame payload checksum.
pub const JOURNAL_SEED: u64 = 0xD177_0A11_0F4A_C0DE;
/// Maximum frame payload size accepted by the decoder.
pub(crate) const MAX_FRAME: usize = 64 << 20;

/// Why [`decode_journal`] stopped before the end of the byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TornReason {
    /// The remaining bytes are shorter than the frame they announce (the
    /// classic torn tail of a crash mid-append).
    Truncated,
    /// A full frame was present but its payload failed the CRC check.
    ChecksumMismatch,
    /// The frame length field is zero or beyond [`MAX_FRAME`].
    BadLength,
}

impl TornReason {
    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            TornReason::Truncated => "truncated",
            TornReason::ChecksumMismatch => "checksum-mismatch",
            TornReason::BadLength => "bad-length",
        }
    }
}

/// Exact provenance of a torn or corrupt journal tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TornTail {
    /// Index of the first unreadable record (== count of durable records).
    pub at_record: u64,
    /// Byte length of the durable prefix (header + intact frames).
    pub byte_offset: usize,
    /// What was wrong with the tail.
    pub reason: TornReason,
}

/// A decoded journal: the durable record prefix plus tail provenance.
#[derive(Debug, Clone)]
pub struct DecodedJournal {
    /// All intact records, in append order.
    pub records: Vec<JournalRecord>,
    /// Present iff the byte stream did not end exactly on a frame
    /// boundary.
    pub torn: Option<TornTail>,
    /// Byte length of the durable prefix (equals the input length when
    /// the journal is clean).
    pub durable_len: usize,
}

/// Append one frame whose payload `encode` writes straight into `buf`:
/// the head is reserved first and its length and checksum patched in
/// place afterwards, so a frame is built without a second buffer. Returns
/// the frame's start offset.
pub(super) fn frame_with(buf: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) -> usize {
    let start = buf.len();
    buf.extend_from_slice(&[0; FRAME_HEAD_LEN]);
    encode(buf);
    let (head, payload) = buf[start..].split_at_mut(FRAME_HEAD_LEN);
    head[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    head[4..].copy_from_slice(&checksum64(payload, JOURNAL_SEED).to_le_bytes());
    start
}

/// The admitted job shape so far, and every checkpoint's indices checked
/// against it (a checkpoint ahead of any admission fits no job).
fn check_shape(rec: &JournalRecord, shape: &mut (u32, u32)) -> Result<(), String> {
    match rec {
        JournalRecord::JobAdmit { stages, edges, .. } => *shape = (*stages, *edges),
        JournalRecord::StageComplete(cp) => cp.check_shape(shape.0, shape.1)?,
        _ => {}
    }
    Ok(())
}

/// Decode a journal byte stream: header check, then frames until the end
/// or the first torn/corrupt frame. A bad header is a hard error; a bad
/// *tail* is expected after a crash and reported as `TornTail` with the
/// exact record index and durable byte offset.
pub fn decode_journal(bytes: &[u8]) -> Result<DecodedJournal, ExecError> {
    if bytes.len() < JOURNAL_HEADER_LEN || bytes[..8] != JOURNAL_MAGIC {
        return Err(ExecError::Journal("missing DITTOWAL header".into()));
    }
    if bytes[8] != JOURNAL_VERSION {
        return Err(ExecError::Journal(format!(
            "unsupported journal version {}",
            bytes[8]
        )));
    }
    // Sized from the byte length (a typical record is a ~33-byte object
    // commit; 64 bytes a record keeps the guess under the input's size).
    let mut records = Vec::with_capacity((bytes.len() - JOURNAL_HEADER_LEN) / 64);
    let mut shape = (0, 0);
    let mut pos = JOURNAL_HEADER_LEN;
    let mut torn = None;
    while pos < bytes.len() {
        let rem = bytes.len() - pos;
        let tear = |reason| TornTail {
            at_record: records.len() as u64,
            byte_offset: pos,
            reason,
        };
        // `[len: 4][crc: 8]`, read as fixed-size chunks: fewer than 12
        // bytes left is the torn tail of a crash mid-append.
        let head = bytes[pos..]
            .split_first_chunk::<4>()
            .and_then(|(len, rest)| Some((*len, *rest.first_chunk::<8>()?)));
        let Some((len, crc)) = head else {
            torn = Some(tear(TornReason::Truncated));
            break;
        };
        let len = u32::from_le_bytes(len) as usize;
        if len == 0 || len > MAX_FRAME {
            torn = Some(tear(TornReason::BadLength));
            break;
        }
        if len > rem - FRAME_HEAD_LEN {
            torn = Some(tear(TornReason::Truncated));
            break;
        }
        let crc = u64::from_le_bytes(crc);
        let payload = &bytes[pos + FRAME_HEAD_LEN..pos + FRAME_HEAD_LEN + len];
        if checksum64(payload, JOURNAL_SEED) != crc {
            torn = Some(tear(TornReason::ChecksumMismatch));
            break;
        }
        let rec = decode_record(payload)
            .and_then(|rec| check_shape(&rec, &mut shape).map(|()| rec))
            .map_err(|e| {
                ExecError::Journal(format!(
                    "record {} is CRC-valid but malformed: {e}",
                    records.len()
                ))
            })?;
        records.push(rec);
        pos += FRAME_HEAD_LEN + len;
    }
    let durable_len = torn.map_or(bytes.len(), |t| t.byte_offset);
    Ok(DecodedJournal {
        records,
        torn,
        durable_len,
    })
}

