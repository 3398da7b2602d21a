//! The retained trace store, with JSONL (de)serialization.
//!
//! A [`Trace`] holds a whole campaign in memory. The experiments and
//! examples never build one: they fold the record stream as it arrives
//! (see [`crate::sink`]). The store keeps two duties. It is the oracle
//! the retained ≡ live and full ≡ hybrid tests compare against, and it
//! is what perfbench's `paper_repro` workload measures, which makes that
//! workload the chunk codec's one user outside tests and benches.
//!
//! Messages live in [`MessageColumns`]: an uncompressed
//! structure-of-arrays *tail* that absorbs appends, sealed into
//! immutable per-column-compressed chunks of [`CHUNK_ROWS`] rows as it
//! fills (see [`crate::chunk`] for the codec: frame-of-reference
//! bit-packed timestamps/session ids/wire lengths, dictionary-coded
//! `QueryId`s against the process-global interner, bit-packed
//! kinds/hops/TTL, entropy-elided GUIDs). A row costs ~39 bytes flat
//! and ~20–24 bytes sealed.
//!
//! The public API stays record-shaped: [`MessageColumns::push`] takes a
//! [`MessageRecord`], iteration yields [`MessageRecord`]s by value
//! (everything in a record is `Copy`), and serde round-trips through the
//! record form so the JSONL interchange format is byte-identical to the
//! row-oriented store. Every read is sequential. Passes that want the
//! column layout iterate decoded batches via
//! [`MessageColumns::for_each_batch`]; the analysis pipeline reads the
//! selective [`MessageColumns::for_each_one_hop_query`] scan; record
//! consumers (export, equality, tests) use [`MessageColumns::cursor`],
//! which decodes each chunk exactly once into its own scratch buffer.

use crate::chunk::{self, ChunkBatch};
use crate::record::{ConnectionRecord, MessageRecord, RecordedPayload, SessionId};
use gnutella::{Guid, QueryId};
use serde::{Deserialize, Serialize};
use simnet::SimTime;
use std::io::{self, BufRead, Write};
use std::net::Ipv4Addr;
use telemetry::{Counter, Gauge};

/// Rows per sealed chunk. A power of two that is a whole multiple of the
/// collector's 8k drain batches, so seals land on drain boundaries; at
/// ~39 bytes of flat column data per row a chunk encodes ~2.5 MB of
/// input at a time.
pub const CHUNK_ROWS: usize = 65_536;

/// Discriminant column value: which payload a row carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MsgKind {
    /// PING keepalive.
    Ping = 0,
    /// PONG advertisement (side table: address + shared files).
    Pong = 1,
    /// QUERY (side table: interned text + SHA1 flag).
    Query = 2,
    /// QUERYHIT (side table: responder address + result count).
    QueryHit = 3,
    /// BYE.
    Bye = 4,
}

impl MsgKind {
    /// Inverse of `kind as u8` (panics on an invalid discriminant —
    /// chunk bytes are only ever produced by this process).
    pub fn from_u8(v: u8) -> MsgKind {
        match v {
            0 => MsgKind::Ping,
            1 => MsgKind::Pong,
            2 => MsgKind::Query,
            3 => MsgKind::QueryHit,
            4 => MsgKind::Bye,
            other => panic!("invalid MsgKind discriminant {other}"),
        }
    }
}

/// The uncompressed tail: plain parallel vectors, append-only,
/// drained into a sealed chunk when it reaches the chunk size. This is
/// the old flat SoA layout; payload side tables are kept as separate
/// parallel vectors per field so sealing can hand the codec borrowed
/// column slices directly.
#[derive(Debug, Clone, Default)]
struct FlatColumns {
    session: Vec<u32>,
    guid: Vec<Guid>,
    at: Vec<SimTime>,
    hops: Vec<u8>,
    ttl: Vec<u8>,
    kind: Vec<MsgKind>,
    arg: Vec<u32>,
    wire_len: Vec<u32>,
    pong_addr: Vec<Ipv4Addr>,
    pong_files: Vec<u32>,
    query_id: Vec<u32>,
    query_sha1: Vec<bool>,
    hit_addr: Vec<Ipv4Addr>,
    hit_results: Vec<u8>,
}

impl FlatColumns {
    fn len(&self) -> usize {
        self.at.len()
    }

    fn is_empty(&self) -> bool {
        self.at.is_empty()
    }

    fn reserve(&mut self, n: usize) {
        self.session.reserve(n);
        self.guid.reserve(n);
        self.at.reserve(n);
        self.hops.reserve(n);
        self.ttl.reserve(n);
        self.kind.reserve(n);
        self.arg.reserve(n);
        self.wire_len.reserve(n);
    }

    /// Columnar batch append, the tail's one append path: one
    /// sequential pass fills the per-kind side tables plus the
    /// data-dependent `kind`/`arg` columns, then the six remaining
    /// columns extend in bulk — one reserve + bounds check per column
    /// per batch instead of eight `push` calls per record. Side-table
    /// rows are appended in record order, so a record's `arg` index does
    /// not depend on how the records were batched.
    fn extend_batch(&mut self, records: &[MessageRecord], wire_lens: &[u32]) {
        debug_assert_eq!(records.len(), wire_lens.len());
        self.reserve(records.len());
        for rec in records {
            let arg = match rec.payload {
                RecordedPayload::Ping | RecordedPayload::Bye => 0,
                RecordedPayload::Pong { addr, shared_files } => {
                    self.pong_addr.push(addr);
                    self.pong_files.push(shared_files);
                    (self.pong_addr.len() - 1) as u32
                }
                RecordedPayload::Query { text, sha1 } => {
                    self.query_id.push(text.raw());
                    self.query_sha1.push(sha1);
                    (self.query_id.len() - 1) as u32
                }
                RecordedPayload::QueryHit { addr, results } => {
                    self.hit_addr.push(addr);
                    self.hit_results.push(results);
                    (self.hit_addr.len() - 1) as u32
                }
            };
            self.kind.push(kind_of(&rec.payload));
            self.arg.push(arg);
        }
        self.session.extend(
            records
                .iter()
                .map(|r| u32::try_from(r.session.0).expect("session id exceeds u32 range")),
        );
        self.guid.extend(records.iter().map(|r| r.guid));
        self.at.extend(records.iter().map(|r| r.at));
        self.hops.extend(records.iter().map(|r| r.hops));
        self.ttl.extend(records.iter().map(|r| r.ttl));
        self.wire_len.extend_from_slice(wire_lens);
    }

    fn get(&self, i: usize) -> MessageRecord {
        let arg = self.arg[i] as usize;
        let payload = match self.kind[i] {
            MsgKind::Ping => RecordedPayload::Ping,
            MsgKind::Bye => RecordedPayload::Bye,
            MsgKind::Pong => RecordedPayload::Pong {
                addr: self.pong_addr[arg],
                shared_files: self.pong_files[arg],
            },
            MsgKind::Query => RecordedPayload::Query {
                text: QueryId::from_raw(self.query_id[arg]),
                sha1: self.query_sha1[arg],
            },
            MsgKind::QueryHit => RecordedPayload::QueryHit {
                addr: self.hit_addr[arg],
                results: self.hit_results[arg],
            },
        };
        MessageRecord {
            session: SessionId(u64::from(self.session[i])),
            guid: self.guid[i],
            at: self.at[i],
            hops: self.hops[i],
            ttl: self.ttl[i],
            payload,
        }
    }

    /// Reset for reuse after sealing, keeping allocations.
    fn clear(&mut self) {
        self.session.clear();
        self.guid.clear();
        self.at.clear();
        self.hops.clear();
        self.ttl.clear();
        self.kind.clear();
        self.arg.clear();
        self.wire_len.clear();
        self.pong_addr.clear();
        self.pong_files.clear();
        self.query_id.clear();
        self.query_sha1.clear();
        self.hit_addr.clear();
        self.hit_results.clear();
    }

    fn shrink_to_fit(&mut self) {
        self.session.shrink_to_fit();
        self.guid.shrink_to_fit();
        self.at.shrink_to_fit();
        self.hops.shrink_to_fit();
        self.ttl.shrink_to_fit();
        self.kind.shrink_to_fit();
        self.arg.shrink_to_fit();
        self.wire_len.shrink_to_fit();
        self.pong_addr.shrink_to_fit();
        self.pong_files.shrink_to_fit();
        self.query_id.shrink_to_fit();
        self.query_sha1.shrink_to_fit();
        self.hit_addr.shrink_to_fit();
        self.hit_results.shrink_to_fit();
    }

    fn as_chunk_source(&self) -> chunk::ChunkSource<'_> {
        chunk::ChunkSource {
            session: &self.session,
            at: &self.at,
            hops: &self.hops,
            ttl: &self.ttl,
            kind: &self.kind,
            guid: &self.guid,
            wire: &self.wire_len,
            pong_addr: &self.pong_addr,
            pong_files: &self.pong_files,
            query_id: &self.query_id,
            query_sha1: &self.query_sha1,
            hit_addr: &self.hit_addr,
            hit_results: &self.hit_results,
        }
    }

    /// Copy this run into a [`ChunkBatch`], so batch-wise consumers see
    /// the tail through the same interface as sealed chunks.
    fn fill_batch(&self, out: &mut ChunkBatch) {
        out.clear();
        out.session.extend_from_slice(&self.session);
        out.at_ms.extend(self.at.iter().map(|t| t.as_millis()));
        out.hops.extend_from_slice(&self.hops);
        out.ttl.extend_from_slice(&self.ttl);
        out.kind.extend(self.kind.iter().map(|&k| k as u8));
        out.arg.extend_from_slice(&self.arg);
        out.guid.extend_from_slice(&self.guid);
        out.wire.extend_from_slice(&self.wire_len);
        out.pong_addr.extend_from_slice(&self.pong_addr);
        out.pong_files.extend_from_slice(&self.pong_files);
        out.query_id.extend_from_slice(&self.query_id);
        out.query_sha1.extend_from_slice(&self.query_sha1);
        out.hit_addr.extend_from_slice(&self.hit_addr);
        out.hit_results.extend_from_slice(&self.hit_results);
    }

    /// Bytes of column data currently filled (not capacity) — the "raw"
    /// side of the chunk compression ratio.
    fn filled_bytes(&self) -> u64 {
        fn filled<T>(v: &[T]) -> u64 {
            std::mem::size_of_val(v) as u64
        }
        filled(&self.session)
            + filled(&self.guid)
            + filled(&self.at)
            + filled(&self.hops)
            + filled(&self.ttl)
            + filled(&self.kind)
            + filled(&self.arg)
            + filled(&self.wire_len)
            + filled(&self.pong_addr)
            + filled(&self.pong_files)
            + filled(&self.query_id)
            + filled(&self.query_sha1)
            + filled(&self.hit_addr)
            + filled(&self.hit_results)
    }

    /// Resident bytes, counted at capacity.
    fn mem_bytes(&self) -> u64 {
        fn cap<T>(v: &Vec<T>) -> u64 {
            (v.capacity() * std::mem::size_of::<T>()) as u64
        }
        cap(&self.session)
            + cap(&self.guid)
            + cap(&self.at)
            + cap(&self.hops)
            + cap(&self.ttl)
            + cap(&self.kind)
            + cap(&self.arg)
            + cap(&self.wire_len)
            + cap(&self.pong_addr)
            + cap(&self.pong_files)
            + cap(&self.query_id)
            + cap(&self.query_sha1)
            + cap(&self.hit_addr)
            + cap(&self.hit_results)
    }
}

/// Column store for messages: sealed compressed chunks plus a flat tail.
///
/// Rows are addressed by insertion index; the `wire_len` column is
/// in-memory provenance (like [`Trace::wire_bytes`]): it does not
/// survive the JSONL interchange format and does not participate in
/// equality.
pub struct MessageColumns {
    chunk_rows: usize,
    /// Encoded chunks. Every sealed chunk holds exactly `chunk_rows`
    /// rows, so row → chunk mapping is a division.
    sealed: Vec<Vec<u8>>,
    /// Rows covered by `sealed` — always `sealed.len() * chunk_rows`.
    rows_sealed: usize,
    tail: FlatColumns,
    raw_sealed_bytes: u64,
    encoded_sealed_bytes: u64,
    /// Reusable seal-time scratch (timestamp millis).
    encode_ms_scratch: Vec<u64>,
}

impl Default for MessageColumns {
    fn default() -> Self {
        MessageColumns {
            chunk_rows: CHUNK_ROWS,
            sealed: Vec::new(),
            rows_sealed: 0,
            tail: FlatColumns::default(),
            raw_sealed_bytes: 0,
            encoded_sealed_bytes: 0,
            encode_ms_scratch: Vec::new(),
        }
    }
}

impl Clone for MessageColumns {
    fn clone(&self) -> Self {
        MessageColumns {
            chunk_rows: self.chunk_rows,
            sealed: self.sealed.clone(),
            rows_sealed: self.rows_sealed,
            tail: self.tail.clone(),
            raw_sealed_bytes: self.raw_sealed_bytes,
            encoded_sealed_bytes: self.encoded_sealed_bytes,
            encode_ms_scratch: Vec::new(),
        }
    }
}

impl std::fmt::Debug for MessageColumns {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MessageColumns")
            .field("rows", &self.len())
            .field("sealed_chunks", &self.sealed.len())
            .field("chunk_rows", &self.chunk_rows)
            .field("encoded_sealed_bytes", &self.encoded_sealed_bytes)
            .finish()
    }
}

impl PartialEq for MessageColumns {
    fn eq(&self, other: &Self) -> bool {
        // Everything except `wire_len`, which is provenance, not data.
        if self.len() != other.len() {
            return false;
        }
        let mut a = self.cursor();
        let mut b = other.cursor();
        loop {
            match (a.next_with_wire(), b.next_with_wire()) {
                (Some((ra, _)), Some((rb, _))) => {
                    if ra != rb {
                        return false;
                    }
                }
                (None, None) => return true,
                _ => return false,
            }
        }
    }
}

impl MessageColumns {
    /// Empty store.
    pub fn new() -> Self {
        MessageColumns::default()
    }

    /// Empty store pre-reserved for `n` rows: the tail reserves at most
    /// one chunk (rows beyond that live compressed), the chunk directory
    /// reserves one slot per expected chunk. Side tables grow on demand.
    pub fn with_capacity(n: usize) -> Self {
        let mut cols = MessageColumns::default();
        cols.tail.reserve(n.min(cols.chunk_rows));
        cols.sealed.reserve(n / cols.chunk_rows);
        cols
    }

    /// Override the chunk size (tests and tools). Only valid on an
    /// empty store — sealed chunks are uniform.
    ///
    /// Panics if the store already holds rows or `chunk_rows` is 0.
    pub fn configure_chunks(&mut self, chunk_rows: usize) {
        assert!(
            self.is_empty() && self.sealed.is_empty(),
            "configure_chunks requires an empty store"
        );
        assert!(chunk_rows > 0, "chunk_rows must be positive");
        self.chunk_rows = chunk_rows;
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows_sealed + self.tail.len()
    }

    /// True when no rows have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a record with no wire-length accounting.
    pub fn push(&mut self, rec: MessageRecord) {
        self.push_with_wire(rec, 0);
    }

    /// Append a record, keeping `wire` bytes of provenance in the
    /// `wire_len` column: a one-record [`Self::push_batch`].
    pub fn push_with_wire(&mut self, rec: MessageRecord, wire: u32) {
        self.push_batch(&[rec], &[wire]);
    }

    /// Append a batch of records with their wire lengths (the
    /// [`crate::sink::TraceSink`] path, and the one append path).
    ///
    /// The batch is split at chunk-seal boundaries and each segment
    /// lands in the typed columns via `FlatColumns::extend_batch` —
    /// one reserve + bounds check per column per segment instead of
    /// eight per-record `push` calls. The tail seals exactly when it
    /// reaches `chunk_rows`, however the records were batched.
    pub fn push_batch(&mut self, mut records: &[MessageRecord], mut wire_lens: &[u32]) {
        debug_assert_eq!(records.len(), wire_lens.len());
        while !records.is_empty() {
            let room = self.chunk_rows - self.tail.len();
            let take = room.min(records.len());
            let (head, rest) = records.split_at(take);
            let (whead, wrest) = wire_lens.split_at(take);
            self.tail.extend_batch(head, whead);
            records = rest;
            wire_lens = wrest;
            if self.tail.len() == self.chunk_rows {
                self.seal_tail();
            }
        }
    }

    /// Encode the full tail into a sealed chunk and reset it.
    fn seal_tail(&mut self) {
        debug_assert_eq!(self.tail.len(), self.chunk_rows);
        let mut bytes = Vec::new();
        chunk::encode_chunk(
            &self.tail.as_chunk_source(),
            &mut self.encode_ms_scratch,
            &mut bytes,
        );
        self.raw_sealed_bytes += self.tail.filled_bytes();
        self.encoded_sealed_bytes += bytes.len() as u64;
        bytes.shrink_to_fit();
        self.sealed.push(bytes);
        self.rows_sealed += self.tail.len();
        self.tail.clear();

        let reg = telemetry::global();
        reg.incr(Counter::ChunkSeals);
        reg.gauge_max(Gauge::PeakTraceBytes, self.encoded_sealed_bytes);
    }

    /// Sequential reader with its own decode scratch: decodes each
    /// sealed chunk exactly once as the position crosses it. The record
    /// read path (export, equality, iteration).
    pub fn cursor(&self) -> MessageCursor<'_> {
        MessageCursor {
            cols: self,
            next: 0,
            chunk: usize::MAX,
            batch: ChunkBatch::default(),
        }
    }

    /// Iterate rows as reconstructed records (cursor-backed).
    pub fn iter(&self) -> impl Iterator<Item = MessageRecord> + '_ {
        let mut cur = self.cursor();
        std::iter::from_fn(move || cur.next_with_wire().map(|(rec, _)| rec))
    }

    /// Visit every decoded column batch in row order: each sealed chunk
    /// once, then the flat tail copied through the same [`ChunkBatch`]
    /// shape. Chunk-at-a-time kernels (trace stats) are written against
    /// this.
    pub fn for_each_batch(&self, mut f: impl FnMut(&ChunkBatch)) {
        let mut batch = ChunkBatch::default();
        for bytes in &self.sealed {
            chunk::decode_chunk(bytes, &mut batch);
            f(&batch);
        }
        if !self.tail.is_empty() {
            self.tail.fill_batch(&mut batch);
            f(&batch);
        }
    }

    /// Visit every hop-1 QUERY row without materializing records — the
    /// analysis pipeline's read path for retained traces. Sealed chunks use
    /// a selective decode that reads only the AT/SESSION/KIND/HOPS/QUERY
    /// sections (TTL, GUID, wire and the other side tables are skipped
    /// without being touched).
    pub fn for_each_one_hop_query(&self, mut f: impl FnMut(SessionId, SimTime, QueryId, bool)) {
        let mut scan = chunk::QueryScan::default();
        for bytes in &self.sealed {
            let view = chunk::decode_query_scan(bytes, &mut scan);
            let mut q = 0usize;
            let mut i = 0usize;
            view.kind.for_each(view.rows, |k| {
                if k == MsgKind::Query as u8 {
                    if view.hops.get(i) == 1 {
                        // Hops/timestamp/session unpacked here only —
                        // at the QUERY rows, not for the whole chunk.
                        f(
                            SessionId(u64::from(view.session.get(i))),
                            SimTime::from_millis(view.at.get(i)),
                            QueryId::from_raw(scan.query_id[q]),
                            scan.query_sha1[q],
                        );
                    }
                    q += 1;
                }
                i += 1;
            });
        }
        let t = &self.tail;
        for i in 0..t.len() {
            if t.kind[i] == MsgKind::Query && t.hops[i] == 1 {
                let a = t.arg[i] as usize;
                f(
                    SessionId(u64::from(t.session[i])),
                    t.at[i],
                    QueryId::from_raw(t.query_id[a]),
                    t.query_sha1[a],
                );
            }
        }
    }

    /// Resident bytes: the flat tail at capacity, the sealed chunks, the
    /// chunk directory, and the encode scratch buffer.
    pub fn mem_bytes(&self) -> u64 {
        let chunks: u64 = self.sealed.iter().map(|b| b.capacity() as u64).sum();
        let directory = (self.sealed.capacity() * std::mem::size_of::<Vec<u8>>()) as u64;
        let scratch = (self.encode_ms_scratch.capacity() * 8) as u64;
        self.tail.mem_bytes() + chunks + directory + scratch
    }

    /// Number of sealed (compressed) chunks.
    pub fn sealed_chunks(&self) -> usize {
        self.sealed.len()
    }

    /// Flat-column bytes per encoded byte over all sealed chunks
    /// (`None` until the first seal).
    pub fn compression_ratio(&self) -> Option<f64> {
        if self.encoded_sealed_bytes == 0 {
            None
        } else {
            Some(self.raw_sealed_bytes as f64 / self.encoded_sealed_bytes as f64)
        }
    }

    /// Drop scratch allocations (seal buffers) and shrink the tail. Call
    /// before snapshotting or unwrapping a finished trace so teardown
    /// copies don't carry dead capacity.
    pub fn compact(&mut self) {
        self.encode_ms_scratch = Vec::new();
        self.tail.shrink_to_fit();
    }
}

/// Sequential decoding reader over a [`MessageColumns`], with private
/// scratch buffers. Created by [`MessageColumns::cursor`].
pub struct MessageCursor<'a> {
    cols: &'a MessageColumns,
    next: usize,
    /// Chunk index currently decoded into `batch` (`usize::MAX`: none).
    chunk: usize,
    batch: ChunkBatch,
}

impl MessageCursor<'_> {
    fn ensure_chunk(&mut self, idx: usize) {
        if self.chunk != idx {
            chunk::decode_chunk(&self.cols.sealed[idx], &mut self.batch);
            self.chunk = idx;
        }
    }

    /// The next row and its wire length, advancing the cursor.
    pub fn next_with_wire(&mut self) -> Option<(MessageRecord, u32)> {
        if self.next >= self.cols.len() {
            return None;
        }
        let out = if self.next >= self.cols.rows_sealed {
            let i = self.next - self.cols.rows_sealed;
            (self.cols.tail.get(i), self.cols.tail.wire_len[i])
        } else {
            let idx = self.next / self.cols.chunk_rows;
            self.ensure_chunk(idx);
            let i = self.next % self.cols.chunk_rows;
            (self.batch.record(i), self.batch.wire_len(i))
        };
        self.next += 1;
        Some(out)
    }
}

fn kind_of(p: &RecordedPayload) -> MsgKind {
    match p {
        RecordedPayload::Ping => MsgKind::Ping,
        RecordedPayload::Pong { .. } => MsgKind::Pong,
        RecordedPayload::Query { .. } => MsgKind::Query,
        RecordedPayload::QueryHit { .. } => MsgKind::QueryHit,
        RecordedPayload::Bye => MsgKind::Bye,
    }
}

impl<'a> IntoIterator for &'a MessageColumns {
    type Item = MessageRecord;
    type IntoIter = Box<dyn Iterator<Item = MessageRecord> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

impl FromIterator<MessageRecord> for MessageColumns {
    fn from_iter<I: IntoIterator<Item = MessageRecord>>(iter: I) -> Self {
        let mut cols = MessageColumns::new();
        for rec in iter {
            cols.push(rec);
        }
        cols
    }
}

impl Extend<MessageRecord> for MessageColumns {
    fn extend<I: IntoIterator<Item = MessageRecord>>(&mut self, iter: I) {
        for rec in iter {
            self.push(rec);
        }
    }
}

/// Serializes as the sequence of reconstructed records, so the serde form
/// (and with it any JSON representation) is identical to the old
/// `Vec<MessageRecord>` layout — compression never reaches the wire.
impl Serialize for MessageColumns {
    fn to_value(&self) -> serde::Value {
        serde::Value::Array(self.iter().map(|r| r.to_value()).collect())
    }
}

impl Deserialize for MessageColumns {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::Array(items) => {
                let mut cols = MessageColumns::with_capacity(items.len());
                for item in items {
                    cols.push(MessageRecord::from_value(item)?);
                }
                Ok(cols)
            }
            other => Err(serde::Error::msg(format!(
                "expected array of message records, found {}",
                other.type_name()
            ))),
        }
    }
}

/// A complete measurement trace: connection records plus message columns.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    /// One record per direct connection, indexed by [`SessionId`].
    pub connections: Vec<ConnectionRecord>,
    /// All received messages, in arrival order (column layout).
    pub messages: MessageColumns,
    /// Total wire size of the recorded messages, in bytes — charged by the
    /// collector via `gnutella::wire::encoded_len` regardless of whether
    /// the frames traveled typed or byte-encoded. An in-memory provenance
    /// statistic: it is not part of the JSONL interchange format (readers
    /// of old traces see 0).
    #[serde(skip)]
    pub wire_bytes: u64,
}

/// Equality compares the recorded data — connections and messages — only.
/// `wire_bytes` (and the per-row `wire_len` column) is in-memory
/// provenance that does not survive the JSONL interchange format, so it
/// does not participate: a deserialized trace equals the one that wrote it.
impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.connections == other.connections && self.messages == other.messages
    }
}

/// One line of the JSONL interchange format.
#[derive(Debug, Serialize, Deserialize)]
#[serde(tag = "t", rename_all = "snake_case")]
enum TraceLine {
    Conn(ConnectionRecord),
    Msg(MessageRecord),
}

impl Trace {
    /// Empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Empty trace with pre-reserved capacity, for collectors that can
    /// estimate campaign volume up front. The message store only
    /// reserves its flat tail (one chunk) and chunk directory — rows
    /// beyond the first chunk live compressed, so a huge `messages`
    /// estimate no longer pins gigabytes of flat columns.
    pub fn with_capacity(connections: usize, messages: usize) -> Self {
        Trace {
            connections: Vec::with_capacity(connections),
            messages: MessageColumns::with_capacity(messages),
            wire_bytes: 0,
        }
    }

    /// Resident bytes held by this trace: the message store (tail,
    /// resident chunks, scratch) plus the connection records and their
    /// heap strings.
    pub fn mem_bytes(&self) -> u64 {
        let conns = (self.connections.capacity() * std::mem::size_of::<ConnectionRecord>()) as u64
            + self
                .connections
                .iter()
                .map(|c| c.user_agent.capacity() as u64)
                .sum::<u64>();
        conns + self.messages.mem_bytes()
    }

    /// Drop scratch allocations before snapshotting or unwrapping (see
    /// [`MessageColumns::compact`]). Also returns the connection
    /// vector's over-reservation: the driver pre-reserves for the
    /// *expected* arrival count, but cap-bound scales admit a small
    /// fraction of arrivals, leaving most of that capacity dead — at
    /// paper scale ≈300 MiB for 4.36 M expected vs 361 k admitted.
    pub fn compact(&mut self) {
        self.messages.compact();
        self.connections.shrink_to_fit();
    }

    /// Serialize as JSON lines: connection records first, then messages.
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> io::Result<()> {
        for c in &self.connections {
            serde_json::to_writer(&mut w, &TraceLine::Conn(c.clone()))?;
            w.write_all(b"\n")?;
        }
        for m in self.messages.iter() {
            serde_json::to_writer(&mut w, &TraceLine::Msg(m))?;
            w.write_all(b"\n")?;
        }
        Ok(())
    }

    /// Read back a JSONL trace.
    ///
    /// Connection records are re-indexed by their embedded [`SessionId`];
    /// message order is preserved. Fails with [`io::ErrorKind::InvalidData`]
    /// naming the session when the session ids have a gap, when a session
    /// has two connection records, or when a message's session has none.
    /// Memory is bounded by the input: the `n` connection records are
    /// placed by id only once all of them are read, so an id outside
    /// `0..n` is a gap below `n`, whatever its value.
    pub fn read_jsonl<R: BufRead>(r: R) -> io::Result<Trace> {
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let mut read = Vec::new();
        let mut messages = MessageColumns::new();
        let mut last_msg_session = None;
        for line in r.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let parsed: TraceLine = serde_json::from_str(&line)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            match parsed {
                TraceLine::Conn(c) => read.push(c),
                TraceLine::Msg(m) => {
                    // The store keeps session ids as `u32`; a larger one
                    // cannot name any connection it holds.
                    if u32::try_from(m.session.0).is_err() {
                        return Err(invalid(format!(
                            "message for session {} has no connection record",
                            m.session.0
                        )));
                    }
                    last_msg_session = last_msg_session.max(Some(m.session.0));
                    messages.push(m);
                }
            }
        }
        let mut placed: Vec<Option<ConnectionRecord>> = vec![None; read.len()];
        for c in read {
            let id = c.id.0;
            match usize::try_from(id).ok().and_then(|i| placed.get_mut(i)) {
                Some(Some(_)) => {
                    return Err(invalid(format!(
                        "duplicate connection record for session {id}"
                    )))
                }
                Some(slot) => *slot = Some(c),
                // Out of range: some id below the count is then missing.
                None => {}
            }
        }
        let connections = placed
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                c.ok_or_else(|| invalid(format!("missing connection record for session {i}")))
            })
            .collect::<io::Result<Vec<_>>>()?;
        if let Some(s) = last_msg_session.filter(|&s| s >= connections.len() as u64) {
            return Err(invalid(format!(
                "message for session {s} has no connection record"
            )));
        }
        Ok(Trace {
            connections,
            messages,
            wire_bytes: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordedPayload;
    use simnet::SimTime;
    use std::net::Ipv4Addr;

    fn test_guid() -> gnutella::Guid {
        gnutella::Guid([7; 16])
    }

    fn sample_trace() -> Trace {
        let mut t = Trace::new();
        for i in 0..3u64 {
            t.connections.push(ConnectionRecord {
                id: SessionId(i),
                addr: Ipv4Addr::new(24, 0, 0, i as u8 + 1),
                user_agent: format!("Client/{i}"),
                ultrapeer: i % 2 == 0,
                start: SimTime::from_secs(i * 100),
                end: Some(SimTime::from_secs(i * 100 + 70)),
                closed_by_probe: i == 2,
            });
            t.messages.push(MessageRecord {
                session: SessionId(i),
                guid: test_guid(),
                at: SimTime::from_secs(i * 100 + 5),
                hops: 1,
                ttl: 6,
                payload: RecordedPayload::Query {
                    text: format!("song {i}").into(),
                    sha1: false,
                },
            });
        }
        t
    }

    /// Records covering every kind, enough to cross small chunk sizes.
    fn varied_records(n: usize) -> Vec<MessageRecord> {
        (0..n)
            .map(|i| {
                let payload = match i % 5 {
                    0 => RecordedPayload::Ping,
                    1 => RecordedPayload::Pong {
                        addr: Ipv4Addr::new(10, 0, (i / 256) as u8, (i % 256) as u8),
                        shared_files: (i * 37) as u32,
                    },
                    2 => RecordedPayload::Query {
                        text: format!("chunk song {}", i % 11).into(),
                        sha1: i % 3 == 0,
                    },
                    3 => RecordedPayload::QueryHit {
                        addr: Ipv4Addr::new(82, 1, 2, (i % 256) as u8),
                        results: (i % 250) as u8,
                    },
                    _ => RecordedPayload::Bye,
                };
                MessageRecord {
                    session: SessionId((i % 7) as u64),
                    guid: gnutella::Guid([(i % 251) as u8; 16]),
                    at: SimTime::from_millis(1_000 + (i as u64) * 13),
                    hops: (i % 8) as u8,
                    ttl: (7 - i % 8) as u8,
                    payload,
                }
            })
            .collect()
    }

    #[test]
    fn jsonl_round_trip() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let back = Trace::read_jsonl(buf.as_slice()).unwrap();
        assert_eq!(t, back);
    }

    /// The JSONL interchange format is frozen: this golden output was
    /// captured from the row-oriented store that preceded the column layout and must stay
    /// byte-identical so old traces and external readers keep working.
    #[test]
    fn jsonl_matches_row_store_golden() {
        let mut t = Trace::new();
        t.connections.push(ConnectionRecord {
            id: SessionId(0),
            addr: Ipv4Addr::new(24, 10, 20, 30),
            user_agent: "Mutella/0.4.5".into(),
            ultrapeer: true,
            start: SimTime::from_millis(1_500),
            end: Some(SimTime::from_millis(400_000)),
            closed_by_probe: true,
        });
        t.connections.push(ConnectionRecord {
            id: SessionId(1),
            addr: Ipv4Addr::new(82, 1, 2, 3),
            user_agent: "LimeWire/4.2".into(),
            ultrapeer: false,
            start: SimTime::from_millis(2_250),
            end: None,
            closed_by_probe: false,
        });
        let g = test_guid();
        let mk = |at: u64, hops: u8, ttl: u8, session: u64, payload| MessageRecord {
            session: SessionId(session),
            guid: g,
            at: SimTime::from_millis(at),
            hops,
            ttl,
            payload,
        };
        t.messages.push(mk(3_000, 1, 6, 0, RecordedPayload::Ping));
        t.messages.push(mk(
            4_100,
            2,
            5,
            0,
            RecordedPayload::Pong {
                addr: Ipv4Addr::new(10, 0, 0, 9),
                shared_files: 340,
            },
        ));
        t.messages.push(mk(
            5_000,
            1,
            7,
            1,
            RecordedPayload::Query {
                text: "metallica one".into(),
                sha1: true,
            },
        ));
        t.messages.push(mk(
            6_000,
            3,
            4,
            1,
            RecordedPayload::QueryHit {
                addr: Ipv4Addr::new(24, 5, 6, 7),
                results: 12,
            },
        ));
        t.messages.push(mk(7_000, 1, 1, 0, RecordedPayload::Bye));

        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let golden = concat!(
            r#"{"t":"conn","id":0,"addr":"24.10.20.30","user_agent":"Mutella/0.4.5","ultrapeer":true,"start":1500,"end":400000,"closed_by_probe":true}"#,
            "\n",
            r#"{"t":"conn","id":1,"addr":"82.1.2.3","user_agent":"LimeWire/4.2","ultrapeer":false,"start":2250,"end":null,"closed_by_probe":false}"#,
            "\n",
            r#"{"t":"msg","session":0,"guid":[7,7,7,7,7,7,7,7,7,7,7,7,7,7,7,7],"at":3000,"hops":1,"ttl":6,"payload":"Ping"}"#,
            "\n",
            r#"{"t":"msg","session":0,"guid":[7,7,7,7,7,7,7,7,7,7,7,7,7,7,7,7],"at":4100,"hops":2,"ttl":5,"payload":{"Pong":{"addr":"10.0.0.9","shared_files":340}}}"#,
            "\n",
            r#"{"t":"msg","session":1,"guid":[7,7,7,7,7,7,7,7,7,7,7,7,7,7,7,7],"at":5000,"hops":1,"ttl":7,"payload":{"Query":{"text":"metallica one","sha1":true}}}"#,
            "\n",
            r#"{"t":"msg","session":1,"guid":[7,7,7,7,7,7,7,7,7,7,7,7,7,7,7,7],"at":6000,"hops":3,"ttl":4,"payload":{"QueryHit":{"addr":"24.5.6.7","results":12}}}"#,
            "\n",
            r#"{"t":"msg","session":0,"guid":[7,7,7,7,7,7,7,7,7,7,7,7,7,7,7,7],"at":7000,"hops":1,"ttl":1,"payload":"Bye"}"#,
            "\n",
        );
        assert_eq!(String::from_utf8(buf).unwrap(), golden);
    }

    #[test]
    fn columns_round_trip_every_kind() {
        let g = test_guid();
        let records = vec![
            MessageRecord {
                session: SessionId(3),
                guid: g,
                at: SimTime::from_millis(10),
                hops: 1,
                ttl: 6,
                payload: RecordedPayload::Ping,
            },
            MessageRecord {
                session: SessionId(1),
                guid: g,
                at: SimTime::from_millis(20),
                hops: 2,
                ttl: 5,
                payload: RecordedPayload::Pong {
                    addr: Ipv4Addr::new(1, 2, 3, 4),
                    shared_files: 99,
                },
            },
            MessageRecord {
                session: SessionId(0),
                guid: g,
                at: SimTime::from_millis(30),
                hops: 1,
                ttl: 7,
                payload: RecordedPayload::Query {
                    text: "q".into(),
                    sha1: true,
                },
            },
            MessageRecord {
                session: SessionId(2),
                guid: g,
                at: SimTime::from_millis(40),
                hops: 4,
                ttl: 3,
                payload: RecordedPayload::QueryHit {
                    addr: Ipv4Addr::new(9, 8, 7, 6),
                    results: 200,
                },
            },
            MessageRecord {
                session: SessionId(0),
                guid: g,
                at: SimTime::from_millis(50),
                hops: 1,
                ttl: 1,
                payload: RecordedPayload::Bye,
            },
        ];
        let cols: MessageColumns = records.iter().copied().collect();
        assert_eq!(cols.len(), records.len());
        let back: Vec<MessageRecord> = cols.iter().collect();
        assert_eq!(back, records);
        // The cursor agrees with iteration, row by row.
        let mut cur = cols.cursor();
        for r in &records {
            assert_eq!(cur.next_with_wire(), Some((*r, 0)));
        }
        assert_eq!(cur.next_with_wire(), None);
    }

    #[test]
    fn sealed_chunks_round_trip_all_access_paths() {
        let records = varied_records(1_000);
        for chunk_rows in [1usize, 3, 16, 256] {
            let mut cols = MessageColumns::new();
            cols.configure_chunks(chunk_rows);
            for (i, r) in records.iter().enumerate() {
                cols.push_with_wire(*r, (i % 97) as u32);
            }
            assert_eq!(cols.len(), records.len());
            assert_eq!(cols.sealed_chunks(), records.len() / chunk_rows);
            // Section headers dominate degenerate chunk sizes; only
            // realistic chunks must actually compress.
            if chunk_rows >= 256 {
                assert!(cols.compression_ratio().unwrap() > 1.0);
            }

            // Iteration (cursor path).
            let back: Vec<MessageRecord> = cols.iter().collect();
            assert_eq!(back, records, "chunk_rows {chunk_rows}");

            // The cursor returns each row with its wire length, across
            // chunk boundaries and into the tail.
            let mut cur = cols.cursor();
            for (i, r) in records.iter().enumerate() {
                assert_eq!(cur.next_with_wire(), Some((*r, (i % 97) as u32)));
            }
            assert_eq!(cur.next_with_wire(), None);

            // Batch visitation covers every row in order.
            let mut n = 0usize;
            cols.for_each_batch(|b| {
                for i in 0..b.rows() {
                    assert_eq!(b.record(i), records[n]);
                    n += 1;
                }
            });
            assert_eq!(n, records.len());
        }
    }

    #[test]
    fn wire_len_excluded_from_equality() {
        let rec = MessageRecord {
            session: SessionId(0),
            guid: test_guid(),
            at: SimTime::from_millis(5),
            hops: 1,
            ttl: 6,
            payload: RecordedPayload::Ping,
        };
        let mut a = MessageColumns::new();
        a.push_with_wire(rec, 23);
        let mut b = MessageColumns::new();
        b.push(rec);
        assert_eq!(a, b);
        assert_eq!(a.cursor().next_with_wire(), Some((rec, 23)));
        assert_eq!(b.cursor().next_with_wire(), Some((rec, 0)));
    }

    #[test]
    fn one_hop_query_visitor_matches_filtered_iteration() {
        let t = sample_trace();
        let mut seen = Vec::new();
        t.messages
            .for_each_one_hop_query(|sid, at, text, sha1| seen.push((sid, at, text, sha1)));
        let expected: Vec<_> = t
            .messages
            .iter()
            .filter(|m| m.is_one_hop_query())
            .map(|m| match m.payload {
                RecordedPayload::Query { text, sha1 } => (m.session, m.at, text, sha1),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn one_hop_query_visitor_crosses_chunk_boundaries() {
        let records = varied_records(300);
        let mut cols = MessageColumns::new();
        cols.configure_chunks(7);
        for r in &records {
            cols.push(*r);
        }
        let mut seen = Vec::new();
        cols.for_each_one_hop_query(|sid, at, text, sha1| seen.push((sid, at, text, sha1)));
        let expected: Vec<_> = records
            .iter()
            .filter(|m| m.is_one_hop_query())
            .map(|m| match m.payload {
                RecordedPayload::Query { text, sha1 } => (m.session, m.at, text, sha1),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn mem_bytes_counts_columns_and_strings() {
        let t = sample_trace();
        assert!(t.mem_bytes() > 0);
        let empty = Trace::new();
        assert_eq!(empty.messages.mem_bytes(), 0);
    }

    #[test]
    fn compact_drops_scratch_capacity() {
        let records = varied_records(200);
        let mut cols = MessageColumns::new();
        cols.configure_chunks(32);
        for r in &records {
            cols.push(*r);
        }
        // Seals leave encode scratch behind and the tail over-reserved;
        // compact drops both.
        let before = cols.mem_bytes();
        cols.compact();
        assert!(cols.mem_bytes() < before);
        // Data is untouched.
        let back: Vec<MessageRecord> = cols.iter().collect();
        assert_eq!(back, records);
    }

    #[test]
    fn read_tolerates_blank_lines_and_reorders_connections() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        // Shuffle: put messages before connections and add blank lines.
        let text = String::from_utf8(buf).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.reverse();
        let shuffled = format!("\n{}\n\n", lines.join("\n\n"));
        let back = Trace::read_jsonl(shuffled.as_bytes()).unwrap();
        assert_eq!(back.connections, t.connections);
        assert_eq!(back.messages.len(), t.messages.len());
    }

    #[test]
    fn read_rejects_gap_in_sessions() {
        let mut t = sample_trace();
        t.connections.remove(1);
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        assert!(Trace::read_jsonl(buf.as_slice()).is_err());
    }

    #[test]
    fn read_rejects_message_without_connection() {
        let mut t = sample_trace();
        t.messages.push(MessageRecord {
            session: SessionId(7),
            guid: test_guid(),
            at: SimTime::from_secs(400),
            hops: 1,
            ttl: 6,
            payload: RecordedPayload::Ping,
        });
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let err = Trace::read_jsonl(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("session 7"), "{err}");
    }

    #[test]
    fn read_rejects_duplicate_connection() {
        let mut t = sample_trace();
        let mut dup = t.connections[1].clone();
        dup.user_agent = "Other/1".into();
        t.connections.push(dup);
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let err = Trace::read_jsonl(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("session 1"), "{err}");
    }

    /// A connection id far past the record count is a gap, not a table
    /// size: the reader returns `InvalidData` instead of sizing its
    /// connection table by the id.
    #[test]
    fn read_rejects_huge_session_id() {
        for huge in [4_000_000_000, u64::MAX] {
            let mut t = sample_trace();
            t.connections[2].id = SessionId(huge);
            let mut buf = Vec::new();
            t.write_jsonl(&mut buf).unwrap();
            let err = Trace::read_jsonl(buf.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(
                err.to_string()
                    .contains("missing connection record for session 2"),
                "{err}"
            );

            // The same id on a message line.
            let mut buf = Vec::new();
            sample_trace().write_jsonl(&mut buf).unwrap();
            let text = String::from_utf8(buf).unwrap();
            let last = text.lines().last().unwrap();
            assert!(last.contains("\"session\":2"), "{last}");
            let text = format!(
                "{text}{}\n",
                last.replace("\"session\":2", &format!("\"session\":{huge}"))
            );
            let err = Trace::read_jsonl(text.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(
                err.to_string()
                    .contains(&format!("message for session {huge} has no")),
                "{err}"
            );
        }
    }

    #[test]
    fn read_rejects_garbage() {
        assert!(Trace::read_jsonl("not json\n".as_bytes()).is_err());
    }
}
