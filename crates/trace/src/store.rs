//! The retained trace store.
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
//! The API stays record-shaped: `MessageColumns::push` takes a
//! [`MessageRecord`] and iteration yields [`MessageRecord`]s by value
//! (everything in a record is `Copy`). Every read is sequential. Passes
//! that want the column layout iterate decoded batches via
//! `MessageColumns::for_each_batch`; the analysis pipeline reads the
//! selective [`MessageColumns::for_each_one_hop_query`] scan; record
//! consumers (equality, tests) use [`MessageColumns::cursor`], which
//! decodes each chunk exactly once into its own scratch buffer.

use crate::chunk::{self, ChunkBatch};
use crate::record::{ConnectionRecord, MessageRecord, RecordedPayload, SessionId};
use gnutella::{Guid, QueryId};
use simnet::SimTime;
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
pub(crate) enum MsgKind {
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
    pub(crate) fn from_u8(v: u8) -> MsgKind {
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
/// provenance (like [`Trace::wire_bytes`]) and does not participate in
/// equality.
pub struct MessageColumns {
    chunk_rows: usize,
    /// Encoded chunks. Every sealed chunk holds exactly `chunk_rows`
    /// rows, so row → chunk mapping is a division.
    sealed: Vec<Vec<u8>>,
    /// Rows covered by `sealed` — always `sealed.len() * chunk_rows`.
    rows_sealed: usize,
    tail: FlatColumns,
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
    pub(crate) fn new() -> Self {
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
    pub(crate) fn push(&mut self, rec: MessageRecord) {
        self.push_with_wire(rec, 0);
    }

    /// Append a record, keeping `wire` bytes of provenance in the
    /// `wire_len` column: a one-record [`Self::push_batch`].
    pub(crate) fn push_with_wire(&mut self, rec: MessageRecord, wire: u32) {
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
    pub(crate) fn mem_bytes(&self) -> u64 {
        let chunks: u64 = self.sealed.iter().map(|b| b.capacity() as u64).sum();
        let directory = (self.sealed.capacity() * std::mem::size_of::<Vec<u8>>()) as u64;
        let scratch = (self.encode_ms_scratch.capacity() * 8) as u64;
        self.tail.mem_bytes() + chunks + directory + scratch
    }

    /// Number of sealed (compressed) chunks.
    pub fn sealed_chunks(&self) -> usize {
        self.sealed.len()
    }

    /// Drop scratch allocations (seal buffers) and shrink the tail. Call
    /// before snapshotting or unwrapping a finished trace so teardown
    /// copies don't carry dead capacity.
    pub(crate) fn compact(&mut self) {
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

/// A complete measurement trace: connection records plus message columns.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// One record per direct connection, indexed by [`SessionId`].
    pub connections: Vec<ConnectionRecord>,
    /// All received messages, in arrival order (column layout).
    pub messages: MessageColumns,
    /// Total wire size of the recorded messages, in bytes — charged by the
    /// collector via `gnutella::wire::encoded_len` regardless of whether
    /// the frames traveled typed or byte-encoded. A provenance statistic
    /// of the collector, not recorded data.
    pub wire_bytes: u64,
}

/// Equality compares the recorded data — connections and messages — only.
/// `wire_bytes` (and the per-row `wire_len` column) is the collector's
/// provenance, so it does not participate.
impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.connections == other.connections && self.messages == other.messages
    }
}

impl Trace {
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
    /// `MessageColumns::compact`). Also returns the connection
    /// vector's over-reservation: the driver pre-reserves for the
    /// *expected* arrival count, but cap-bound scales admit a small
    /// fraction of arrivals, leaving most of that capacity dead — at
    /// paper scale ≈300 MiB for 4.36 M expected vs 361 k admitted.
    pub fn compact(&mut self) {
        self.messages.compact();
        self.connections.shrink_to_fit();
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
        let mut t = Trace::default();
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

    /// Bytes the flat tail holds for `r`: its row of the eight per-row
    /// columns plus its payload's side-table row.
    fn flat_row_bytes(r: &MessageRecord) -> usize {
        use std::mem::size_of;
        let row = 3 * size_of::<u32>() // session, arg, wire_len
            + size_of::<Guid>()
            + size_of::<SimTime>()
            + 2 * size_of::<u8>() // hops, ttl
            + size_of::<MsgKind>();
        row + match r.payload {
            RecordedPayload::Ping | RecordedPayload::Bye => 0,
            RecordedPayload::Pong { .. } => size_of::<Ipv4Addr>() + size_of::<u32>(),
            RecordedPayload::Query { .. } => size_of::<u32>() + size_of::<bool>(),
            RecordedPayload::QueryHit { .. } => size_of::<Ipv4Addr>() + size_of::<u8>(),
        }
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
                let sealed_rows = cols.sealed_chunks() * chunk_rows;
                let flat: usize = records[..sealed_rows].iter().map(flat_row_bytes).sum();
                assert!(flat as u64 > cols.encoded_sealed_bytes);
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
                for i in 0..b.at_ms.len() {
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
            .filter(|m| m.hops == 1 && matches!(m.payload, RecordedPayload::Query { .. }))
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
            .filter(|m| m.hops == 1 && matches!(m.payload, RecordedPayload::Query { .. }))
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
        let empty = Trace::default();
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
}
