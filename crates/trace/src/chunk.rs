//! Per-column-compressed immutable chunk codec for the trace store.
//!
//! A sealed chunk encodes one fixed-size run of rows (64k by default,
//! see [`crate::store::CHUNK_ROWS`]) column by column into a single
//! contiguous byte buffer:
//!
//! * **timestamps** — frame-of-reference: the chunk minimum as a 64-bit
//!   base plus bit-packed offsets (a 64k-row chunk spans minutes of
//!   simulated time, so offsets fit in ~20 bits instead of 64);
//! * **session ids** — frame-of-reference bit-packing (ids are dense
//!   and a chunk only sees a narrow window of them);
//! * **kind / hops / TTL** — bit-packed to the width of the chunk
//!   maximum (3 bits for kinds, typically 3–4 for hops/TTL);
//! * **query text** — dictionary-coded: the process-global
//!   [`QueryId`] interner *is* the dictionary, so the column stores
//!   frame-of-reference bit-packed raw u32 handles (chunks never leave
//!   the process — see [`QueryId::from_raw`]);
//! * **GUIDs** — 14 bytes instead of 16 when every GUID in the chunk
//!   carries the `Guid::random` version/reserved markers (byte 8 =
//!   `0xFF`, byte 15 = `0x00`), raw 16 bytes otherwise (GUID bytes are
//!   uniform random, so entropy elision is the only win available);
//! * **wire lengths** — frame-of-reference bit-packing;
//! * **payload side tables** (PONG/QUERY/QUERYHIT) — stored chunk-local
//!   in row order per kind; the row→cell `arg` column is *not* stored
//!   at all, it is recomputed from the kind column on decode.
//!
//! Why fixed-width bit-packing rather than varints: decode is the hot
//! side. Retained-mode analysis over tens of millions of rows budgets
//! well under a nanosecond per value, and a fixed-width unpack is a
//! shift-and-mask with no per-byte branches — the loops below
//! autovectorize or at least pipeline, where LEB128 decode cannot.
//! Varints appear only in cold spots (PONG shared-file counts).
//!
//! Every section is length-prefixed, so a decoder can skip columns it
//! does not need — `decode_query_scan` reads 4 of the 10 sections and
//! powers the filter/popularity fast path.

use crate::record::{MessageRecord, RecordedPayload, SessionId};
use crate::store::MsgKind;
use gnutella::{Guid, QueryId};
use simnet::SimTime;
use std::net::Ipv4Addr;

/// Byte positions `Guid::random` forces to constants (`0xFF` marks the
/// modern-client version byte, `0x00` the reserved byte). When every
/// GUID in a chunk matches, the codec stores 14 bytes per GUID.
const GUID_VERSION_BYTE: usize = 8;
const GUID_RESERVED_BYTE: usize = 15;

// ---------------------------------------------------------------------
// Bit-packing primitives
// ---------------------------------------------------------------------

/// Bits needed to represent `max` (0 for `max == 0`).
#[inline]
fn bits_for(max: u64) -> u8 {
    (64 - max.leading_zeros()) as u8
}

/// Bytes occupied by `n` values bit-packed at `width`.
#[inline]
fn packed_len(n: usize, width: u8) -> usize {
    (n * width as usize).div_ceil(8)
}

/// Append `n` values little-endian bit-packed at `width` bits each.
fn pack_bits(vals: impl Iterator<Item = u64>, width: u8, out: &mut Vec<u8>) {
    if width == 0 {
        return;
    }
    let mut acc: u128 = 0;
    let mut fill: u32 = 0;
    for v in vals {
        debug_assert!(width == 64 || v < (1u64 << width));
        acc |= u128::from(v) << fill;
        fill += u32::from(width);
        while fill >= 8 {
            out.push((acc & 0xFF) as u8);
            acc >>= 8;
            fill -= 8;
        }
    }
    if fill > 0 {
        out.push((acc & 0xFF) as u8);
    }
}

/// Unaligned little-endian u64 read that tolerates running off the end
/// of the slice (missing high bytes read as zero — callers mask).
#[inline]
fn read_u64_at(bytes: &[u8], pos: usize) -> u64 {
    if let Some(win) = bytes.get(pos..pos + 8) {
        u64::from_le_bytes(win.try_into().unwrap())
    } else {
        let mut buf = [0u8; 8];
        let avail = bytes.len().saturating_sub(pos);
        buf[..avail].copy_from_slice(&bytes[pos..]);
        u64::from_le_bytes(buf)
    }
}

/// Like [`read_u64_at`] but 16 bytes wide, for the width > 57 slow path
/// where a value can straddle 9 bytes.
#[inline]
fn read_u128_at(bytes: &[u8], pos: usize) -> u128 {
    if let Some(win) = bytes.get(pos..pos + 16) {
        u128::from_le_bytes(win.try_into().unwrap())
    } else {
        let mut buf = [0u8; 16];
        let avail = bytes.len().saturating_sub(pos);
        buf[..avail].copy_from_slice(&bytes[pos..]);
        u128::from_le_bytes(buf)
    }
}

/// Unpack `n` values of `width` bits, feeding each to `f`.
///
/// The `width <= 57` fast path (every real column: times are offsets
/// from the chunk base, everything else is small) is a single unaligned
/// load + shift + mask per value — no per-byte loop, no branches on the
/// value contents.
fn unpack_bits(bytes: &[u8], n: usize, width: u8, mut f: impl FnMut(u64)) {
    if width == 0 {
        for _ in 0..n {
            f(0);
        }
        return;
    }
    let w = width as usize;
    if width <= 57 {
        let mask = (1u64 << width) - 1;
        for i in 0..n {
            let bit = i * w;
            f((read_u64_at(bytes, bit >> 3) >> (bit & 7)) & mask);
        }
    } else {
        let mask: u128 = if width == 64 {
            u128::from(u64::MAX)
        } else {
            (1u128 << width) - 1
        };
        for i in 0..n {
            let bit = i * w;
            f(((read_u128_at(bytes, bit >> 3) >> (bit & 7)) & mask) as u64);
        }
    }
}

// ---------------------------------------------------------------------
// Varints (cold spots only)
// ---------------------------------------------------------------------

fn put_varint(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn get_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = bytes[*pos];
        *pos += 1;
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

// ---------------------------------------------------------------------
// Frame-of-reference column codecs (also the Criterion bench surface)
// ---------------------------------------------------------------------

/// Encode a timestamp column (or any u64 column) as frame-of-reference
/// bit-packed offsets from the column minimum.
pub fn encode_time_column(vals_ms: &[u64], out: &mut Vec<u8>) {
    let base = vals_ms.iter().copied().min().unwrap_or(0);
    let width = bits_for(vals_ms.iter().map(|&v| v - base).max().unwrap_or(0));
    out.extend_from_slice(&base.to_le_bytes());
    out.push(width);
    pack_bits(vals_ms.iter().map(|&v| v - base), width, out);
}

/// Decode a [`encode_time_column`] section; returns bytes consumed.
pub fn decode_time_column(bytes: &[u8], n: usize, out: &mut Vec<u64>) -> usize {
    let base = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
    let width = bytes[8];
    out.reserve(n);
    unpack_bits(&bytes[9..], n, width, |v| out.push(base + v));
    9 + packed_len(n, width)
}

/// Encode a u32 id column (session ids, dictionary-coded QueryIds, wire
/// lengths) as frame-of-reference bit-packed offsets from the minimum.
pub fn encode_id_column(vals: &[u32], out: &mut Vec<u8>) {
    let base = vals.iter().copied().min().unwrap_or(0);
    let width = bits_for(u64::from(vals.iter().map(|&v| v - base).max().unwrap_or(0)));
    out.extend_from_slice(&base.to_le_bytes());
    out.push(width);
    pack_bits(vals.iter().map(|&v| u64::from(v - base)), width, out);
}

/// Decode an [`encode_id_column`] section; returns bytes consumed.
pub fn decode_id_column(bytes: &[u8], n: usize, out: &mut Vec<u32>) -> usize {
    let base = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
    let width = bytes[4];
    out.reserve(n);
    unpack_bits(&bytes[5..], n, width, |v| out.push(base + v as u32));
    5 + packed_len(n, width)
}

/// Encode a small-range u8 column (kind, hops, TTL, hit results) at the
/// bit width of the column maximum.
fn encode_u8_column(vals: impl Iterator<Item = u8> + Clone, out: &mut Vec<u8>) {
    let width = bits_for(u64::from(vals.clone().max().unwrap_or(0)));
    out.push(width);
    pack_bits(vals.map(u64::from), width, out);
}

/// Decode an [`encode_u8_column`] section; returns bytes consumed.
fn decode_u8_column(bytes: &[u8], n: usize, out: &mut Vec<u8>) -> usize {
    let width = bytes[0];
    out.reserve(n);
    unpack_bits(&bytes[1..], n, width, |v| out.push(v as u8));
    1 + packed_len(n, width)
}

// ---------------------------------------------------------------------
// Section framing
// ---------------------------------------------------------------------

/// Reserve a 4-byte length slot; patched by [`end_section`].
fn begin_section(out: &mut Vec<u8>) -> usize {
    let at = out.len();
    out.extend_from_slice(&[0u8; 4]);
    at
}

fn end_section(out: &mut [u8], at: usize) {
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Read the section starting at `*pos`, advancing `*pos` past it.
fn read_section<'a>(bytes: &'a [u8], pos: &mut usize) -> &'a [u8] {
    let len = u32::from_le_bytes(bytes[*pos..*pos + 4].try_into().unwrap()) as usize;
    let start = *pos + 4;
    *pos = start + len;
    &bytes[start..start + len]
}

/// Advance `*pos` past the section starting there without touching its
/// contents — how the selective decoders skip columns.
fn skip_section(bytes: &[u8], pos: &mut usize) {
    let len = u32::from_le_bytes(bytes[*pos..*pos + 4].try_into().unwrap()) as usize;
    *pos += 4 + len;
}

// ---------------------------------------------------------------------
// Decoded batch
// ---------------------------------------------------------------------

/// One chunk's worth of decoded columns — the unit analysis kernels
/// iterate over. All vectors of row-indexed columns have `rows()`
/// entries; the payload side columns (`pong_*`, `query_*`, `hit_*`)
/// hold one entry per row *of that kind*, in row order, indexed by the
/// recomputed `arg` column.
#[derive(Debug, Clone, Default)]
pub struct ChunkBatch {
    /// Session id per row.
    pub(crate) session: Vec<u32>,
    /// Arrival time per row, in milliseconds.
    pub(crate) at_ms: Vec<u64>,
    /// Hop count per row.
    pub hops: Vec<u8>,
    /// TTL per row.
    pub(crate) ttl: Vec<u8>,
    /// [`MsgKind`] discriminant per row.
    pub(crate) kind: Vec<u8>,
    /// Side-table index per row (recomputed from `kind` on decode).
    pub(crate) arg: Vec<u32>,
    /// GUID per row.
    pub(crate) guid: Vec<Guid>,
    /// Wire length per row.
    pub(crate) wire: Vec<u32>,
    /// PONG advertised address, per PONG row.
    pub(crate) pong_addr: Vec<Ipv4Addr>,
    /// PONG shared-file count, per PONG row.
    pub(crate) pong_files: Vec<u32>,
    /// Raw interned [`QueryId`], per QUERY row.
    pub(crate) query_id: Vec<u32>,
    /// SHA1-extension flag, per QUERY row.
    pub(crate) query_sha1: Vec<bool>,
    /// Responder address, per QUERYHIT row.
    pub(crate) hit_addr: Vec<Ipv4Addr>,
    /// Result count, per QUERYHIT row.
    pub(crate) hit_results: Vec<u8>,
}

impl ChunkBatch {
    /// Reset for reuse, keeping allocations.
    pub(crate) fn clear(&mut self) {
        self.session.clear();
        self.at_ms.clear();
        self.hops.clear();
        self.ttl.clear();
        self.kind.clear();
        self.arg.clear();
        self.guid.clear();
        self.wire.clear();
        self.pong_addr.clear();
        self.pong_files.clear();
        self.query_id.clear();
        self.query_sha1.clear();
        self.hit_addr.clear();
        self.hit_results.clear();
    }

    /// Reconstruct the record at batch-local row `i`.
    pub(crate) fn record(&self, i: usize) -> MessageRecord {
        let arg = self.arg[i] as usize;
        let payload = match MsgKind::from_u8(self.kind[i]) {
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
            at: SimTime::from_millis(self.at_ms[i]),
            hops: self.hops[i],
            ttl: self.ttl[i],
            payload,
        }
    }

    /// Wire length at batch-local row `i`.
    pub(crate) fn wire_len(&self, i: usize) -> u32 {
        self.wire[i]
    }
}

/// Rebuild the `arg` side-table index column from the kind column: the
/// side tables are chunk-local and in row order per kind, so the index
/// is just a per-kind running count.
fn rebuild_arg(kind: &[u8], arg: &mut Vec<u32>) {
    let (mut pong, mut query, mut hit) = (0u32, 0u32, 0u32);
    arg.reserve(kind.len());
    for &k in kind {
        let a = match k {
            k if k == MsgKind::Pong as u8 => {
                pong += 1;
                pong - 1
            }
            k if k == MsgKind::Query as u8 => {
                query += 1;
                query - 1
            }
            k if k == MsgKind::QueryHit as u8 => {
                hit += 1;
                hit - 1
            }
            _ => 0,
        };
        arg.push(a);
    }
}

// ---------------------------------------------------------------------
// Whole-chunk encode / decode
// ---------------------------------------------------------------------

/// Column inputs to [`encode_chunk`] — borrowed views of the store's
/// uncompressed tail run.
pub(crate) struct ChunkSource<'a> {
    pub(crate) session: &'a [u32],
    pub(crate) at: &'a [SimTime],
    pub(crate) hops: &'a [u8],
    pub(crate) ttl: &'a [u8],
    pub(crate) kind: &'a [MsgKind],
    pub(crate) guid: &'a [Guid],
    pub(crate) wire: &'a [u32],
    pub(crate) pong_addr: &'a [Ipv4Addr],
    pub(crate) pong_files: &'a [u32],
    pub(crate) query_id: &'a [u32],
    pub(crate) query_sha1: &'a [bool],
    pub(crate) hit_addr: &'a [Ipv4Addr],
    pub(crate) hit_results: &'a [u8],
}

/// Encode one sealed run of rows into a self-describing byte buffer:
/// a 4-byte row count followed by ten length-prefixed sections in fixed
/// order (AT, SESSION, KIND, HOPS, TTL, GUID, WIRE, PONG, QUERY, HIT).
pub(crate) fn encode_chunk(src: &ChunkSource<'_>, scratch_ms: &mut Vec<u64>, out: &mut Vec<u8>) {
    let n = src.at.len();
    out.clear();
    out.reserve(n * 12);
    out.extend_from_slice(&(n as u32).to_le_bytes());

    scratch_ms.clear();
    scratch_ms.extend(src.at.iter().map(|t| t.as_millis()));
    let s = begin_section(out);
    encode_time_column(scratch_ms, out);
    end_section(out, s);

    let s = begin_section(out);
    encode_id_column(src.session, out);
    end_section(out, s);

    let s = begin_section(out);
    encode_u8_column(src.kind.iter().map(|&k| k as u8), out);
    end_section(out, s);

    let s = begin_section(out);
    encode_u8_column(src.hops.iter().copied(), out);
    end_section(out, s);

    let s = begin_section(out);
    encode_u8_column(src.ttl.iter().copied(), out);
    end_section(out, s);

    let s = begin_section(out);
    let elidable = src
        .guid
        .iter()
        .all(|g| g.0[GUID_VERSION_BYTE] == 0xFF && g.0[GUID_RESERVED_BYTE] == 0x00);
    out.push(u8::from(elidable));
    if elidable {
        for g in src.guid {
            out.extend_from_slice(&g.0[..GUID_VERSION_BYTE]);
            out.extend_from_slice(&g.0[GUID_VERSION_BYTE + 1..GUID_RESERVED_BYTE]);
        }
    } else {
        for g in src.guid {
            out.extend_from_slice(&g.0);
        }
    }
    end_section(out, s);

    let s = begin_section(out);
    encode_id_column(src.wire, out);
    end_section(out, s);

    let s = begin_section(out);
    out.extend_from_slice(&(src.pong_addr.len() as u32).to_le_bytes());
    for (addr, &files) in src.pong_addr.iter().zip(src.pong_files) {
        out.extend_from_slice(&addr.octets());
        put_varint(u64::from(files), out);
    }
    end_section(out, s);

    let s = begin_section(out);
    out.extend_from_slice(&(src.query_id.len() as u32).to_le_bytes());
    encode_id_column(src.query_id, out);
    let mut bits = 0u8;
    for (i, &sha1) in src.query_sha1.iter().enumerate() {
        bits |= u8::from(sha1) << (i & 7);
        if i & 7 == 7 {
            out.push(bits);
            bits = 0;
        }
    }
    if src.query_sha1.len() & 7 != 0 {
        out.push(bits);
    }
    end_section(out, s);

    let s = begin_section(out);
    out.extend_from_slice(&(src.hit_addr.len() as u32).to_le_bytes());
    for addr in src.hit_addr {
        out.extend_from_slice(&addr.octets());
    }
    encode_u8_column(src.hit_results.iter().copied(), out);
    end_section(out, s);
}

fn decode_guid_section(sec: &[u8], n: usize, out: &mut Vec<Guid>) {
    out.reserve(n);
    if sec[0] == 1 {
        for raw in sec[1..1 + n * 14].chunks_exact(14) {
            let mut g = [0u8; 16];
            g[..GUID_VERSION_BYTE].copy_from_slice(&raw[..GUID_VERSION_BYTE]);
            g[GUID_VERSION_BYTE] = 0xFF;
            g[GUID_VERSION_BYTE + 1..GUID_RESERVED_BYTE].copy_from_slice(&raw[GUID_VERSION_BYTE..]);
            out.push(Guid(g));
        }
    } else {
        for raw in sec[1..1 + n * 16].chunks_exact(16) {
            out.push(Guid(raw.try_into().unwrap()));
        }
    }
}

fn decode_query_section(sec: &[u8], ids: &mut Vec<u32>, sha1: &mut Vec<bool>) {
    let n = u32::from_le_bytes(sec[0..4].try_into().unwrap()) as usize;
    let consumed = 4 + decode_id_column(&sec[4..], n, ids);
    let bitset = &sec[consumed..];
    sha1.reserve(n);
    for i in 0..n {
        sha1.push(bitset[i >> 3] >> (i & 7) & 1 == 1);
    }
}

/// Decode every column of a chunk produced by `encode_chunk` into a
/// reusable [`ChunkBatch`].
pub(crate) fn decode_chunk(bytes: &[u8], out: &mut ChunkBatch) {
    out.clear();
    let n = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
    let mut pos = 4;

    decode_time_column(read_section(bytes, &mut pos), n, &mut out.at_ms);
    decode_id_column(read_section(bytes, &mut pos), n, &mut out.session);
    decode_u8_column(read_section(bytes, &mut pos), n, &mut out.kind);
    decode_u8_column(read_section(bytes, &mut pos), n, &mut out.hops);
    decode_u8_column(read_section(bytes, &mut pos), n, &mut out.ttl);
    decode_guid_section(read_section(bytes, &mut pos), n, &mut out.guid);
    decode_id_column(read_section(bytes, &mut pos), n, &mut out.wire);

    let pong = read_section(bytes, &mut pos);
    let n_pong = u32::from_le_bytes(pong[0..4].try_into().unwrap()) as usize;
    let mut p = 4;
    out.pong_addr.reserve(n_pong);
    out.pong_files.reserve(n_pong);
    for _ in 0..n_pong {
        let octets: [u8; 4] = pong[p..p + 4].try_into().unwrap();
        p += 4;
        out.pong_addr.push(Ipv4Addr::from(octets));
        out.pong_files.push(get_varint(pong, &mut p) as u32);
    }

    decode_query_section(
        read_section(bytes, &mut pos),
        &mut out.query_id,
        &mut out.query_sha1,
    );

    let hit = read_section(bytes, &mut pos);
    let n_hit = u32::from_le_bytes(hit[0..4].try_into().unwrap()) as usize;
    out.hit_addr.reserve(n_hit);
    for octets in hit[4..4 + n_hit * 4].chunks_exact(4) {
        out.hit_addr
            .push(Ipv4Addr::from(<[u8; 4]>::try_from(octets).unwrap()));
    }
    decode_u8_column(&hit[4 + n_hit * 4..], n_hit, &mut out.hit_results);

    rebuild_arg(&out.kind, &mut out.arg);
}

/// Reusable decode buffers for the hop-1 QUERY scan: just the query
/// side table (one entry per QUERY row). The dense per-row columns are
/// *not* materialized — [`decode_query_scan`] hands back lazy packed
/// views instead, so the scan never allocates per-row vectors.
#[derive(Debug, Default)]
pub(crate) struct QueryScan {
    pub(crate) query_id: Vec<u32>,
    pub(crate) query_sha1: Vec<bool>,
}

impl QueryScan {
    fn clear(&mut self) {
        self.query_id.clear();
        self.query_sha1.clear();
    }
}

/// Random access into a packed section: value `idx` of `width` bits.
#[inline]
fn read_packed_at(packed: &[u8], idx: usize, width: u8) -> u64 {
    if width == 0 {
        return 0;
    }
    let bit = idx * width as usize;
    if width <= 57 {
        (read_u64_at(packed, bit >> 3) >> (bit & 7)) & ((1u64 << width) - 1)
    } else {
        let mask: u128 = if width == 64 {
            u128::from(u64::MAX)
        } else {
            (1u128 << width) - 1
        };
        ((read_u128_at(packed, bit >> 3) >> (bit & 7)) & mask) as u64
    }
}

/// Lazy view of a FOR-packed u64 column (8-byte base + width + bits).
pub(crate) struct LazyTimeColumn<'a> {
    base: u64,
    width: u8,
    packed: &'a [u8],
}

impl LazyTimeColumn<'_> {
    #[inline]
    pub(crate) fn get(&self, i: usize) -> u64 {
        self.base + read_packed_at(self.packed, i, self.width)
    }
}

/// Lazy view of a FOR-packed u32 column (4-byte base + width + bits).
pub(crate) struct LazyIdColumn<'a> {
    base: u32,
    width: u8,
    packed: &'a [u8],
}

impl LazyIdColumn<'_> {
    #[inline]
    pub(crate) fn get(&self, i: usize) -> u32 {
        self.base + read_packed_at(self.packed, i, self.width) as u32
    }
}

/// Lazy view of a bit-packed small-range u8 column (a 1-byte width
/// header then bits): random access via [`LazyByteColumn::get`], or a
/// streaming sweep via [`LazyByteColumn::for_each`] that unpacks
/// straight out of the packed bytes without materializing a vector.
pub(crate) struct LazyByteColumn<'a> {
    width: u8,
    packed: &'a [u8],
}

impl LazyByteColumn<'_> {
    #[inline]
    pub(crate) fn get(&self, i: usize) -> u8 {
        read_packed_at(self.packed, i, self.width) as u8
    }

    /// Sweep all `n` values in blocks of 8: a u8 column packs at most
    /// 8 bits per value, so 8 consecutive values always start on a byte
    /// boundary and fit one u64 load — one unaligned load per block
    /// instead of one per value.
    pub(crate) fn for_each(&self, n: usize, mut f: impl FnMut(u8)) {
        let w = self.width as usize;
        if w == 0 {
            for _ in 0..n {
                f(0);
            }
            return;
        }
        let mask = if w == 8 { 0xFF } else { (1u64 << w) - 1 };
        let blocks = n / 8;
        for b in 0..blocks {
            let mut word = read_u64_at(self.packed, b * w);
            for _ in 0..8 {
                f((word & mask) as u8);
                word >>= w;
            }
        }
        for i in blocks * 8..n {
            f(self.get(i));
        }
    }
}

/// Lazy views over one chunk's packed scan columns, returned by
/// [`decode_query_scan`]. Nothing here is unpacked up front: `kind` is
/// swept once per row, `hops` is consulted only at QUERY rows, and
/// `at`/`session` only at the hop-1 QUERY rows that survive both tests.
pub(crate) struct QueryScanView<'a> {
    pub(crate) rows: usize,
    pub(crate) at: LazyTimeColumn<'a>,
    pub(crate) session: LazyIdColumn<'a>,
    pub(crate) kind: LazyByteColumn<'a>,
    pub(crate) hops: LazyByteColumn<'a>,
}

/// Selective decode powering [`for_each_one_hop_query`]: decodes only
/// the QUERY side table into `out`, skips TTL, GUID, WIRE, PONG and HIT
/// entirely, and returns lazy views over the still-packed AT, SESSION,
/// KIND and HOPS sections — the scan touches ~25% of the chunk bytes,
/// sweeps one packed load per row for the kind test, and unpacks
/// hops/timestamps/sessions only where a QUERY actually sits.
///
/// [`for_each_one_hop_query`]: crate::store::MessageColumns::for_each_one_hop_query
pub(crate) fn decode_query_scan<'a>(bytes: &'a [u8], out: &mut QueryScan) -> QueryScanView<'a> {
    out.clear();
    let n = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
    let mut pos = 4;
    let at_sec = read_section(bytes, &mut pos);
    let session_sec = read_section(bytes, &mut pos);
    let kind_sec = read_section(bytes, &mut pos);
    let hops_sec = read_section(bytes, &mut pos);
    skip_section(bytes, &mut pos); // TTL
    skip_section(bytes, &mut pos); // GUID
    skip_section(bytes, &mut pos); // WIRE
    skip_section(bytes, &mut pos); // PONG
    decode_query_section(
        read_section(bytes, &mut pos),
        &mut out.query_id,
        &mut out.query_sha1,
    );
    QueryScanView {
        rows: n,
        at: LazyTimeColumn {
            base: u64::from_le_bytes(at_sec[0..8].try_into().unwrap()),
            width: at_sec[8],
            packed: &at_sec[9..],
        },
        session: LazyIdColumn {
            base: u32::from_le_bytes(session_sec[0..4].try_into().unwrap()),
            width: session_sec[4],
            packed: &session_sec[5..],
        },
        kind: LazyByteColumn {
            width: kind_sec[0],
            packed: &kind_sec[1..],
        },
        hops: LazyByteColumn {
            width: hops_sec[0],
            packed: &hops_sec[1..],
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_pack_round_trips_all_widths() {
        for width in 0..=64u8 {
            let max = if width == 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            let vals: Vec<u64> = (0..100u64)
                .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) & max)
                .collect();
            let mut packed = Vec::new();
            pack_bits(vals.iter().copied(), width, &mut packed);
            assert_eq!(packed.len(), packed_len(vals.len(), width));
            let mut back = Vec::new();
            unpack_bits(&packed, vals.len(), width, |v| back.push(v));
            let expect: Vec<u64> = if width == 0 {
                vec![0; vals.len()]
            } else {
                vals.clone()
            };
            assert_eq!(back, expect, "width {width}");
        }
    }

    #[test]
    fn time_column_round_trips() {
        let vals = vec![5_000_000u64, 5_000_000, 5_000_123, 6_999_999, 5_500_000];
        let mut enc = Vec::new();
        encode_time_column(&vals, &mut enc);
        let mut back = Vec::new();
        let used = decode_time_column(&enc, vals.len(), &mut back);
        assert_eq!(used, enc.len());
        assert_eq!(back, vals);
    }

    #[test]
    fn id_column_round_trips_extremes() {
        let vals = vec![0u32, u32::MAX, 7, u32::MAX - 1, 0];
        let mut enc = Vec::new();
        encode_id_column(&vals, &mut enc);
        let mut back = Vec::new();
        let used = decode_id_column(&enc, vals.len(), &mut back);
        assert_eq!(used, enc.len());
        assert_eq!(back, vals);
    }

    #[test]
    fn constant_column_packs_to_header_only() {
        let vals = vec![42u32; 1000];
        let mut enc = Vec::new();
        encode_id_column(&vals, &mut enc);
        // 4-byte base + 1-byte width, zero packed payload.
        assert_eq!(enc.len(), 5);
        let mut back = Vec::new();
        decode_id_column(&enc, vals.len(), &mut back);
        assert_eq!(back, vals);
    }

    #[test]
    fn varint_round_trips() {
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            put_varint(v, &mut buf);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), v);
            assert_eq!(pos, buf.len());
        }
    }
}
