//! Binary wire codec for Gnutella 0.6 messages.
//!
//! Header layout (23 bytes):
//!
//! ```text
//! offset  size  field
//! 0       16    message GUID
//! 16      1     payload type (0x00 PING, 0x01 PONG, 0x02 BYE,
//!               0x80 QUERY, 0x81 QUERYHIT)
//! 17      1     TTL
//! 18      1     hops
//! 19      4     payload length, little-endian
//! ```
//!
//! Payload layouts follow the protocol specification; the QUERY extension
//! area (after the first NUL) carries the `urn:sha1:` extension used by
//! filter rule 1.

use crate::guid::Guid;
use crate::message::{Bye, Message, Payload, Pong, Query, QueryHit, QueryHitResult};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;
use std::net::Ipv4Addr;

/// Maximum payload we will decode (spec-recommended sanity cap).
pub(crate) const MAX_PAYLOAD: usize = 64 * 1024;

/// Codec errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the structure was complete.
    Truncated,
    /// Unknown payload type byte.
    BadType(u8),
    /// A declared length was implausible.
    PayloadTooLarge(u32),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A structural invariant was violated (e.g. missing NUL terminator).
    Malformed(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "buffer truncated"),
            WireError::BadType(t) => write!(f, "unknown payload type 0x{t:02x}"),
            WireError::PayloadTooLarge(n) => write!(f, "payload length {n} exceeds cap"),
            WireError::BadUtf8 => write!(f, "invalid UTF-8 in string field"),
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Encode a message to bytes.
pub fn encode_message(msg: &Message) -> Bytes {
    let payload = encode_payload(&msg.payload);
    let mut buf = BytesMut::with_capacity(HEADER_LEN + payload.len());
    buf.put_slice(msg.guid.as_bytes());
    buf.put_u8(msg.payload.type_byte());
    buf.put_u8(msg.ttl);
    buf.put_u8(msg.hops);
    buf.put_u32_le(payload.len() as u32);
    buf.put_slice(&payload);
    buf.freeze()
}

fn encode_payload(p: &Payload) -> Bytes {
    let mut buf = BytesMut::new();
    match p {
        Payload::Ping => {}
        Payload::Pong(pong) => {
            buf.put_u16_le(pong.port);
            buf.put_slice(&pong.addr.octets());
            buf.put_u32_le(pong.shared_files);
            buf.put_u32_le(pong.shared_kb);
        }
        Payload::Query(q) => {
            buf.put_u16_le(q.min_speed);
            buf.put_slice(q.text.resolve().as_bytes());
            buf.put_u8(0);
            if let Some(sha1) = &q.sha1 {
                buf.put_slice(sha1.as_bytes());
                buf.put_u8(0);
            }
        }
        Payload::QueryHit(qh) => {
            buf.put_u8(qh.results.len() as u8);
            buf.put_u16_le(qh.port);
            buf.put_slice(&qh.addr.octets());
            buf.put_u32_le(qh.speed);
            for r in &qh.results {
                buf.put_u32_le(r.index);
                buf.put_u32_le(r.size);
                buf.put_slice(r.name.as_bytes());
                buf.put_u8(0);
                buf.put_u8(0); // empty extension block per result
            }
            buf.put_slice(qh.servent.as_bytes());
        }
        Payload::Bye(b) => {
            buf.put_u16_le(b.code);
            buf.put_slice(b.reason.as_bytes());
            buf.put_u8(0);
        }
    }
    buf.freeze()
}

/// Length of the header every message starts with.
pub(crate) const HEADER_LEN: usize = 23;

/// Wire length of a PING (header only).
pub const PING_LEN: usize = HEADER_LEN;

/// Wire length of a PONG: header, port, address, file and kB counts.
pub const PONG_LEN: usize = HEADER_LEN + 14;

/// Wire length of a QUERY whose text is `text_len` bytes, with a
/// `sha1_len`-byte `urn:sha1:` extension if any: header, min speed,
/// text and NUL, then the extension and its NUL.
pub const fn query_len(text_len: usize, sha1_len: Option<usize>) -> usize {
    let ext = match sha1_len {
        Some(len) => len + 1,
        None => 0,
    };
    HEADER_LEN + 2 + text_len + 1 + ext
}

/// Wire length of a QUERYHIT carrying `results` result records whose
/// file names total `name_bytes` bytes: header, count, port, address and
/// speed, then per result its index, size, name, NUL and empty extension
/// block, then the servent GUID.
pub const fn query_hit_len(results: usize, name_bytes: usize) -> usize {
    HEADER_LEN + 11 + results * (8 + 2) + name_bytes + 16
}

/// Wire length of a BYE whose reason is `reason_len` bytes: header,
/// code, reason and NUL.
pub const fn bye_len(reason_len: usize) -> usize {
    HEADER_LEN + 2 + reason_len + 1
}

/// Exact wire size of `msg` — what `encode_message(msg).len()` would
/// return — computed without allocating.
///
/// The typed transport ([`crate::net::NetMsg::Frame`]) skips the byte
/// codec on the in-process hot path; byte accounting (trace volume
/// statistics) stays honest by charging every recorded message its wire
/// size through this function. Agreement with the real encoder is
/// enforced by a proptest suite and by the sampling conformance layer
/// ([`conformance`]).
pub fn encoded_len(msg: &Message) -> usize {
    match &msg.payload {
        Payload::Ping => PING_LEN,
        Payload::Pong(_) => PONG_LEN,
        Payload::Query(q) => query_len(q.text.text_len(), q.sha1.as_ref().map(String::len)),
        Payload::QueryHit(qh) => query_hit_len(
            qh.results.len(),
            qh.results.iter().map(|r| r.name.len()).sum(),
        ),
        Payload::Bye(b) => bye_len(b.reason.len()),
    }
}

/// Decode one message from the front of `buf`, advancing it.
///
/// Returns [`WireError::Truncated`] when the buffer does not yet hold a
/// complete message (streaming callers retry after reading more bytes —
/// `buf` is left unconsumed in that case).
pub fn decode_message(buf: &mut Bytes) -> Result<Message, WireError> {
    if buf.len() < 23 {
        return Err(WireError::Truncated);
    }
    // Peek the header without consuming, so a truncated body leaves the
    // buffer untouched.
    let header = &buf[..23];
    let mut guid = [0u8; 16];
    guid.copy_from_slice(&header[..16]);
    let type_byte = header[16];
    let ttl = header[17];
    let hops = header[18];
    let len = u32::from_le_bytes([header[19], header[20], header[21], header[22]]);
    if len as usize > MAX_PAYLOAD {
        return Err(WireError::PayloadTooLarge(len));
    }
    if buf.len() < 23 + len as usize {
        return Err(WireError::Truncated);
    }
    buf.advance(23);
    let mut body = buf.split_to(len as usize);
    let payload = decode_payload(type_byte, &mut body)?;
    Ok(Message {
        guid: Guid(guid),
        ttl,
        hops,
        payload,
    })
}

fn take_cstring(body: &mut Bytes) -> Result<String, WireError> {
    let pos = body
        .iter()
        .position(|&b| b == 0)
        .ok_or(WireError::Malformed("missing NUL terminator"))?;
    let s = body.split_to(pos);
    body.advance(1); // the NUL
    String::from_utf8(s.to_vec()).map_err(|_| WireError::BadUtf8)
}

/// As [`take_cstring`] but interning directly from the borrowed bytes, so
/// decoding a query whose text has been seen before allocates nothing.
fn take_cstring_interned(body: &mut Bytes) -> Result<crate::QueryId, WireError> {
    let pos = body
        .iter()
        .position(|&b| b == 0)
        .ok_or(WireError::Malformed("missing NUL terminator"))?;
    let s = body.split_to(pos);
    body.advance(1); // the NUL
    let text = std::str::from_utf8(&s).map_err(|_| WireError::BadUtf8)?;
    Ok(crate::QueryId::intern(text))
}

fn decode_payload(type_byte: u8, body: &mut Bytes) -> Result<Payload, WireError> {
    match type_byte {
        0x00 => Ok(Payload::Ping),
        0x01 => {
            if body.len() < 14 {
                return Err(WireError::Malformed("pong payload too short"));
            }
            let port = body.get_u16_le();
            let addr = Ipv4Addr::new(body.get_u8(), body.get_u8(), body.get_u8(), body.get_u8());
            let shared_files = body.get_u32_le();
            let shared_kb = body.get_u32_le();
            Ok(Payload::Pong(Pong {
                port,
                addr,
                shared_files,
                shared_kb,
            }))
        }
        0x02 => {
            if body.len() < 3 {
                return Err(WireError::Malformed("bye payload too short"));
            }
            let code = body.get_u16_le();
            let reason = take_cstring(body)?;
            Ok(Payload::Bye(Bye { code, reason }))
        }
        0x80 => {
            if body.len() < 3 {
                return Err(WireError::Malformed("query payload too short"));
            }
            let min_speed = body.get_u16_le();
            let text = take_cstring_interned(body)?;
            let sha1 = if body.is_empty() {
                None
            } else {
                let ext = take_cstring(body)?;
                if ext.is_empty() {
                    None
                } else {
                    Some(ext)
                }
            };
            Ok(Payload::Query(Query {
                min_speed,
                text,
                sha1,
            }))
        }
        0x81 => {
            if body.len() < 11 + 16 {
                return Err(WireError::Malformed("queryhit payload too short"));
            }
            let count = body.get_u8();
            let port = body.get_u16_le();
            let addr = Ipv4Addr::new(body.get_u8(), body.get_u8(), body.get_u8(), body.get_u8());
            let speed = body.get_u32_le();
            let mut results = Vec::with_capacity(count as usize);
            for _ in 0..count {
                if body.len() < 8 {
                    return Err(WireError::Malformed("queryhit result truncated"));
                }
                let index = body.get_u32_le();
                let size = body.get_u32_le();
                let name = take_cstring(body)?;
                // Skip the (empty) per-result extension block.
                let _ext = take_cstring(body)?;
                results.push(QueryHitResult { index, size, name });
            }
            if body.len() < 16 {
                return Err(WireError::Malformed("queryhit missing servent GUID"));
            }
            let mut servent = [0u8; 16];
            servent.copy_from_slice(&body.split_to(16));
            Ok(Payload::QueryHit(QueryHit {
                port,
                addr,
                speed,
                results,
                servent: Guid(servent),
            }))
        }
        other => Err(WireError::BadType(other)),
    }
}

pub mod conformance {
    //! Wire-codec conformance checking for the typed fast path.
    //!
    //! The typed transport moves [`Message`] values directly between
    //! actors, so the byte codec is no longer exercised per message. To
    //! keep it from rotting, senders pass every in-flight frame through
    //! `maybe_check_frame`, which round-trips a deterministic sample
    //! (every `SAMPLE_INTERVAL`-th frame, counted per process) through
    //! `encode_message` → `decode_message` and asserts the decode
    //! reproduces the original and that [`encoded_len`] agrees with the
    //! encoder.
    //!
    //! Sampling is active in debug builds (`cfg(debug_assertions)`, which
    //! covers the test suite) and compiled out of release builds. The
    //! check consumes no RNG state, so it never perturbs simulation
    //! determinism — only wall time.

    use super::{decode_message, encode_message, encoded_len};
    use crate::message::Message;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// One in this many sent frames is round-tripped when checking is on.
    pub(crate) const SAMPLE_INTERVAL: u64 = 256;

    static FRAME_COUNTER: AtomicU64 = AtomicU64::new(0);

    /// True when conformance sampling is active for this process.
    pub(crate) fn enabled() -> bool {
        cfg!(debug_assertions)
    }

    /// Round-trip `msg` through the byte codec and panic on any
    /// disagreement. Called on sampled frames; also usable directly from
    /// tests.
    pub fn check_frame(msg: &Message) {
        let mut encoded = encode_message(msg);
        assert_eq!(
            encoded.len(),
            encoded_len(msg),
            "encoded_len disagrees with encode_message for {msg:?}"
        );
        let decoded = decode_message(&mut encoded)
            .unwrap_or_else(|e| panic!("conformance decode failed ({e}) for {msg:?}"));
        assert_eq!(&decoded, msg, "codec round-trip changed the message");
        assert!(
            encoded.is_empty(),
            "trailing bytes after conformance decode"
        );
    }

    /// Sampling entry point used by the typed send path.
    #[inline]
    pub(crate) fn maybe_check_frame(msg: &Message) {
        if !enabled() {
            return;
        }
        if FRAME_COUNTER
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(SAMPLE_INTERVAL)
        {
            check_frame(msg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryId;
    use rand::SeedableRng;

    fn round_trip(msg: &Message) {
        assert_eq!(encode_message(msg).len(), encoded_len(msg));
        let mut encoded = encode_message(msg);
        let decoded = decode_message(&mut encoded).unwrap();
        assert_eq!(&decoded, msg);
        assert!(encoded.is_empty(), "trailing bytes after decode");
    }

    fn guid(seed: u64) -> Guid {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Guid::random(&mut rng)
    }

    #[test]
    fn ping_round_trip() {
        round_trip(&Message::originate(guid(1), Payload::Ping));
    }

    #[test]
    fn pong_round_trip() {
        round_trip(&Message {
            guid: guid(2),
            ttl: 4,
            hops: 3,
            payload: Payload::Pong(Pong {
                port: 6346,
                addr: Ipv4Addr::new(82, 10, 20, 30),
                shared_files: 137,
                shared_kb: 920_000,
            }),
        });
    }

    #[test]
    fn query_round_trip_plain_and_sha1() {
        round_trip(&Message::originate(
            guid(3),
            Payload::Query(Query::keywords("pink floyd dark side")),
        ));
        round_trip(&Message::originate(
            guid(4),
            Payload::Query(Query {
                min_speed: 0,
                text: QueryId::empty(),
                sha1: Some("urn:sha1:PLSTHIPQGSSZTS5FJUPAKUZWUGYQYPFB".into()),
            }),
        ));
        // Unicode keywords survive.
        round_trip(&Message::originate(
            guid(5),
            Payload::Query(Query::keywords("björk homogénic")),
        ));
    }

    #[test]
    fn queryhit_round_trip() {
        round_trip(&Message {
            guid: guid(6),
            ttl: 2,
            hops: 5,
            payload: Payload::QueryHit(QueryHit {
                port: 6348,
                addr: Ipv4Addr::new(24, 9, 8, 7),
                speed: 350,
                results: vec![
                    QueryHitResult {
                        index: 1,
                        size: 4_200_000,
                        name: "track01.mp3".into(),
                    },
                    QueryHitResult {
                        index: 9,
                        size: 77,
                        name: "readme.txt".into(),
                    },
                ],
                servent: guid(7),
            }),
        });
    }

    #[test]
    fn bye_round_trip() {
        round_trip(&Message {
            guid: guid(8),
            ttl: 1,
            hops: 0,
            payload: Payload::Bye(Bye {
                code: 200,
                reason: "shutting down".into(),
            }),
        });
    }

    #[test]
    fn truncated_header_is_retryable() {
        let msg = Message::originate(guid(9), Payload::Ping);
        let full = encode_message(&msg);
        let mut partial = full.slice(..10);
        assert_eq!(decode_message(&mut partial), Err(WireError::Truncated));
        assert_eq!(partial.len(), 10, "buffer must be left intact");
    }

    #[test]
    fn truncated_body_is_retryable() {
        let msg = Message {
            guid: guid(10),
            ttl: 7,
            hops: 0,
            payload: Payload::Query(Query::keywords("some song")),
        };
        let full = encode_message(&msg);
        let mut partial = full.slice(..full.len() - 3);
        assert_eq!(decode_message(&mut partial), Err(WireError::Truncated));
    }

    #[test]
    fn stream_of_messages_decodes_in_order() {
        let msgs = vec![
            Message::originate(guid(11), Payload::Ping),
            Message::originate(guid(12), Payload::Query(Query::keywords("abc def"))),
            Message {
                guid: guid(13),
                ttl: 3,
                hops: 4,
                payload: Payload::Pong(Pong {
                    port: 1,
                    addr: Ipv4Addr::new(1, 2, 3, 4),
                    shared_files: 0,
                    shared_kb: 0,
                }),
            },
        ];
        let mut stream = BytesMut::new();
        for m in &msgs {
            stream.put_slice(&encode_message(m));
        }
        let mut stream = stream.freeze();
        for m in &msgs {
            assert_eq!(&decode_message(&mut stream).unwrap(), m);
        }
        assert!(stream.is_empty());
    }

    #[test]
    fn rejects_bad_type_and_oversize() {
        let msg = Message::originate(guid(14), Payload::Ping);
        let full = encode_message(&msg);
        let mut bad = BytesMut::from(&full[..]);
        bad[16] = 0x55; // unknown type
        let mut b = bad.freeze();
        assert_eq!(decode_message(&mut b), Err(WireError::BadType(0x55)));

        let mut oversize = BytesMut::from(&full[..]);
        oversize[19..23].copy_from_slice(&(MAX_PAYLOAD as u32 + 1).to_le_bytes());
        let mut b = oversize.freeze();
        assert!(matches!(
            decode_message(&mut b),
            Err(WireError::PayloadTooLarge(_))
        ));
    }

    #[test]
    fn rejects_malformed_query() {
        // Query payload with no NUL terminator.
        let mut buf = BytesMut::new();
        buf.put_slice(guid(15).as_bytes());
        buf.put_u8(0x80);
        buf.put_u8(7);
        buf.put_u8(0);
        let body = b"\x00\x00no-terminator";
        buf.put_u32_le(body.len() as u32);
        buf.put_slice(body);
        let mut b = buf.freeze();
        assert_eq!(
            decode_message(&mut b),
            Err(WireError::Malformed("missing NUL terminator"))
        );
    }

    #[test]
    fn error_display() {
        assert!(WireError::BadType(0x7f).to_string().contains("0x7f"));
        assert!(WireError::Truncated.to_string().contains("truncated"));
    }
}
