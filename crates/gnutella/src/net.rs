//! Simulation-level transport messages.
//!
//! `simnet` actors exchange [`NetMsg`] values that model a TCP connection's
//! lifecycle: connect (carrying the rendered 0.6 handshake), the accept /
//! busy reply, framed Gnutella traffic, and an unceremonious disconnect —
//! the way most 2004 clients actually left (§3.2).
//!
//! Framed traffic travels in one of two representations:
//!
//! * [`NetMsg::Frame`] — the **typed fast path**: the decoded [`Message`]
//!   moves between actors directly. Inside one simulated process there is
//!   nothing to serialize, so this skips the encode/decode round trip
//!   entirely; byte accounting uses [`crate::wire::encoded_len`], and the
//!   codec is kept honest by the sampling conformance layer
//!   ([`crate::wire::conformance`]).
//! * [`NetMsg::Data`] — the byte path: frames produced by
//!   [`crate::wire::encode_message`] (possibly several concatenated) and
//!   decoded by the receiver, exercising the binary codec end-to-end.
//!
//! Senders pick a representation through [`Transport`]; receivers must
//! accept both (the typed-vs-bytes equivalence is test-enforced at the
//! campaign level).

use crate::handshake::HandshakeResponse;
use crate::message::Message;
use crate::wire::{conformance, encode_message};
use bytes::Bytes;
use std::net::Ipv4Addr;

/// One transport-level event between two simulated endpoints.
#[derive(Debug, Clone)]
pub enum NetMsg {
    /// TCP connect + `GNUTELLA CONNECT/0.6` request (rendered headers) from
    /// a peer whose listening address is `addr`.
    Connect {
        /// The connecting peer's address.
        addr: Ipv4Addr,
        /// The rendered handshake request.
        handshake: String,
    },
    /// Handshake response.
    ConnectReply(HandshakeResponse),
    /// One Gnutella message on the typed fast path (no codec round trip).
    Frame(Message),
    /// Framed Gnutella messages as wire bytes (possibly several
    /// concatenated).
    Data(Bytes),
    /// Connection teardown (TCP FIN/RST); no BYE before it.
    Disconnect,
}

/// How a sender frames Gnutella messages onto the simulated wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Transport {
    /// Typed fast path: [`NetMsg::Frame`], zero per-message allocation on
    /// send, conformance-sampled through the byte codec.
    #[default]
    Typed,
    /// Byte path: encode to [`NetMsg::Data`]; the receiver decodes. Kept
    /// for codec-equivalence regression tests and fidelity experiments.
    Bytes,
}

impl Transport {
    /// Wrap `msg` for sending under this transport. The typed path moves
    /// the message without touching the heap (and feeds the conformance
    /// sampler); the byte path pays the full encode.
    #[inline]
    pub fn frame(self, msg: Message) -> NetMsg {
        match self {
            Transport::Typed => {
                conformance::maybe_check_frame(&msg);
                NetMsg::Frame(msg)
            }
            Transport::Bytes => NetMsg::Data(encode_message(&msg)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handshake::Handshake;
    use crate::message::Payload;
    use crate::wire::decode_message;
    use crate::Guid;

    #[test]
    fn data_frames_round_trip_through_netmsg() {
        let m = Message::originate(Guid([7; 16]), Payload::Ping);
        let msg = NetMsg::Data(encode_message(&m));
        match msg {
            NetMsg::Data(mut b) => {
                assert_eq!(decode_message(&mut b).unwrap(), m);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn transport_typed_moves_the_message_bytes_encodes_it() {
        let m = Message::originate(Guid([9; 16]), Payload::Ping);
        match Transport::Typed.frame(m.clone()) {
            NetMsg::Frame(f) => assert_eq!(f, m),
            other => panic!("expected Frame, got {other:?}"),
        }
        match Transport::Bytes.frame(m.clone()) {
            NetMsg::Data(mut b) => assert_eq!(decode_message(&mut b).unwrap(), m),
            other => panic!("expected Data, got {other:?}"),
        }
    }

    #[test]
    fn transport_default_is_typed() {
        assert_eq!(Transport::default(), Transport::Typed);
    }

    #[test]
    fn connect_carries_parseable_handshake() {
        let h = Handshake::new("Mutella/0.4.5", true);
        let msg = NetMsg::Connect {
            addr: Ipv4Addr::new(24, 1, 2, 3),
            handshake: h.render(),
        };
        match msg {
            NetMsg::Connect { handshake, addr } => {
                assert_eq!(Handshake::parse(&handshake).unwrap(), h);
                assert_eq!(addr.octets()[0], 24);
            }
            _ => unreachable!(),
        }
    }
}
