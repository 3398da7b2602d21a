//! The Gnutella 0.6 connection handshake.
//!
//! Clients open with `GNUTELLA CONNECT/0.6` followed by HTTP-style headers;
//! the responder answers `GNUTELLA/0.6 200 OK`. The paper records the
//! `User-Agent` header to attribute automated-query anomalies to specific
//! client implementations (§3.3), and `X-Ultrapeer` to classify
//! ultrapeer vs leaf connections (Table 1: ≈40 % ultrapeers, 60 % leaves).

use std::collections::BTreeMap;
use std::fmt;

/// A parsed `GNUTELLA CONNECT/0.6` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Handshake {
    /// The `User-Agent` header (client implementation + version).
    pub user_agent: String,
    /// `X-Ultrapeer: True/False`.
    pub ultrapeer: bool,
    /// Any additional headers, normalized to lowercase keys.
    pub(crate) extra: BTreeMap<String, String>,
}

/// Handshake parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HandshakeError {
    /// The first line was not `GNUTELLA CONNECT/0.6`.
    BadRequestLine(String),
    /// A header line had no `:` separator.
    BadHeader(String),
}

impl fmt::Display for HandshakeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HandshakeError::BadRequestLine(l) => write!(f, "bad request line: {l:?}"),
            HandshakeError::BadHeader(l) => write!(f, "bad header line: {l:?}"),
        }
    }
}

impl std::error::Error for HandshakeError {}

impl Handshake {
    /// Build a handshake for a client.
    pub fn new(user_agent: impl Into<String>, ultrapeer: bool) -> Handshake {
        Handshake {
            user_agent: user_agent.into(),
            ultrapeer,
            extra: BTreeMap::new(),
        }
    }

    /// Render the on-the-wire request.
    pub fn render(&self) -> String {
        let mut out = String::from("GNUTELLA CONNECT/0.6\r\n");
        out.push_str(&format!("User-Agent: {}\r\n", self.user_agent));
        out.push_str(&format!(
            "X-Ultrapeer: {}\r\n",
            if self.ultrapeer { "True" } else { "False" }
        ));
        for (k, v) in &self.extra {
            out.push_str(&format!("{k}: {v}\r\n"));
        }
        out.push_str("\r\n");
        out
    }

    /// Parse an on-the-wire request.
    pub fn parse(text: &str) -> Result<Handshake, HandshakeError> {
        let mut lines = text.split("\r\n");
        let first = lines.next().unwrap_or("");
        if first != "GNUTELLA CONNECT/0.6" {
            return Err(HandshakeError::BadRequestLine(first.to_string()));
        }
        let mut user_agent = String::new();
        let mut ultrapeer = false;
        let mut extra = BTreeMap::new();
        for line in lines {
            if line.is_empty() {
                break;
            }
            let Some((k, v)) = line.split_once(':') else {
                return Err(HandshakeError::BadHeader(line.to_string()));
            };
            let key = k.trim().to_ascii_lowercase();
            let val = v.trim().to_string();
            match key.as_str() {
                "user-agent" => user_agent = val,
                "x-ultrapeer" => ultrapeer = val.eq_ignore_ascii_case("true"),
                _ => {
                    extra.insert(key, val);
                }
            }
        }
        Ok(Handshake {
            user_agent,
            ultrapeer,
            extra,
        })
    }
}

/// The responder's side of the exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandshakeResponse {
    /// `GNUTELLA/0.6 200 OK` — connection accepted.
    Accept,
    /// `GNUTELLA/0.6 503 ...` — at capacity (the measurement peer caps at
    /// 200 simultaneous connections).
    Busy,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trip() {
        let mut h = Handshake::new("Mutella/0.4.5", true);
        h.extra.insert("x-query-routing".into(), "0.1".into());
        let parsed = Handshake::parse(&h.render()).unwrap();
        assert_eq!(parsed, h);
    }

    #[test]
    fn leaf_handshake() {
        let h = Handshake::new("LimeWire/3.8.10", false);
        let text = h.render();
        assert!(text.contains("X-Ultrapeer: False"));
        let parsed = Handshake::parse(&text).unwrap();
        assert!(!parsed.ultrapeer);
        assert_eq!(parsed.user_agent, "LimeWire/3.8.10");
    }

    #[test]
    fn parse_is_case_insensitive_on_headers() {
        let text = "GNUTELLA CONNECT/0.6\r\nUSER-AGENT: BearShare/4.6\r\nx-ultrapeer: TRUE\r\n\r\n";
        let h = Handshake::parse(text).unwrap();
        assert_eq!(h.user_agent, "BearShare/4.6");
        assert!(h.ultrapeer);
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            Handshake::parse("GET / HTTP/1.0\r\n\r\n"),
            Err(HandshakeError::BadRequestLine(_))
        ));
        assert!(matches!(
            Handshake::parse("GNUTELLA CONNECT/0.6\r\nnocolonheader\r\n\r\n"),
            Err(HandshakeError::BadHeader(_))
        ));
    }
}
