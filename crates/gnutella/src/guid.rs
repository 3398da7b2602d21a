//! Global unique identifiers (GUIDs).
//!
//! Every Gnutella message carries a 16-byte GUID. Routing tables key on it
//! to suppress duplicate floods and to route QUERYHITs back along the
//! reverse path (§3.1).

use rand::Rng;
use std::fmt;

/// A 16-byte Gnutella message identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Guid(pub [u8; 16]);

impl Guid {
    /// Draw a fresh GUID. Follows the modern convention of setting byte 8
    /// to 0xFF and byte 15 to 0x00 (marks "new-style" clients on the wire).
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Guid {
        let mut b = [0u8; 16];
        rng.fill(&mut b);
        b[8] = 0xFF;
        b[15] = 0x00;
        Guid(b)
    }

    /// Raw bytes.
    pub(crate) fn as_bytes(&self) -> &[u8; 16] {
        &self.0
    }

    fn write_hex(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Guid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_hex(f)
    }
}

impl fmt::Display for Guid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_hex(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn random_guids_are_unique_and_marked() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let g = Guid::random(&mut rng);
            assert_eq!(g.0[8], 0xFF);
            assert_eq!(g.0[15], 0x00);
            assert_ne!(g, Guid([0; 16]));
            assert!(seen.insert(g));
        }
    }

    #[test]
    fn hex_display() {
        let g = Guid([0xAB; 16]);
        let s = g.to_string();
        assert_eq!(s.len(), 32);
        assert!(s.chars().all(|c| c == 'a' || c == 'b'));
        assert_eq!(format!("{g:?}"), s);
    }
}
