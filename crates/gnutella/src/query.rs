//! Query identity semantics.
//!
//! "According to the Gnutella protocol, queries are assumed to be identical
//! if they contain the same set of keywords" (§3.2). [`QueryKey`]
//! implements that equivalence: keywords are lowercased, tokenized on
//! whitespace, deduplicated and sorted, so `"Floyd pink"` and
//! `"pink  FLOYD"` are the same query. The filter pipeline (rule 2) and
//! the popularity analysis both key on it.

use std::fmt;

/// Canonical identity of a query string: the sorted set of its keywords.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryKey(String);

impl QueryKey {
    /// Normalize a raw query string.
    pub fn new(text: &str) -> QueryKey {
        let mut words: Vec<String> = text.split_whitespace().map(|w| w.to_lowercase()).collect();
        words.sort();
        words.dedup();
        QueryKey(words.join(" "))
    }

    /// The canonical form.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for QueryKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for QueryKey {
    fn from(s: &str) -> Self {
        QueryKey::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_set_equivalence() {
        assert_eq!(QueryKey::new("pink floyd"), QueryKey::new("Floyd PINK"));
        assert_eq!(QueryKey::new("a  b   c"), QueryKey::new("c b a"));
        assert_eq!(QueryKey::new("dup dup dup"), QueryKey::new("dup"));
        assert_ne!(QueryKey::new("pink floyd"), QueryKey::new("pink"));
    }

    #[test]
    fn empty_and_whitespace() {
        assert_eq!(QueryKey::new("").as_str(), "");
        assert_eq!(QueryKey::new("   \t ").as_str(), "");
    }

    #[test]
    fn keyword_count() {
        assert_eq!(
            QueryKey::new("one two three").as_str().split(' ').count(),
            3
        );
        assert_eq!(QueryKey::new("one one").as_str(), "one");
    }

    #[test]
    fn display_and_from() {
        let k: QueryKey = "Zeppelin led".into();
        assert_eq!(k.to_string(), "led zeppelin");
        assert_eq!(k.as_str(), "led zeppelin");
    }

    #[test]
    fn unicode_lowercasing() {
        assert_eq!(QueryKey::new("BJÖRK"), QueryKey::new("björk"));
    }
}
