use crate::TokenId;
use serde::{Deserialize, Serialize};

/// A token vocabulary mapping ids to byte sequences.
///
/// The first 256 entries are always the single bytes `0..=255`; merged BPE
/// tokens and special tokens follow. This layout guarantees every byte
/// string is encodable, so no `<unk>` token is needed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Vocab {
    tokens: Vec<Vec<u8>>,
    eot: TokenId,
}

impl Vocab {
    /// Builds the base byte vocabulary (256 bytes + one `<|eot|>` token).
    pub(crate) fn base_bytes() -> Self {
        let mut tokens: Vec<Vec<u8>> = (0u16..256).map(|b| vec![b as u8]).collect();
        let eot = tokens.len() as TokenId;
        tokens.push(b"<|eot|>".to_vec());
        Vocab { tokens, eot }
    }

    /// Appends a merged token, returning its id.
    pub(crate) fn push_merged(&mut self, bytes: Vec<u8>) -> TokenId {
        let id = self.tokens.len() as TokenId;
        self.tokens.push(bytes);
        id
    }

    /// Byte sequence of a token id, if valid. The `<|eot|>` token decodes to
    /// its literal marker bytes.
    pub(crate) fn bytes_of(&self, id: TokenId) -> Option<&[u8]> {
        self.tokens.get(id as usize).map(|v| v.as_slice())
    }

    /// Total number of tokens (bytes + eot + merges).
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the vocabulary is empty (never true for constructed vocabs).
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// The end-of-text token id.
    pub fn eot_id(&self) -> TokenId {
        self.eot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_has_all_bytes_and_eot() {
        let v = Vocab::base_bytes();
        assert_eq!(v.len(), 257);
        assert_eq!(v.bytes_of(65), Some(&b"A"[..]));
        assert_eq!(v.eot_id(), 256);
        assert!(!v.is_empty());
    }

    #[test]
    fn push_merged_is_retrievable() {
        let mut v = Vocab::base_bytes();
        let id = v.push_merged(b"th".to_vec());
        assert_eq!(v.bytes_of(id), Some(&b"th"[..]));
    }

    #[test]
    fn serde_roundtrip_rebuilds_lookup() {
        let mut v = Vocab::base_bytes();
        v.push_merged(b"he".to_vec());
        let json = serde_json::to_string(&v).unwrap();
        let back: Vocab = serde_json::from_str(&json).unwrap();
        assert_eq!(back, v);
    }
}
