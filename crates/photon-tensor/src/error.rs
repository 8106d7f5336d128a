use std::fmt;

/// Errors produced by the slice codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// A serialized buffer was truncated or corrupt.
    Deserialize(String),
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::Deserialize(msg) => write!(f, "deserialization failed: {msg}"),
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let s = TensorError::Deserialize("truncated".into()).to_string();
        assert!(!s.is_empty());
        assert!(s.chars().next().unwrap().is_lowercase());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }
}
