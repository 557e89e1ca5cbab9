//! Offline stand-in for the `hex` crate.

/// Lower-case hex encoding.
pub fn encode(data: impl AsRef<[u8]>) -> String {
    let mut out = String::with_capacity(data.as_ref().len() * 2);
    for b in data.as_ref() {
        out.push(char::from_digit((b >> 4) as u32, 16).unwrap());
        out.push(char::from_digit((b & 0xf) as u32, 16).unwrap());
    }
    out
}

/// Hex decoding (accepts upper or lower case).
pub fn decode(s: impl AsRef<[u8]>) -> Result<Vec<u8>, FromHexError> {
    let s = s.as_ref();
    if s.len() % 2 != 0 {
        return Err(FromHexError::OddLength);
    }
    s.chunks(2)
        .map(|pair| {
            let hi = (pair[0] as char).to_digit(16).ok_or(FromHexError::InvalidHexCharacter)?;
            let lo = (pair[1] as char).to_digit(16).ok_or(FromHexError::InvalidHexCharacter)?;
            Ok((hi << 4 | lo) as u8)
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FromHexError {
    InvalidHexCharacter,
    OddLength,
}

impl std::fmt::Display for FromHexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FromHexError::InvalidHexCharacter => write!(f, "invalid hex character"),
            FromHexError::OddLength => write!(f, "odd number of hex digits"),
        }
    }
}

impl std::error::Error for FromHexError {}

#[cfg(test)]
mod tests {
    #[test]
    fn roundtrip() {
        assert_eq!(super::encode([0xde, 0xad, 0xbe, 0xef]), "deadbeef");
        assert_eq!(super::decode("DeadBEEF").unwrap(), vec![0xde, 0xad, 0xbe, 0xef]);
        assert!(super::decode("abc").is_err());
        assert!(super::decode("zz").is_err());
    }
}
