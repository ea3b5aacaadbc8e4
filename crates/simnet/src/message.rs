use std::fmt;

/// An `r`-bit message from a player to the referee, `1 ≤ r ≤ 32`.
///
/// The single-bit model of the paper corresponds to `r = 1`; Theorem 6.4
/// studies how the lower bound decays with `r`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Message {
    bits: u32,
    len: u8,
}

impl Message {
    /// Creates a message with the given payload and bit length.
    ///
    /// # Panics
    ///
    /// Panics if `len` is 0 or exceeds 32, or `bits` has bits above `len`.
    #[must_use]
    pub fn new(bits: u32, len: u8) -> Self {
        assert!(
            (1..=32).contains(&len),
            "message length must be 1..=32 bits"
        );
        assert!(
            len == 32 || bits < (1u32 << len),
            "payload {bits:#x} does not fit in {len} bits"
        );
        Self { bits, len }
    }

    /// The payload.
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The message length in bits.
    #[must_use]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// Messages always carry at least one bit.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:0width$b}", self.bits, width = self.len as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_payload() {
        let m = Message::new(0b101, 3);
        assert_eq!(m.bits(), 5);
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
    }

    #[test]
    fn display_pads_to_length() {
        assert_eq!(Message::new(0b01, 4).to_string(), "0001");
        assert_eq!(Message::new(1, 1).to_string(), "1");
    }

    #[test]
    fn full_width_message() {
        let m = Message::new(u32::MAX, 32);
        assert_eq!(m.bits(), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_payload_panics() {
        let _ = Message::new(0b100, 2);
    }

    #[test]
    #[should_panic(expected = "1..=32")]
    fn zero_length_panics() {
        let _ = Message::new(0, 0);
    }
}
