//! Bit-level framing: preamble, sync word, length, payload, FCS.
//!
//! Layout on the air (most significant bit first):
//!
//! ```text
//! +-----------+----------+--------+------------+---------+
//! | preamble  | sync(16) | len(8) | payload    | crc(16) |
//! | 0xAA * n  |  0xF0B7  |        | len bytes  |  CCITT  |
//! +-----------+----------+--------+------------+---------+
//! ```
//!
//! The alternating preamble gives the envelope detector's high-pass filter
//! and the comparator time to settle (there is no AGC in a passive chain —
//! the preamble *is* the settling mechanism), and the decoder tolerates a
//! configurable number of bit errors in the sync correlation.

use crate::crc::{append_crc, crc16_ccitt};

/// The 16-bit sync word (chosen for balanced, edge-rich structure).
pub const SYNC_WORD: u16 = 0xF0B7;

/// Default number of 0xAA preamble octets.
pub const DEFAULT_PREAMBLE_OCTETS: usize = 4;

/// Maximum payload length (single length octet).
pub const MAX_PAYLOAD: usize = 255;

/// A link-layer frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Payload bytes (up to [`MAX_PAYLOAD`]).
    pub payload: Vec<u8>,
}

/// Why decoding failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// No sync word found within the allowed error budget.
    NoSync,
    /// Bitstream ended before the advertised payload finished.
    Truncated,
    /// CRC mismatch — the payload is corrupt.
    BadCrc,
}

impl Frame {
    /// A frame carrying `payload`.
    pub fn new(payload: impl Into<Vec<u8>>) -> Self {
        let payload = payload.into();
        assert!(payload.len() <= MAX_PAYLOAD, "payload too long");
        Frame { payload }
    }

    /// On-air length in bits, including preamble and FCS.
    pub fn air_bits(&self) -> usize {
        (DEFAULT_PREAMBLE_OCTETS + 2 + 1 + self.payload.len() + 2) * 8
    }

    /// Serialize to the on-air bit sequence (MSB first).
    pub fn encode(&self) -> Vec<bool> {
        let mut bytes = Vec::with_capacity(DEFAULT_PREAMBLE_OCTETS + 5 + self.payload.len());
        bytes.extend(std::iter::repeat_n(0xAAu8, DEFAULT_PREAMBLE_OCTETS));
        bytes.extend_from_slice(&SYNC_WORD.to_be_bytes());
        let mut body = vec![self.payload.len() as u8];
        body.extend_from_slice(&self.payload);
        bytes.extend_from_slice(&append_crc(&body));
        bytes_to_bits(&bytes)
    }

    /// Decode from a received bit sequence, tolerating up to
    /// `sync_tolerance` bit errors in the sync correlation. The CRC covers
    /// length + payload, so any surviving payload error is rejected.
    pub fn decode(bits: &[bool], sync_tolerance: u32) -> Result<Frame, DecodeError> {
        let sync_bits = bytes_to_bits(&SYNC_WORD.to_be_bytes());
        let start = find_sync(bits, &sync_bits, sync_tolerance).ok_or(DecodeError::NoSync)?;
        let body_start = start + sync_bits.len();
        let header = take_byte(bits, body_start).ok_or(DecodeError::Truncated)?;
        let len = header as usize;
        let total_bytes = 1 + len + 2;
        let mut body = Vec::with_capacity(total_bytes);
        for i in 0..total_bytes {
            body.push(take_byte(bits, body_start + i * 8).ok_or(DecodeError::Truncated)?);
        }
        let (data, trailer) = body.split_at(total_bytes - 2);
        let expected = u16::from_be_bytes([trailer[0], trailer[1]]);
        if crc16_ccitt(data) != expected {
            return Err(DecodeError::BadCrc);
        }
        Ok(Frame {
            payload: data[1..].to_vec(),
        })
    }
}

/// Expand bytes to MSB-first bits.
pub fn bytes_to_bits(bytes: &[u8]) -> Vec<bool> {
    let mut bits = Vec::with_capacity(bytes.len() * 8);
    for &b in bytes {
        for i in (0..8).rev() {
            bits.push(b & (1 << i) != 0);
        }
    }
    bits
}

fn take_byte(bits: &[bool], start: usize) -> Option<u8> {
    if start + 8 > bits.len() {
        return None;
    }
    Some(
        bits[start..start + 8]
            .iter()
            .fold(0u8, |acc, &b| (acc << 1) | b as u8),
    )
}

/// Find the first offset where the Hamming distance to `pattern` is within
/// `tolerance`. Returns the offset of the *start of the pattern*.
fn find_sync(bits: &[bool], pattern: &[bool], tolerance: u32) -> Option<usize> {
    if bits.len() < pattern.len() {
        return None;
    }
    (0..=bits.len() - pattern.len()).find(|&off| {
        let dist: u32 = pattern
            .iter()
            .zip(&bits[off..off + pattern.len()])
            .map(|(a, b)| (a != b) as u32)
            .sum();
        dist <= tolerance
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let f = Frame::new(b"carrier offload".to_vec());
        let bits = f.encode();
        let g = Frame::decode(&bits, 0).expect("decode");
        assert_eq!(f, g);
    }

    #[test]
    fn air_bits_accounting() {
        let f = Frame::new(vec![0u8; 10]);
        assert_eq!(f.air_bits(), (4 + 2 + 1 + 10 + 2) * 8);
        assert_eq!(f.encode().len(), f.air_bits());
    }

    #[test]
    fn empty_payload_ok() {
        let f = Frame::new(Vec::new());
        let bits = f.encode();
        assert_eq!(Frame::decode(&bits, 0).unwrap().payload, Vec::<u8>::new());
    }

    #[test]
    fn tolerates_sync_bit_errors() {
        let f = Frame::new(b"x".to_vec());
        let mut bits = f.encode();
        // Flip two bits inside the sync word (offset: preamble is 32 bits).
        bits[33] = !bits[33];
        bits[40] = !bits[40];
        assert_eq!(Frame::decode(&bits, 2).unwrap(), f);
        assert_eq!(Frame::decode(&bits, 1).unwrap_err(), DecodeError::NoSync);
    }

    #[test]
    fn payload_corruption_caught_by_crc() {
        let f = Frame::new(b"payload".to_vec());
        let mut bits = f.encode();
        let payload_bit = (4 + 2 + 1) * 8 + 3; // inside the payload
        bits[payload_bit] = !bits[payload_bit];
        assert_eq!(Frame::decode(&bits, 0).unwrap_err(), DecodeError::BadCrc);
    }

    #[test]
    fn truncated_stream_detected() {
        let f = Frame::new(b"long enough payload".to_vec());
        let bits = f.encode();
        let cut = &bits[..bits.len() - 20];
        assert_eq!(Frame::decode(cut, 0).unwrap_err(), DecodeError::Truncated);
    }

    #[test]
    fn decode_with_leading_noise() {
        // The receiver usually starts listening mid-air; leading garbage
        // before the preamble must not break sync.
        let f = Frame::new(b"hi".to_vec());
        let mut bits = vec![true, false, false, true, true, false, true];
        bits.extend(f.encode());
        assert_eq!(Frame::decode(&bits, 0).unwrap(), f);
    }

    #[test]
    #[should_panic(expected = "payload too long")]
    fn oversize_payload_rejected() {
        let _ = Frame::new(vec![0u8; 256]);
    }
}
