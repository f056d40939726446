//! CRC-16/CCITT-FALSE frame check sequence.
//!
//! Polynomial `0x1021`, initial value `0xFFFF`, no reflection, no final
//! XOR — the variant used by Bluetooth baseband-adjacent framing and a
//! natural choice for Braidio's packets.

/// CRC-16/CCITT-FALSE over a byte slice.
pub fn crc16_ccitt(data: &[u8]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for &byte in data {
        crc ^= (byte as u16) << 8;
        for _ in 0..8 {
            if crc & 0x8000 != 0 {
                crc = (crc << 1) ^ 0x1021;
            } else {
                crc <<= 1;
            }
        }
    }
    crc
}

/// Verify that `data` followed by its big-endian CRC checks out.
#[cfg(test)]
pub fn verify_with_trailer(data_and_crc: &[u8]) -> bool {
    if data_and_crc.len() < 2 {
        return false;
    }
    let (data, trailer) = data_and_crc.split_at(data_and_crc.len() - 2);
    let expected = u16::from_be_bytes([trailer[0], trailer[1]]);
    crc16_ccitt(data) == expected
}

/// Append the big-endian CRC to a payload.
pub fn append_crc(data: &[u8]) -> Vec<u8> {
    let mut out = data.to_vec();
    out.extend_from_slice(&crc16_ccitt(data).to_be_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector_123456789() {
        // The canonical check value for CRC-16/CCITT-FALSE.
        assert_eq!(crc16_ccitt(b"123456789"), 0x29B1);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc16_ccitt(b""), 0xFFFF);
    }

    #[test]
    fn append_and_verify_round_trip() {
        let framed = append_crc(b"braidio");
        assert!(verify_with_trailer(&framed));
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut framed = append_crc(b"carrier offload");
        for byte in 0..framed.len() {
            for bit in 0..8 {
                framed[byte] ^= 1 << bit;
                assert!(
                    !verify_with_trailer(&framed),
                    "missed flip at byte {byte} bit {bit}"
                );
                framed[byte] ^= 1 << bit;
            }
        }
        assert!(verify_with_trailer(&framed));
    }

    #[test]
    fn detects_swapped_bytes() {
        let mut framed = append_crc(b"ab");
        framed.swap(0, 1);
        assert!(!verify_with_trailer(&framed));
    }

    #[test]
    fn too_short_is_invalid() {
        assert!(!verify_with_trailer(&[]));
        assert!(!verify_with_trailer(&[0x12]));
    }
}
