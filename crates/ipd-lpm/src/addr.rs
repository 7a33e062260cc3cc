//! Address-family-tagged IP addresses.

use std::fmt;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// Address family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Af {
    /// IPv4 — 32 bit addresses.
    V4,
    /// IPv6 — 128 bit addresses.
    V6,
}

impl Af {
    /// Address width in bits (32 or 128).
    #[inline]
    pub const fn width(self) -> u8 {
        match self {
            Af::V4 => 32,
            Af::V6 => 128,
        }
    }

    /// Network mask for a prefix of length `len`, expressed in the low
    /// `width()` bits of a `u128`.
    ///
    /// `len` must be `<= width()`; this is checked by the callers that accept
    /// external input ([`crate::Prefix::new`]) and debug-asserted here.
    #[inline]
    pub fn mask(self, len: u8) -> u128 {
        let w = self.width();
        debug_assert!(len <= w, "prefix length {len} exceeds width {w}");
        if len == 0 {
            return 0;
        }
        let full: u128 = if w == 128 { !0 } else { (1u128 << w) - 1 };
        // Clear the low `w - len` host bits.
        let host_bits = (w - len) as u32;
        if host_bits == 0 {
            full
        } else {
            full & !((1u128 << host_bits) - 1)
        }
    }
}

impl fmt::Display for Af {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Af::V4 => write!(f, "4"),
            Af::V6 => write!(f, "6"),
        }
    }
}

/// An IP address tagged with its family, stored as the low bits of a `u128`.
///
/// IPv4 addresses occupy the low 32 bits. The representation makes masking and
/// trie navigation uniform across families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Addr {
    af: Af,
    bits: u128,
}

impl Addr {
    /// Build an address from raw bits. Bits above the family width are cleared.
    #[inline]
    pub fn new(af: Af, bits: u128) -> Self {
        let bits = match af {
            Af::V4 => bits & 0xFFFF_FFFF,
            Af::V6 => bits,
        };
        Addr { af, bits }
    }

    /// Convenience constructor for IPv4 from a `u32`.
    #[inline]
    pub fn v4(bits: u32) -> Self {
        Addr {
            af: Af::V4,
            bits: bits as u128,
        }
    }

    /// Convenience constructor for IPv6 from a `u128`.
    #[inline]
    pub fn v6(bits: u128) -> Self {
        Addr { af: Af::V6, bits }
    }

    /// The address family.
    #[inline]
    pub fn af(self) -> Af {
        self.af
    }

    /// The raw bits (low `width()` bits significant).
    #[inline]
    pub fn bits(self) -> u128 {
        self.bits
    }

    /// The value of bit `i`, counting from the most significant bit of the
    /// address (bit 0 is the top bit). Used for trie navigation.
    ///
    /// # Panics
    /// Panics in debug builds if `i >= width()`.
    #[inline]
    pub fn bit(self, i: u8) -> bool {
        let w = self.af.width();
        debug_assert!(i < w, "bit index {i} out of range for width {w}");
        (self.bits >> (w - 1 - i)) & 1 == 1
    }

    /// The address masked to `len` bits (host bits cleared).
    #[inline]
    pub fn masked(self, len: u8) -> Addr {
        Addr {
            af: self.af,
            bits: self.bits & self.af.mask(len),
        }
    }
}

impl From<Ipv4Addr> for Addr {
    fn from(a: Ipv4Addr) -> Self {
        Addr::v4(u32::from(a))
    }
}

impl From<Ipv6Addr> for Addr {
    fn from(a: Ipv6Addr) -> Self {
        Addr::v6(u128::from(a))
    }
}

impl From<IpAddr> for Addr {
    fn from(a: IpAddr) -> Self {
        match a {
            IpAddr::V4(v4) => v4.into(),
            IpAddr::V6(v6) => v6.into(),
        }
    }
}

impl From<Addr> for IpAddr {
    fn from(a: Addr) -> Self {
        match a.af {
            Af::V4 => IpAddr::V4(Ipv4Addr::from(a.bits as u32)),
            Af::V6 => IpAddr::V6(Ipv6Addr::from(a.bits)),
        }
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", IpAddr::from(*self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn af_width() {
        assert_eq!(Af::V4.width(), 32);
        assert_eq!(Af::V6.width(), 128);
    }

    #[test]
    fn mask_v4_boundaries() {
        assert_eq!(Af::V4.mask(0), 0);
        assert_eq!(Af::V4.mask(8), 0xFF00_0000);
        assert_eq!(Af::V4.mask(24), 0xFFFF_FF00);
        assert_eq!(Af::V4.mask(32), 0xFFFF_FFFF);
    }

    #[test]
    fn mask_v6_boundaries() {
        assert_eq!(Af::V6.mask(0), 0);
        assert_eq!(Af::V6.mask(128), !0u128);
        assert_eq!(Af::V6.mask(64), !0u128 << 64);
        assert_eq!(Af::V6.mask(48), !0u128 << 80);
    }

    #[test]
    fn addr_v4_roundtrip() {
        let a: Addr = Ipv4Addr::new(192, 0, 2, 1).into();
        assert_eq!(a.af(), Af::V4);
        assert_eq!(a.bits(), 0xC000_0201);
        assert_eq!(a.to_string(), "192.0.2.1");
    }

    #[test]
    fn addr_v6_roundtrip() {
        let a: Addr = "2001:db8::1".parse::<Ipv6Addr>().unwrap().into();
        assert_eq!(a.af(), Af::V6);
        assert_eq!(a.to_string(), "2001:db8::1");
    }

    #[test]
    fn v4_high_bits_cleared() {
        let a = Addr::new(Af::V4, u128::MAX);
        assert_eq!(a.bits(), 0xFFFF_FFFF);
    }

    #[test]
    fn bit_indexing_msb_first() {
        let a: Addr = Ipv4Addr::new(128, 0, 0, 1).into();
        assert!(a.bit(0));
        assert!(!a.bit(1));
        assert!(a.bit(31));
    }

    #[test]
    fn masked_clears_host_bits() {
        let a: Addr = Ipv4Addr::new(192, 0, 2, 255).into();
        assert_eq!(a.masked(24).to_string(), "192.0.2.0");
        assert_eq!(a.masked(28).to_string(), "192.0.2.240");
        assert_eq!(a.masked(0).to_string(), "0.0.0.0");
    }
}
