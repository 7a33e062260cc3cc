//! CIDR prefixes with trie-navigation operations.

use std::cmp::Ordering;
use std::fmt;
use std::net::IpAddr;
use std::str::FromStr;

use crate::addr::{Addr, Af};

/// A CIDR range: a network address plus a prefix length.
///
/// The host bits are always stored as zero, so two `Prefix` values describing
/// the same range always compare equal. Ordering is by family, then network
/// address, then length — i.e. a parent sorts before its children and ranges
/// appear in address order, which is what the evaluation code relies on when
/// printing range tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Prefix {
    addr: Addr,
    len: u8,
}

/// Error type for [`Prefix::from_str`] / [`Prefix::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParsePrefixError {
    /// The address part did not parse as an IPv4/IPv6 address.
    BadAddr(String),
    /// The length part did not parse as an integer.
    BadLen(String),
    /// The length exceeds the family's address width.
    LenOutOfRange { len: u8, width: u8 },
    /// No `/` separator found.
    MissingSlash(String),
}

impl fmt::Display for ParsePrefixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParsePrefixError::BadAddr(s) => write!(f, "invalid address in prefix: {s:?}"),
            ParsePrefixError::BadLen(s) => write!(f, "invalid length in prefix: {s:?}"),
            ParsePrefixError::LenOutOfRange { len, width } => {
                write!(f, "prefix length {len} out of range for width {width}")
            }
            ParsePrefixError::MissingSlash(s) => write!(f, "missing '/' in prefix: {s:?}"),
        }
    }
}

impl std::error::Error for ParsePrefixError {}

impl Prefix {
    /// Build a prefix, masking away host bits.
    ///
    /// Returns an error if `len` exceeds the family width.
    pub fn new(addr: Addr, len: u8) -> Result<Self, ParsePrefixError> {
        let width = addr.af().width();
        if len > width {
            return Err(ParsePrefixError::LenOutOfRange { len, width });
        }
        Ok(Prefix {
            addr: addr.masked(len),
            len,
        })
    }

    /// Infallible constructor for lengths known to be valid (e.g. computed by
    /// the algorithm itself).
    ///
    /// # Panics
    /// Panics if `len` exceeds the family width.
    pub fn of(addr: Addr, len: u8) -> Self {
        Prefix::new(addr, len).expect("prefix length within family width")
    }

    /// The whole address space of a family: `0.0.0.0/0` or `::/0`.
    pub fn root(af: Af) -> Self {
        Prefix {
            addr: Addr::new(af, 0),
            len: 0,
        }
    }

    /// Network address (host bits zero).
    #[inline]
    pub fn addr(self) -> Addr {
        self.addr
    }

    /// Prefix length (the CIDR mask size — a prefix has no notion of
    /// emptiness, hence no `is_empty`).
    #[inline]
    #[allow(clippy::len_without_is_empty)]
    pub fn len(self) -> u8 {
        self.len
    }

    /// Address family.
    #[inline]
    pub fn af(self) -> Af {
        self.addr.af()
    }

    /// Number of host addresses covered, as f64 (2^128 does not fit in u128's
    /// sibling types comfortably and callers only use this for weighting).
    pub fn num_addrs(self) -> f64 {
        2f64.powi((self.af().width() - self.len) as i32)
    }

    /// Does this prefix contain the address? Families must match.
    #[inline]
    pub fn contains(self, addr: Addr) -> bool {
        addr.af() == self.af() && addr.masked(self.len) == self.addr
    }

    /// Does this prefix contain (or equal) the other prefix?
    #[inline]
    pub fn contains_prefix(self, other: Prefix) -> bool {
        other.af() == self.af() && other.len >= self.len && self.contains(other.addr)
    }

    /// The two children of this prefix (one bit more specific), or `None` if
    /// the prefix is already a full host route.
    pub fn children(self) -> Option<(Prefix, Prefix)> {
        let w = self.af().width();
        if self.len >= w {
            return None;
        }
        let left = Prefix {
            addr: self.addr,
            len: self.len + 1,
        };
        let bit = 1u128 << (w - 1 - self.len);
        let right = Prefix {
            addr: Addr::new(self.af(), self.addr.bits() | bit),
            len: self.len + 1,
        };
        Some((left, right))
    }

    /// The parent (one bit less specific), or `None` for the root.
    pub fn parent(self) -> Option<Prefix> {
        if self.len == 0 {
            return None;
        }
        let len = self.len - 1;
        Some(Prefix {
            addr: self.addr.masked(len),
            len,
        })
    }

    /// The sibling under the same parent, or `None` for the root.
    pub fn sibling(self) -> Option<Prefix> {
        if self.len == 0 {
            return None;
        }
        let w = self.af().width();
        let bit = 1u128 << (w - self.len);
        Some(Prefix {
            addr: Addr::new(self.af(), self.addr.bits() ^ bit),
            len: self.len,
        })
    }

    /// Whether this prefix is the right (bit = 1) child of its parent.
    /// Returns `false` for the root.
    pub fn is_right_child(self) -> bool {
        self.len > 0 && self.addr.bit(self.len - 1)
    }

    /// First address in the range.
    pub fn first_addr(self) -> Addr {
        self.addr
    }

    /// Last address in the range.
    pub fn last_addr(self) -> Addr {
        let w = self.af().width();
        let host = (w - self.len) as u32;
        let bits = if host == 0 {
            self.addr.bits()
        } else if host == 128 {
            !0u128
        } else {
            self.addr.bits() | ((1u128 << host) - 1)
        };
        Addr::new(self.af(), bits)
    }
}

impl PartialOrd for Prefix {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Prefix {
    fn cmp(&self, other: &Self) -> Ordering {
        self.af()
            .cmp(&other.af())
            .then(self.addr.bits().cmp(&other.addr.bits()))
            .then(self.len.cmp(&other.len))
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

impl FromStr for Prefix {
    type Err = ParsePrefixError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr_s, len_s) = s
            .split_once('/')
            .ok_or_else(|| ParsePrefixError::MissingSlash(s.to_string()))?;
        let ip: IpAddr = addr_s
            .parse()
            .map_err(|_| ParsePrefixError::BadAddr(addr_s.to_string()))?;
        let len: u8 = len_s
            .parse()
            .map_err(|_| ParsePrefixError::BadLen(len_s.to_string()))?;
        Prefix::new(ip.into(), len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display_v4() {
        assert_eq!(p("192.0.2.0/24").to_string(), "192.0.2.0/24");
        assert_eq!(p("0.0.0.0/0").to_string(), "0.0.0.0/0");
    }

    #[test]
    fn parse_masks_host_bits() {
        assert_eq!(p("192.0.2.255/24"), p("192.0.2.0/24"));
        assert_eq!(p("10.1.2.3/8").to_string(), "10.0.0.0/8");
    }

    #[test]
    fn parse_and_display_v6() {
        assert_eq!(p("2001:db8::/32").to_string(), "2001:db8::/32");
        assert_eq!(p("2001:db8::ffff/48").to_string(), "2001:db8::/48");
    }

    #[test]
    fn parse_errors() {
        assert!(matches!(
            "1.2.3.4".parse::<Prefix>(),
            Err(ParsePrefixError::MissingSlash(_))
        ));
        assert!(matches!(
            "zap/24".parse::<Prefix>(),
            Err(ParsePrefixError::BadAddr(_))
        ));
        assert!(matches!(
            "1.2.3.4/xx".parse::<Prefix>(),
            Err(ParsePrefixError::BadLen(_))
        ));
        assert!(matches!(
            "1.2.3.4/33".parse::<Prefix>(),
            Err(ParsePrefixError::LenOutOfRange { len: 33, width: 32 })
        ));
    }

    #[test]
    fn children_split_range_in_half() {
        let (l, r) = p("10.0.0.0/8").children().unwrap();
        assert_eq!(l, p("10.0.0.0/9"));
        assert_eq!(r, p("10.128.0.0/9"));
    }

    #[test]
    fn children_of_root() {
        let (l, r) = Prefix::root(Af::V4).children().unwrap();
        assert_eq!(l, p("0.0.0.0/1"));
        assert_eq!(r, p("128.0.0.0/1"));
    }

    #[test]
    fn no_children_at_host_route() {
        assert!(p("192.0.2.1/32").children().is_none());
        assert!(p("2001:db8::1/128").children().is_none());
    }

    #[test]
    fn parent_sibling_roundtrip() {
        let x = p("10.128.0.0/9");
        assert_eq!(x.parent().unwrap(), p("10.0.0.0/8"));
        assert_eq!(x.sibling().unwrap(), p("10.0.0.0/9"));
        assert!(x.is_right_child());
        assert!(!x.sibling().unwrap().is_right_child());
        assert!(Prefix::root(Af::V4).parent().is_none());
        assert!(Prefix::root(Af::V4).sibling().is_none());
    }

    #[test]
    fn containment() {
        assert!(p("10.0.0.0/8").contains_prefix(p("10.1.0.0/16")));
        assert!(!p("10.1.0.0/16").contains_prefix(p("10.0.0.0/8")));
        assert!(p("10.0.0.0/8").contains_prefix(p("10.0.0.0/8")));
        assert!(!p("10.0.0.0/8").contains(Addr::from(std::net::Ipv4Addr::new(11, 0, 0, 1))));
        assert!(p("10.0.0.0/8").contains(Addr::from(std::net::Ipv4Addr::new(10, 255, 0, 1))));
    }

    #[test]
    fn cross_family_containment_is_false() {
        assert!(!p("0.0.0.0/0").contains_prefix(p("::/0")));
        assert!(!p("::/0").contains(Addr::v4(1)));
    }

    #[test]
    fn range_bounds() {
        let x = p("192.0.2.16/28");
        assert_eq!(x.first_addr().to_string(), "192.0.2.16");
        assert_eq!(x.last_addr().to_string(), "192.0.2.31");
        assert_eq!(Prefix::root(Af::V6).last_addr().bits(), !0u128);
    }

    #[test]
    fn num_addrs() {
        assert_eq!(p("192.0.2.0/24").num_addrs(), 256.0);
        assert_eq!(p("1.2.3.4/32").num_addrs(), 1.0);
    }

    #[test]
    fn ordering_parent_before_children() {
        let parent = p("10.0.0.0/8");
        let (l, r) = parent.children().unwrap();
        assert!(parent < l);
        assert!(l < r);
    }
}
