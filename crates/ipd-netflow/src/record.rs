//! The canonical flow record and shared error types.

use std::fmt;

use ipd_lpm::{Addr, Af};

/// Identifier of an exporting (border) router.
///
/// In a real deployment this is derived from the exporter's source address;
/// in this reproduction the topology crate assigns dense ids, which keeps the
/// per-ingress counters in the IPD engine compact.
pub type RouterId = u32;

/// One sampled flow, as seen by the collector and consumed by IPD.
///
/// Field semantics follow NetFlow v5 / IPFIX: `packets` and `bytes` are the
/// *sampled* delta counts (multiply by the sampling interval for an estimate
/// of the true volume). `ts` is the export timestamp in unix seconds — the
/// statistical-time pre-processing (crate `ipd-stattime`) is what deals with
/// router clocks that lie about it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowRecord {
    /// Export timestamp, unix seconds, as claimed by the router clock.
    pub ts: u64,
    /// Source address of the flow (what IPD maps to an ingress point).
    pub src: Addr,
    /// Destination address of the flow.
    pub dst: Addr,
    /// Exporting border router.
    pub router: RouterId,
    /// SNMP ifIndex of the interface the flow *entered* on.
    pub input_if: u16,
    /// SNMP ifIndex of the interface the flow left on (0 if unknown).
    pub output_if: u16,
    /// Transport protocol (6 = TCP, 17 = UDP, ...).
    pub proto: u8,
    /// Source transport port.
    pub src_port: u16,
    /// Destination transport port.
    pub dst_port: u16,
    /// Sampled packet count.
    pub packets: u32,
    /// Sampled byte count.
    pub bytes: u32,
}

impl FlowRecord {
    /// A minimal record carrying only what IPD strictly needs; the rest is
    /// filled with plausible defaults. Used pervasively in tests.
    pub fn synthetic(ts: u64, src: Addr, router: RouterId, input_if: u16) -> Self {
        FlowRecord {
            ts,
            src,
            dst: match src.af() {
                Af::V4 => Addr::v4(0x0A00_0001),
                Af::V6 => Addr::v6(0xfd00 << 112 | 1),
            },
            router,
            input_if,
            output_if: 0,
            proto: 6,
            src_port: 443,
            dst_port: 50000,
            packets: 1,
            bytes: 1400,
        }
    }

    /// Address family of the flow (keyed off the source address).
    pub fn af(&self) -> Af {
        self.src.af()
    }
}

/// Errors produced while decoding flow export datagrams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Datagram shorter than the fixed header.
    Truncated { need: usize, have: usize },
    /// Unsupported export version (only 5 and 10 are handled).
    BadVersion(u16),
    /// Header record/length field inconsistent with the datagram size.
    BadLength { claimed: usize, actual: usize },
    /// IPFIX data set references a template the collector has not seen.
    UnknownTemplate { domain: u32, template: u16 },
    /// IPFIX set/field structure is malformed.
    Malformed(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { need, have } => {
                write!(f, "truncated datagram: need {need} bytes, have {have}")
            }
            DecodeError::BadVersion(v) => write!(f, "unsupported flow export version {v}"),
            DecodeError::BadLength { claimed, actual } => {
                write!(
                    f,
                    "length mismatch: header claims {claimed}, datagram has {actual}"
                )
            }
            DecodeError::UnknownTemplate { domain, template } => {
                write!(f, "unknown IPFIX template {template} in domain {domain}")
            }
            DecodeError::Malformed(what) => write!(f, "malformed datagram: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_record_is_v4_when_src_is_v4() {
        let r = FlowRecord::synthetic(100, Addr::v4(0xC0000201), 7, 3);
        assert_eq!(r.af(), Af::V4);
        assert_eq!(r.router, 7);
        assert_eq!(r.input_if, 3);
        assert_eq!(r.packets, 1);
    }

    #[test]
    fn synthetic_record_v6() {
        let r = FlowRecord::synthetic(100, Addr::v6(0x2001 << 112), 1, 1);
        assert_eq!(r.af(), Af::V6);
        assert_eq!(r.dst.af(), Af::V6);
    }

    #[test]
    fn decode_error_display() {
        let e = DecodeError::Truncated { need: 24, have: 10 };
        assert!(e.to_string().contains("truncated"));
        assert!(DecodeError::BadVersion(9).to_string().contains('9'));
        assert!(DecodeError::UnknownTemplate {
            domain: 1,
            template: 256
        }
        .to_string()
        .contains("256"));
    }
}
