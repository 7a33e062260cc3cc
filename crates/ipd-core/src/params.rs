//! IPD parameters (paper Table 1) and validation.

use std::fmt;

use ipd_lpm::Af;
use serde::{Deserialize, Serialize};

/// What the per-range counters count (paper §3.1, design choice 2,
/// "Optional simplification: Preferring flow counts over byte counts").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CountMode {
    /// Count flow samples (the deployment default: avoids 32-bit byte
    /// counter overflows on high-capacity links; flow and byte counts
    /// correlate at ~0.82 in the paper's traffic).
    Flows,
    /// Count bytes ("users of IPD with other requirements might opt not to
    /// use this simplification").
    Bytes,
}

impl CountMode {
    /// The integer weight one flow of `bytes` bytes adds to its range.
    pub(crate) fn weight(self, bytes: u32) -> u64 {
        match self {
            CountMode::Flows => 1,
            CountMode::Bytes => u64::from(bytes),
        }
    }
}

/// All IPD knobs. Defaults are the production values of Table 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IpdParams {
    /// Maximum IPv4 prefix length (`cidr_max`). Default /28 — "the
    /// collaborating CDN maps its geolocation-distributed data centers to
    /// /28 subnets".
    pub cidr_max_v4: u8,
    /// Maximum IPv6 prefix length. Default /48.
    pub cidr_max_v6: u8,
    /// IPv4 minimal sample factor: `n_cidr = factor * sqrt(2^(32 - len))`.
    /// Default 64. Scale proportionally to your flow rate: the paper's 64 is
    /// calibrated to ~32 M flows/minute.
    pub ncidr_factor_v4: f64,
    /// IPv6 minimal sample factor. Default 24.
    ///
    /// Interpretation note: the paper states the `n_cidr` formula for IPv4
    /// only. A literal `2^(128 - len)` is astronomically large, so we use a
    /// reference width of 64 bits (routable IPv6 space is effectively
    /// /64-grained): `n_cidr = factor * sqrt(2^(min(64, 128-len) ... ))` —
    /// concretely `factor * sqrt(2^(64 - len))` clamped at `len <= 64`.
    pub ncidr_factor_v6: f64,
    /// Quality threshold `q`: minimum traffic share of the dominant ingress.
    /// Default 0.95 — "5% of the traffic for that prefix may ingress over
    /// different links".
    pub q: f64,
    /// Time bucket length `t` in seconds (stage-2 cadence). Default 60.
    pub t_secs: u64,
    /// Expiration time `e` in seconds: per-IP state (unclassified ranges)
    /// older than this is removed; classified ranges silent longer than this
    /// start decaying. Default 120.
    pub e_secs: u64,
    /// What the counters count. Default flows.
    pub count_mode: CountMode,
    /// Detect router-level interface bundles (paper §3.2 *bundles*).
    pub enable_bundles: bool,
    /// Minimum share (of a router's own total) for an interface to become a
    /// bundle member. Interfaces below this are treated as noise.
    pub bundle_member_min_share: f64,
    /// Classified ranges whose decayed total falls below this are dropped.
    pub drop_floor: f64,
    /// Report ranges that look like *router-level load balancing* (§5.8):
    /// a range stuck at `cidr_max` whose traffic splits roughly evenly over
    /// two or more routers. The paper intentionally does not *classify*
    /// these (tracking (src, dst) pairs costs quadratic state) but names
    /// detection as a worthwhile extension — so IPD here flags them in the
    /// tick report for the operator ("which can also be solved by asking
    /// interconnected networks to change their configuration").
    pub detect_router_lb: bool,
}

impl Default for IpdParams {
    fn default() -> Self {
        IpdParams {
            cidr_max_v4: 28,
            cidr_max_v6: 48,
            ncidr_factor_v4: 64.0,
            ncidr_factor_v6: 24.0,
            q: 0.95,
            t_secs: 60,
            e_secs: 120,
            count_mode: CountMode::Flows,
            enable_bundles: true,
            bundle_member_min_share: 0.05,
            drop_floor: 1.0,
            detect_router_lb: true,
        }
    }
}

/// Parameter validation errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamError {
    /// `cidr_max` outside the family's usable range.
    CidrMaxOutOfRange { af: Af, value: u8, max: u8 },
    /// `q <= 0.5` admits ambiguous classifications (Appendix A: "if the
    /// parameter q is less than or equal to 0.5, some ingress points may be
    /// classified ambiguously").
    QOutOfRange(f64),
    /// Non-positive factor, time bucket, or expiry.
    NonPositive(&'static str),
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamError::CidrMaxOutOfRange { af, value, max } => {
                write!(f, "cidr_max /{value} out of range for IPv{af} (1..={max})")
            }
            ParamError::QOutOfRange(q) => {
                write!(f, "q = {q} must be in (0.5, 1.0]: q <= 0.5 is ambiguous")
            }
            ParamError::NonPositive(what) => write!(f, "{what} must be positive"),
        }
    }
}

impl std::error::Error for ParamError {}

impl IpdParams {
    /// Validate the parameter set (called by `IpdEngine::new`).
    pub fn validate(&self) -> Result<(), ParamError> {
        if self.cidr_max_v4 == 0 || self.cidr_max_v4 > 32 {
            return Err(ParamError::CidrMaxOutOfRange {
                af: Af::V4,
                value: self.cidr_max_v4,
                max: 32,
            });
        }
        if self.cidr_max_v6 == 0 || self.cidr_max_v6 > 64 {
            return Err(ParamError::CidrMaxOutOfRange {
                af: Af::V6,
                value: self.cidr_max_v6,
                max: 64,
            });
        }
        if !(self.q > 0.5 && self.q <= 1.0) {
            return Err(ParamError::QOutOfRange(self.q));
        }
        if self.ncidr_factor_v4 <= 0.0 || self.ncidr_factor_v6 <= 0.0 {
            return Err(ParamError::NonPositive("n_cidr factor"));
        }
        if self.t_secs == 0 {
            return Err(ParamError::NonPositive("t"));
        }
        if self.e_secs == 0 {
            return Err(ParamError::NonPositive("e"));
        }
        if self.bundle_member_min_share < 0.0 || self.bundle_member_min_share > 1.0 {
            return Err(ParamError::NonPositive("bundle member share in [0,1]"));
        }
        Ok(())
    }

    /// The configured `cidr_max` for a family.
    pub fn cidr_max(&self, af: Af) -> u8 {
        match af {
            Af::V4 => self.cidr_max_v4,
            Af::V6 => self.cidr_max_v6,
        }
    }

    /// Minimum sample count `n_cidr` for a range of length `len`
    /// (Table 1: `n_cidr = n_cidr_factor * sqrt(2^(32 - s_cidr))`).
    pub fn n_cidr(&self, af: Af, len: u8) -> f64 {
        let (factor, ref_width) = match af {
            Af::V4 => (self.ncidr_factor_v4, 32u8),
            Af::V6 => (self.ncidr_factor_v6, 64u8),
        };
        let exp = ref_width.saturating_sub(len) as f64;
        factor * 2f64.powf(exp / 2.0)
    }

    /// The decay factor of Table 1: `1 - 0.9 / ((age/t) + 1)`, applied
    /// multiplicatively to the counters of classified ranges that have been
    /// silent for more than `e` seconds. `age` is seconds since last sample.
    pub fn decay_factor(&self, age_secs: u64) -> f64 {
        1.0 - 0.9 / ((age_secs as f64 / self.t_secs as f64) + 1.0)
    }

    /// Render the parameter set like Table 1 of the paper.
    pub fn table1(&self) -> String {
        format!(
            "parameter      | default      | meaning\n\
             ---------------+--------------+------------------------------------------\n\
             cidr_max       | /{}, /{}     | max. IPD prefix length (v4, v6)\n\
             n_cidr factor  | {}, {}       | minimal sample factor\n\
             q              | {}           | error margin\n\
             t              | {}           | time bucket length (s)\n\
             e              | {}           | expiration time (s)\n\
             decay          | 1-0.9/((age/t)+1) | factor to reduce outdated IPD ranges\n\
             count mode     | {:?}         | counter units",
            self.cidr_max_v4,
            self.cidr_max_v6,
            self.ncidr_factor_v4,
            self.ncidr_factor_v6,
            self.q,
            self.t_secs,
            self.e_secs,
            self.count_mode,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_1() {
        let p = IpdParams::default();
        assert_eq!(p.cidr_max_v4, 28);
        assert_eq!(p.cidr_max_v6, 48);
        assert_eq!(p.ncidr_factor_v4, 64.0);
        assert_eq!(p.ncidr_factor_v6, 24.0);
        assert_eq!(p.q, 0.95);
        assert_eq!(p.t_secs, 60);
        assert_eq!(p.e_secs, 120);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn ncidr_formula_v4() {
        let p = IpdParams::default();
        // /28: 64 * sqrt(2^4) = 256.
        assert!((p.n_cidr(Af::V4, 28) - 256.0).abs() < 1e-6);
        // /0: 64 * sqrt(2^32) = 64 * 65536.
        assert!((p.n_cidr(Af::V4, 0) - 64.0 * 65536.0).abs() < 1e-3);
        // Monotone: larger (less specific) ranges need more samples.
        assert!(p.n_cidr(Af::V4, 8) > p.n_cidr(Af::V4, 24));
    }

    #[test]
    fn ncidr_formula_v6_uses_64bit_reference() {
        let p = IpdParams::default();
        // /48: 24 * sqrt(2^16) = 24 * 256 = 6144.
        assert!((p.n_cidr(Af::V6, 48) - 6144.0).abs() < 1e-6);
        assert!((p.n_cidr(Af::V6, 64) - 24.0).abs() < 1e-9);
    }

    #[test]
    fn decay_factor_matches_table1() {
        let p = IpdParams::default();
        // age = t: 1 - 0.9/2 = 0.55
        assert!((p.decay_factor(60) - 0.55).abs() < 1e-9);
        // age = 0: 0.1
        assert!((p.decay_factor(0) - 0.1).abs() < 1e-9);
        // age → ∞: → 1.0 (per-tick decay weakens, cumulative product still shrinks)
        assert!(p.decay_factor(1_000_000) > 0.99);
    }

    #[test]
    fn validation_rejects_bad_values() {
        let ok = IpdParams::default();
        assert!(IpdParams {
            q: 0.5,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(IpdParams {
            q: 1.01,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(IpdParams {
            q: 0.501,
            ..ok.clone()
        }
        .validate()
        .is_ok());
        assert!(IpdParams {
            cidr_max_v4: 0,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(IpdParams {
            cidr_max_v4: 33,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(IpdParams {
            cidr_max_v6: 65,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(IpdParams {
            ncidr_factor_v4: 0.0,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(IpdParams {
            t_secs: 0,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(IpdParams {
            e_secs: 0,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(IpdParams {
            bundle_member_min_share: 1.5,
            ..ok
        }
        .validate()
        .is_err());
    }

    #[test]
    fn table1_rendering_mentions_all_parameters() {
        let s = IpdParams::default().table1();
        for needle in ["cidr_max", "/28", "/48", "0.95", "decay"] {
            assert!(s.contains(needle), "table1 missing {needle}: {s}");
        }
    }
}
