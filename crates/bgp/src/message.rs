//! BGP message types (RFC 4271 §4).

use crate::{PathAttributes, Prefix};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv4Addr;

/// Wire type code for OPEN.
pub const OPEN_TYPE: u8 = 1;
/// Wire type code for UPDATE.
pub const UPDATE_TYPE: u8 = 2;
/// Wire type code for NOTIFICATION.
pub const NOTIFICATION_TYPE: u8 = 3;
/// Wire type code for KEEPALIVE.
pub const KEEPALIVE_TYPE: u8 = 4;

/// An OPEN message (RFC 4271 §4.2) with the capabilities the workspace
/// cares about (four-octet AS, RFC 6793).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpenMessage {
    /// BGP version; always 4.
    pub version: u8,
    /// The sender's ASN. Encoded as AS_TRANS in the two-octet field when
    /// it does not fit; the true value travels in the capability.
    pub asn: crate::Asn,
    /// Proposed hold time in seconds.
    pub hold_time: u16,
    /// BGP identifier (router ID).
    pub bgp_id: Ipv4Addr,
    /// Whether the four-octet-AS capability (code 65) is advertised.
    pub four_octet_capable: bool,
}

/// An UPDATE message (RFC 4271 §4.3).
///
/// IPv4 reachability uses the classic withdrawn/NLRI fields; IPv6 routes
/// ride in MP_REACH_NLRI / MP_UNREACH_NLRI (RFC 4760). This struct is
/// family-agnostic — the [`crate::wire::Codec`] splits/merges families
/// on the wire.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UpdateMessage {
    /// Prefixes withdrawn from service.
    pub withdrawn: Vec<Prefix>,
    /// Attributes for the announced NLRI (`None` on pure withdrawals).
    pub attrs: Option<PathAttributes>,
    /// Announced prefixes sharing `attrs`.
    pub nlri: Vec<Prefix>,
}

impl UpdateMessage {
    /// A pure-withdrawal UPDATE.
    pub fn withdraw(prefixes: Vec<Prefix>) -> Self {
        UpdateMessage {
            withdrawn: prefixes,
            attrs: None,
            nlri: Vec::new(),
        }
    }

    /// An announcement UPDATE.
    pub fn announce(attrs: PathAttributes, nlri: Vec<Prefix>) -> Self {
        UpdateMessage {
            withdrawn: Vec::new(),
            attrs: Some(attrs),
            nlri,
        }
    }

    /// True when the message neither announces nor withdraws anything.
    pub fn is_empty(&self) -> bool {
        self.withdrawn.is_empty() && self.nlri.is_empty()
    }
}

/// A NOTIFICATION message (RFC 4271 §4.5); closes the session.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NotificationMessage {
    /// Error code.
    pub code: u8,
    /// Error subcode.
    pub subcode: u8,
    /// Diagnostic data.
    pub data: Vec<u8>,
}

impl fmt::Display for NotificationMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "NOTIFICATION code={} subcode={}",
            self.code, self.subcode
        )
    }
}

/// Any BGP message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum BgpMessage {
    /// Session establishment.
    Open(OpenMessage),
    /// Reachability change.
    Update(UpdateMessage),
    /// Fatal error / teardown.
    Notification(NotificationMessage),
    /// Liveness probe.
    Keepalive,
}

impl BgpMessage {
    /// The wire type code of this message.
    pub fn type_code(&self) -> u8 {
        match self {
            BgpMessage::Open(_) => OPEN_TYPE,
            BgpMessage::Update(_) => UPDATE_TYPE,
            BgpMessage::Notification(_) => NOTIFICATION_TYPE,
            BgpMessage::Keepalive => KEEPALIVE_TYPE,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Asn;
    use std::str::FromStr;

    #[test]
    fn type_codes() {
        assert_eq!(BgpMessage::Keepalive.type_code(), 4);
        let open = BgpMessage::Open(OpenMessage {
            version: 4,
            asn: Asn(65001),
            hold_time: 90,
            bgp_id: Ipv4Addr::new(10, 0, 0, 1),
            four_octet_capable: true,
        });
        assert_eq!(open.type_code(), 1);
    }

    #[test]
    fn update_constructors() {
        let w = UpdateMessage::withdraw(vec![Prefix::from_str("10.0.0.0/24").unwrap()]);
        assert!(w.attrs.is_none());
        assert!(!w.is_empty());
        let empty = UpdateMessage::withdraw(vec![]);
        assert!(empty.is_empty());
    }
}
