//! Boundary property: variable-length PEER_INDEX_TABLE fields either
//! round-trip exactly or error at encode time — never a silently
//! truncated counter that decodes into a different table.

use artemis_mrt::{MrtError, MrtReader, MrtRecord, MrtWriter, PeerEntry, PeerIndexTable};
use proptest::prelude::*;

fn table_with(view_len: usize, peer_count: usize) -> PeerIndexTable {
    PeerIndexTable {
        collector_id: "198.51.100.1".parse().unwrap(),
        view_name: "v".repeat(view_len),
        peers: vec![
            PeerEntry {
                bgp_id: "10.0.0.1".parse().unwrap(),
                addr: "192.0.2.10".parse().unwrap(),
                asn: artemis_bgp::Asn(174),
            };
            peer_count
        ],
    }
}

fn roundtrip(table: PeerIndexTable) -> Result<PeerIndexTable, MrtError> {
    let rec = MrtRecord::PeerIndex {
        timestamp: 7,
        table,
    };
    let mut w = MrtWriter::new();
    w.write(&rec)?;
    let bytes = w.into_bytes();
    let got = MrtReader::new(&bytes).collect::<Result<Vec<_>, _>>()?;
    match got.into_iter().next() {
        Some(MrtRecord::PeerIndex { table, .. }) => Ok(table),
        other => panic!("expected a peer index record, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Around the u16 boundary: lengths that fit round-trip exactly;
    /// lengths that do not fit are an encode-time `FieldOverflow`.
    #[test]
    fn view_name_boundary(view_len in (u16::MAX as usize - 2)..=(u16::MAX as usize + 2)) {
        let table = table_with(view_len, 1);
        match roundtrip(table.clone()) {
            Ok(back) => {
                prop_assert!(view_len <= u16::MAX as usize);
                prop_assert_eq!(back, table);
            }
            Err(MrtError::FieldOverflow { field, len, max }) => {
                prop_assert!(view_len > u16::MAX as usize);
                prop_assert_eq!(field, "peer index view name");
                prop_assert_eq!(len, view_len);
                prop_assert_eq!(max, u16::MAX as usize);
            }
            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
        }
    }

    #[test]
    fn peer_count_boundary(peer_count in (u16::MAX as usize - 1)..=(u16::MAX as usize + 1)) {
        let table = table_with(4, peer_count);
        match roundtrip(table.clone()) {
            Ok(back) => {
                prop_assert!(peer_count <= u16::MAX as usize);
                prop_assert_eq!(back.peers.len(), peer_count);
            }
            Err(MrtError::FieldOverflow { field, len, .. }) => {
                prop_assert!(peer_count > u16::MAX as usize);
                prop_assert_eq!(field, "peer index peer count");
                prop_assert_eq!(len, peer_count);
            }
            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
        }
    }
}
