//! Grouping vantage points into collectors.

use artemis_bgp::Asn;

/// Partition `vps` into `n` collector groups (round-robin), producing
/// the collector map shape [`crate::StreamFeed`] expects.
pub fn group_into_collectors(
    prefix: &str,
    vps: &[Asn],
    n: usize,
) -> std::collections::BTreeMap<String, Vec<Asn>> {
    let n = n.max(1);
    let mut map: std::collections::BTreeMap<String, Vec<Asn>> = Default::default();
    for (i, vp) in vps.iter().enumerate() {
        map.entry(format!("{prefix}{:02}", i % n))
            .or_default()
            .push(*vp);
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_grouping_round_robins() {
        let vps: Vec<Asn> = (1..=5).map(Asn).collect();
        let map = group_into_collectors("rrc", &vps, 2);
        assert_eq!(map.len(), 2);
        assert_eq!(map["rrc00"], vec![Asn(1), Asn(3), Asn(5)]);
        assert_eq!(map["rrc01"], vec![Asn(2), Asn(4)]);
    }
}
