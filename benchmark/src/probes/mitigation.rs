//! `artemis_core::mitigation`: plan and execute, per alert.
//!
//! Calls `Detector::{new, prepare, process_prepared, alerts}` (to obtain
//! real alerts), `Mitigator::{new, plan, execute}`, `Controller::new`.

use super::{ns_per, ProbeInputs};
use crate::fleet::OPERATOR_AS;
use artemis_bgp::Asn;
use artemis_controller::Controller;
use artemis_core::{Detector, Mitigator};
use artemis_simnet::{LatencyModel, SimRng, SimTime};

pub fn run(inputs: &ProbeInputs<'_>, out: &mut Vec<(&'static str, f64)>) {
    let config = inputs.fleet.config();
    let mut detector = Detector::new(config.clone());
    for event in inputs.hijack_events() {
        let prep = detector.prepare(&event);
        detector.process_prepared(&event, prep);
    }
    let alerts = detector.alerts().all();
    assert!(!alerts.is_empty(), "the probe stream raised no alert");

    let mut mitigator = Mitigator::new(config);
    let mut controller = Controller::new(
        Asn(OPERATOR_AS),
        LatencyModel::const_secs(15),
        SimRng::new(1),
    );
    let (ns, ()) = ns_per(alerts.len() as u64, || {
        for alert in alerts {
            let plan = mitigator.plan(alert);
            std::hint::black_box(mitigator.execute(&plan, SimTime::ZERO, &mut controller, &mut []));
        }
    });
    out.push(("core.mitigation.plan_execute_us_per_alert", ns / 1e3));
}
