//! Integration: fault tolerance — "local core failures do not disrupt
//! global usability" (paper §III-C).

use tn_apps::recurrent::{build_recurrent, RecurrentParams};
use tn_chip::TrueNorthSim;
use tn_compass::{ReferenceSim, TickAccounting, TickDriver};
use tn_core::network::NullSource;
use tn_core::{CoreCoord, NetworkSnapshot};

fn params() -> RecurrentParams {
    RecurrentParams {
        rate_hz: 100.0,
        synapses: 32,
        cores_x: 8,
        cores_y: 8,
        seed: 0xDEF,
    }
}

#[test]
fn network_survives_core_failures() {
    let mut healthy = TrueNorthSim::new(build_recurrent(&params()));
    healthy.run(100, &mut NullSource);
    let healthy_spikes = healthy.stats().totals.spikes_out;

    let mut damaged = TrueNorthSim::new(build_recurrent(&params()));
    for c in [
        CoreCoord::new(3, 3),
        CoreCoord::new(4, 3),
        CoreCoord::new(5, 5),
    ] {
        damaged.inject_defect(c);
    }
    damaged.run(100, &mut NullSource);
    let damaged_spikes = damaged.stats().totals.spikes_out;

    // 3 of 64 cores dead → activity drops roughly proportionally, not
    // catastrophically.
    let ratio = damaged_spikes as f64 / healthy_spikes as f64;
    assert!(
        (0.85..1.0).contains(&ratio),
        "3/64 defects should cost ~5% of activity, kept {ratio:.3}"
    );
}

#[test]
fn defective_cores_stay_silent_and_receive_nothing() {
    let mut sim = TrueNorthSim::new(build_recurrent(&params()));
    let dead = CoreCoord::new(2, 6);
    sim.inject_defect(dead);
    sim.run(60, &mut NullSource);
    let id = sim.network().id_of(dead);
    assert_eq!(sim.network().core(id).pending_events(), 0);
    assert!(sim.network().core(id).is_disabled());
}

#[test]
fn routes_detour_around_defects() {
    // Compare total hops with a wall of defects in the middle: packets
    // crossing it must pay 2 extra hops each.
    let mut clean = TrueNorthSim::new(build_recurrent(&params()));
    clean.run(60, &mut NullSource);
    let clean_hops =
        clean.stats().total_hops as f64 / clean.stats().totals.spikes_out.max(1) as f64;

    let mut walled = TrueNorthSim::new(build_recurrent(&params()));
    for y in 0..8u16 {
        // A broken column (except one gap so everything stays reachable).
        if y != 7 {
            walled.inject_defect(CoreCoord::new(4, y));
        }
    }
    walled.run(60, &mut NullSource);
    let walled_hops =
        walled.stats().total_hops as f64 / walled.stats().totals.spikes_out.max(1) as f64;
    assert!(
        walled_hops > clean_hops,
        "detours must add hops: {walled_hops} vs {clean_hops}"
    );
}

#[test]
fn spikes_to_dead_cores_are_dropped_not_crashing() {
    let mut sim = TrueNorthSim::new(build_recurrent(&params()));
    // Kill a quarter of the chip.
    for y in 0..4u16 {
        for x in 0..4u16 {
            sim.inject_defect(CoreCoord::new(x, y));
        }
    }
    let stats = sim.run(80, &mut NullSource);
    assert!(stats.totals.spikes_out > 0, "the rest keeps running");
}

/// Cores killed in the equivalence tests: mid-board, edge and corner.
const DEAD: [(u16, u16); 3] = [(2, 6), (5, 1), (7, 7)];

/// What the engines must agree on: state digest, output digest, spikes,
/// and the events left pending on each dead core.
fn observe<P: TickAccounting>(sim: &mut TickDriver<P>) -> (u64, u64, u64, Vec<u32>) {
    let pending = DEAD
        .iter()
        .map(|&(x, y)| {
            let id = sim.network().id_of(CoreCoord::new(x, y));
            sim.network().core(id).pending_events()
        })
        .collect();
    (
        sim.network().state_digest(),
        sim.outputs().digest(),
        sim.stats().totals.spikes_out,
        pending,
    )
}

/// A board with the `DEAD` cores injected, run for `ticks`.
fn damaged<P: TickAccounting>(ticks: u64) -> TickDriver<P> {
    let mut sim = TickDriver::<P>::new(build_recurrent(&params()));
    for &(x, y) in &DEAD {
        sim.inject_defect(CoreCoord::new(x, y));
    }
    sim.run(ticks, &mut NullSource);
    sim
}

#[test]
fn reference_and_chip_agree_under_defects() {
    let mut reference = damaged::<tn_compass::Direct>(60);
    let mut chip = damaged::<tn_chip::ChipModel>(60);
    let (r, c) = (observe(&mut reference), observe(&mut chip));
    assert_eq!(r, c, "reference and chip diverge under the same defects");
    assert_eq!(r.3, vec![0; DEAD.len()], "a dead core holds no events");
    assert!(r.2 > 0, "the rest of the board keeps firing");
}

#[test]
fn post_defect_checkpoint_resumes_identically_on_both_engines() {
    let continuous = damaged::<tn_compass::Direct>(70);
    let snap =
        NetworkSnapshot::from_bytes(&damaged::<tn_chip::ChipModel>(30).checkpoint().to_bytes())
            .expect("snapshot decodes");

    // Fresh engines with no defects injected and no fault plan: the
    // snapshot alone carries the dead cores.
    let mut reference = ReferenceSim::new(build_recurrent(&params()));
    reference.restore(&snap);
    reference.run(40, &mut NullSource);
    let mut chip = TrueNorthSim::new(build_recurrent(&params()));
    chip.restore(&snap);
    chip.run(40, &mut NullSource);

    let (r, c) = (observe(&mut reference), observe(&mut chip));
    assert_eq!(r, c, "restored reference and chip diverge");
    assert_eq!(r.3, vec![0; DEAD.len()], "a dead core holds no events");
    assert_eq!(r.0, continuous.network().state_digest());
    assert_eq!(chip.accounting().mesh.defects.count(), DEAD.len() as u32);
}
