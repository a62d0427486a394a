//! Multi-chip tiling example: a board of TrueNorth chips (paper §VII-B)
//! running one recurrent network that spans chips, with merge–split
//! boundary traffic and defect tolerance — and then the same tiling
//! story *executed* through `tn-shard`: the board partitioned across
//! worker shards, run for real, and proven digest-identical to the
//! single-process run.
//!
//! ```sh
//! cargo run --release --example multichip_tiling
//! ```
//!
//! The measured sharding section is appended (idempotently) to
//! `results/scaleout.txt` when run from the repo root.

use std::time::Instant;
use tn_apps::recurrent::{build_recurrent, RecurrentParams};
use tn_chip::TrueNorthSim;
use tn_compass::{KernelSession, ReferenceSim};
use tn_core::network::NullSource;
use tn_core::CoreCoord;
use tn_shard::{ShardSpec, ShardedSession, SpawnMode};

fn main() {
    chip_board_demo();
    let lines = sharded_scaleout_demo();
    append_results(&lines);
}

/// Paper §VII-B flavor: one network spanning a 2-chip board on the
/// cycle-accurate chip expression, with injected defects routed around.
fn chip_board_demo() {
    let p = RecurrentParams {
        rate_hz: 20.0,
        synapses: 64,
        cores_x: 128, // spans 2 chips in x
        cores_y: 64,
        seed: 0xB0A2D,
    };
    println!(
        "building a {}x{}-core network spanning {} chips...",
        p.cores_x,
        p.cores_y,
        (p.cores_x as usize / 64).max(1) * (p.cores_y as usize / 64).max(1)
    );
    let net = build_recurrent(&p);
    assert_eq!(net.num_chips(), 2);
    let mut sim = TrueNorthSim::new(net);

    // Fault tolerance: disable a core mid-array; the mesh routes around
    // it (paper §III-C: "if a core fails, we disable it and route spike
    // events around it").
    sim.inject_defect(CoreCoord::new(70, 30));
    sim.inject_defect(CoreCoord::new(71, 30));

    sim.run(50, &mut NullSource);

    let stats = *sim.stats();
    println!("\nafter 50 ticks:");
    println!("  spikes routed        : {}", stats.totals.spikes_out);
    println!("  total mesh hops      : {}", stats.total_hops);
    println!(
        "  chip-boundary crossings (merge-split traversals): {}",
        stats.boundary_crossings
    );
    println!(
        "  fraction of spikes crossing chips: {:.1}% (uniform targets over 2 chips → ~50%)",
        100.0 * stats.boundary_crossings as f64 / stats.totals.spikes_out.max(1) as f64
    );

    let e = sim.accounting().energy_realtime();
    println!("\nenergy breakdown over the run (real-time operation):");
    println!("  leakage          : {:>9.2} µJ", e.leak_j * 1e6);
    println!("  neuron scan      : {:>9.2} µJ", e.neuron_j * 1e6);
    println!("  crossbar reads   : {:>9.2} µJ", e.row_j * 1e6);
    println!("  synaptic ops     : {:>9.2} µJ", e.sop_j * 1e6);
    println!("  spike injection  : {:>9.2} µJ", e.spike_j * 1e6);
    println!("  mesh hops        : {:>9.2} µJ", e.hop_j * 1e6);
    println!("  merge-split + pads: {:>8.2} µJ", e.xchip_j * 1e6);
    println!("  total            : {:>9.2} µJ", e.total_j() * 1e6);

    let report = sim.report();
    println!(
        "\n2-chip board: {:.1} mW at real time — the 16-chip 4×4 board of paper §VII-C \
         measured 7.2 W total with support logic.",
        report.power_realtime_w * 1e3
    );
}

fn run_sharded(p: &RecurrentParams, shards: usize, ticks: u64) -> (u64, u64, u64, f64) {
    let spec = ShardSpec {
        shards,
        spawn: SpawnMode::InProcess,
        ..ShardSpec::default()
    };
    let mut sim = ShardedSession::launch(build_recurrent(p), &spec).expect("launch shards");
    let start = Instant::now();
    for _ in 0..ticks {
        sim.step(&mut NullSource);
    }
    let secs = start.elapsed().as_secs_f64();
    let digest = sim.state_digest();
    let spikes = sim.stats().totals.spikes_out;
    (digest, spikes, sim.boundary_spikes(), secs)
}

/// The tiling story executed: the same board tile partitioned across
/// `tn-shard` workers, digest-identical to the single-process run.
fn sharded_scaleout_demo() -> Vec<String> {
    const TICKS: u64 = 48;
    let p = RecurrentParams {
        rate_hz: 20.0,
        synapses: 64,
        cores_x: 16,
        cores_y: 8,
        seed: 0x5CA1E,
    };
    let cores = p.cores_x as usize * p.cores_y as usize;
    let ms_per_tick = |secs: f64| secs * 1e3 / TICKS as f64;
    println!(
        "\n== executed sharding scale-out: {}x{} cores, {} ticks ==",
        p.cores_x, p.cores_y, TICKS
    );

    let mut reference = ReferenceSim::new(build_recurrent(&p));
    let start = Instant::now();
    for _ in 0..TICKS {
        KernelSession::step(&mut reference, &mut NullSource);
    }
    let t_ref = start.elapsed().as_secs_f64();
    let ref_digest = KernelSession::state_digest(&mut reference);

    let (d1, spikes1, b1, t1) = run_sharded(&p, 1, TICKS);
    let (d4, spikes4, b4, t4) = run_sharded(&p, 4, TICKS);

    assert_eq!(d1, ref_digest, "1-shard run diverged from reference");
    assert_eq!(d4, ref_digest, "4-shard run diverged from reference");
    assert_eq!(spikes1, spikes4, "spike accounting diverged");
    assert_eq!(b1, 0, "a single shard has no boundary");

    let frac = 100.0 * b4 as f64 / spikes4.max(1) as f64;
    let lines = vec![
        format!(
            "{cores} cores ({}x{}), {TICKS} ticks, {spikes4} spikes routed",
            p.cores_x, p.cores_y
        ),
        format!(
            "digest 1-shard  : {d1:#018x}  ({:.3} ms/tick)",
            ms_per_tick(t1)
        ),
        format!(
            "digest 4-shard  : {d4:#018x}  ({:.3} ms/tick)",
            ms_per_tick(t4)
        ),
        format!(
            "digest reference: {ref_digest:#018x}  ({:.3} ms/tick) -> all three match, bit-exact",
            ms_per_tick(t_ref)
        ),
        format!(
            "4-shard boundary traffic: {b4} spikes over TCP \
             ({:.0} per tick, {frac:.1}% of routed spikes)",
            b4 as f64 / TICKS as f64
        ),
    ];
    for l in &lines {
        println!("  {l}");
    }
    lines
}

const MARKER: &str = "== Executed sharding scale-out (examples/multichip_tiling.rs) ==";

/// Append the measured section to `results/scaleout.txt`, replacing any
/// previous run's section so reruns stay idempotent.
fn append_results(lines: &[String]) {
    let path = std::path::Path::new("results/scaleout.txt");
    let Ok(existing) = std::fs::read_to_string(path) else {
        println!("\n(results/scaleout.txt not found — run from the repo root to record)");
        return;
    };
    let kept = match existing.find(MARKER) {
        Some(at) => existing[..at].trim_end().to_string(),
        None => existing.trim_end().to_string(),
    };
    let mut out = kept;
    out.push_str("\n\n");
    out.push_str(MARKER);
    out.push('\n');
    for l in lines {
        out.push_str(l);
        out.push('\n');
    }
    match std::fs::write(path, &out) {
        Ok(()) => println!("\nrecorded the measured section in results/scaleout.txt"),
        Err(e) => println!("\ncould not write results/scaleout.txt: {e}"),
    }
}
