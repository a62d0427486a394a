//! The acceptance property: a network partitioned across shard workers
//! produces byte-identical state digests and output spike streams to a
//! single-process `ReferenceSim` run — across seeded topologies, shard
//! counts, OS-process placement, and an active fault plan.

mod common;

use tn_compass::{KernelSession, ReferenceSim};
use tn_core::fault::FaultPlan;
use tn_core::ScheduledSource;
use tn_shard::{ShardSpec, ShardedSession, SpawnMode};

struct Transcript {
    digests: Vec<u64>,
    outputs: Vec<(u64, u32)>,
    spikes_out: u64,
    sops: u64,
    dropped_inputs: u64,
    counters: Option<tn_core::FaultCounters>,
}

/// Drive any session `ticks` ticks, observing the digest every
/// `digest_every` ticks (mid-run digests exercise the boundary flush).
fn transcript(
    sim: &mut dyn KernelSession,
    src: &mut ScheduledSource,
    ticks: u64,
    digest_every: u64,
) -> Transcript {
    let mut digests = Vec::new();
    for t in 1..=ticks {
        sim.step(src);
        if t % digest_every == 0 {
            digests.push(sim.state_digest());
        }
    }
    digests.push(sim.state_digest());
    let outputs = sim
        .outputs()
        .events()
        .iter()
        .map(|e| (e.tick, e.port))
        .collect();
    Transcript {
        digests,
        outputs,
        spikes_out: sim.stats().totals.spikes_out,
        sops: sim.stats().totals.sops,
        dropped_inputs: sim.dropped_inputs(),
        counters: sim.fault_counters(),
    }
}

fn reference_transcript(
    w: u16,
    h: u16,
    seed: u64,
    ticks: u64,
    fault_text: Option<&str>,
) -> Transcript {
    let mut sim = ReferenceSim::new(common::stochastic_net(w, h, seed));
    if let Some(text) = fault_text {
        sim.attach_faults(&FaultPlan::parse(text).unwrap());
    }
    let num = sim.network().num_cores();
    transcript(&mut sim, &mut common::inputs_for(num, ticks), ticks, 20)
}

fn sharded_transcript(
    w: u16,
    h: u16,
    seed: u64,
    ticks: u64,
    fault_text: Option<&str>,
    spec: &ShardSpec,
) -> (Transcript, u64) {
    let net = common::stochastic_net(w, h, seed);
    let num = net.num_cores();
    let mut sim = ShardedSession::launch(net, spec).expect("launch");
    if let Some(text) = fault_text {
        sim.attach_faults(&FaultPlan::parse(text).unwrap());
    }
    let tr = transcript(&mut sim, &mut common::inputs_for(num, ticks), ticks, 20);
    (tr, sim.boundary_spikes())
}

fn assert_equivalent(reference: &Transcript, sharded: &Transcript, what: &str) {
    assert_eq!(reference.digests, sharded.digests, "{what}: state digests");
    assert_eq!(reference.outputs, sharded.outputs, "{what}: output stream");
    assert_eq!(reference.spikes_out, sharded.spikes_out, "{what}: spikes");
    assert_eq!(reference.sops, sharded.sops, "{what}: sops");
    assert_eq!(
        reference.dropped_inputs, sharded.dropped_inputs,
        "{what}: dropped inputs"
    );
    assert_eq!(reference.counters, sharded.counters, "{what}: counters");
}

#[test]
fn two_shards_in_process_match_reference() {
    let reference = reference_transcript(4, 2, 11, 60, None);
    let spec = ShardSpec {
        shards: 2,
        ..ShardSpec::default()
    };
    let (sharded, boundary) = sharded_transcript(4, 2, 11, 60, None, &spec);
    assert_equivalent(&reference, &sharded, "4x2 seed 11, 2 shards");
    assert!(boundary > 0, "topology must actually cross shard edges");
}

#[test]
fn many_shard_counts_match_reference() {
    let reference = reference_transcript(3, 3, 23, 50, None);
    for shards in [1, 4, 7] {
        let spec = ShardSpec {
            shards,
            ..ShardSpec::default()
        };
        let (sharded, _) = sharded_transcript(3, 3, 23, 50, None, &spec);
        assert_equivalent(
            &reference,
            &sharded,
            &format!("3x3 seed 23, {shards} shards"),
        );
    }
}

#[test]
fn faulted_run_matches_reference() {
    let text = common::fault_plan_text();
    let reference = reference_transcript(4, 2, 37, 60, Some(text));
    assert!(
        reference.counters.is_some_and(|c| c.total_dropped() > 0),
        "fault plan must actually drop spikes for the test to mean anything"
    );
    for shards in [2, 4] {
        let spec = ShardSpec {
            shards,
            ..ShardSpec::default()
        };
        let (sharded, _) = sharded_transcript(4, 2, 37, 60, Some(text), &spec);
        assert_equivalent(
            &reference,
            &sharded,
            &format!("faulted 4x2, {shards} shards"),
        );
    }
}

/// The headline claim: real OS processes, spawned from the
/// `tn-shard-worker` binary, byte-identical to the single process.
#[test]
fn os_process_shards_match_reference() {
    let reference = reference_transcript(4, 2, 11, 40, Some(common::fault_plan_text()));
    let spec = ShardSpec {
        shards: 3,
        spawn: SpawnMode::Process {
            worker_bin: env!("CARGO_BIN_EXE_tn-shard-worker").into(),
        },
        ..ShardSpec::default()
    };
    let (sharded, _) = sharded_transcript(4, 2, 11, 40, Some(common::fault_plan_text()), &spec);
    assert_equivalent(&reference, &sharded, "4x2 seed 11, 3 OS processes");
}

/// The sharded expression agrees with the other engines too — one
/// blueprint, four expressions.
#[test]
fn sharded_agrees_with_parallel_and_chip_engines() {
    let ticks = 40;
    let reference = reference_transcript(3, 3, 23, ticks, None);

    let mut par = tn_compass::ParallelSim::new(common::stochastic_net(3, 3, 23), 3);
    let num = par.network().num_cores();
    let par_tr = transcript(&mut par, &mut common::inputs_for(num, ticks), ticks, 20);
    assert_eq!(reference.digests, par_tr.digests, "parallel digests");

    let mut chip = tn_chip::TrueNorthSim::new(common::stochastic_net(3, 3, 23));
    let chip_tr = transcript(&mut chip, &mut common::inputs_for(num, ticks), ticks, 20);
    assert_eq!(reference.digests, chip_tr.digests, "chip digests");
}

/// Checkpoint/restore through the object-safe trait: a restored sharded
/// session replays to the same digest as an undisturbed one.
#[test]
fn checkpoint_restore_is_bit_exact() {
    let ticks = 30u64;
    let net = common::stochastic_net(4, 2, 11);
    let num = net.num_cores();
    let mut sim = ShardedSession::launch(net, &ShardSpec::default()).expect("launch");
    let mut src = common::inputs_for(num, ticks);
    for _ in 0..15 {
        sim.step(&mut src);
    }
    let snap = sim.checkpoint();
    let mid_digest = sim.state_digest();
    for _ in 15..ticks {
        sim.step(&mut src);
    }
    let end_digest = sim.state_digest();
    let end_outputs = sim.outputs().take();

    // Rewind and replay the same remaining inputs.
    sim.restore(&snap);
    assert_eq!(sim.current_tick(), 15);
    assert_eq!(
        sim.state_digest(),
        mid_digest,
        "restore lands on the snapshot"
    );
    let mut src2 = common::inputs_for(num, ticks);
    for _ in 15..ticks {
        sim.step(&mut src2);
    }
    assert_eq!(sim.state_digest(), end_digest, "replay is bit-exact");
    let replay_outputs = sim.outputs().take();
    let tail: Vec<_> = end_outputs.iter().filter(|e| e.tick >= 15).collect();
    let replay_tail: Vec<_> = replay_outputs.iter().filter(|e| e.tick >= 15).collect();
    assert_eq!(tail, replay_tail, "replayed output stream matches");
}

/// The barrier round trip costs what loopback costs. With Nagle on the
/// worker's socket and a frame split over several writes, every `Done`
/// waited out the coordinator's 40 ms delayed ACK: 64 ticks took 2.8 s.
#[test]
fn a_tick_does_not_wait_for_a_delayed_ack() {
    let ticks = 64;
    let reference = reference_transcript(2, 1, 5, ticks, None);
    let worker_bin = env!("CARGO_BIN_EXE_tn-shard-worker").into();
    for spawn in [SpawnMode::InProcess, SpawnMode::Process { worker_bin }] {
        let spec = ShardSpec {
            shards: 2,
            spawn,
            ..ShardSpec::default()
        };
        let mut sim = ShardedSession::launch(common::stochastic_net(2, 1, 5), &spec).unwrap();
        let mut src = common::inputs_for(2, ticks);
        let start = std::time::Instant::now();
        let sharded = transcript(&mut sim, &mut src, ticks, 20);
        let elapsed = start.elapsed();
        assert_equivalent(&reference, &sharded, &format!("2x1, {:?}", spec.spawn));
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "{ticks} ticks took {elapsed:?} under {:?}",
            spec.spawn
        );
    }
}
