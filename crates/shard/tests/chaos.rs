//! Shard-loss robustness: kill a worker mid-run and prove the healed
//! session preserves spike-for-spike continuity with an undisturbed
//! single-process run — state digests, output transcript, and fault
//! counters all byte-identical.

mod common;

use tn_compass::{KernelSession, ReferenceSim};
use tn_core::fault::FaultPlan;
use tn_shard::{ShardSpec, ShardedSession, SpawnMode};

/// Kill shard workers at the given ticks and compare the full transcript
/// against the continuous reference run.
fn chaos_run(spec: &ShardSpec, ticks: u64, kills: &[(u64, usize)]) {
    chaos_run_with(spec, ticks, kills, ShardedSession::kill_worker);
}

/// [`chaos_run`] with a pluggable failure action (kill vs. wedge).
fn chaos_run_with(
    spec: &ShardSpec,
    ticks: u64,
    kills: &[(u64, usize)],
    inject: fn(&mut ShardedSession, usize),
) {
    let script: Vec<_> = kills.iter().map(|&(t, k)| (t, Op::Lose(k))).collect();
    assert_script_heals(spec, ticks, &script, inject);
}

/// In-process shards: kill one worker after the first heal snapshot and
/// another before any snapshot covers it, so both the restore path and
/// the replay-from-zero path run.
#[test]
fn killed_in_process_shard_preserves_continuity() {
    let spec = ShardSpec {
        shards: 2,
        snapshot_every: 8,
        spawn: SpawnMode::InProcess,
        ..ShardSpec::default()
    };
    chaos_run(&spec, 40, &[(5, 1), (19, 0)]);
}

/// The same chaos against real OS worker processes.
#[test]
fn killed_process_shard_preserves_continuity() {
    let spec = ShardSpec {
        shards: 2,
        snapshot_every: 8,
        spawn: SpawnMode::Process {
            worker_bin: env!("CARGO_BIN_EXE_tn-shard-worker").into(),
        },
        ..ShardSpec::default()
    };
    chaos_run(&spec, 32, &[(11, 0)]);
}

/// A *wedged* worker — SIGSTOPped, socket alive, zero progress — is the
/// failure a kill test cannot catch: nothing errors, the coordinator
/// just never hears back. The mailbox stall deadline must declare it
/// down and heal it through the same snapshot + replay path, with the
/// transcript still spike-for-spike identical to the reference.
#[test]
fn wedged_process_shard_is_detected_and_healed() {
    let spec = ShardSpec {
        shards: 2,
        snapshot_every: 8,
        spawn: SpawnMode::Process {
            worker_bin: env!("CARGO_BIN_EXE_tn-shard-worker").into(),
        },
        reply_timeout: Some(std::time::Duration::from_millis(500)),
    };
    chaos_run_with(&spec, 32, &[(13, 1)], ShardedSession::wedge_worker);
}

/// Back-to-back kills of the same shard, plus a kill immediately after
/// a digest observation (replay logs then contain Flush frames).
#[test]
fn repeated_kills_of_one_shard_heal_cleanly() {
    let spec = ShardSpec {
        shards: 2,
        snapshot_every: 8,
        spawn: SpawnMode::InProcess,
        ..ShardSpec::default()
    };
    chaos_run(&spec, 40, &[(9, 1), (10, 1), (25, 1)]);
}

/// One scripted action, applied before the step with the given index.
#[derive(Clone, Copy)]
enum Op {
    /// Shard `k` loses its worker (killed or wedged).
    Lose(usize),
    Checkpoint,
    /// Rewind to the last `Checkpoint` (inputs restart from its tick).
    RestoreLast,
}

#[derive(PartialEq, Debug)]
struct ScriptedRun {
    /// `(tick, digest)` after every step; ticks repeat after a restore.
    digests: Vec<(u64, u64)>,
    outputs: Vec<(u64, u32)>,
    counters: tn_core::FaultCounters,
    checkpoints: Vec<tn_core::NetworkSnapshot>,
}

/// Drive `sim` through `steps` steps under the fault plan, applying
/// `script`; `lose` is how this kind of session loses a worker.
fn scripted_run<S: KernelSession>(
    sim: &mut S,
    steps: u64,
    script: &[(u64, Op)],
    lose: impl Fn(&mut S, usize),
) -> ScriptedRun {
    sim.attach_faults(&FaultPlan::parse(common::fault_plan_text()).unwrap());
    let num = sim.network().num_cores();
    let mut src = common::inputs_for(num, steps);
    let mut digests = Vec::new();
    let mut checkpoints = Vec::new();
    for i in 0..steps {
        for &(_, op) in script.iter().filter(|&&(at, _)| at == i) {
            match op {
                Op::Lose(k) => lose(sim, k),
                Op::Checkpoint => checkpoints.push(sim.checkpoint()),
                Op::RestoreLast => {
                    sim.restore(checkpoints.last().expect("checkpoint before restore"));
                    src = common::inputs_for(num, steps);
                }
            }
        }
        sim.step(&mut src);
        digests.push((sim.current_tick(), sim.state_digest()));
    }
    ScriptedRun {
        digests,
        outputs: sim
            .outputs()
            .events()
            .iter()
            .map(|e| (e.tick, e.port))
            .collect(),
        counters: sim.fault_counters().unwrap(),
        checkpoints,
    }
}

/// The sharded run of `script` equals the single-process run of the same
/// script with the losses left out — per-tick digests, output transcript,
/// fault counters and checkpoints — and every lost worker was healed.
fn assert_script_heals(
    spec: &ShardSpec,
    steps: u64,
    script: &[(u64, Op)],
    lose: fn(&mut ShardedSession, usize),
) {
    let mut reference = ReferenceSim::new(common::stochastic_net(4, 2, 51));
    let expect = scripted_run(&mut reference, steps, script, |_, _| {});
    let mut sim = ShardedSession::launch(common::stochastic_net(4, 2, 51), spec).expect("launch");
    let got = scripted_run(&mut sim, steps, script, lose);
    let losses = script
        .iter()
        .filter(|(_, op)| matches!(op, Op::Lose(_)))
        .count();
    assert!(
        sim.heals() >= losses as u64,
        "every kill must be healed (heals = {})",
        sim.heals()
    );
    assert_eq!(expect, got);
}

/// Two in-process shards, a heal snapshot every 8 ticks.
fn every_8() -> ShardSpec {
    ShardSpec {
        shards: 2,
        snapshot_every: 8,
        spawn: SpawnMode::InProcess,
        ..ShardSpec::default()
    }
}

/// A worker lost right after a heal snapshot is restored from its own
/// range bytes alone — the other shard's cores never reach it — with an
/// (almost) empty replay log behind them.
#[test]
fn kill_right_after_a_heal_snapshot_restores_from_the_shard_range() {
    chaos_run(&every_8(), 24, &[(8, 1), (16, 0)]);
    let spawn = SpawnMode::Process {
        worker_bin: env!("CARGO_BIN_EXE_tn-shard-worker").into(),
    };
    chaos_run(&ShardSpec { spawn, ..every_8() }, 24, &[(8, 1), (16, 0)]);
}

/// After a session-level `restore` the heal anchor is the whole-board
/// bytes every shard was just given; a worker lost before the next
/// periodic snapshot must come back from those.
#[test]
fn kill_after_a_session_restore_heals_from_the_board_bytes() {
    // Checkpoint at tick 10, run on to 20, rewind, lose a shard at 12.
    let script = [
        (10, Op::Checkpoint),
        (20, Op::RestoreLast),
        (22, Op::Lose(0)),
    ];
    assert_script_heals(&every_8(), 40, &script, ShardedSession::kill_worker);
}

/// A `checkpoint` between two heal snapshots assembles the board from the
/// same range replies but leaves the heal anchor and replay logs alone:
/// the snapshot equals the single-process one, and a kill right after it
/// still heals from the tick-8 anchor.
#[test]
fn kill_after_a_checkpoint_between_heal_snapshots_heals_from_the_older_anchor() {
    let script = [(12, Op::Checkpoint), (13, Op::Lose(1))];
    assert_script_heals(&every_8(), 24, &script, ShardedSession::kill_worker);
}

/// `vinit` and reset values beyond the 20-bit range are saturated by the
/// kernel, so the heal snapshots, the assembled checkpoint and the
/// session restore of such a model all decode, and a lost worker heals.
#[test]
fn a_model_with_out_of_range_vinit_and_reset_heals() {
    let net = || {
        common::stochastic_net_with(4, 2, 51, |j, n| {
            n.initial_potential = [i32::MAX, i32::MIN, 0][j % 3];
            n.reset = [0, 3_000_000, -3_000_000][j % 3];
        })
    };
    let script = [
        (10, Op::Checkpoint),
        (11, Op::Lose(1)),
        (14, Op::RestoreLast),
        (16, Op::Lose(0)),
    ];
    let mut reference = ReferenceSim::new(net());
    let expect = scripted_run(&mut reference, 24, &script, |_, _| {});
    let mut sim = ShardedSession::launch(net(), &every_8()).expect("launch");
    let got = scripted_run(&mut sim, 24, &script, ShardedSession::kill_worker);
    assert!(sim.heals() >= 2, "heals = {}", sim.heals());
    assert_eq!(expect, got);
}
