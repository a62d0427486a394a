//! `small_board_sync`: a 16x16 characterization board on the reference
//! engine, `ParallelSim` and a `ShardedSession` of two in-process
//! workers. A tick is a third of a millisecond of kernel work, so pool
//! barriers and the coordinator/worker/mailbox round trip dominate: the
//! same `compass` and `shard` code that wins on `char_chip` loses here.
//! Synchronisation and wire-path changes show here and must leave
//! `char_chip` where it was.

use super::measure_modelfile;
use crate::boards;
use crate::engines::{check_against_oracle, run_trio, timed_blocks, TrioPlan, Window};
use crate::expo;
use crate::report::Ctx;
use crate::stats::{median, BlockRate};
use std::time::Instant;
use tn_compass::KernelSession;
use tn_obs::Registry;
use tn_shard::{ShardSpec, ShardedSession};

const SIDE: u16 = 16;
/// Launches timed per run; the first one is the session measured.
const LAUNCHES: usize = 3;

pub fn run(ctx: &mut Ctx) {
    let seed = ctx.args.seed;
    let spec = ShardSpec::default();
    // A shard block spans one heal-snapshot period of the default spec,
    // so every block pays for exactly one snapshot.
    let shard_window = Window {
        block_ticks: if ctx.args.quick {
            8
        } else {
            spec.snapshot_every.max(8)
        },
        blocks: ctx.blocks(0.34, 3),
    };
    let engine_window = Window {
        block_ticks: 8,
        blocks: ctx.blocks(40.0, 10).max(shard_window.ticks() as usize / 8),
    };
    let warmup = if ctx.args.quick { 8 } else { 16 };
    let plan = TrioPlan {
        warmup,
        reference: engine_window,
        // Under host steal two workers wait at the barrier ten times
        // longer than they compute; half a window bounds the run.
        parallel: Window {
            block_ticks: 8,
            blocks: ctx.blocks(12.5, 10),
        },
        chip: engine_window,
        step: Window {
            block_ticks: 8,
            blocks: ctx.blocks(12.0, 10),
        },
        checks: vec![warmup + shard_window.ticks()],
        build_span: "core.build",
    };
    let build = || boards::characterization(SIDE, seed);
    let trio = run_trio(ctx, &plan, &build);

    let tracer = ctx.tracer.clone();
    let section = tracer.begin("shard");
    let mut launches = Vec::new();
    let mut launch = |ctx: &mut Ctx| {
        let net = build().net;
        let span = tracer.begin("shard.launch");
        let t = Instant::now();
        let launched = ShardedSession::launch(net, &spec);
        launches.push(t.elapsed().as_secs_f64());
        tracer.end(span, &[("shards", spec.shards as u64)]);
        ctx.check("shard.launch", launched.is_ok());
        launched.ok()
    };
    let Some(mut session) = launch(ctx) else {
        return;
    };
    let mut src = build().src;
    tracer.scope("shard.warmup", || {
        for _ in 0..warmup {
            session.step(&mut *src);
        }
    });
    let digest = session.state_digest();
    ctx.check(
        &format!("shard.digest_at_{warmup}"),
        digest == trio.oracle.digest_at(warmup),
    );
    let secs = timed_blocks(
        &tracer,
        "shard.step",
        shard_window,
        &mut session,
        |session, k| {
            for _ in 0..k {
                session.step(&mut *src);
            }
        },
        |_| {},
    );
    let shard = BlockRate::from_block_seconds(&secs, shard_window.block_ticks);
    ctx.set_rate("session_ticks_per_s", &shard);
    check_against_oracle(ctx, "shard", &trio.oracle, &mut session);

    let ticks = session.current_tick() as f64;
    ctx.set(
        "shard.boundary_spikes_per_tick",
        session.boundary_spikes() as f64 / ticks,
    );
    ctx.set("shard.heals", session.heals() as f64);
    let registry = Registry::new();
    session.publish_metrics(&registry);
    let wait_ns = expo::histogram_mean(&registry.render_text(), "tn_shard_barrier_wait_ns");
    // Dropping the session joins its workers.
    drop(session);
    ctx.set_peak_rss();

    for _ in 1..ctx.repeats(LAUNCHES) {
        drop(launch(ctx));
    }
    let launch_s = median(&launches);
    ctx.set("setup_s", trio.engine_setup_s + launch_s);
    if ctx.args.trace {
        ctx.set("shard.launch_s", launch_s);
        ctx.set("shard.ms_per_tick", shard.fast_s_per_tick() * 1e3);
        ctx.set("shard.barrier_wait_mean_us", wait_ns / 1e3);
        ctx.set("shard.overhead_vs_ref_x", trio.reference.fast / shard.fast);
        measure_modelfile(ctx, &build().net);
    }
    tracer.end(section, &[("ticks", ticks as u64)]);
}
