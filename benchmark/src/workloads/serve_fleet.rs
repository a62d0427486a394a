//! `serve_fleet`: 64 sessions of one 4x4 characterization model
//! admitted straight to a `ShardExecutor`, all subscribed to one shared
//! sink drained by the single generator thread, all given `RunFor` at
//! `Pace::MaxSpeed`. The executor's ready queue and fairness batches,
//! per-session bookkeeping and `TickUpdate` fan-out do a large share of
//! the work, TCP does none, and 64 copies of one model make resident
//! bytes per session visible: the workload for image sharing and
//! same-model batching, which must leave `serve_probe` where it was.

use super::measure_modelfile;
use crate::boards;
use crate::engines::{run_trio, Oracle, TrioPlan, Window};
use crate::expo;
use crate::host;
use crate::report::Ctx;
use crate::serving::{ask, blocks_from_stamps, max_speed_config, stats_of, REPLY_TIMEOUT};
use crate::stats::{quantile, sorted, BlockRate, FAST_QUANTILE};
use std::collections::BTreeMap;
use std::sync::mpsc::{self, Receiver};
use std::time::{Duration, Instant};
use tn_compass::ReferenceSim;
use tn_core::{modelfile, LintConfig};
use tn_serve::protocol::split_frame;
use tn_serve::{
    default_shards, Cmd, ExecutorConfig, Outbound, Response, SessionHandle, ShardExecutor,
};

const SIDE: u16 = 4;
const SESSIONS: usize = 64;
/// The executor's max-speed fairness batch: one round of the ready
/// queue gives every session this many ticks.
const ROUND_TICKS: u64 = 64;
/// Admissions timed per run; the first fleet is the one measured.
const ADMISSIONS: usize = 3;

struct Fleet {
    exec: ShardExecutor,
    handles: Vec<SessionHandle>,
    frames: Receiver<Outbound>,
}

/// Load the model once per session, admit, subscribe to the shared sink.
/// Every session's share of that is one sample in `per_session`.
fn admit_fleet(ctx: &mut Ctx, model: &str, per_session: &mut Vec<f64>) -> Option<Fleet> {
    let exec = ShardExecutor::new(ExecutorConfig::default());
    let (sink, frames) = mpsc::channel();
    let mut handles = Vec::with_capacity(SESSIONS);
    for i in 0..SESSIONS {
        let t = Instant::now();
        let (net, _) = modelfile::load_verified(model, &LintConfig::default()).ok()?;
        let handle = exec
            .admit(
                format!("f{i:02}"),
                Box::new(ReferenceSim::new(net)),
                max_speed_config(),
                Default::default(),
                &[],
                None,
            )
            .ok();
        let subscribed = handle.as_ref().and_then(|h| {
            let sink = sink.clone();
            ask(h, |reply| Cmd::Subscribe { sink, reply })
        });
        ctx.request(
            "fleet.admit_and_subscribe",
            subscribed == Some(Response::Ok),
        );
        handles.push(handle?);
        per_session.push(t.elapsed().as_secs_f64());
    }
    Some(Fleet {
        exec,
        handles,
        frames,
    })
}

/// Give every session `ticks` ticks and drain the shared sink until all
/// their updates are in. Returns the arrival stamps, and per session
/// when its last update arrived.
fn run_fleet(ctx: &mut Ctx, fleet: &Fleet, from: u64, ticks: u64) -> (u64, Vec<u64>, Vec<u64>) {
    let start = ctx.tracer.now_ns();
    let replies: Vec<_> = fleet
        .handles
        .iter()
        .map(|h| {
            let (reply, done) = mpsc::channel();
            let sent = h.send(Cmd::RunFor { ticks, reply });
            (sent.is_ok(), done)
        })
        .collect();
    let expected = (SESSIONS as u64 * ticks) as usize;
    // The shards have two vCPUs between them and the generator: it
    // drains in batches, idles 200 us on an empty sink like the server's
    // io thread does, and decodes only once the run is over.
    let mut stamps = Vec::with_capacity(expected);
    let mut frames = Vec::with_capacity(expected);
    let give_up = Instant::now() + REPLY_TIMEOUT;
    while frames.len() < expected && Instant::now() < give_up {
        let before = frames.len();
        frames.extend(fleet.frames.try_iter().take(expected - before));
        stamps.resize(frames.len(), ctx.tracer.now_ns());
        if frames.len() == before {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    let mut next_tick: BTreeMap<String, u64> = BTreeMap::new();
    let mut finished = Vec::with_capacity(SESSIONS);
    let mut out_of_order = 0u64;
    for (frame, &stamp) in frames.iter().zip(&stamps) {
        let update = match frame {
            Outbound::Frame(bytes) => split_frame(bytes)
                .and_then(|(opcode, payload)| Response::decode(opcode, payload))
                .ok(),
            Outbound::Close => None,
        };
        let Some(Response::TickUpdate(u)) = update else {
            out_of_order += 1;
            continue;
        };
        let next = next_tick.entry(u.session).or_insert(from);
        out_of_order += u64::from(u.tick != *next);
        *next = u.tick + 1;
        if *next == from + ticks {
            finished.push(stamp);
        }
    }
    let expected = expected as u64;
    let missing = expected - stamps.len() as u64;
    ctx.tally("fleet.tick_updates", expected, missing + out_of_order);
    let completed = replies
        .into_iter()
        .filter(|(sent, done)| *sent && done.recv_timeout(REPLY_TIMEOUT) == Ok(Response::Ok))
        .count();
    ctx.tally(
        "fleet.sessions_completed",
        SESSIONS as u64,
        (SESSIONS - completed) as u64,
    );
    (start, stamps, finished)
}

/// All sessions at `tick` in one state, and that state the oracle's.
fn check_digests(ctx: &mut Ctx, fleet: &Fleet, oracle: &Oracle, tick: u64) {
    let stats: Vec<_> = fleet.handles.iter().filter_map(stats_of).collect();
    ctx.check(
        &format!("fleet.all_digests_identical_at_{tick}"),
        stats.len() == SESSIONS
            && stats
                .iter()
                .all(|s| s.tick == tick && s.state_digest == stats[0].state_digest),
    );
    ctx.check(
        &format!("fleet.digest_at_{tick}"),
        stats
            .first()
            .is_some_and(|s| s.state_digest == oracle.digest_at(tick)),
    );
}

pub fn run(ctx: &mut Ctx) {
    let seed = ctx.args.seed;
    let traced = ctx.args.trace;
    let warmup = ROUND_TICKS;
    // One block is one round of the ready queue: every session advances
    // one fairness batch, `SESSIONS * ROUND_TICKS` updates arrive.
    let rounds = ctx.blocks(5.0, 10);
    let fleet_ticks = ROUND_TICKS * rounds as u64;
    let engine_window = Window {
        block_ticks: ROUND_TICKS,
        blocks: ctx.blocks(50.0, 10),
    };
    let plan = TrioPlan {
        warmup,
        reference: Window {
            block_ticks: ROUND_TICKS,
            blocks: engine_window.blocks.max(rounds),
        },
        // Two workers on sixteen cores spend their time at the barrier:
        // 30 us a tick while both vCPUs are theirs, a millisecond or more
        // while the host steals one. A short window keeps the run inside
        // its budget, and short blocks give the fast quartile enough blocks
        // from the undisturbed moments to sit among them.
        parallel: Window {
            block_ticks: 8,
            blocks: rounds * (ROUND_TICKS / 8) as usize,
        },
        chip: engine_window,
        step: Window {
            block_ticks: ROUND_TICKS,
            blocks: ctx.blocks(12.0, 10),
        },
        checks: vec![warmup + fleet_ticks],
        build_span: "core.build",
    };
    let build = || boards::characterization(SIDE, seed);
    let trio = run_trio(ctx, &plan, &build);

    let section = ctx.tracer.begin("fleet");
    let model = modelfile::save(&build().net);
    let mut per_session = Vec::new();
    let mut admit = |ctx: &mut Ctx| {
        let span = ctx.tracer.begin("serve.fleet_admit");
        let fleet = admit_fleet(ctx, &model, &mut per_session);
        ctx.tracer.end(span, &[("sessions", SESSIONS as u64)]);
        fleet
    };
    let rss_before = host::rss_kb();
    let Some(fleet) = admit(ctx) else { return };
    let rss_kb_per_session = (host::rss_kb() - rss_before) / SESSIONS as f64;

    run_fleet(ctx, &fleet, 0, warmup);
    check_digests(ctx, &fleet, &trio.oracle, warmup);

    let span = ctx.tracer.begin("serve.fleet_run");
    let (start, stamps, finished) = run_fleet(ctx, &fleet, warmup, fleet_ticks);
    ctx.tracer
        .end(span, &[("session_ticks", stamps.len() as u64)]);
    check_digests(ctx, &fleet, &trio.oracle, warmup + fleet_ticks);
    let shard_ticks = fleet.exec.registry().render_text();
    fleet.exec.shutdown();
    drop(fleet);
    ctx.set_peak_rss();

    for _ in 1..ctx.repeats(ADMISSIONS) {
        if let Some(fleet) = admit(ctx) {
            fleet.exec.shutdown();
        }
    }
    // The fleet's admission is 64 times one session's, and with 192
    // sessions to sample, a session's time is read like a block's: at the
    // fast quartile, which eight runs put within 14% of each other where
    // the median of three whole admissions moved by 44%.
    let session_s = quantile(&sorted(&per_session), FAST_QUANTILE);
    ctx.set("setup_s", trio.engine_setup_s + SESSIONS as f64 * session_s);

    let per_round = SESSIONS * ROUND_TICKS as usize;
    let secs = blocks_from_stamps(start, &stamps, per_round);
    if secs.len() == rounds {
        // Session-ticks per second: the fleet's aggregate rate.
        let rate = BlockRate::from_block_seconds(&secs, per_round as u64);
        ctx.set_rate("session_ticks_per_s", &rate);
        if traced {
            let shards = default_shards(0);
            let per_shard: Vec<f64> = (0..shards)
                .filter_map(|k| {
                    let series = format!("tn_shard_exec_ticks_total{{shard=\"{k}\"}}");
                    expo::series(&shard_ticks, &series)
                })
                .collect();
            let mean = per_shard.iter().sum::<f64>() / per_shard.len().max(1) as f64;
            let spread = per_shard.iter().copied().fold(0.0, f64::max)
                - per_shard.iter().copied().fold(f64::INFINITY, f64::min);
            let window_ns = (stamps[stamps.len() - 1] - start) as f64;
            let skew_ns = match (finished.first(), finished.last()) {
                (Some(first), Some(last)) => (last - first) as f64,
                _ => 0.0,
            };
            // What one shard spends per session-tick beyond the kernel
            // time of the same model run alone.
            ctx.set(
                "serve.fleet_overhead_us_per_tick",
                shards as f64 / rate.fast * 1e6 - trio.reference.fast_s_per_tick() * 1e6,
            );
            ctx.set("serve.fleet_rss_kb_per_session", rss_kb_per_session);
            ctx.set(
                "serve.fleet_shard_imbalance",
                if mean > 0.0 { spread / mean } else { 0.0 },
            );
            ctx.set(
                "serve.fleet_completion_skew_pct",
                skew_ns / window_ns * 100.0,
            );
        }
    }
    if traced {
        measure_modelfile(ctx, &build().net);
    }
    ctx.tracer.end(section, &[]);
}
