//! `vision_neovision`: the NeoVision What/Where net under a seeded
//! video stream. The same kernel, used differently: deterministic
//! neurons, real external input every tick, about half the cores
//! quiescent on any tick. Input and Routing phases and quiescence
//! skipping matter; the LFSR path does not. A kernel change tuned on
//! `char_chip` that hurts event-driven nets shows here.
//!
//! The gated rates are taken at a quarter of the default scale (a
//! 100x60 aperture on 32x32 cores); the default 200x120 net is timed
//! once per traced run as `core.full_scale_*`.

use super::full_scale;
use crate::boards::{self, Scale};
use crate::engines::{run_trio, TrioPlan, Window};
use crate::report::Ctx;
use crate::stats::BlockRate;
use std::time::Instant;
use tn_apps::TICKS_PER_FRAME;

pub fn run(ctx: &mut Ctx) {
    let seed = ctx.args.seed;
    let scale = Scale::of_run(ctx.args.quick);
    // Whole frames, so every window sees the same scene phases. A tick's
    // cost follows the scene, which is why tick counts are fixed here
    // and never derived from elapsed time.
    let frames = |per_second: f64, ctx: &Ctx| Window {
        block_ticks: 1,
        blocks: ctx.blocks(per_second, 1) * TICKS_PER_FRAME as usize,
    };
    let window = frames(1.5, ctx);
    let plan = TrioPlan {
        warmup: TICKS_PER_FRAME,
        reference: window,
        parallel: window,
        chip: window,
        step: frames(0.75, ctx),
        checks: Vec::new(),
        build_span: "apps.build",
    };
    let trio = run_trio(ctx, &plan, &|| boards::neovision(seed, scale));
    ctx.set_rate("session_ticks_per_s", &trio.step);
    ctx.set("setup_s", trio.engine_setup_s);
    ctx.set_peak_rss();

    if ctx.args.trace {
        ctx.set("apps.build_s", trio.build_s);
        // The transducer alone: what the Input phase pays before a
        // single spike reaches a core.
        let mut src = boards::neovision(seed, scale).src;
        let mut events = Vec::new();
        let secs: Vec<f64> = (0..3 * TICKS_PER_FRAME)
            .map(|tick| {
                events.clear();
                let span = ctx.tracer.begin("apps.video_source_fill");
                let t = Instant::now();
                src.fill(tick, &mut events);
                let dt = t.elapsed().as_secs_f64();
                ctx.tracer.end(span, &[("events", events.len() as u64)]);
                dt
            })
            .collect();
        let fill = BlockRate::from_block_seconds(&secs, 1);
        ctx.set(
            "apps.video_source_ms_per_tick",
            fill.fast_s_per_tick() * 1e3,
        );
        if scale != Scale::Quick {
            full_scale(ctx, plan.warmup, || boards::neovision(seed, Scale::Full));
        }
    }
}
