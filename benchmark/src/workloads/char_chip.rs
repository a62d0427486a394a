//! `char_chip`: the paper's headline operating point, a grid of
//! (20 Hz, 128 synapse) stochastic sources with no external input.
//! Every core takes the SoA tier every tick and the LFSR draw pre-pass
//! runs for every neuron; the working set is far beyond cache. Serve and
//! shard do nothing here, so kernel, thread-scaling and chip-model
//! changes show here and nothing else does.
//!
//! The gated rates are taken on a quarter chip (32x32 cores); the full
//! 64x64 chip is timed once per traced run as `core.full_scale_*`.

use super::full_scale;
use crate::boards::{self, Scale};
use crate::engines::{run_trio, TrioPlan, Window};
use crate::report::Ctx;

pub fn run(ctx: &mut Ctx) {
    let seed = ctx.args.seed;
    let scale = Scale::of_run(ctx.args.quick);
    // Two ticks of a quarter chip are 2.5 ms of work: a block.
    let block_ticks = if ctx.args.quick { 8 } else { 2 };
    let window = Window {
        block_ticks,
        blocks: ctx.blocks(40.0, 10),
    };
    let plan = TrioPlan {
        warmup: 16,
        reference: window,
        parallel: window,
        chip: window,
        step: Window {
            block_ticks,
            blocks: ctx.blocks(20.0, 10),
        },
        checks: Vec::new(),
        build_span: "core.build",
    };
    let trio = run_trio(ctx, &plan, &|| boards::characterization(scale.side(), seed));
    // The session a host holds on a chip is the engine itself, stepped
    // tick by tick.
    ctx.set_rate("session_ticks_per_s", &trio.step);
    ctx.set("setup_s", trio.engine_setup_s);
    ctx.set_peak_rss();

    if ctx.args.trace && scale != Scale::Quick {
        full_scale(ctx, plan.warmup, || {
            boards::characterization(Scale::Full.side(), seed)
        });
    }
}
