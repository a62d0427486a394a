//! The five workloads. Each stresses different layers, so that for any
//! optimisation one workload exercises its mechanism and another
//! bypasses it; why each exists is in its module header and in
//! `catalog::WORKLOADS`.

pub mod char_chip;
pub mod serve_fleet;
pub mod serve_probe;
pub mod small_board_sync;
pub mod vision_neovision;

use crate::boards::Board;
use crate::engines::Window;
use crate::report::Ctx;
use crate::stats::BlockRate;
use std::time::Instant;
use tn_compass::ReferenceSim;
use tn_core::{modelfile, LintConfig, Network};

/// Run the named workload; `false` if there is none of that name.
pub fn run(ctx: &mut Ctx) -> bool {
    match ctx.args.workload.as_str() {
        "char_chip" => char_chip::run(ctx),
        "vision_neovision" => vision_neovision::run(ctx),
        "small_board_sync" => small_board_sync::run(ctx),
        "serve_probe" => serve_probe::run(ctx),
        "serve_fleet" => serve_fleet::run(ctx),
        _ => return false,
    }
    true
}

/// Model text out and back in: on the set-up path of every workload
/// that ships a board to workers or to a server.
fn measure_modelfile(ctx: &mut Ctx, net: &Network) {
    let t = Instant::now();
    let text = ctx
        .tracer
        .scope("core.modelfile_save", || modelfile::save(net));
    ctx.set("core.modelfile_save_ms", t.elapsed().as_secs_f64() * 1e3);
    let t = Instant::now();
    let loaded = ctx.tracer.scope("core.modelfile_load", || {
        modelfile::load_verified(&text, &LintConfig::default())
    });
    ctx.set("core.modelfile_load_ms", t.elapsed().as_secs_f64() * 1e3);
    ctx.check(
        "modelfile.round_trip",
        loaded.is_ok_and(|(back, _)| back.state_digest() == net.state_digest()),
    );
}

/// The workload's board at the paper's scale on the reference engine:
/// the number the paper's 1 ms tick is read against, ungated.
fn full_scale(ctx: &mut Ctx, warmup: u64, build: impl FnOnce() -> Board) {
    let span = ctx.tracer.begin("core.full_scale");
    let Board { net, mut src } = build();
    let mut sim = ReferenceSim::new(net);
    sim.run(warmup, &mut *src);
    let before = sim.stats().totals.sops;
    let window = Window {
        block_ticks: 1,
        blocks: ctx.blocks(5.0, 10),
    };
    let secs: Vec<f64> = (0..window.blocks)
        .map(|_| {
            let t = Instant::now();
            sim.run(window.block_ticks, &mut *src);
            t.elapsed().as_secs_f64()
        })
        .collect();
    ctx.tracer.end(span, &[("ticks", window.ticks())]);
    let rate = BlockRate::from_block_seconds(&secs, window.block_ticks);
    ctx.set("core.full_scale_ms_per_tick", rate.fast_s_per_tick() * 1e3);
    ctx.set(
        "core.full_scale_sops_per_tick",
        (sim.stats().totals.sops - before) as f64 / window.ticks() as f64,
    );
}
