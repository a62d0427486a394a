//! Characterization example: one cell of the paper's 88-network grid,
//! simulated on the chip model, with the Fig. 5 quantities printed.
//!
//! ```sh
//! cargo run --release --example recurrent_characterization \
//!     [rate_hz] [synapses] [--no-fastpath]
//! ```
//!
//! `--no-fastpath` selects the scalar reference loop (tn_core::fastpath)
//! so the fast paths' host-speed contribution at this operating point
//! can be read directly off the wall-clock line; the simulated chip
//! quantities are bit-identical either way.

use tn_apps::recurrent::{build_recurrent, RecurrentParams};
use tn_chip::TrueNorthSim;
use tn_core::network::NullSource;

fn main() {
    let mut rate: f64 = 20.0;
    let mut syn: u32 = 128;
    let mut positional = 0;
    let mut fastpath = true;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--no-fastpath" => fastpath = false,
            v => {
                match positional {
                    0 => rate = v.parse().unwrap_or(rate),
                    _ => syn = v.parse().unwrap_or(syn),
                }
                positional += 1;
            }
        }
    }

    // A quarter-chip (32×32 cores) so the example runs fast; pass the
    // full-chip path through `tn-bench --bin fig5` instead.
    let p = RecurrentParams {
        rate_hz: rate,
        synapses: syn,
        cores_x: 32,
        cores_y: 32,
        seed: 0xCAFE,
    };
    println!(
        "building a {}x{}-core recurrent network at ({} Hz, {} synapses)...",
        p.cores_x, p.cores_y, rate, syn
    );
    let net = build_recurrent(&p);
    let neurons = net.num_neurons() as u64;
    let mut sim = TrueNorthSim::new(net);
    sim.network_mut().set_fastpath(fastpath);
    sim.run(16, &mut NullSource); // warm-up: fill the delay pipelines
    let host = std::time::Instant::now();
    sim.run(64, &mut NullSource);
    let ms_per_tick = host.elapsed().as_secs_f64() * 1e3 / 64.0;

    let report = sim.report();
    println!("\nmeasured over 80 ticks (16 warm-up):");
    println!(
        "  host speed       : {:>8.2} ms/tick (fastpath: {})",
        ms_per_tick, fastpath
    );
    println!(
        "  mean rate        : {:>8.1} Hz (target {:.1})",
        report.mean_rate_hz,
        p.quantized_rate_hz()
    );
    println!(
        "  syn per spike    : {:>8.1} (target {})",
        report.syn_per_spike, syn
    );
    println!("  GSOPS (real-time): {:>8.3}", report.gsops_realtime);
    println!(
        "  power (real-time): {:>8.2} mW",
        report.power_realtime_w * 1e3
    );
    println!(
        "  GSOPS/W          : {:>8.1}",
        report.gsops_per_watt_realtime
    );
    println!(
        "  GSOPS/W (max spd): {:>8.1}",
        report.gsops_per_watt_max_speed
    );
    println!("  fmax             : {:>8.2} kHz", report.fmax_khz);
    println!(
        "  mesh hops/spike  : {:>8.1} (paper: 21.66 per axis → ~43)",
        sim.stats().mean_hops()
    );
    let _ = neurons;
    println!(
        "\npaper anchor at (20 Hz, 128 syn) full chip: 65 mW, 46 GSOPS/W real-time, \
         81 GSOPS/W at ~5x."
    );
}
