//! Streaming-session example: drive a recurrent characterization
//! network through the tn-serve wire protocol and verify, tick for
//! tick, that the served session reproduces a local batch run exactly.
//!
//! The paper's platform is a real-time service — hosts stream spikes
//! into a free-running board — and its equivalence claim is that every
//! expression of the kernel produces the same spikes from the same
//! inputs. This example checks that the *serving layer* preserves that
//! claim: an in-process TCP server hosts a chip-engine session, a
//! client subscribes and runs it over the wire, and the per-tick spike
//! counts and final state digest must match `TrueNorthSim::run` on the
//! same network.
//!
//! ```sh
//! cargo run --release --example streaming_session
//! ```

use tn_apps::recurrent::{build_recurrent, RecurrentParams};
use tn_chip::TrueNorthSim;
use tn_core::{modelfile, network::NullSource};
use tn_serve::{Client, Engine, ModelSource, Pace, Response, Server, ServerConfig};

const TICKS: u64 = 100;

fn main() {
    // An 8×8-core cell of the paper's 88-network characterization grid:
    // every neuron a 20 Hz stochastic source with 32 synapses per row.
    let p = RecurrentParams::small(20.0, 32, 0xC0FFEE);
    let net = build_recurrent(&p);
    let model_text = modelfile::save(&net);
    println!(
        "built a {}x{}-core recurrent network ({} Hz x {} synapses, {} bytes as a model file)",
        p.cores_x,
        p.cores_y,
        p.quantized_rate_hz(),
        p.synapses,
        model_text.len()
    );

    // Serve it: in-process server on a loopback port, chip engine, max
    // speed (the example should not take 100 ms of wall-clock per run).
    let server = Server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        max_speed: true,
        ..Default::default()
    })
    .expect("bind loopback server");
    let mut client = Client::connect(server.addr()).expect("connect");
    match client
        .create_session(
            "charnet",
            Engine::Chip,
            Pace::MaxSpeed,
            ModelSource::Model(model_text),
        )
        .expect("create session")
    {
        Response::Created { session } => println!("serving session '{session}'"),
        other => panic!("create failed: {other:?}"),
    }
    client.subscribe("charnet").expect("subscribe");
    client.run_for("charnet", TICKS).expect("run");

    let mut served_per_tick = Vec::with_capacity(TICKS as usize);
    while let Some(u) = client.poll_update() {
        assert_eq!(u.tick, served_per_tick.len() as u64, "updates in order");
        served_per_tick.push(u.spikes_out);
    }
    let served = match client.stats("charnet").expect("stats") {
        Response::StatsData(s) => s,
        other => panic!("stats failed: {other:?}"),
    };
    client.close_session("charnet").expect("close");
    server.shutdown();

    // Replay locally: the batch expression of the very same blueprint.
    let mut sim = TrueNorthSim::new(build_recurrent(&p));
    let mut batch_per_tick = Vec::with_capacity(TICKS as usize);
    for _ in 0..TICKS {
        let stats = sim.step(&mut NullSource);
        batch_per_tick.push(stats.spikes_out);
    }

    // Tick-for-tick equivalence across the serving layer.
    assert_eq!(served_per_tick.len() as u64, TICKS, "one update per tick");
    assert_eq!(
        served_per_tick, batch_per_tick,
        "per-tick spike counts diverged between served and batch runs"
    );
    assert_eq!(served.tick, sim.current_tick());
    assert_eq!(
        served.state_digest,
        sim.network().state_digest(),
        "state digests diverged"
    );
    println!(
        "served run == batch run over {TICKS} ticks: {} spikes, final digest {:#018x}",
        served_per_tick.iter().sum::<u64>(),
        served.state_digest
    );
    println!(
        "served stats: sops={} dropped_inputs={} missed_deadlines={} energy={:.3e} J",
        served.sops, served.dropped_inputs, served.missed_deadlines, served.energy_j
    );
}
