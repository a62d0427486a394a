//! One instance of every serve wire message, paired with the hex of the
//! complete frame it encodes to (header, payload and CRC trailer).
//! `golden_frames` pins these bytes; `hostile_frames` mutates them.

// Each test binary includes this module but uses a different subset.
#![allow(dead_code)]

use std::time::Duration;
use tn_core::CoreId;
use tn_serve::{
    Engine, ErrorCode, Health, ModelSource, Pace, Request, Response, SessionEntry, SessionStats,
    TickUpdate,
};

/// Lower-case hex of `bytes`, two digits a byte.
pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Every error code, in wire order.
pub const ERROR_CODES: [ErrorCode; 11] = [
    ErrorCode::Protocol,
    ErrorCode::UnknownSession,
    ErrorCode::SessionExists,
    ErrorCode::ModelRejected,
    ErrorCode::InvalidInjection,
    ErrorCode::SnapshotRejected,
    ErrorCode::TooManySessions,
    ErrorCode::Shutdown,
    ErrorCode::Internal,
    ErrorCode::Draining,
    ErrorCode::MigrationFailed,
];

fn stats(health: Health) -> SessionStats {
    SessionStats {
        tick: 100,
        spikes_out: 5,
        sops: 50,
        neuron_updates: 512,
        dropped_inputs: 3,
        pending_inputs: 2,
        missed_deadlines: 1,
        state_digest: 0xDEAD_BEEF,
        energy_j: 6.5e-5,
        health,
        fault_dropped: 17,
        spikes_evicted: 8,
        engine: "chip".into(),
    }
}

fn create_blank() -> Request {
    Request::CreateSession {
        name: "v0".into(),
        engine: Engine::Chip,
        pace: Pace::RealTime,
        source: ModelSource::Blank {
            width: 8,
            height: 4,
            seed: 99,
        },
        fault_plan: String::new(),
    }
}

fn create_sharded_model() -> Request {
    Request::CreateShardedSession {
        name: "b".into(),
        pace: Pace::MaxSpeed,
        source: ModelSource::Model("tnmodel 1\n".into()),
        fault_plan: "tnfault 1\n".into(),
        shards: 4,
    }
}

/// Every request shape: all variants, both model sources, every engine
/// and pace, `RunFor { ticks: 1 }` (sent as `OP_STEP`) and an adopt with
/// and without a grid phase.
pub fn requests() -> Vec<(Request, &'static str)> {
    let s = || "s".to_string();
    vec![
        (Request::Ping, "0000000004016de7b252"),
        (create_blank(), "170000000402020076300000000000000008000400630000000000000063ae9653"),
        (
            Request::CreateSession {
                name: "m".into(),
                engine: Engine::Reference,
                pace: Pace::MaxSpeed,
                source: ModelSource::Model("tnmodel 1\n".into()),
                fault_plan: "tnfault 1\n".into(),
            },
            "22000000040201006d01010a000000746e6661756c7420310a010a000000746e6d6f64656c20310aee9fe7ad",
        ),
        (
            Request::CreateSession {
                name: "p".into(),
                engine: Engine::Parallel,
                pace: Pace::RealTime,
                source: ModelSource::Blank {
                    width: 1,
                    height: 1,
                    seed: 0,
                },
                fault_plan: String::new(),
            },
            "16000000040201007002000000000000010001000000000000000000ce9968ff",
        ),
        (
            Request::InjectSpikes {
                session: s(),
                events: vec![(0, CoreId(1), 255), (7, CoreId(0), 0)],
            },
            "23000000040301007302000000000000000000000001000000ff000700000000000000000000000000615117ef",
        ),
        (create_sharded_model(), "23000000040c0100620104000a000000746e6661756c7420310a010a000000746e6d6f64656c20310afd18bf52"),
        (
            Request::CreateShardedSession {
                name: "c".into(),
                pace: Pace::RealTime,
                source: ModelSource::Blank {
                    width: 8,
                    height: 8,
                    seed: 1,
                },
                fault_plan: String::new(),
                shards: 0,
            },
            "17000000040c01006300000000000000000800080001000000000000001fd04cf3",
        ),
        (Request::Subscribe { session: s() }, "0300000004040100733b8c0e74"),
        (
            Request::RunFor {
                session: s(),
                ticks: 1,
            },
            "0300000004050100735eebb2cc",
        ),
        (
            Request::RunFor {
                session: s(),
                ticks: 1000,
            },
            "0b0000000406010073e8030000000000006d8d8d49",
        ),
        (Request::Snapshot { session: s() }, "030000000407010073d523bb66"),
        (
            Request::Restore {
                session: s(),
                bytes: vec![1, 2, 3],
            },
            "0a0000000408010073030000000102038aa21894",
        ),
        (Request::Stats { session: s() }, "030000000409010073e6546486"),
        (Request::GetMetrics { session: s() }, "03000000040b0100736d9c6d2c"),
        (Request::CloseSession { session: s() }, "03000000040a01007308fbd194"),
        (Request::ListSessions, "00000000040d46ab045b"),
        (
            Request::MigrateSession {
                session: "hot".into(),
                target: "10.0.0.2:4160".into(),
            },
            "14000000040e0300686f740d0031302e302e302e323a343136304cc7ef4f",
        ),
        (
            Request::Drain {
                target: "10.0.0.2:4160".into(),
            },
            "0f000000040f0d0031302e302e302e323a3431363087e8a6bd",
        ),
        (Request::ServerStatus, "0000000004109fc70238"),
        (
            Request::AdoptSession {
                create: Box::new(create_blank()),
                snapshot: vec![4, 5, 6, 7],
                baseline: stats(Health::Degraded),
                pending: vec![(18, CoreId(0), 7)],
                grid_phase: Some(Duration::from_micros(412)),
            },
            "a7000000041121000000170000000402020076300000000000000008000400630000000000000063ae965304000000040506076400000000000000050000000000000032000000000000000002000000000000030000000000000002000000000000000100000000000000efbeadde0000000043c5387f130a113f01110000000000000008000000000000000400636869700100000012000000000000000000000007000160490600000000006488cfc0",
        ),
        (
            Request::AdoptSession {
                create: Box::new(create_sharded_model()),
                snapshot: vec![],
                baseline: SessionStats::default(),
                pending: vec![],
                grid_phase: None,
            },
            "9500000004112d00000023000000040c0100620104000a000000746e6661756c7420310a010a000000746e6d6f64656c20310afd18bf52000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000003892fa29",
        ),
    ]
}

/// Every response shape: all variants, every error code and every
/// health state.
pub fn responses() -> Vec<(Response, &'static str)> {
    let errors = [
        "060000000482010002006e6f860bc7b9",
        "060000000482020002006e6f2879533f",
        "060000000482030002006e6f8daa0ff4",
        "060000000482040002006e6f359a0ae9",
        "060000000482050002006e6f90495622",
        "060000000482060002006e6f3e3bc2a4",
        "060000000482070002006e6f9be89e6f",
        "060000000482080002006e6f4e5ac89e",
        "060000000482090002006e6feb899455",
        "0600000004820a0002006e6f45fb00d3",
        "0600000004820b0002006e6fe0285c18",
    ];
    let mut out: Vec<(Response, &'static str)> = ERROR_CODES
        .iter()
        .zip(errors)
        .map(|(&code, hex)| {
            let message = "no".to_string();
            (Response::Error { code, message }, hex)
        })
        .collect();
    out.extend([
        (Response::Pong, "000000000480db540dc8"),
        (Response::Ok, "0000000004814d640abf"),
        (
            Response::Created {
                session: "s".into(),
            },
            "030000000483010073b9028004",
        ),
        (Response::InjectAck { accepted: 42 }, "0400000004842a000000bdbabaa1"),
        (
            Response::Overloaded {
                accepted: 10,
                dropped: 90,
                total_dropped: 1234,
            },
            "1000000004850a0000005a000000d2040000000000001c6219b0",
        ),
        (
            Response::SnapshotData {
                bytes: vec![9, 9, 9],
            },
            "0700000004860300000009090900eb96b8",
        ),
        (Response::StatsData(stats(Health::Degraded)), "5f00000004876400000000000000050000000000000032000000000000000002000000000000030000000000000002000000000000000100000000000000efbeadde0000000043c5387f130a113f0111000000000000000800000000000000040063686970e6312d24"),
        (
            Response::TickUpdate(TickUpdate {
                session: "s".into(),
                tick: 17,
                spikes_out: 3,
                sops: 30,
                energy_j: 1e-7,
                ports: vec![5, 6, 7],
            }),
            "330000000488010073110000000000000003000000000000001e0000000000000048afbc9af2d77a3e03000000050000000600000007000000137ac168",
        ),
        (
            Response::MetricsData {
                text: "tn_ticks 5\n".into(),
            },
            "0f00000004890b000000746e5f7469636b7320350a7dc73e9c",
        ),
        (
            Response::SessionList {
                entries: vec![
                    SessionEntry {
                        name: "a".into(),
                        stats: stats(Health::Failed),
                    },
                    SessionEntry {
                        name: "b".into(),
                        stats: SessionStats::default(),
                    },
                ],
            },
            "c4000000048a020000000100616400000000000000050000000000000032000000000000000002000000000000030000000000000002000000000000000100000000000000efbeadde0000000043c5387f130a113f02110000000000000008000000000000000400636869700100620000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000058c84abc",
        ),
        (Response::SessionList { entries: vec![] }, "04000000048a00000000864b05d1"),
        (
            Response::Redirect {
                session: "hot".into(),
                addr: "10.0.0.2:4160".into(),
            },
            "14000000048b0300686f740d0031302e302e302e323a34313630cadd7ff0",
        ),
        (
            Response::ServerStatusData {
                addr: "127.0.0.1:4160".into(),
                draining: true,
                sessions: 3,
                max_sessions: 32,
            },
            "19000000048c0e003132372e302e302e313a343136300103000000200000004b09799a",
        ),
    ]);
    out
}
