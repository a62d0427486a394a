//! Hostile bytes against the two shard decoders (`ToWorker`, the
//! worker's entry point, and `FromWorker`, the coordinator's). For every opcode the loop
//! feeds seeded random payloads, and for every golden message each
//! truncation and single-byte flip of its payload. Decoding must return
//! `Ok` or `Err` — never panic — and its largest single allocation must
//! stay within 8× the payload length, so a lying count cannot make the
//! decoder reserve memory the bytes do not back.
//!
//! A counting global allocator measures the allocations; it records per
//! thread, so the tests may run in parallel.

mod wire_samples;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tn_core::wire::framed::split_frame;
use tn_shard::{FromWorker, ToWorker};

struct Counting;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every call forwards unchanged to the system allocator, so
// `Counting` upholds `GlobalAlloc`'s contract exactly as `System` does;
// `note` only updates a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's `layout` obligations pass straight to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    // SAFETY: `ptr` came from `System` with this `layout`, as `alloc` did.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    // SAFETY: as for `dealloc`; `new_size` obligations pass to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Decode one payload and hold it to the allocation bound. Payloads
/// under 32 B are charged as 32 B: an error reply's message is one short
/// allocation whatever the input length.
fn decode_bounded(decode: fn(u8, &[u8]) -> bool, op: u8, payload: &[u8]) {
    LARGEST.with(|l| l.set(0));
    let outcome = std::panic::catch_unwind(|| decode(op, payload));
    let largest = LARGEST.with(|l| l.get());
    assert!(
        outcome.is_ok(),
        "opcode {op:#04x}: decode panicked on {payload:02x?}"
    );
    let cap = 8 * payload.len().max(32);
    assert!(
        largest <= cap,
        "opcode {op:#04x}: a {} B payload made a {largest} B allocation",
        payload.len()
    );
}

/// The whole loop for one table: truncations and flips of every golden
/// payload, then random payloads under every opcode.
fn hammer(decode: fn(u8, &[u8]) -> bool, golden: Vec<Vec<u8>>, seed: u64) {
    for frame in golden {
        let (h, payload) = split_frame(&frame).unwrap();
        let op = h.opcode;
        for len in 0..payload.len() {
            decode_bounded(decode, op, &payload[..len]);
        }
        let mut bytes = payload.to_vec();
        for i in 0..bytes.len() {
            for mask in [0x01, 0x80, 0xFF] {
                bytes[i] ^= mask;
                decode_bounded(decode, op, &bytes);
                bytes[i] ^= mask;
            }
        }
    }
    let mut x = seed;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for op in 0..=255u8 {
        for _ in 0..64 {
            let len = (next() % 96) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            decode_bounded(decode, op, &bytes);
        }
    }
}

#[test]
fn coordinator_message_decoder_survives_hostile_payloads() {
    let golden = wire_samples::to_worker()
        .iter()
        .map(|(m, _)| m.encode())
        .collect();
    hammer(|op, p| ToWorker::decode(op, p).is_ok(), golden, 0x5EED_0003);
}

#[test]
fn worker_message_decoder_survives_hostile_payloads() {
    let golden = wire_samples::from_worker()
        .iter()
        .map(|(m, _)| m.encode())
        .collect();
    hammer(
        |op, p| FromWorker::decode(op, p).is_ok(),
        golden,
        0x5EED_0004,
    );
}

#[test]
fn a_done_claiming_1024_empty_boundary_buckets_is_refused_cheaply() {
    // Tick, the five stats counters and an empty output list, then a
    // bucket count of 1024 with no bucket bytes behind it.
    let mut payload = vec![0u8; 8 + 5 * 8 + 4];
    payload.extend_from_slice(&1024u16.to_le_bytes());
    let op = split_frame(&FromWorker::Done(Default::default()).encode())
        .unwrap()
        .0
        .opcode;
    decode_bounded(|op, p| FromWorker::decode(op, p).is_ok(), op, &payload);
    assert!(FromWorker::decode(op, &payload).is_err());
}
