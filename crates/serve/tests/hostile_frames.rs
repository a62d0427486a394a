//! Hostile bytes against the two serve decoders (`Request`, the server's
//! entry point, and `Response`, the client's). For every opcode the loop
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
use tn_serve::protocol::split_frame;
use tn_serve::{Request, Response};

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
        let (op, payload) = split_frame(&frame).unwrap();
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
fn request_decoder_survives_hostile_payloads() {
    let golden = wire_samples::requests()
        .iter()
        .map(|(m, _)| m.encode())
        .collect();
    hammer(|op, p| Request::decode(op, p).is_ok(), golden, 0x5EED_0001);
}

#[test]
fn response_decoder_survives_hostile_payloads() {
    let golden = wire_samples::responses()
        .iter()
        .map(|(m, _)| m.encode())
        .collect();
    hammer(|op, p| Response::decode(op, p).is_ok(), golden, 0x5EED_0002);
}

#[test]
fn a_session_list_count_backed_by_four_bytes_an_entry_is_refused_cheaply() {
    // Enough bytes for a count check at 4 B an entry, far too few for
    // the entries themselves (the smallest encodes to 93 B).
    let n = 65_536u32;
    let mut payload = n.to_le_bytes().to_vec();
    payload.resize(4 + 4 * n as usize, 0);
    let op = split_frame(&Response::SessionList { entries: vec![] }.encode())
        .unwrap()
        .0;
    decode_bounded(|op, p| Response::decode(op, p).is_ok(), op, &payload);
    assert!(Response::decode(op, &payload).is_err());
}
