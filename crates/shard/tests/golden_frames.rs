//! Golden frames for the shard wire (version 2): the exact bytes of one
//! instance of every coordinator and worker message. A change to any
//! encoder that moves a byte fails here, and every pinned frame must
//! decode back to the message it came from.

mod wire_samples;

use tn_core::wire::framed;
use tn_shard::{FromWorker, ToWorker};
use wire_samples::hex;

#[test]
fn every_coordinator_message_has_its_pinned_bytes() {
    for (msg, golden) in wire_samples::to_worker() {
        let f = msg.encode();
        assert_eq!(hex(&f), golden, "{msg:?}");
        let (h, payload) = framed::split_frame(&f).unwrap();
        assert_eq!(h.version, 2);
        assert_eq!(ToWorker::decode(h.opcode, payload).unwrap(), msg);
    }
}

#[test]
fn every_worker_message_has_its_pinned_bytes() {
    for (msg, golden) in wire_samples::from_worker() {
        let f = msg.encode();
        assert_eq!(hex(&f), golden, "{msg:?}");
        let (h, payload) = framed::split_frame(&f).unwrap();
        assert_eq!(h.version, 2);
        assert_eq!(FromWorker::decode(h.opcode, payload).unwrap(), msg);
    }
}
