//! Golden frames for the serve wire (protocol version 4): the exact
//! bytes of one instance of every request and response. A change to any
//! encoder that moves a byte fails here, and every pinned frame must
//! decode back to the message it came from.

mod wire_samples;

use tn_serve::protocol::split_frame;
use tn_serve::{Request, Response};
use wire_samples::hex;

#[test]
fn every_request_has_its_pinned_bytes() {
    for (msg, golden) in wire_samples::requests() {
        let f = msg.encode();
        assert_eq!(hex(&f), golden, "{msg:?}");
        assert_eq!(f[4], 4, "protocol version");
        let (op, payload) = split_frame(&f).unwrap();
        assert_eq!(Request::decode(op, payload).unwrap(), msg);
    }
}

#[test]
fn a_single_step_travels_as_the_step_opcode() {
    let step = Request::RunFor {
        session: "s".into(),
        ticks: 1,
    };
    assert_eq!(split_frame(&step.encode()).unwrap().0, 0x05);
}

#[test]
fn every_response_has_its_pinned_bytes() {
    for (msg, golden) in wire_samples::responses() {
        let f = msg.encode();
        assert_eq!(hex(&f), golden, "{msg:?}");
        assert_eq!(f[4], 4, "protocol version");
        let (op, payload) = split_frame(&f).unwrap();
        assert_eq!(Response::decode(op, payload).unwrap(), msg);
    }
}
