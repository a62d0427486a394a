//! Helpers shared by the two serve workloads: commands to a session on
//! a `ShardExecutor`, and cutting a stream of arrival stamps into
//! fixed-count blocks.

use std::sync::mpsc::{self, Sender};
use std::time::Duration;
use tn_serve::{Cmd, Pace, Response, SessionConfig, SessionHandle, SessionStats};

/// How long any single reply may take before the run counts it failed
/// instead of hanging.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

pub fn max_speed_config() -> SessionConfig {
    SessionConfig {
        pace: Pace::MaxSpeed,
        ..Default::default()
    }
}

/// Send one command and wait for its reply; `None` if the session is
/// gone or the reply never comes.
pub fn ask(handle: &SessionHandle, cmd: impl FnOnce(Sender<Response>) -> Cmd) -> Option<Response> {
    let (tx, rx) = mpsc::channel();
    handle.send(cmd(tx)).ok()?;
    rx.recv_timeout(REPLY_TIMEOUT).ok()
}

pub fn run_for(handle: &SessionHandle, ticks: u64) -> bool {
    ask(handle, |reply| Cmd::RunFor { ticks, reply }) == Some(Response::Ok)
}

pub fn stats_of(handle: &SessionHandle) -> Option<SessionStats> {
    match ask(handle, |reply| Cmd::Stats { reply })? {
        Response::StatsData(s) => Some(s),
        _ => None,
    }
}

/// Seconds each block of `per_block` consecutive arrivals took, the
/// first block starting at `start_ns`. A trailing partial block is
/// dropped.
pub fn blocks_from_stamps(start_ns: u64, stamps_ns: &[u64], per_block: usize) -> Vec<f64> {
    let mut from = start_ns;
    stamps_ns
        .chunks_exact(per_block)
        .map(|block| {
            let to = *block.last().expect("chunks are never empty");
            let secs = to.saturating_sub(from) as f64 * 1e-9;
            from = to;
            secs
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_cut_into_whole_blocks() {
        let stamps = [10, 20, 30, 45, 60, 99, 100];
        let blocks = blocks_from_stamps(0, &stamps, 3);
        assert_eq!(blocks.len(), 2);
        assert!((blocks[0] - 30e-9).abs() < 1e-15);
        assert!((blocks[1] - 69e-9).abs() < 1e-15);
    }
}
