//! One-shot client exchanges and the served-vs-offline check.
//!
//! The service's contract is that a served verdict is bit-identical to
//! the offline run of the same request. [`check_served`] is the one
//! place that enforces it from outside the server: the chaos mix, the
//! fuzz planes and corpus replay all call it. [`exchange`] is the one
//! connect/write/read-one-line round trip under it, shared with the
//! admin commands ([`fetch_stats`](crate::loadgen::fetch_stats),
//! [`send_shutdown`](crate::loadgen::send_shutdown)).

use crate::engine;
use crate::protocol::{self, ReplyLine, Request};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// How long a client waits for a reply line before declaring the
/// server hung. Generous next to real service times (microseconds to
/// low milliseconds), tight enough that a wedged worker fails a run
/// rather than stalling it.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// Sends `line` (a newline is appended) on a fresh connection and
/// returns the first reply line, trimmed.
///
/// # Errors
///
/// Returns a message when the server cannot be reached, the write
/// fails, no line arrives within [`REPLY_TIMEOUT`], or the server
/// closes without replying.
pub fn exchange(addr: &str, line: &str) -> Result<String, String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let _ = stream.set_read_timeout(Some(REPLY_TIMEOUT));
    let _ = stream.set_nodelay(true);
    stream
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("cannot send to {addr}: {e}"))?;
    let mut reply = String::new();
    let got = BufReader::new(stream)
        .read_line(&mut reply)
        .map_err(|e| format!("no reply from {addr}: {e}"))?;
    if got == 0 {
        return Err(format!("{addr} closed the connection without replying"));
    }
    Ok(reply.trim().to_owned())
}

/// How the server answered a [`check_served`] request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// A reply bit-identical to the offline reference.
    Exact,
    /// An `overloaded` reply: shedding is part of the contract, not a
    /// wrong answer.
    Shed,
}

impl Served {
    /// For callers where a shed also counts as a failure.
    ///
    /// # Errors
    ///
    /// Returns a message for [`Served::Shed`].
    pub fn answered(self) -> Result<(), String> {
        match self {
            Served::Exact => Ok(()),
            Served::Shed => Err("request was shed".to_owned()),
        }
    }
}

/// Sends `request` on a fresh connection and demands the bit-exact
/// offline answer ([`engine::offline_reply`]); a shed is reported as
/// [`Served::Shed`].
///
/// # Errors
///
/// Returns a message on a transport failure, an error or unparseable
/// reply, or any deviation from the offline reference.
pub fn check_served(addr: &str, request: &Request) -> Result<Served, String> {
    let line = exchange(addr, &protocol::render_request(request))?;
    match ReplyLine::parse(&line)? {
        ReplyLine::Reply(reply) => {
            let expected = engine::offline_reply(request)?;
            if reply.same_answer(&expected) {
                Ok(Served::Exact)
            } else {
                Err(format!(
                    "served reply diverged from offline: {reply:?} vs {expected:?}"
                ))
            }
        }
        ReplyLine::Overloaded => Ok(Served::Shed),
        other => Err(format!("unexpected reply: {other:?}")),
    }
}
