//! Minimal raw-socket client helpers shared by the fuzz planes.
//!
//! The load generator's client is deliberately well-behaved; the fuzz
//! planes need the opposite — a client that writes arbitrary bytes
//! and observes exactly what comes back, including "nothing" and
//! "the connection closed on me", both of which are legal server
//! responses to hostile input. Honest requests go through
//! [`dut_serve::client::check_served`] instead.

use dut_serve::client::REPLY_TIMEOUT;
use dut_serve::protocol::ReplyLine;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// What one fired frame produced.
#[derive(Debug)]
pub struct FireOutcome {
    /// The first reply line, parsed — `None` when the server closed
    /// without writing one.
    pub first: Option<ReplyLine>,
    /// Whether the connection reached EOF after (or instead of) the
    /// first line.
    pub closed: bool,
}

/// Fires raw bytes (newline appended) on a fresh connection and
/// reports what came back.
///
/// # Errors
///
/// Returns a message when the server cannot be reached or the reply
/// never arrives within [`REPLY_TIMEOUT`] — a hang is a finding, not
/// a tolerable outcome.
pub fn fire_frame(addr: &str, bytes: &[u8]) -> Result<FireOutcome, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| format!("cannot set read timeout: {e}"))?;
    let _ = stream.set_nodelay(true);
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("cannot clone stream: {e}"))?;
    writer
        .write_all(bytes)
        .and_then(|()| writer.write_all(b"\n"))
        .map_err(|e| format!("cannot send frame: {e}"))?;
    let _ = writer.flush();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let first = match reader.read_line(&mut line) {
        Ok(0) => None,
        Ok(_) => Some(
            ReplyLine::parse(line.trim())
                .map_err(|e| format!("unparseable reply `{}`: {e}", line.trim()))?,
        ),
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            return Err(format!(
                "server hung: no reply within {REPLY_TIMEOUT:?} for a {}-byte frame",
                bytes.len()
            ));
        }
        // A reset counts as a close: hostile frames get no delivery
        // guarantees, only the no-hang guarantee.
        Err(_) => {
            return Ok(FireOutcome {
                first: None,
                closed: true,
            })
        }
    };
    // One bounded follow-up read distinguishes "closed after the
    // notice" from "still open". A short timeout keeps open
    // connections from stalling the loop.
    let closed = {
        let inner = reader.get_ref();
        let _ = inner.set_read_timeout(Some(Duration::from_millis(50)));
        let mut rest = String::new();
        matches!(reader.read_line(&mut rest), Ok(0))
    };
    Ok(FireOutcome { first, closed })
}
