//! Open-loop request generator.
//!
//! Request `i` is due at a fixed offset from the phase start, whatever
//! the server does. Each connection is driven by one thread that waits,
//! with `ppoll(2)`, for either its socket to turn readable or its next
//! request to fall due. It writes every request already due in one
//! write and stamps each reply the moment it is read. The server
//! answers a connection in request order, so replies pair with
//! requests first in, first out. Latency runs from the **due** time,
//! not the send time: a stall is charged to every request scheduled
//! behind it (no coordinated omission), and how late the generator
//! itself ran is reported separately as lag.

use crate::summary::{thread_cpu, Timespec};
use dut_serve::protocol::{Reply, ReplyLine};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// What came back for one request.
#[derive(Debug, Clone, Copy)]
pub enum Outcome {
    /// A test reply.
    Reply(Reply),
    /// The server shed the request (`overloaded`).
    Shed,
    /// An error reply, an unparsable line, or a transport failure.
    Error,
    /// Nothing arrived before the drain deadline.
    Unanswered,
}

/// One phase's requests, in due order: when each is due, and which
/// wire line it sends.
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    /// Offset from the phase start at which request `i` is due.
    pub due: Vec<Duration>,
    /// Request `i` is line `ids[i]` of the line table.
    pub ids: Vec<usize>,
}

/// Everything measured for one phase, indexed like the schedule.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Reply time minus due time, microseconds (`None`: no reply line).
    pub latency_us: Vec<Option<f64>>,
    /// Send time minus due time, microseconds (`None`: never sent).
    pub lag_us: Vec<Option<f64>>,
    /// What came back.
    pub outcomes: Vec<Outcome>,
    /// From the phase start to the last reply or the drain deadline.
    pub elapsed: Duration,
    /// CPU time the generator's own threads used, so that a caller
    /// sharing the process can take it out of the process's CPU time.
    pub client_cpu: Duration,
}

impl Phase {
    /// Latencies of successful replies, in due order.
    #[must_use]
    pub fn reply_latencies(&self) -> Vec<f64> {
        self.latency_us
            .iter()
            .zip(&self.outcomes)
            .filter(|(_, o)| matches!(o, Outcome::Reply(_)))
            .filter_map(|(l, _)| *l)
            .collect()
    }

    /// Requests that did not get a test reply.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| !matches!(o, Outcome::Reply(_)))
            .count()
    }

    /// Count of outcomes matching `f`.
    pub fn count(&self, f: impl Fn(&Outcome) -> bool) -> usize {
        self.outcomes.iter().filter(|o| f(o)).count()
    }
}

/// Poisson arrival offsets at `rate` per second over `duration`, drawn
/// from `rng`.
pub fn poisson_arrivals<R: rand::Rng>(rng: &mut R, rate: f64, duration: Duration) -> Vec<Duration> {
    let mut out = Vec::new();
    let mut t = 0.0f64;
    let end = duration.as_secs_f64();
    loop {
        // Inverse-CDF exponential gap; 1 - u lies in (0, 1].
        let u: f64 = rng.random();
        t += -(1.0 - u).ln() / rate;
        if t >= end {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// Runs one phase against `addr` over `connections` persistent
/// connections (requests dealt round-robin, one thread each), waiting
/// at most `drain` after the last due time for outstanding replies.
/// `lines` holds the wire lines, without newlines, that the schedule's
/// ids index. A connection keeps at most `window` requests unanswered:
/// `usize::MAX` makes the loop open, and a schedule with every request
/// due at once and a small window makes it a closed loop that keeps the
/// server saturated.
///
/// # Errors
///
/// Returns an error when a connection cannot be opened.
pub fn run(
    addr: SocketAddr,
    schedule: &Schedule,
    lines: &[String],
    connections: usize,
    window: usize,
    drain: Duration,
) -> Result<Phase, String> {
    let connections = connections.max(1);
    let total = schedule.due.len();
    let mut streams = Vec::with_capacity(connections);
    for _ in 0..connections {
        let s = TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        s.set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        streams.push(s);
    }
    let last_due = schedule.due.last().copied().unwrap_or_default();
    let start = Instant::now();
    let deadline = start + last_due + drain;
    let mut sends: Vec<Option<Instant>> = vec![None; total];
    let mut replies: Vec<Option<(Instant, Outcome)>> = vec![None; total];
    let mut client_cpu = Duration::ZERO;
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(lane, stream)| {
                let mine: Vec<usize> = (lane..total).step_by(connections).collect();
                scope.spawn(move || {
                    let cpu = thread_cpu();
                    let mut lane = drive(stream, schedule, lines, &mine, window, start, deadline);
                    lane.cpu = thread_cpu() - cpu;
                    lane
                })
            })
            .collect();
        for h in handles {
            let lane = h.join().expect("connection thread panicked");
            client_cpu += lane.cpu;
            for (i, t) in lane.sends {
                sends[i] = Some(t);
            }
            for (i, t, o) in lane.replies {
                replies[i] = Some((t, o));
            }
        }
    });
    let last = replies
        .iter()
        .flatten()
        .map(|(t, _)| *t)
        .max()
        .unwrap_or(start);
    let mut phase = Phase {
        latency_us: Vec::with_capacity(total),
        lag_us: Vec::with_capacity(total),
        outcomes: Vec::with_capacity(total),
        elapsed: last.duration_since(start),
        client_cpu,
    };
    for i in 0..total {
        let due = start + schedule.due[i];
        let since_due = |t: Instant| t.saturating_duration_since(due).as_secs_f64() * 1e6;
        phase.lag_us.push(sends[i].map(since_due));
        match replies[i] {
            Some((t, o)) => {
                phase.latency_us.push(Some(since_due(t)));
                phase.outcomes.push(o);
            }
            None => {
                phase.latency_us.push(None);
                phase.outcomes.push(if sends[i].is_some() {
                    Outcome::Unanswered
                } else {
                    Outcome::Error
                });
            }
        }
    }
    Ok(phase)
}

/// What one connection saw.
#[derive(Default)]
struct Lane {
    sends: Vec<(usize, Instant)>,
    replies: Vec<(usize, Instant, Outcome)>,
    cpu: Duration,
}

/// One connection's event loop: send what is due (while fewer than
/// `window` requests are unanswered), read what arrived, and sleep in
/// `ppoll` until the next of the two. Ends when every request is sent
/// and answered, the server closes, or at `deadline`.
fn drive(
    mut stream: TcpStream,
    schedule: &Schedule,
    lines: &[String],
    mine: &[usize],
    window: usize,
    start: Instant,
    deadline: Instant,
) -> Lane {
    let mut lane = Lane::default();
    let mut pending = VecDeque::new();
    let mut batch = String::new();
    let mut inbox: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut next = 0;
    loop {
        let now = Instant::now();
        let sendable = |next: usize, pending: &VecDeque<usize>| {
            next < mine.len() && pending.len() < window && start + schedule.due[mine[next]] <= now
        };
        if sendable(next, &pending) {
            batch.clear();
            let first = next;
            while sendable(next, &pending) {
                batch.push_str(&lines[schedule.ids[mine[next]]]);
                batch.push('\n');
                pending.push_back(mine[next]);
                next += 1;
            }
            let at = Instant::now();
            if stream.write_all(batch.as_bytes()).is_err() {
                return lane;
            }
            lane.sends
                .extend(mine[first..next].iter().map(|&i| (i, at)));
        }
        if next == mine.len() && pending.is_empty() {
            return lane;
        }
        let now = Instant::now();
        if now >= deadline {
            return lane;
        }
        let wake = if next < mine.len() && pending.len() < window {
            (start + schedule.due[mine[next]]).min(deadline)
        } else {
            deadline
        };
        if !wait_readable(&stream, wake.saturating_duration_since(now)) {
            continue;
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) => return lane,
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                continue
            }
            Err(_) => return lane,
        };
        let at = Instant::now();
        inbox.extend_from_slice(&chunk[..n]);
        let mut used = 0;
        while let Some(end) = inbox[used..].iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&inbox[used..used + end]);
            used += end + 1;
            let Some(i) = pending.pop_front() else {
                return lane;
            };
            let outcome = match ReplyLine::parse(line.trim_end()) {
                Ok(ReplyLine::Reply(r)) => Outcome::Reply(r),
                Ok(ReplyLine::Overloaded) => Outcome::Shed,
                _ => Outcome::Error,
            };
            lane.replies.push((i, at, outcome));
        }
        inbox.drain(..used);
    }
}

/// `struct pollfd` of `poll(2)`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x1;

extern "C" {
    /// `ppoll(2)` from the C library the standard library links.
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Waits up to `timeout` (nanosecond resolution, unlike the millisecond
/// `poll` and the socket read timeout) for `stream` to have data or a
/// hang-up to read. Returns whether it does.
fn wait_readable(stream: &TcpStream, timeout: Duration) -> bool {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, properly laid out `pollfd` and
    // `timespec` values for the duration of the call; `nfds` is 1, the
    // length of the one-element array `fd` points to; a null signal
    // mask leaves the mask unchanged, as ppoll(2) documents.
    let ready = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    ready > 0 && fd.revents != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;
    use std::net::TcpListener;

    const REPLY: &str = "{\"verdict\":\"accept\",\"p_hat\":1,\"wilson_lo\":0.5,\"wilson_hi\":1,\"cache\":\"hit\",\"micros\":1,\"rid\":1}";

    /// A stub server on one connection: answers every line at once,
    /// except that it stalls for `stall` before answering line
    /// `stall_at`.
    fn stub(stall_at: usize, stall: Duration) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = std::io::BufReader::new(stream);
            let mut line = String::new();
            let mut seen = 0;
            while reader.read_line(&mut line).map(|n| n > 0).unwrap_or(false) {
                if seen == stall_at {
                    std::thread::sleep(stall);
                }
                seen += 1;
                if writer.write_all(format!("{REPLY}\n").as_bytes()).is_err() {
                    break;
                }
                line.clear();
            }
        });
        (addr, handle)
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_queued_behind_it() {
        let rate = 1000.0;
        let count = 400;
        let stall_at = 100;
        let stall = Duration::from_millis(150);
        let (addr, server) = stub(stall_at, stall);
        let schedule = Schedule {
            due: (0..count)
                .map(|i| Duration::from_secs_f64(f64::from(i) / rate))
                .collect(),
            ids: vec![0; count as usize],
        };
        let lines = vec!["{\"cmd\":\"probe\"}".to_owned()];
        let phase = run(
            addr,
            &schedule,
            &lines,
            1,
            usize::MAX,
            Duration::from_secs(2),
        )
        .unwrap();
        server.join().unwrap();
        assert_eq!(phase.failed(), 0, "every request is answered");
        let lat: Vec<f64> = phase.latency_us.iter().map(|l| l.unwrap()).collect();
        // The stall starts when request `stall_at` is read and ends
        // `stall` later; every request due inside it waits until its
        // end, so its latency is at least the rest of the stall.
        let stall_start = schedule.due[stall_at].as_secs_f64() * 1e6;
        let stall_end = stall_start + stall.as_secs_f64() * 1e6;
        let mut charged = 0;
        for (i, &l) in lat.iter().enumerate().skip(stall_at) {
            let due = schedule.due[i].as_secs_f64() * 1e6;
            if due >= stall_end {
                break;
            }
            assert!(
                l >= stall_end - due - 2_000.0,
                "request {i} due {due:.0}us shows {l:.0}us, less than the stall left"
            );
            charged += 1;
        }
        assert!(charged >= 140, "requests behind the stall: {charged}");
        // Requests well before the stall were answered promptly.
        let before = crate::summary::median(&lat[..stall_at]);
        assert!(before < 20_000.0, "unstalled median {before}us");
        // The sender kept to its schedule through the stall.
        let lag = crate::summary::quantile(
            &phase.lag_us.iter().map(|l| l.unwrap()).collect::<Vec<_>>(),
            0.99,
        );
        assert!(lag < 20_000.0, "sender lag p99 {lag}us");
    }

    #[test]
    fn a_window_of_one_waits_for_each_reply() {
        let count = 200;
        let (addr, server) = stub(usize::MAX, Duration::ZERO);
        let schedule = Schedule {
            due: vec![Duration::ZERO; count],
            ids: vec![0; count],
        };
        let lines = vec!["{\"cmd\":\"probe\"}".to_owned()];
        let phase = run(addr, &schedule, &lines, 1, 1, Duration::from_secs(5)).unwrap();
        server.join().unwrap();
        assert_eq!(phase.failed(), 0, "every request is answered");
        // Every request is due at once, yet each is sent only after the
        // reply to the one before it has been read.
        for i in 1..count {
            let sent = phase.lag_us[i].unwrap();
            let previous_reply = phase.latency_us[i - 1].unwrap();
            assert!(
                sent >= previous_reply,
                "request {i} sent at {sent:.0}us, before reply {} at {previous_reply:.0}us",
                i - 1
            );
        }
    }

    #[test]
    fn poisson_rate_matches() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let a = poisson_arrivals(&mut rng, 2000.0, Duration::from_secs(5));
        assert!((9_500..10_500).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }
}
