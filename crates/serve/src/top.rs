//! `dut top` — a live text dashboard over the stats admin command.
//!
//! Connects to a running `dut serve`, sends `{"cmd":"stats"}` once per
//! tick, and renders the reply as a compact frame: throughput, shed
//! and queue pressure, cache effectiveness, windowed latency quantiles
//! split by phase, and SLO burn rates. Rendering is a pure function of
//! a parsed [`Stats`] ([`render_frame`]), so the dashboard is testable
//! without a terminal or a server; [`run`] only adds the socket loop
//! and writes frames to any `Write` sink (the `dut` binary passes
//! stdout).

use crate::stats::Stats;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// ANSI "clear screen, cursor home" — prefixed to every frame after
/// the first when `clear` is on, so the dashboard repaints in place.
const CLEAR: &str = "\x1b[2J\x1b[H";

/// Dashboard configuration.
#[derive(Debug, Clone)]
pub struct TopConfig {
    /// Server address to poll.
    pub addr: String,
    /// Delay between polls.
    pub interval: Duration,
    /// Stop after this many frames; `None` polls until the connection
    /// drops. `Some(1)` is the `--once` snapshot mode.
    pub frames: Option<u64>,
    /// Repaint in place with ANSI clear codes (off for `--once` and
    /// for piped output).
    pub clear: bool,
}

impl Default for TopConfig {
    fn default() -> Self {
        TopConfig {
            addr: "127.0.0.1:7878".to_owned(),
            interval: Duration::from_secs(1),
            frames: None,
            clear: true,
        }
    }
}

/// Formats a microsecond quantity with a unit that keeps 3-4
/// significant figures readable (µs below 1ms, ms below 1s, else s).
fn fmt_micros(us: f64) -> String {
    if us < 1_000.0 {
        format!("{us:.0}\u{b5}s")
    } else if us < 1_000_000.0 {
        format!("{:.1}ms", us / 1_000.0)
    } else {
        format!("{:.2}s", us / 1_000_000.0)
    }
}

/// Renders one dashboard frame (multi-line, trailing newline).
#[must_use]
pub fn render_frame(stats: &Stats, addr: &str) -> String {
    let mut out = String::with_capacity(512);
    let slo = if stats.slo_healthy {
        "SLO ok".to_owned()
    } else {
        let mut what = Vec::new();
        if stats.latency_breach {
            what.push("latency");
        }
        if stats.shed_breach {
            what.push("shed");
        }
        format!("SLO BREACH [{}]", what.join("+"))
    };
    let _ = writeln!(
        out,
        "dut top \u{2014} {addr}   up {:.1}s   window {:.1}s   {slo}",
        stats.uptime_micros as f64 / 1e6,
        stats.window_micros as f64 / 1e6,
    );
    let _ = writeln!(
        out,
        "traffic  {:.1} req/s   {:.2} shed/s   queue depth {}   total {} req / {} shed",
        stats.req_per_sec, stats.shed_per_sec, stats.queue_depth, stats.requests, stats.shed
    );
    let mut tenant_note = String::new();
    for tenant in stats.tenants.iter().take(4) {
        let _ = write!(
            tenant_note,
            "   {} {}r/{}s",
            tenant.name, tenant.requests, tenant.shed
        );
    }
    let _ = writeln!(
        out,
        "serve    {} connections   {} workers   {} coalesced   {} tenant-shed{tenant_note}",
        stats.connections, stats.workers, stats.coalesced, stats.tenant_shed,
    );
    let _ = writeln!(
        out,
        "cache    hit ratio {:.1}%   testers resident {}   lifetime {} hits ({} inline) / {} misses",
        stats.hit_ratio * 100.0,
        stats.cached_testers,
        stats.cache_hits,
        stats.inline,
        stats.cache_misses
    );
    let _ = writeln!(
        out,
        "latency  p50 {}   p95 {}   p99 {}   (target p99 {})",
        fmt_micros(stats.p50_micros),
        fmt_micros(stats.p95_micros),
        fmt_micros(stats.p99_micros),
        fmt_micros(stats.p99_target_micros as f64),
    );
    let _ = writeln!(
        out,
        "phases   queue-wait p99 {}   calibrate p99 {}   compute p99 {}",
        fmt_micros(stats.queue_wait_p99),
        fmt_micros(stats.calibrate_p99),
        fmt_micros(stats.compute_p99),
    );
    let _ = writeln!(
        out,
        "burn     latency {:.2}/{:.2}   shed {:.2}/{:.2}   (short/long, budget {:.0}% shed)",
        stats.latency_burn_short,
        stats.latency_burn_long,
        stats.shed_burn_short,
        stats.shed_burn_long,
        stats.max_shed_rate * 100.0,
    );
    let _ = writeln!(
        out,
        "abuse    {} malformed   {} reaped   {} budget-closed",
        stats.malformed, stats.reaped, stats.error_budget_closed,
    );
    out
}

/// Fetches one stats reply over a fresh line on an open connection.
fn poll_stats(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>) -> Result<Stats, String> {
    stream
        .write_all(b"{\"cmd\":\"stats\"}\n")
        .map_err(|e| format!("send stats: {e}"))?;
    let mut line = String::new();
    let got = reader
        .read_line(&mut line)
        .map_err(|e| format!("read stats: {e}"))?;
    if got == 0 {
        return Err("server closed the connection".to_owned());
    }
    Stats::parse(line.trim())
}

/// Runs the dashboard loop: poll, render, write, sleep, repeat.
///
/// # Errors
///
/// Returns a message when the server is unreachable, closes the
/// connection, or replies with something that is not a stats line.
pub fn run(config: &TopConfig, out: &mut impl Write) -> Result<(), String> {
    let mut stream = TcpStream::connect(&config.addr)
        .map_err(|e| format!("cannot connect to {}: {e}", config.addr))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| format!("cannot set read timeout: {e}"))?;
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("cannot clone stream: {e}"))?,
    );
    let mut rendered: u64 = 0;
    loop {
        let stats = poll_stats(&mut stream, &mut reader)?;
        let frame = render_frame(&stats, &config.addr);
        let prefix = if config.clear && rendered > 0 {
            CLEAR
        } else {
            ""
        };
        write!(out, "{prefix}{frame}").map_err(|e| format!("write frame: {e}"))?;
        out.flush().map_err(|e| format!("flush frame: {e}"))?;
        rendered += 1;
        if let Some(limit) = config.frames {
            if rendered >= limit {
                return Ok(());
            }
        }
        std::thread::sleep(config.interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Stats {
        Stats {
            uptime_micros: 12_500_000,
            queue_depth: 2,
            connections: 16,
            workers: 3,
            cached_testers: 4,
            requests: 1_000,
            shed: 7,
            coalesced: 120,
            tenant_shed: 3,
            cache_hits: 950,
            cache_misses: 50,
            inline: 900,
            malformed: 13,
            reaped: 2,
            error_budget_closed: 1,
            backend_per_draw: 40,
            backend_histogram: 960,
            shard_passes: 2_150,
            shard_parks: 1_990,
            window_micros: 10_000_000,
            req_per_sec: 99.5,
            shed_per_sec: 0.25,
            hit_ratio: 0.95,
            p50_micros: 210.0,
            p95_micros: 4_805.0,
            p99_micros: 1_024_000.0,
            queue_wait_p99: 88.0,
            calibrate_p99: 45_000.0,
            compute_p99: 333.0,
            slo_healthy: false,
            latency_breach: true,
            shed_breach: false,
            latency_burn_short: 3.5,
            latency_burn_long: 2.5,
            shed_burn_short: 0.4,
            shed_burn_long: 0.1,
            p99_target_micros: 250_000,
            max_shed_rate: 0.05,
            tenants: vec![crate::stats::TenantStat {
                name: "metered".to_owned(),
                requests: 200,
                shed: 3,
            }],
        }
    }

    #[test]
    fn frame_shows_all_sections() {
        let frame = render_frame(&sample(), "127.0.0.1:7878");
        assert!(frame.contains("dut top"));
        assert!(frame.contains("99.5 req/s"));
        assert!(frame.contains("hit ratio 95.0%"));
        assert!(frame.contains("SLO BREACH [latency]"));
        assert!(frame.contains("queue depth 2"));
        // Unit scaling: µs, ms, and s all appear for these values.
        assert!(frame.contains("p50 210\u{b5}s"));
        assert!(frame.contains("p95 4.8ms"));
        assert!(frame.contains("p99 1.02s"));
        assert!(frame.contains("13 malformed"));
        assert!(
            frame.contains("serve    16 connections   3 workers   120 coalesced   3 tenant-shed")
        );
        assert!(frame.contains("metered 200r/3s"));
        assert!(frame.contains("lifetime 950 hits (900 inline) / 50 misses"));
        assert!(!frame.contains("backend"));
        assert_eq!(frame.lines().count(), 8);
    }

    #[test]
    fn healthy_frame_says_so() {
        let mut stats = sample();
        stats.slo_healthy = true;
        stats.latency_breach = false;
        let frame = render_frame(&stats, "x");
        assert!(frame.contains("SLO ok"));
        assert!(!frame.contains("BREACH"));
    }

    #[test]
    fn breach_frame_names_both_budgets() {
        let mut stats = sample();
        stats.shed_breach = true;
        let frame = render_frame(&stats, "x");
        assert!(frame.contains("SLO BREACH [latency+shed]"));
    }
}
