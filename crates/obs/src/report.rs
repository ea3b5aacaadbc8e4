//! Trace aggregation: turns a JSONL trace into a human-readable
//! profile (`dut report <trace.jsonl>`).

use crate::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Snapshot of one histogram: (count, sum, non-empty buckets as
/// (bucket-low, count) pairs).
pub type HistogramSnapshot = (u64, u64, Vec<(u64, u64)>);

/// Aggregated statistics for one span name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanStats {
    /// Number of span instances.
    pub count: u64,
    /// Total wall time across instances, microseconds.
    pub total_micros: u64,
}

/// One `probe` event, tagged with the search it belongs to.
///
/// Concurrent searches (e.g. two `dut serve` workers calibrating at
/// once) interleave their probes in one trace; `search_id` is the
/// per-process run identity that demultiplexes them. Traces written
/// before the id existed parse with `search_id == 0`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeRecord {
    /// The owning search's run id (0 for legacy traces).
    pub search_id: u64,
    /// The probed parameter value.
    pub value: u64,
    /// Whether the predicate held at this value.
    pub sufficient: bool,
    /// Wall time of the probe, microseconds.
    pub elapsed_micros: u64,
}

/// One completed `search_done` event.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchRecord {
    /// The search's run id (0 for legacy traces).
    pub search_id: u64,
    /// The minimal sufficient value found.
    pub minimal: u64,
    /// Predicate evaluations spent.
    pub evaluations: u64,
    /// Whether the search saturated at its upper limit.
    pub saturated: bool,
}

/// The one-time wall-clock anchor of a trace, if present: the wall
/// clock observed at a known trace-relative timestamp. See
/// [`crate::recorder::clock_anchor_event`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClockAnchor {
    /// Wall clock at the anchor, microseconds since the Unix epoch.
    pub unix_micros: u64,
    /// Trace-relative timestamp of the anchor event.
    pub ts_micros: u64,
    /// Emitting process id (0 for legacy traces).
    pub pid: u64,
}

impl ClockAnchor {
    /// Converts a trace-relative timestamp to wall-clock microseconds.
    #[must_use]
    pub fn wall_micros(&self, ts_micros: u64) -> u64 {
        // The anchor is emitted at sink install, so in-trace
        // timestamps virtually always follow it; saturate rather than
        // wrap for the pathological pre-anchor event.
        self.unix_micros
            .saturating_add(ts_micros)
            .saturating_sub(self.ts_micros)
    }
}

/// Aggregated view of one trace file.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Manifest fields (flattened key → display string), if present.
    pub manifest: BTreeMap<String, String>,
    /// Per-span-name wall-time totals.
    pub spans: BTreeMap<String, SpanStats>,
    /// Search probes seen, tagged by owning search.
    pub probes: Vec<ProbeRecord>,
    /// Completed searches, tagged by run id.
    pub searches: Vec<SearchRecord>,
    /// Final metrics snapshot: counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Final metrics snapshot: gauge name → value.
    pub gauges: BTreeMap<String, u64>,
    /// Final metrics snapshot: histogram name → (count, sum, buckets).
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Per-execution events seen (verbose traces only).
    pub net_runs: u64,
    /// Trial batches seen.
    pub trial_batches: u64,
    /// Wall-clock anchor, when the trace carries one.
    pub anchor: Option<ClockAnchor>,
    /// Largest event timestamp, microseconds.
    pub last_ts_micros: u64,
    /// Total events parsed.
    pub events: u64,
    /// Lines that failed to parse (malformed/truncated traces).
    pub malformed_lines: u64,
}

impl Report {
    /// Parses and aggregates a JSONL trace.
    ///
    /// # Errors
    ///
    /// Returns an error if no line parses as a trace event.
    pub fn from_jsonl(text: &str) -> Result<Self, String> {
        let mut report = Report::default();
        for line in text.lines() {
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            let Ok(value) = json::parse(trimmed) else {
                report.malformed_lines += 1;
                continue;
            };
            report.ingest(&value);
        }
        if report.events == 0 {
            return Err("no parseable trace events found".into());
        }
        Ok(report)
    }

    fn ingest(&mut self, value: &Value<'_>) {
        let Some(event) = value.get("event").and_then(Value::as_str) else {
            self.malformed_lines += 1;
            return;
        };
        self.events += 1;
        if let Some(ts) = value.get("ts_us").and_then(Value::as_u64) {
            self.last_ts_micros = self.last_ts_micros.max(ts);
        }
        match event {
            "manifest" => {
                if let Some(obj) = value.as_obj() {
                    for (key, val) in obj {
                        if key == "event" || key == "ts_us" {
                            continue;
                        }
                        self.manifest.insert(key.to_string(), display_json(val));
                    }
                }
            }
            "span" => {
                let name = value
                    .get("name")
                    .and_then(Value::as_str)
                    .unwrap_or("<unnamed>");
                let elapsed = value.get("elapsed_us").and_then(Value::as_u64).unwrap_or(0);
                let stats = self.spans.entry(name.to_owned()).or_default();
                stats.count += 1;
                stats.total_micros += elapsed;
            }
            "probe" => {
                self.probes.push(ProbeRecord {
                    search_id: value.get("search_id").and_then(Value::as_u64).unwrap_or(0),
                    value: value.get("value").and_then(Value::as_u64).unwrap_or(0),
                    sufficient: matches!(value.get("sufficient"), Some(Value::Bool(true))),
                    elapsed_micros: value.get("elapsed_us").and_then(Value::as_u64).unwrap_or(0),
                });
            }
            "search_done" => {
                self.searches.push(SearchRecord {
                    search_id: value.get("search_id").and_then(Value::as_u64).unwrap_or(0),
                    minimal: value.get("minimal").and_then(Value::as_u64).unwrap_or(0),
                    evaluations: value
                        .get("evaluations")
                        .and_then(Value::as_u64)
                        .unwrap_or(0),
                    saturated: matches!(value.get("saturated"), Some(Value::Bool(true))),
                });
            }
            "metrics" => {
                if let Some(counters) = value.get("counters").and_then(Value::as_obj) {
                    self.counters = counters
                        .iter()
                        .filter_map(|(k, v)| v.as_u64().map(|n| (k.to_string(), n)))
                        .collect();
                }
                if let Some(gauges) = value.get("gauges").and_then(Value::as_obj) {
                    self.gauges = gauges
                        .iter()
                        .filter_map(|(k, v)| v.as_u64().map(|n| (k.to_string(), n)))
                        .collect();
                }
                if let Some(histograms) = value.get("histograms").and_then(Value::as_obj) {
                    self.histograms = histograms
                        .iter()
                        .filter_map(|(k, v)| {
                            let count = v.get("count")?.as_u64()?;
                            let sum = v.get("sum")?.as_u64()?;
                            let buckets = match v.get("buckets") {
                                Some(Value::Arr(pairs)) => pairs
                                    .iter()
                                    .filter_map(|p| match p {
                                        Value::Arr(pair) if pair.len() == 2 => {
                                            Some((pair[0].as_u64()?, pair[1].as_u64()?))
                                        }
                                        _ => None,
                                    })
                                    .collect(),
                                _ => Vec::new(),
                            };
                            Some((k.to_string(), (count, sum, buckets)))
                        })
                        .collect();
                }
            }
            "clock_anchor" => {
                self.anchor = Some(ClockAnchor {
                    unix_micros: value
                        .get("unix_micros")
                        .and_then(Value::as_u64)
                        .unwrap_or(0),
                    ts_micros: value.get("ts_us").and_then(Value::as_u64).unwrap_or(0),
                    pid: value.get("pid").and_then(Value::as_u64).unwrap_or(0),
                });
            }
            "net_run" => self.net_runs += 1,
            "trial_batch" => self.trial_batches += 1,
            _ => {}
        }
    }

    /// A named counter from the final snapshot (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Probes and the completing `search_done` (if any) grouped by run
    /// id — the demultiplexed view of interleaved concurrent searches.
    /// Legacy traces collapse onto id 0.
    #[must_use]
    pub fn searches_by_id(&self) -> BTreeMap<u64, (Vec<&ProbeRecord>, Option<&SearchRecord>)> {
        let mut by_id: BTreeMap<u64, (Vec<&ProbeRecord>, Option<&SearchRecord>)> = BTreeMap::new();
        for probe in &self.probes {
            by_id.entry(probe.search_id).or_default().0.push(probe);
        }
        for search in &self.searches {
            by_id.entry(search.search_id).or_default().1 = Some(search);
        }
        by_id
    }

    /// Renders the human-readable summary.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== dut trace report ==");
        if !self.manifest.is_empty() {
            let _ = writeln!(out, "\nmanifest:");
            for (key, value) in &self.manifest {
                let _ = writeln!(out, "  {key:<16} {value}");
            }
        }
        let _ = writeln!(
            out,
            "\nevents: {} parsed{}  trace span: {}",
            self.events,
            if self.malformed_lines > 0 {
                format!(" ({} malformed lines skipped)", self.malformed_lines)
            } else {
                String::new()
            },
            human_micros(self.last_ts_micros)
        );
        if let Some(anchor) = &self.anchor {
            let _ = writeln!(
                out,
                "clock anchor: pid {} at unix {} µs (trace t={})",
                anchor.pid,
                anchor.unix_micros,
                human_micros(anchor.ts_micros)
            );
        }

        if !self.spans.is_empty() {
            let mut spans: Vec<(&String, &SpanStats)> = self.spans.iter().collect();
            spans.sort_by_key(|(_, s)| std::cmp::Reverse(s.total_micros));
            let grand_total: u64 = spans.iter().map(|(_, s)| s.total_micros).sum();
            let _ = writeln!(out, "\nper-phase wall time:");
            let _ = writeln!(
                out,
                "  {:<28} {:>6} {:>12} {:>7}",
                "phase", "count", "total", "share"
            );
            for (name, stats) in spans {
                let share = if grand_total > 0 {
                    100.0 * stats.total_micros as f64 / grand_total as f64
                } else {
                    0.0
                };
                let _ = writeln!(
                    out,
                    "  {:<28} {:>6} {:>12} {share:>6.1}%",
                    name,
                    stats.count,
                    human_micros(stats.total_micros)
                );
            }
        }

        if !self.probes.is_empty() || !self.searches.is_empty() {
            let _ = writeln!(out, "\nsearch activity:");
            if !self.probes.is_empty() {
                let sufficient = self.probes.iter().filter(|p| p.sufficient).count();
                let probe_time: u64 = self.probes.iter().map(|p| p.elapsed_micros).sum();
                let _ = writeln!(
                    out,
                    "  probes: {} ({} sufficient, {} insufficient), {} probing",
                    self.probes.len(),
                    sufficient,
                    self.probes.len() - sufficient,
                    human_micros(probe_time)
                );
            }
            if !self.searches.is_empty() {
                let evals: u64 = self.searches.iter().map(|s| s.evaluations).sum();
                let saturated = self.searches.iter().filter(|s| s.saturated).count();
                let _ = writeln!(
                    out,
                    "  searches: {} completed, {} evaluations total{}",
                    self.searches.len(),
                    evals,
                    if saturated > 0 {
                        format!(", {saturated} saturated")
                    } else {
                        String::new()
                    }
                );
            }
            // Demultiplex by run id when the trace interleaves more
            // than one search (concurrent `dut serve` calibrations).
            let by_id = self.searches_by_id();
            if by_id.len() > 1 || by_id.keys().any(|&id| id != 0) {
                for (id, (probes, done)) in &by_id {
                    let line = match done {
                        Some(d) => format!(
                            "minimal {}{} in {} evaluations",
                            d.minimal,
                            if d.saturated { " (saturated)" } else { "" },
                            d.evaluations
                        ),
                        None => "unfinished".to_owned(),
                    };
                    let _ = writeln!(out, "    search #{id}: {} probes, {line}", probes.len());
                }
            }
        }

        if !self.counters.is_empty() {
            let accepts = self.counter("verdict_accept");
            let rejects = self.counter("verdict_reject");
            let runs = self.counter("net_runs");
            let _ = writeln!(out, "\ntotals (final metrics snapshot):");
            let _ = writeln!(out, "  protocol runs    {}", human_count(runs));
            if accepts + rejects > 0 {
                let _ = writeln!(
                    out,
                    "  verdicts         {} accept ({:.1}%), {} reject ({:.1}%)",
                    human_count(accepts),
                    100.0 * accepts as f64 / (accepts + rejects) as f64,
                    human_count(rejects),
                    100.0 * rejects as f64 / (accepts + rejects) as f64,
                );
            }
            let _ = writeln!(
                out,
                "  samples drawn    {}",
                human_count(self.counter("samples_drawn"))
            );
            let _ = writeln!(
                out,
                "  message bits     {}",
                human_count(self.counter("bits_sent"))
            );
            let _ = writeln!(
                out,
                "  mc trials        {} run, {} skipped by early decision",
                human_count(self.counter("trials_run")),
                human_count(self.counter("trials_skipped"))
            );
            let _ = writeln!(
                out,
                "  search probes    {}",
                human_count(self.counter("search_probes"))
            );
            let lost = self.counter("faults_messages_lost");
            if lost > 0 {
                let _ = writeln!(
                    out,
                    "  faults           {} messages lost",
                    human_count(lost)
                );
            }
            let retries = self.counter("fault_retries");
            let redundant = self.counter("redundant_bits");
            let recovered = self.counter("recovered_bits");
            let timeouts = self.counter("fault_timeouts");
            if retries + redundant + recovered + timeouts > 0 {
                let _ = writeln!(
                    out,
                    "  recovery         {} retries, {} redundant bits, {} recovered, {} timeouts",
                    human_count(retries),
                    human_count(redundant),
                    human_count(recovered),
                    human_count(timeouts)
                );
            }
            let flips = self.counter("byzantine_flips");
            if flips > 0 {
                let _ = writeln!(
                    out,
                    "  byzantine        {} corrupted bits",
                    human_count(flips)
                );
            }
            let serve_requests = self.counter("serve_requests");
            let serve_shed = self.counter("serve_shed");
            if serve_requests + serve_shed > 0 {
                let serve_hits = self.counter("serve_cache_hits");
                let serve_misses = self.counter("serve_cache_misses");
                let _ = writeln!(
                    out,
                    "  serve            {} requests, {} shed, tester cache {} hits / {} misses",
                    human_count(serve_requests),
                    human_count(serve_shed),
                    human_count(serve_hits),
                    human_count(serve_misses),
                );
                if let Some(&depth) = self.gauges.get("serve_queue_depth") {
                    let _ = writeln!(out, "  serve queue      {depth} waiting at snapshot");
                }
                let malformed = self.counter("serve_malformed");
                let reaped = self.counter("serve_reaped");
                let budget_closed = self.counter("serve_error_budget");
                let panics = self.counter("serve_panics_caught");
                if malformed + reaped + budget_closed + panics > 0 {
                    let _ = writeln!(
                        out,
                        "  serve hardening  {} malformed, {} reaped, {} budget-closed, {} panics caught",
                        human_count(malformed),
                        human_count(reaped),
                        human_count(budget_closed),
                        human_count(panics),
                    );
                }
            }
            let chaos = self.counter("chaos_injected");
            if chaos > 0 {
                let _ = writeln!(
                    out,
                    "  chaos injected   {} hostile client actions",
                    human_count(chaos)
                );
            }
            if let Some(&threads) = self.gauges.get("runner_threads").filter(|&&t| t > 0) {
                let _ = writeln!(out, "  runner threads   {threads}");
            }
        }

        if !self.histograms.is_empty() {
            let _ = writeln!(out, "\nhistograms (log2 buckets):");
            for (name, (count, sum, buckets)) in &self.histograms {
                if *count == 0 {
                    continue;
                }
                let mean = *sum as f64 / *count as f64;
                let _ = writeln!(
                    out,
                    "  {name:<20} count={count} mean={mean:.1} p50≈{:.1} max_bucket≈{}",
                    crate::metrics::quantile_from_buckets(buckets, *count, *sum, 0.5),
                    buckets.last().map_or(0, |&(low, _)| {
                        crate::metrics::bucket_high(crate::metrics::bucket_index(low))
                    }),
                );
            }
        }

        if self.net_runs > 0 || self.trial_batches > 0 {
            let _ = writeln!(
                out,
                "\nverbose events: {} net_run, {} trial_batch",
                self.net_runs, self.trial_batches
            );
        }
        out
    }
}

#[allow(
    clippy::float_cmp,
    reason = "fract() of an integral f64 is exactly +0.0"
)]
fn display_json(value: &Value<'_>) -> String {
    match value {
        Value::Null => "null".into(),
        Value::Bool(b) => b.to_string(),
        Value::Uint(x) => x.to_string(),
        Value::Num(x) => {
            // dut-lint: allow(float-eq): fract() of an integral f64 is exactly +0.0 — exact integrality test picking the display format
            if x.fract() == 0.0 && x.abs() < 9e15 {
                format!("{x:.0}")
            } else {
                format!("{x}")
            }
        }
        Value::Str(s) => s.to_string(),
        Value::Arr(items) => {
            let inner: Vec<String> = items.iter().map(display_json).collect();
            format!("[{}]", inner.join(", "))
        }
        Value::Obj(members) => {
            // Sorted by key, the last duplicate winning.
            let sorted: BTreeMap<&str, &Value<'_>> =
                members.iter().map(|(k, v)| (&**k, v)).collect();
            let inner: Vec<String> = sorted
                .iter()
                .map(|(k, v)| format!("{k}={}", display_json(v)))
                .collect();
            format!("{{{}}}", inner.join(", "))
        }
    }
}

/// `1234567` → `1.23M`-style counts.
fn human_count(n: u64) -> String {
    let x = n as f64;
    if n < 10_000 {
        n.to_string()
    } else if x < 1e6 {
        format!("{:.1}k", x / 1e3)
    } else if x < 1e9 {
        format!("{:.2}M", x / 1e6)
    } else {
        format!("{:.2}G", x / 1e9)
    }
}

/// Microseconds → human time.
fn human_micros(us: u64) -> String {
    let x = us as f64;
    if us < 1_000 {
        format!("{us} µs")
    } else if x < 1e6 {
        format!("{:.2} ms", x / 1e3)
    } else {
        format!("{:.2} s", x / 1e6)
    }
}

/// Reads, aggregates, and renders a trace file.
///
/// # Errors
///
/// Returns an error when the file is unreadable or contains no events.
pub fn summarize_file(path: &str) -> Result<String, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read trace `{path}`: {e}"))?;
    let report = Report::from_jsonl(&text)?;
    Ok(report.render())
}

/// Reads several trace files (e.g. a server's and a loadgen's) and
/// renders them on one wall-clock axis using each trace's
/// `clock_anchor`, followed by each individual summary.
///
/// Recorder timestamps are relative to each process's own start, so
/// raw `ts_us` values from different traces are incomparable; the
/// anchors translate them onto shared wall-clock time. Traces without
/// an anchor are listed but marked unaligned.
///
/// # Errors
///
/// Returns an error when any file is unreadable or empty of events.
pub fn summarize_aligned(paths: &[&str]) -> Result<String, String> {
    let mut reports = Vec::with_capacity(paths.len());
    for path in paths {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read trace `{path}`: {e}"))?;
        reports.push((*path, Report::from_jsonl(&text)?));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== dut aligned trace report ({} traces) ==",
        paths.len()
    );
    // Earliest aligned wall-clock instant across traces becomes t0.
    let t0 = reports
        .iter()
        .filter_map(|(_, r)| r.anchor.map(|a| a.wall_micros(0)))
        .min();
    let _ = writeln!(
        out,
        "\n  {:<28} {:>8} {:>6} {:>14} {:>14}",
        "trace", "events", "pid", "start (t0+)", "end (t0+)"
    );
    for (path, report) in &reports {
        match (report.anchor, t0) {
            (Some(anchor), Some(t0)) => {
                let start = anchor.wall_micros(0).saturating_sub(t0);
                let end = anchor.wall_micros(report.last_ts_micros).saturating_sub(t0);
                let _ = writeln!(
                    out,
                    "  {:<28} {:>8} {:>6} {:>14} {:>14}",
                    short_name(path),
                    report.events,
                    anchor.pid,
                    human_micros(start),
                    human_micros(end),
                );
            }
            _ => {
                let _ = writeln!(
                    out,
                    "  {:<28} {:>8} {:>6} {:>14} {:>14}",
                    short_name(path),
                    report.events,
                    "-",
                    "(no anchor)",
                    "unaligned",
                );
            }
        }
    }
    let aligned: Vec<&Report> = reports
        .iter()
        .filter(|(_, r)| r.anchor.is_some())
        .map(|(_, r)| r)
        .collect();
    if let (Some(t0), false) = (t0, aligned.is_empty()) {
        let span = aligned
            .iter()
            .filter_map(|r| r.anchor.map(|a| a.wall_micros(r.last_ts_micros)))
            .max()
            .unwrap_or(t0)
            .saturating_sub(t0);
        let _ = writeln!(
            out,
            "\n  aligned span: {} across {} anchored trace(s)",
            human_micros(span),
            aligned.len()
        );
    } else {
        let _ = writeln!(
            out,
            "\n  no clock anchors found; traces cannot share a time axis"
        );
    }
    for (path, report) in &reports {
        let _ = writeln!(out, "\n--- {path} ---");
        out.push_str(&report.render());
    }
    Ok(out)
}

/// The file-name tail of a path, for compact table rows.
fn short_name(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::snapshot_event;
    use crate::trace::Event;

    fn sample_trace() -> String {
        let registry = crate::metrics::Registry::new();
        registry.add(crate::metrics::Counter::NetRuns, 100);
        registry.add(crate::metrics::Counter::SamplesDrawn, 6_400);
        registry.add(crate::metrics::Counter::BitsSent, 800);
        registry.add(crate::metrics::Counter::VerdictAccept, 70);
        registry.add(crate::metrics::Counter::VerdictReject, 30);
        registry.set_gauge(crate::metrics::Gauge::RunnerThreads, 4);
        registry.observe(crate::metrics::HistogramId::RunSamples, 64);
        let mut lines = vec![
            Event::new("manifest")
                .with("experiment", "e1_test")
                .with("seed", 7u64)
                .to_json_line(),
            Event::new("span")
                .with("name", "e1.sweep_k")
                .with("elapsed_us", 5_000u64)
                .to_json_line(),
            Event::new("span")
                .with("name", "e1.sweep_k")
                .with("elapsed_us", 3_000u64)
                .to_json_line(),
            Event::new("probe")
                .with("value", 32u64)
                .with("sufficient", false)
                .with("elapsed_us", 700u64)
                .to_json_line(),
            Event::new("probe")
                .with("value", 64u64)
                .with("sufficient", true)
                .with("elapsed_us", 900u64)
                .to_json_line(),
            Event::new("search_done")
                .with("minimal", 64u64)
                .with("evaluations", 2u64)
                .with("saturated", false)
                .to_json_line(),
        ];
        lines.push(snapshot_event(&registry.snapshot()).to_json_line());
        lines.join("\n")
    }

    #[test]
    fn aggregates_spans_probes_and_metrics() {
        let report = Report::from_jsonl(&sample_trace()).unwrap();
        assert_eq!(report.manifest.get("experiment").unwrap(), "e1_test");
        let sweep = report.spans.get("e1.sweep_k").unwrap();
        assert_eq!(sweep.count, 2);
        assert_eq!(sweep.total_micros, 8_000);
        assert_eq!(report.probes.len(), 2);
        assert_eq!(
            report.searches,
            vec![SearchRecord {
                search_id: 0,
                minimal: 64,
                evaluations: 2,
                saturated: false
            }]
        );
        assert_eq!(report.counter("net_runs"), 100);
        assert_eq!(report.counter("samples_drawn"), 6_400);
        assert_eq!(report.gauges.get("runner_threads"), Some(&4));
        assert_eq!(report.histograms.get("run_samples").unwrap().0, 1);
    }

    #[test]
    fn render_mentions_required_sections() {
        let report = Report::from_jsonl(&sample_trace()).unwrap();
        let text = report.render();
        assert!(text.contains("per-phase wall time"), "{text}");
        assert!(text.contains("e1.sweep_k"), "{text}");
        assert!(text.contains("samples drawn"), "{text}");
        assert!(text.contains("message bits"), "{text}");
        assert!(text.contains("accept"), "{text}");
        assert!(text.contains("probes: 2"), "{text}");
    }

    #[test]
    fn render_surfaces_resilience_counters() {
        let registry = crate::metrics::Registry::new();
        registry.add(crate::metrics::Counter::NetRuns, 10);
        registry.add(crate::metrics::Counter::FaultsMessagesLost, 12);
        registry.add(crate::metrics::Counter::FaultRetries, 40);
        registry.add(crate::metrics::Counter::FaultRedundantBits, 25);
        registry.add(crate::metrics::Counter::FaultRecoveredBits, 9);
        registry.add(crate::metrics::Counter::FaultTimeouts, 3);
        registry.add(crate::metrics::Counter::FaultByzantineFlips, 2);
        let trace = snapshot_event(&registry.snapshot()).to_json_line();
        let report = Report::from_jsonl(&trace).unwrap();
        let text = report.render();
        assert!(
            text.contains(
                "recovery         40 retries, 25 redundant bits, 9 recovered, 3 timeouts"
            ),
            "{text}"
        );
        assert!(text.contains("byzantine        2 corrupted bits"), "{text}");
        assert!(
            text.contains("faults           12 messages lost\n"),
            "{text}"
        );
    }

    #[test]
    fn render_splits_trials_into_run_and_skipped() {
        let registry = crate::metrics::Registry::new();
        registry.add(crate::metrics::Counter::NetRuns, 10);
        registry.add(crate::metrics::Counter::TrialsRun, 250);
        registry.add(crate::metrics::Counter::TrialsSkipped, 150);
        let trace = snapshot_event(&registry.snapshot()).to_json_line();
        let text = Report::from_jsonl(&trace).unwrap().render();
        assert!(
            text.contains("mc trials        250 run, 150 skipped by early decision"),
            "{text}"
        );
    }

    #[test]
    fn demultiplexes_interleaved_searches() {
        // Two searches interleave their probes; ids pull them apart.
        let lines = [
            Event::new("probe")
                .with("search_id", 1u64)
                .with("value", 8u64)
                .with("sufficient", false)
                .with("elapsed_us", 10u64)
                .to_json_line(),
            Event::new("probe")
                .with("search_id", 2u64)
                .with("value", 4u64)
                .with("sufficient", true)
                .with("elapsed_us", 12u64)
                .to_json_line(),
            Event::new("probe")
                .with("search_id", 1u64)
                .with("value", 16u64)
                .with("sufficient", true)
                .with("elapsed_us", 11u64)
                .to_json_line(),
            Event::new("search_done")
                .with("search_id", 2u64)
                .with("minimal", 4u64)
                .with("evaluations", 1u64)
                .with("saturated", false)
                .to_json_line(),
            Event::new("search_done")
                .with("search_id", 1u64)
                .with("minimal", 16u64)
                .with("evaluations", 2u64)
                .with("saturated", false)
                .to_json_line(),
        ];
        let report = Report::from_jsonl(&lines.join("\n")).unwrap();
        let by_id = report.searches_by_id();
        assert_eq!(by_id.len(), 2);
        let (probes1, done1) = &by_id[&1];
        assert_eq!(probes1.len(), 2);
        assert_eq!(probes1[0].value, 8);
        assert_eq!(probes1[1].value, 16);
        assert_eq!(done1.unwrap().minimal, 16);
        let (probes2, done2) = &by_id[&2];
        assert_eq!(probes2.len(), 1);
        assert_eq!(done2.unwrap().evaluations, 1);
        let text = report.render();
        assert!(text.contains("search #1: 2 probes, minimal 16"), "{text}");
        assert!(text.contains("search #2: 1 probes, minimal 4"), "{text}");
    }

    #[test]
    fn render_surfaces_serve_counters() {
        let registry = crate::metrics::Registry::new();
        registry.add(crate::metrics::Counter::ServeRequests, 1_000);
        registry.add(crate::metrics::Counter::ServeCacheHits, 990);
        registry.add(crate::metrics::Counter::ServeCacheMisses, 10);
        registry.add(crate::metrics::Counter::ServeShed, 7);
        registry.set_gauge(crate::metrics::Gauge::ServeQueueDepth, 3);
        registry.observe(crate::metrics::HistogramId::RequestMicros, 150);
        let trace = snapshot_event(&registry.snapshot()).to_json_line();
        let report = Report::from_jsonl(&trace).unwrap();
        let text = report.render();
        assert!(
            text.contains(
                "serve            1000 requests, 7 shed, tester cache 990 hits / 10 misses"
            ),
            "{text}"
        );
        assert!(
            text.contains("serve queue      3 waiting at snapshot"),
            "{text}"
        );
        assert!(text.contains("request_micros"), "{text}");
    }

    #[test]
    fn tolerates_malformed_lines() {
        let text = format!("not json\n{}\n{{\"truncated\":", sample_trace());
        let report = Report::from_jsonl(&text).unwrap();
        assert_eq!(report.malformed_lines, 2);
        assert!(report.events > 0);
    }

    #[test]
    fn empty_trace_is_an_error() {
        assert!(Report::from_jsonl("").is_err());
        assert!(Report::from_jsonl("garbage\n").is_err());
    }

    #[test]
    fn clock_anchor_aligns_timestamps() {
        let anchor_line = Event {
            ts_micros: 500,
            ..Event::new("clock_anchor")
        }
        .with("unix_micros", 1_000_000_000u64)
        .with("pid", 42u64)
        .to_json_line();
        let span_line = Event {
            ts_micros: 1_500,
            ..Event::new("span")
        }
        .with("name", "x")
        .with("elapsed_us", 10u64)
        .to_json_line();
        let report = Report::from_jsonl(&format!("{anchor_line}\n{span_line}")).unwrap();
        let anchor = report.anchor.unwrap();
        assert_eq!(anchor.pid, 42);
        // Trace t=1500 is 1000 µs after the anchor at t=500.
        assert_eq!(anchor.wall_micros(1_500), 1_000_001_000);
        assert!(report.render().contains("clock anchor: pid 42"));
    }

    #[test]
    fn aligned_summary_places_traces_on_one_axis() {
        let dir = std::env::temp_dir().join("dut_obs_align_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mk = |name: &str, unix: u64, pid: u64| {
            let anchor = Event::new("clock_anchor")
                .with("unix_micros", unix)
                .with("pid", pid)
                .to_json_line();
            let span = Event {
                ts_micros: 2_000,
                ..Event::new("span")
            }
            .with("name", "w")
            .with("elapsed_us", 5u64)
            .to_json_line();
            let path = dir.join(name);
            std::fs::write(&path, format!("{anchor}\n{span}\n")).unwrap();
            path.to_string_lossy().into_owned()
        };
        // The loadgen starts 1 s after the server.
        let server = mk("server.jsonl", 5_000_000, 1);
        let loadgen = mk("loadgen.jsonl", 6_000_000, 2);
        let text = summarize_aligned(&[server.as_str(), loadgen.as_str()]).unwrap();
        assert!(text.contains("2 traces"), "{text}");
        assert!(text.contains("server.jsonl"), "{text}");
        // Server anchors t0; loadgen starts 1 s later and its last
        // event (trace t=2 ms) lands at t0 + 1.002 s.
        assert!(text.contains("aligned span: 1.00 s"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn aligned_summary_tolerates_missing_anchor() {
        let dir = std::env::temp_dir().join("dut_obs_align_noanchor");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plain.jsonl");
        std::fs::write(
            &path,
            format!(
                "{}\n",
                Event::new("span")
                    .with("name", "w")
                    .with("elapsed_us", 5u64)
                    .to_json_line()
            ),
        )
        .unwrap();
        let path = path.to_string_lossy().into_owned();
        let text = summarize_aligned(&[path.as_str()]).unwrap();
        assert!(text.contains("no anchor"), "{text}");
        assert!(text.contains("cannot share a time axis"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_p50_is_the_registrys_estimate() {
        // 10 values in bucket 8, 10 in bucket 64: the same buckets
        // `{"cmd":"stats"}` and `dut top` would read.
        let snapshot = crate::metrics::HistogramSnapshot {
            name: "request_micros",
            count: 20,
            sum: 10 * 12 + 10 * 90,
            buckets: vec![(8, 10), (64, 10)],
        };
        let mut report = Report::default();
        report.histograms.insert(
            snapshot.name.to_owned(),
            (snapshot.count, snapshot.sum, snapshot.buckets.clone()),
        );
        let text = report.render();
        let expected = format!("p50≈{:.1} ", snapshot.quantile(0.5));
        assert!(text.contains(&expected), "want {expected:?} in {text}");
    }

    #[test]
    fn max_bucket_is_the_upper_edge_of_the_highest_bucket() {
        // 1000 lands in the bucket [512, 1023]; the report names its
        // upper edge, which bounds every observation from above.
        let registry = crate::metrics::Registry::new();
        registry.observe(crate::metrics::HistogramId::RequestMicros, 1000);
        let trace = snapshot_event(&registry.snapshot()).to_json_line();
        let text = Report::from_jsonl(&trace).unwrap().render();
        assert!(text.contains("max_bucket≈1023\n"), "{text}");
    }
}
