//! Replayable arrival traces for the load generator.
//!
//! A trace is a newline-JSON artifact (`dut-serve-trace/v1`): one
//! header line, then one line per request with its arrival offset,
//! lane, catalog index, seed, and optional tenant. Replaying the same
//! trace file reproduces the same request sequence on the same lanes
//! at the same offsets, which turns a load profile into a regression
//! artifact instead of a one-off.
//!
//! Generation is seeded and deterministic. Arrivals start from a
//! fixed-rate schedule and are modulated two ways, both borrowed from
//! the paper's adversarial-network machinery rather than reinvented:
//!
//! * **Bursts.** A [`GilbertElliott`] two-state channel (the same
//!   model `simnet/resilience` uses for loss bursts) gates each
//!   arrival; while the channel is in its bad state the inter-arrival
//!   gap compresses, so requests cluster exactly like loss does on a
//!   bursty link.
//! * **Diurnal swing.** The base rate follows one sinusoidal period
//!   across the trace span (half rate in the trough, 1.5× at the
//!   peak), the classic day/night load shape compressed into the
//!   trace duration.

use dut_obs::json::{self, Json};
use dut_simnet::{FaultPlan, GilbertElliott};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// Schema tag stamped into (and required from) every trace artifact.
pub const TRACE_SCHEMA: &str = "dut-serve-trace/v1";

/// Highest mean burst-gate loss this generator will request. The
/// channel's own ceiling is its bad-state stationary probability
/// (just below 0.375), so stay strictly inside it.
const MAX_BURST: f64 = 0.37;

/// One request arrival.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Arrival offset from the start of the replay, microseconds.
    pub at_micros: u64,
    /// Sender lane (persistent connection) carrying this request.
    pub lane: u64,
    /// Global request index, fed to
    /// [`request_for_index`](crate::loadgen::request_for_index).
    pub index: u64,
    /// Request seed (also derivable from `index`, but stored so a
    /// trace file is self-contained).
    pub seed: u64,
    /// Tenant stamped on the wire, if any.
    pub tenant: Option<String>,
}

/// A parsed or generated trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Nominal span of the trace, microseconds.
    pub span_micros: u64,
    /// Number of sender lanes the events are spread over.
    pub lanes: u64,
    /// Arrivals in non-decreasing `at_micros` order.
    pub events: Vec<TraceEvent>,
}

/// Trace-generation knobs.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Base request rate before burst/diurnal modulation.
    pub rps: u64,
    /// Trace span.
    pub duration: Duration,
    /// Sender lanes to spread arrivals over.
    pub lanes: u64,
    /// Mean fraction of arrivals gated into burst clusters
    /// (clamped to the Gilbert–Elliott model's supported range).
    pub burstiness: f64,
    /// Apply the one-period diurnal rate swing.
    pub diurnal: bool,
    /// Generator seed: same seed, same trace, bit for bit.
    pub seed: u64,
    /// Tenants stamped round-robin on the events (empty = no tenant
    /// field on the wire).
    pub tenants: Vec<String>,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            rps: 2_000,
            duration: Duration::from_secs(2),
            lanes: 8,
            burstiness: 0.25,
            diurnal: true,
            seed: 7,
            tenants: Vec::new(),
        }
    }
}

/// The diurnal rate multiplier at phase `f ∈ [0, 1)`: one sinusoidal
/// period spanning `[0.5, 1.5]`, peak at mid-trace.
fn diurnal_factor(f: f64) -> f64 {
    1.0 - 0.5 * (std::f64::consts::TAU * f).cos()
}

/// Generates a deterministic trace from the config.
#[must_use]
pub fn generate(config: &TraceConfig) -> Trace {
    let span_micros = u64::try_from(config.duration.as_micros()).unwrap_or(u64::MAX);
    let lanes = config.lanes.max(1);
    let rps = config.rps.max(1);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut channel =
        GilbertElliott::bursty_with_mean_loss(config.burstiness.clamp(0.0, MAX_BURST));
    channel.begin_run(1, &mut rng);
    let mut events = Vec::new();
    let mut at = 0.0_f64;
    let mut index = 0u64;
    #[allow(clippy::cast_precision_loss)]
    let span = span_micros as f64;
    while at < span {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let at_micros = at as u64;
        let tenant = if config.tenants.is_empty() {
            None
        } else {
            let slot = usize::try_from(index).unwrap_or(0) % config.tenants.len();
            Some(config.tenants[slot].clone())
        };
        events.push(TraceEvent {
            at_micros,
            lane: index % lanes,
            index,
            seed: 1000 + (index % 64),
            tenant,
        });
        // One Gilbert–Elliott step per arrival: a "lost" round is the
        // bad state, and bad-state arrivals crowd together.
        let bursty = channel.deliver_round(&[Some(true)], &mut rng)[0].is_none();
        #[allow(clippy::cast_precision_loss)]
        let base_gap = 1_000_000.0 / rps as f64;
        let swing = if config.diurnal {
            diurnal_factor(at / span)
        } else {
            1.0
        };
        let gap = if bursty {
            base_gap * 0.2
        } else {
            base_gap / swing
        };
        at += gap.max(1.0);
        index += 1;
    }
    Trace {
        span_micros,
        lanes,
        events,
    }
}

impl Trace {
    /// Renders the newline-JSON artifact (header line + one line per
    /// event, trailing newline).
    #[must_use]
    pub fn render(&self) -> String {
        let header = Json::obj([
            ("schema", TRACE_SCHEMA.into()),
            ("span_us", self.span_micros.into()),
            ("lanes", self.lanes.into()),
            ("requests", self.events.len().into()),
        ]);
        let mut out = String::with_capacity(64 + self.events.len() * 48);
        json::write(&mut out, &header);
        out.push('\n');
        for event in &self.events {
            let mut row = Json::obj([
                ("at_us", event.at_micros.into()),
                ("lane", event.lane.into()),
                ("index", event.index.into()),
                ("seed", event.seed.into()),
            ]);
            if let Some(tenant) = &event.tenant {
                row.push("tenant", tenant.clone());
            }
            json::write(&mut out, &row);
            out.push('\n');
        }
        out
    }

    /// Parses and validates a trace artifact.
    ///
    /// # Errors
    ///
    /// Returns the first violation: bad schema, malformed lines, a
    /// request count that disagrees with the header, an out-of-range
    /// lane, or arrivals out of order.
    pub fn parse(text: &str) -> Result<Trace, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().ok_or("empty trace")?;
        let doc = json::parse(header.trim()).map_err(|e| format!("trace header: {e}"))?;
        match doc.get_str("schema") {
            Some(TRACE_SCHEMA) => {}
            Some(s) => return Err(format!("trace schema is `{s}`, expected `{TRACE_SCHEMA}`")),
            None => return Err("trace header missing `schema`".to_owned()),
        }
        let need = |key: &str| {
            doc.need(key, Json::as_u64)
                .map_err(|e| format!("trace header {e}"))
        };
        let span_micros = need("span_us")?;
        let lanes = need("lanes")?.max(1);
        let declared = need("requests")?;
        let mut events = Vec::new();
        let mut last_at = 0u64;
        for (offset, line) in lines.enumerate() {
            let row =
                json::parse(line.trim()).map_err(|e| format!("trace line {}: {e}", offset + 2))?;
            let field = |key: &str| {
                row.need(key, Json::as_u64)
                    .map_err(|e| format!("trace line {} {e}", offset + 2))
            };
            let event = TraceEvent {
                at_micros: field("at_us")?,
                lane: field("lane")?,
                index: field("index")?,
                seed: field("seed")?,
                tenant: row.get_str("tenant").map(ToOwned::to_owned),
            };
            if event.lane >= lanes {
                return Err(format!(
                    "trace line {}: lane {} out of range (lanes {lanes})",
                    offset + 2,
                    event.lane
                ));
            }
            if event.at_micros < last_at {
                return Err(format!(
                    "trace line {}: arrivals out of order ({} after {last_at})",
                    offset + 2,
                    event.at_micros
                ));
            }
            last_at = event.at_micros;
            events.push(event);
        }
        if events.len() as u64 != declared {
            return Err(format!(
                "trace header declares {declared} requests but {} lines follow",
                events.len()
            ));
        }
        Ok(Trace {
            span_micros,
            lanes,
            events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let config = TraceConfig::default();
        let a = generate(&config);
        let b = generate(&config);
        assert_eq!(a, b, "same seed, same trace");
        let c = generate(&TraceConfig { seed: 8, ..config });
        assert_ne!(a, c, "a different seed moves arrivals");
    }

    #[test]
    fn trace_round_trips_through_the_artifact() {
        let trace = generate(&TraceConfig {
            tenants: vec!["alpha".to_owned(), "beta".to_owned()],
            duration: Duration::from_millis(200),
            ..TraceConfig::default()
        });
        assert!(!trace.events.is_empty());
        assert!(trace.events.iter().any(|e| e.tenant.is_some()));
        let text = trace.render();
        let back = Trace::parse(&text).expect("round trip");
        assert_eq!(back, trace);
    }

    #[test]
    fn default_trace_artifact_keeps_its_bytes() {
        let text = generate(&TraceConfig::default()).render();
        let fnv1a = text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!((fnv1a, text.len()), (0x7e48_3ce0_2bcd_9400, 255_374));
        assert!(text.starts_with(
            "{\"schema\":\"dut-serve-trace/v1\",\"span_us\":2000000,\"lanes\":8,\"requests\":4982}\n\
             {\"at_us\":0,\"lane\":0,\"index\":0,\"seed\":1000}\n"
        ));
    }

    #[test]
    fn bursts_compress_gaps_below_the_uniform_schedule() {
        let bursty = generate(&TraceConfig {
            burstiness: 0.375,
            diurnal: false,
            duration: Duration::from_millis(500),
            ..TraceConfig::default()
        });
        let flat = generate(&TraceConfig {
            burstiness: 0.0,
            diurnal: false,
            duration: Duration::from_millis(500),
            ..TraceConfig::default()
        });
        // Same span, but burst clustering packs more arrivals in.
        assert!(
            bursty.events.len() > flat.events.len(),
            "bursty {} vs flat {}",
            bursty.events.len(),
            flat.events.len()
        );
        // A burst gap is 1/5 of the schedule gap; the flat trace
        // never produces one.
        let min_gap = |t: &Trace| {
            t.events
                .windows(2)
                .map(|w| w[1].at_micros - w[0].at_micros)
                .min()
                .unwrap_or(u64::MAX)
        };
        assert!(min_gap(&bursty) < min_gap(&flat));
    }

    #[test]
    fn parse_rejects_broken_artifacts() {
        assert!(Trace::parse("").is_err());
        assert!(Trace::parse("{\"schema\":\"dut-serve-trace/v0\"}").is_err());
        let ok = generate(&TraceConfig {
            duration: Duration::from_millis(50),
            ..TraceConfig::default()
        })
        .render();
        // Drop an event line: the header count no longer matches.
        let truncated: Vec<&str> = ok.lines().collect();
        let truncated = truncated[..truncated.len() - 1].join("\n");
        assert!(Trace::parse(&truncated).unwrap_err().contains("declares"));
        // Shuffle arrivals out of order.
        let mut lines: Vec<&str> = ok.lines().collect();
        let last = lines.len() - 1;
        lines.swap(1, last);
        let shuffled = lines.join("\n");
        assert!(Trace::parse(&shuffled).unwrap_err().contains("order"));
    }

    #[test]
    fn diurnal_swing_thins_the_trough_and_packs_the_peak() {
        let trace = generate(&TraceConfig {
            burstiness: 0.0,
            diurnal: true,
            duration: Duration::from_secs(1),
            ..TraceConfig::default()
        });
        let mid = trace.span_micros / 2;
        let quarter = trace.span_micros / 4;
        let in_range = |lo: u64, hi: u64| {
            trace
                .events
                .iter()
                .filter(|e| e.at_micros >= lo && e.at_micros < hi)
                .count()
        };
        // Peak quarter (centered mid-span) vs the leading trough
        // quarter: the sinusoid packs the peak strictly denser.
        let peak = in_range(mid - quarter / 2, mid + quarter / 2);
        let trough = in_range(0, quarter);
        assert!(peak > trough, "peak {peak} vs trough {trough}");
    }
}
