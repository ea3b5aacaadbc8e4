//! Flight recorder: a fixed-capacity ring of the most recent trace
//! events, kept in memory so the moments *before* an incident are
//! recoverable after the fact.
//!
//! JSONL sinks answer "what happened over the whole run"; the flight
//! recorder answers "what happened in the last few hundred events
//! before the queue started shedding". It is a [`Sink`] like any
//! other — installed alongside the file sink, it sees every event the
//! recorder emits — but it retains only the newest `capacity` events
//! in a mutex-guarded deque (events arrive already rate-limited by
//! trace sampling, so a short lock is cheap relative to emit cost).
//!
//! Two read paths:
//!
//! * [`FlightRecorder::dump_json`] — on-demand, serving the serve
//!   protocol's `{"cmd":"flight"}`.
//! * [`FlightRecorder::dump_event`] — packages the ring as a single
//!   `flight_dump` trace event for automatic dumps (e.g. on a shed
//!   burst), so the incident context lands in the offline trace too.
//!
//! The recorder never records `flight_dump` events into its own ring:
//! a dump embedding a dump embedding a dump would otherwise grow
//! quadratically on repeated bursts.

use crate::json::Json;
use crate::sink::Sink;
use crate::trace::Event;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

/// Default ring capacity.
pub const DEFAULT_CAPACITY: usize = 256;

/// Name of the synthetic event produced by [`FlightRecorder::dump_event`].
pub const DUMP_EVENT: &str = "flight_dump";

/// A fixed-capacity in-memory ring of recent trace events.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    ring: Mutex<VecDeque<Event>>,
}

impl FlightRecorder {
    /// A ring holding at most `capacity` events (clamped to ≥ 1).
    #[must_use]
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
        }
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of events currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    /// Whether the ring is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the retained events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        self.ring.lock().iter().cloned().collect()
    }

    /// The ring as one JSON array of event objects, oldest first.
    #[must_use]
    pub fn dump_json(&self) -> Json {
        Json::Arr(self.ring.lock().iter().map(Event::to_json).collect())
    }

    /// Packages the current ring as a single `flight_dump` event,
    /// tagged with `reason`, embedding the events as an array. The
    /// caller emits it through the recorder so it reaches file sinks.
    #[must_use]
    pub fn dump_event(&self, reason: &'static str) -> Event {
        let events = self.dump_json();
        Event::new(DUMP_EVENT)
            .with("reason", reason)
            .with("retained", self.len())
            .with("events", events)
    }
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new(DEFAULT_CAPACITY)
    }
}

impl Sink for FlightRecorder {
    fn record(&self, event: &Event) {
        // Never retain our own dumps: each embeds the whole ring.
        if event.name == DUMP_EVENT {
            return;
        }
        let mut ring = self.ring.lock();
        if ring.len() >= self.capacity {
            ring.pop_front();
        }
        ring.push_back(event.clone());
    }
}

/// The process-wide flight recorder, created on first use. `dut
/// serve` installs this as a sink at startup; the stats plane reads
/// it back for `{"cmd":"flight"}`.
pub fn global() -> &'static Arc<FlightRecorder> {
    static GLOBAL: OnceLock<Arc<FlightRecorder>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(FlightRecorder::default()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn ring_keeps_newest_events() {
        let flight = FlightRecorder::new(3);
        for i in 0..5u64 {
            flight.record(&Event::new("tick").with("i", i));
        }
        assert_eq!(flight.len(), 3);
        let events = flight.events();
        assert_eq!(events[0].field("i"), Some(&Json::Uint(2)));
        assert_eq!(events[2].field("i"), Some(&Json::Uint(4)));
    }

    #[test]
    fn dump_json_is_a_parseable_array() {
        let flight = FlightRecorder::new(8);
        flight.record(&Event::new("a").with("x", 1u64));
        flight.record(&Event::new("b").with("y", "two"));
        let Json::Arr(items) = flight.dump_json() else {
            panic!("expected array");
        };
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].get("event").and_then(Json::as_str), Some("a"));
        assert_eq!(items[1].get("y").and_then(Json::as_str), Some("two"));
    }

    #[test]
    fn empty_dump_is_empty_array() {
        let flight = FlightRecorder::new(4);
        assert_eq!(flight.dump_json(), Json::Arr(Vec::new()));
        assert!(flight.is_empty());
    }

    #[test]
    fn own_dumps_are_not_retained() {
        let flight = FlightRecorder::new(4);
        flight.record(&Event::new("real"));
        let dump = flight.dump_event("test");
        flight.record(&dump);
        assert_eq!(flight.len(), 1, "flight_dump must not re-enter the ring");
        // The dump itself is a valid event embedding the ring.
        assert_eq!(dump.field("reason"), Some(&Json::from("test")));
        assert_eq!(dump.field("retained"), Some(&Json::Uint(1)));
        let line = dump.to_json_line();
        let parsed = json::parse(&line).unwrap();
        let events = parsed.get("events").unwrap();
        let Json::Arr(items) = events else {
            panic!("expected embedded array");
        };
        assert_eq!(items[0].get("event").and_then(Json::as_str), Some("real"));
    }

    #[test]
    fn dumps_keep_their_bytes() {
        let flight = FlightRecorder::new(3);
        for i in 0..4u64 {
            let tick = Event::new("tick").with("i", i).with("r", 0.5);
            flight.record(&Event {
                ts_micros: i * 10,
                ..tick
            });
        }
        flight.record(&Event::new("named").with("s", "x\"y"));
        assert_eq!(
            json::to_string(&flight.dump_json()),
            r#"[{"event":"tick","ts_us":20,"i":2,"r":0.5},{"event":"tick","ts_us":30,"i":3,"r":0.5},{"event":"named","ts_us":0,"s":"x\"y"}]"#
        );
        assert_eq!(
            flight.dump_event("shed_burst").to_json_line(),
            r#"{"event":"flight_dump","ts_us":0,"reason":"shed_burst","retained":3,"events":[{"event":"tick","ts_us":20,"i":2,"r":0.5},{"event":"tick","ts_us":30,"i":3,"r":0.5},{"event":"named","ts_us":0,"s":"x\"y"}]}"#
        );
    }

    #[test]
    fn capacity_is_clamped() {
        let flight = FlightRecorder::new(0);
        flight.record(&Event::new("only"));
        flight.record(&Event::new("newer"));
        assert_eq!(flight.len(), 1);
        assert_eq!(flight.events()[0].name, "newer");
        assert_eq!(flight.capacity(), 1);
    }
}
