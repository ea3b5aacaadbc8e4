//! Replayable corpus entries: one hostile frame or one differential
//! configuration per JSON file, schema-tagged `dut-fuzz-corpus/v1`.
//!
//! A fuzz finding that cannot be replayed is an anecdote. Every
//! violation the fuzz planes detect is persisted as a corpus entry;
//! the corpus is then replayed deterministically by `cargo test`
//! (`tests/corpus_replay.rs`) and by `dut fuzz --replay`, turning
//! each past finding into a permanent regression test.
//!
//! Protocol entries carry the hostile frame (with an optional
//! `frame_hex` when the bytes are not UTF-8, and an optional `pad_to`
//! that right-pads the line with spaces to probe the byte cap — the
//! server trims whitespace *after* the cap check, so padding changes
//! the line's size without changing its meaning). Differential
//! entries carry the full request configuration; replay re-runs the
//! offline / fresh-engine / cached-engine paths and demands bit
//! identity.

use crate::client;
use dut_obs::json::{self, Json, Value};
use dut_serve::chaos::probe_request;
use dut_serve::client::{check_served, Served};
use dut_serve::engine::{self, Engine};
use dut_serve::protocol::{self, Command, ReplyLine, Request};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Schema tag stamped into (and required from) every corpus entry.
pub const SCHEMA: &str = "dut-fuzz-corpus/v1";

/// Which fuzz plane an entry replays against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    /// A hostile frame fired at a live server.
    Protocol,
    /// A configuration run through every evaluation path.
    Differential,
}

impl Plane {
    /// The wire name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Plane::Protocol => "protocol",
            Plane::Differential => "differential",
        }
    }

    /// Parses the wire name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Plane> {
        match name {
            "protocol" => Some(Plane::Protocol),
            "differential" => Some(Plane::Differential),
            _ => None,
        }
    }
}

/// What the server must do with a protocol entry's frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// A well-formed test reply (overload shed also accepted).
    Reply,
    /// A structured error line; the connection stays usable.
    Error,
    /// Reply or error, caller does not care which; never a hang.
    ReplyOrError,
    /// The line-cap notice, then the connection closes.
    LineTooLong,
    /// Differential: all evaluation paths agree bit-for-bit.
    BitIdentical,
}

impl Expect {
    /// The wire name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Expect::Reply => "reply",
            Expect::Error => "error",
            Expect::ReplyOrError => "reply_or_error",
            Expect::LineTooLong => "line_too_long",
            Expect::BitIdentical => "bit_identical",
        }
    }

    /// Parses the wire name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Expect> {
        match name {
            "reply" => Some(Expect::Reply),
            "error" => Some(Expect::Error),
            "reply_or_error" => Some(Expect::ReplyOrError),
            "line_too_long" => Some(Expect::LineTooLong),
            "bit_identical" => Some(Expect::BitIdentical),
            _ => None,
        }
    }
}

/// One corpus entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Which plane replays it.
    pub plane: Plane,
    /// Short stable identifier (doubles as the file stem).
    pub name: String,
    /// The replay assertion.
    pub expect: Expect,
    /// Protocol: the frame text (authoritative unless `frame_hex`).
    pub frame: Option<String>,
    /// Protocol: hex-encoded exact bytes, for non-UTF-8 frames.
    pub frame_hex: Option<String>,
    /// Protocol: right-pad the line with spaces to this many bytes.
    pub pad_to: Option<usize>,
    /// Differential: the request configuration.
    pub config: Option<Request>,
}

fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = write!(out, "{b:02x}");
    }
    out
}

fn hex_decode(text: &str) -> Result<Vec<u8>, String> {
    if !text.len().is_multiple_of(2) {
        return Err("frame_hex has odd length".into());
    }
    (0..text.len())
        .step_by(2)
        .map(|i| {
            u8::from_str_radix(&text[i..i + 2], 16)
                .map_err(|_| format!("frame_hex has non-hex digits at {i}"))
        })
        .collect()
}

impl Entry {
    /// A protocol entry from frame bytes; falls back to hex when the
    /// bytes are not valid UTF-8 (the lossy text is kept as a
    /// human-readable preview).
    #[must_use]
    pub fn protocol(name: &str, bytes: &[u8], expect: Expect) -> Entry {
        let (frame, frame_hex) = match std::str::from_utf8(bytes) {
            Ok(text) => (Some(text.to_owned()), None),
            Err(_) => (
                Some(String::from_utf8_lossy(bytes).into_owned()),
                Some(hex_encode(bytes)),
            ),
        };
        Entry {
            plane: Plane::Protocol,
            name: name.to_owned(),
            expect,
            frame,
            frame_hex,
            pad_to: None,
            config: None,
        }
    }

    /// A differential entry from a request configuration.
    #[must_use]
    pub fn differential(name: &str, config: &Request) -> Entry {
        Entry {
            plane: Plane::Differential,
            name: name.to_owned(),
            expect: Expect::BitIdentical,
            frame: None,
            frame_hex: None,
            pad_to: None,
            config: Some(*config),
        }
    }

    /// The exact frame bytes to fire (hex wins over text; padding
    /// applied).
    ///
    /// # Errors
    ///
    /// Returns a message when the entry has no frame or broken hex.
    pub fn frame_bytes(&self) -> Result<Vec<u8>, String> {
        let mut bytes = if let Some(hex) = &self.frame_hex {
            hex_decode(hex)?
        } else if let Some(frame) = &self.frame {
            frame.clone().into_bytes()
        } else {
            return Err(format!("entry `{}` has no frame", self.name));
        };
        if let Some(target) = self.pad_to {
            while bytes.len() < target {
                bytes.push(b' ');
            }
        }
        Ok(bytes)
    }

    /// Renders the entry as its one-object JSON file body.
    #[must_use]
    pub fn render(&self) -> String {
        let mut doc = Json::obj([
            ("schema", SCHEMA.into()),
            ("plane", self.plane.name().into()),
            ("name", self.name.clone().into()),
            ("expect", self.expect.name().into()),
        ]);
        if let Some(frame) = &self.frame {
            doc.push("frame", frame.clone());
        }
        if let Some(hex) = &self.frame_hex {
            doc.push("frame_hex", hex.clone());
        }
        if let Some(pad) = self.pad_to {
            doc.push("pad_to", pad);
        }
        if let Some(config) = &self.config {
            doc.push("config", protocol::request_json(config));
        }
        let mut out = json::to_string(&doc);
        out.push('\n');
        out
    }

    /// Parses one entry from a corpus file's text.
    ///
    /// # Errors
    ///
    /// Returns the first schema violation found.
    pub fn parse(text: &str) -> Result<Entry, String> {
        let doc = json::parse(text.trim()).map_err(|e| format!("not JSON: {e}"))?;
        match doc.get_str("schema") {
            Some(SCHEMA) => {}
            Some(s) => return Err(format!("schema is `{s}`, expected `{SCHEMA}`")),
            None => return Err("missing `schema` tag".into()),
        }
        let plane = doc
            .get_str("plane")
            .and_then(Plane::parse)
            .ok_or("missing or unknown `plane` (protocol | differential)")?;
        let name = doc.need("name", Value::as_str)?.to_owned();
        let expect = doc
            .get_str("expect")
            .and_then(Expect::parse)
            .ok_or("missing or unknown `expect`")?;
        let frame = doc.get_str("frame").map(str::to_owned);
        let frame_hex = doc.get_str("frame_hex").map(str::to_owned);
        if let Some(hex) = &frame_hex {
            hex_decode(hex)?; // fail at parse time, not replay time
        }
        let pad_to = doc
            .get_u64("pad_to")
            .map(|p| usize::try_from(p).unwrap_or(usize::MAX));
        let config = match doc.get("config") {
            Some(node) => match protocol::command_from_json(node)
                .map_err(|e| format!("`config` is not a valid request: {e}"))?
            {
                (Command::Run(request), _) => Some(request),
                _ => return Err("`config` parsed as an admin command".into()),
            },
            None => None,
        };
        match plane {
            Plane::Protocol if frame.is_none() && frame_hex.is_none() => {
                return Err("protocol entry needs `frame` or `frame_hex`".into());
            }
            Plane::Differential if config.is_none() => {
                return Err("differential entry needs `config`".into());
            }
            Plane::Differential if expect != Expect::BitIdentical => {
                return Err("differential entries must expect `bit_identical`".into());
            }
            _ => {}
        }
        Ok(Entry {
            plane,
            name,
            expect,
            frame,
            frame_hex,
            pad_to,
            config,
        })
    }

    /// Replays the entry. Protocol entries need `addr` (a live
    /// server); differential entries run in-process.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated expectation.
    pub fn replay(&self, addr: &str) -> Result<(), String> {
        match self.plane {
            Plane::Protocol => self.replay_protocol(addr),
            Plane::Differential => self.replay_differential(),
        }
    }

    fn replay_protocol(&self, addr: &str) -> Result<(), String> {
        let bytes = self.frame_bytes()?;
        let outcome = client::fire_frame(addr, &bytes)?;
        let fail = |why: &str| {
            Err(format!(
                "corpus `{}`: expected {}, {why}: {:?}",
                self.name,
                self.expect.name(),
                outcome
            ))
        };
        match self.expect {
            Expect::Reply => match &outcome.first {
                Some(ReplyLine::Reply(_) | ReplyLine::Overloaded) => {}
                _ => return fail("got no reply"),
            },
            Expect::Error => match &outcome.first {
                Some(ReplyLine::Error(_)) => {}
                _ => return fail("got no structured error"),
            },
            Expect::ReplyOrError => {
                if outcome.first.is_none() && !outcome.closed {
                    return fail("got neither a line nor a close");
                }
            }
            Expect::LineTooLong => {
                match &outcome.first {
                    Some(ReplyLine::Error(message)) if message.contains("line_too_long") => {}
                    _ => return fail("got no line_too_long notice"),
                }
                if !outcome.closed {
                    return fail("connection stayed open");
                }
            }
            Expect::BitIdentical => {
                return Err(format!(
                    "corpus `{}`: bit_identical is a differential expectation",
                    self.name
                ));
            }
        }
        // Whatever the frame did, the server must still answer an
        // honest request bit-exactly afterwards.
        check_served(addr, &probe_request())
            .and_then(Served::answered)
            .map_err(|e| format!("corpus `{}`: server unusable after frame: {e}", self.name))
    }

    fn replay_differential(&self) -> Result<(), String> {
        let request = self
            .config
            .ok_or_else(|| format!("corpus `{}` has no config", self.name))?;
        crate::differential::compare_local_paths(&request)
            .map_err(|e| format!("corpus `{}`: {e}", self.name))
    }
}

/// Expands corpus paths into the `.json` files they hold, directories
/// recursively with their children in sorted order (`dut fuzz --check`,
/// `dut fuzz --replay` and `tests/corpus_replay.rs`).
///
/// # Errors
///
/// Fails when `paths` is empty, a directory cannot be read, or no
/// `.json` file is found.
pub fn collect_files<P: AsRef<Path>>(paths: &[P]) -> Result<Vec<PathBuf>, String> {
    fn walk(path: &Path, files: &mut Vec<PathBuf>) -> Result<(), String> {
        if path.is_dir() {
            let mut children: Vec<PathBuf> = std::fs::read_dir(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?
                .filter_map(Result::ok)
                .map(|e| e.path())
                .collect();
            children.sort();
            for child in children {
                walk(&child, files)?;
            }
        } else if path.extension().is_some_and(|ext| ext == "json") {
            files.push(path.to_path_buf());
        }
        Ok(())
    }
    if paths.is_empty() {
        return Err("no corpus files or directories given".into());
    }
    let mut files = Vec::new();
    for path in paths {
        walk(path.as_ref(), &mut files)?;
    }
    if files.is_empty() {
        return Err("no .json corpus files found".into());
    }
    Ok(files)
}

/// Validates one corpus file body (`dut fuzz --check`).
///
/// # Errors
///
/// Returns the first violation found.
pub fn validate(text: &str) -> Result<(), String> {
    let entry = Entry::parse(text)?;
    if entry.plane == Plane::Protocol {
        entry.frame_bytes()?;
    }
    Ok(())
}

/// Replays differential bit-identity for a request (shared with the
/// corpus replay test).
///
/// # Errors
///
/// Propagates the first disagreement between paths.
pub fn bit_identity(request: &Request) -> Result<(), String> {
    let offline = engine::offline_reply(request)?;
    let fresh = Engine::new(2);
    let miss = fresh.handle(request)?;
    let hit = fresh.handle(request)?;
    for (path, reply) in [("fresh-engine miss", &miss), ("cached-engine hit", &hit)] {
        if !reply.same_answer(&offline) {
            return Err(format!(
                "{path} diverged from offline: {:?} vs {:?}",
                reply, offline
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pad_to_extends_with_spaces() {
        let mut entry = Entry::protocol("padded", b"{\"cmd\":\"stats\"}", Expect::Reply);
        entry.pad_to = Some(64);
        let bytes = entry.frame_bytes().expect("bytes");
        assert_eq!(bytes.len(), 64);
        assert!(bytes.ends_with(b"  "));
        let back = Entry::parse(&entry.render()).expect("round trip");
        assert_eq!(back.pad_to, Some(64));
    }

    #[test]
    fn validator_rejects_broken_entries() {
        assert!(validate("not json").is_err());
        assert!(validate("{\"schema\":\"dut-fuzz-corpus/v0\"}").is_err());
        assert!(validate(
            "{\"schema\":\"dut-fuzz-corpus/v1\",\"plane\":\"protocol\",\"name\":\"x\",\"expect\":\"error\"}"
        )
        .is_err(), "protocol entry without a frame must fail");
        assert!(validate(
            "{\"schema\":\"dut-fuzz-corpus/v1\",\"plane\":\"differential\",\"name\":\"x\",\"expect\":\"bit_identical\"}"
        )
        .is_err(), "differential entry without a config must fail");
        assert!(validate(
            "{\"schema\":\"dut-fuzz-corpus/v1\",\"plane\":\"protocol\",\"name\":\"x\",\"expect\":\"error\",\"frame_hex\":\"zz\"}"
        )
        .is_err(), "broken hex must fail at parse time");
    }

    #[test]
    fn bit_identity_holds_for_a_small_config() {
        let request = crate::gen::FrameGen::new(3).valid_request();
        bit_identity(&request).expect("paths agree");
    }
}
