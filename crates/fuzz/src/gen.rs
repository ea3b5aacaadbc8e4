//! Seeded, grammar-aware frame generation and mutation.
//!
//! The generator knows the newline-JSON protocol's grammar: it builds
//! *valid* request frames first and then damages them in structured
//! ways — a bit flip inside the frame, a truncation, interleaved
//! garbage, an absurd numeric, a nesting bomb, an oversized line.
//! Grammar-aware damage probes deep parser states that pure random
//! bytes never reach (random bytes fail at byte 0; a flipped quote
//! fails inside string parsing; a huge `n` passes parsing and fails
//! validation).
//!
//! Everything is a pure function of the seed: the same seed replays
//! the same frame sequence, which is what makes a fuzz failure a
//! regression test instead of an anecdote.

use dut_serve::protocol::{self, Request};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The ways a frame can be damaged. Exhaustive (`ALL`) so the smoke
/// run can prove it exercised every mutation class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// No damage: a valid frame (the control group — these must get
    /// real replies, or the harness itself is broken).
    Valid,
    /// One bit flipped somewhere in the frame.
    BitFlip,
    /// The frame cut short at a random byte (still newline-framed).
    Truncate,
    /// Random printable garbage, not JSON at all.
    Garbage,
    /// A valid frame with one numeric field replaced by an absurd
    /// value (allocation-bomb probe).
    HugeNumeric,
    /// A `[[[[…` / `{"a":{"a":…` nesting bomb (stack-depth probe).
    NestingBomb,
    /// A line far over the server's byte cap.
    Oversized,
    /// A valid frame with a duplicated key (last-wins vs reject —
    /// either way, never a crash).
    DuplicateKey,
    /// Bytes that are not valid UTF-8.
    BadUtf8,
    /// An unknown admin command.
    UnknownCmd,
}

impl Mutation {
    /// Every mutation class, for mix coverage accounting.
    pub const ALL: [Mutation; 10] = [
        Mutation::Valid,
        Mutation::BitFlip,
        Mutation::Truncate,
        Mutation::Garbage,
        Mutation::HugeNumeric,
        Mutation::NestingBomb,
        Mutation::Oversized,
        Mutation::DuplicateKey,
        Mutation::BadUtf8,
        Mutation::UnknownCmd,
    ];

    /// Stable label for reports and corpus entries.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Mutation::Valid => "valid",
            Mutation::BitFlip => "bit_flip",
            Mutation::Truncate => "truncate",
            Mutation::Garbage => "garbage",
            Mutation::HugeNumeric => "huge_numeric",
            Mutation::NestingBomb => "nesting_bomb",
            Mutation::Oversized => "oversized",
            Mutation::DuplicateKey => "duplicate_key",
            Mutation::BadUtf8 => "bad_utf8",
            Mutation::UnknownCmd => "unknown_cmd",
        }
    }
}

/// What the server is allowed to do with a frame. The fuzz loop's
/// invariant is the *union* of these per mutation class — but in
/// every case: a structured line or a clean close. Never a hang,
/// never a crash, never a poisoned next request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// A well-formed test reply (or an overload shed).
    Reply,
    /// A structured `{"error":...}` line.
    Error,
    /// `{"error":"line_too_long"}` and the connection closes.
    LineTooLong,
    /// Either a reply or an error is acceptable (damaged frames can
    /// land either side of validity).
    ReplyOrError,
}

/// One generated frame: the bytes to fire (newline not included) and
/// what the server may legally do with them.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Raw frame bytes (may be invalid UTF-8 by design).
    pub bytes: Vec<u8>,
    /// Which mutation produced it.
    pub mutation: Mutation,
    /// The legal server behaviors.
    pub expect: Expectation,
}

/// Seeded frame generator.
#[derive(Debug)]
pub struct FrameGen {
    rng: StdRng,
}

impl FrameGen {
    /// A generator whose whole output sequence is a function of
    /// `seed`.
    #[must_use]
    pub fn new(seed: u64) -> FrameGen {
        FrameGen {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// A random *valid* request within the served limits. Small
    /// domains keep fuzz iterations cheap; the limit probes are the
    /// [`Mutation::HugeNumeric`] class's job. The differential plane
    /// draws its configurations here too, so its failures are about
    /// agreement, not validation.
    pub fn valid_request(&mut self) -> Request {
        let n = 1usize << self.rng.random_range(1..9); // 2..=256
        let k = self.rng.random_range(1..=6);
        let q = self.rng.random_range(1..=32);
        let eps_choices = [0.25, 0.5, 0.75, 0.9, 1.0];
        let eps = eps_choices[self.rng.random_range(0..eps_choices.len())];
        let rule = match self.rng.random_range(0..4u32) {
            0 => dut_core::Rule::And,
            1 => dut_core::Rule::Balanced,
            2 => dut_core::Rule::Centralized,
            _ => dut_core::Rule::TThreshold {
                t: self.rng.random_range(1..=k),
            },
        };
        let family = protocol::Family::ALL[self.rng.random_range(0..protocol::Family::ALL.len())];
        Request {
            n,
            k,
            q,
            eps,
            rule,
            family,
            seed: self.rng.random(),
            trials: self.rng.random_range(1..=4),
        }
    }

    /// The next frame in the seeded sequence, cycling mutation
    /// classes so every class appears once per [`Mutation::ALL`]
    /// window regardless of run length.
    pub fn frame(&mut self, index: u64) -> Frame {
        let mutation =
            Mutation::ALL[usize::try_from(index % Mutation::ALL.len() as u64).unwrap_or(0)];
        self.build(mutation)
    }

    /// Builds one frame of the given class.
    pub fn build(&mut self, mutation: Mutation) -> Frame {
        let base = protocol::render_request(&self.valid_request());
        match mutation {
            Mutation::Valid => Frame {
                bytes: base.into_bytes(),
                mutation,
                expect: Expectation::Reply,
            },
            Mutation::BitFlip => {
                let mut bytes = base.into_bytes();
                let at = self.rng.random_range(0..bytes.len());
                let bit = self.rng.random_range(0..7u32); // never bit 7: keep it ASCII-ish
                bytes[at] ^= 1 << bit;
                // A flipped newline would split the frame in two;
                // that's the Truncate class's job, not this one's.
                if bytes[at] == b'\n' {
                    bytes[at] = b'#';
                }
                Frame {
                    bytes,
                    mutation,
                    expect: Expectation::ReplyOrError,
                }
            }
            Mutation::Truncate => {
                let mut bytes = base.into_bytes();
                let keep = self.rng.random_range(1..bytes.len());
                bytes.truncate(keep);
                Frame {
                    bytes,
                    mutation,
                    expect: Expectation::Error,
                }
            }
            Mutation::Garbage => {
                let len = self.rng.random_range(1..200usize);
                let bytes = (0..len)
                    .map(|_| self.rng.random_range(0x20..0x7Fu8))
                    .collect();
                Frame {
                    bytes,
                    mutation,
                    expect: Expectation::Error,
                }
            }
            Mutation::HugeNumeric => {
                let field = ["n", "k", "q", "trials"][self.rng.random_range(0..4usize)];
                let value: u64 = self.rng.random_range(1 << 30..u64::MAX >> 2);
                let line = format!(
                    "{{\"n\":64,\"k\":4,\"q\":8,\"eps\":0.5,\"rule\":\"and\",\"seed\":1,\"{field}\":{value}}}"
                );
                Frame {
                    bytes: line.into_bytes(),
                    mutation,
                    expect: Expectation::Error,
                }
            }
            Mutation::NestingBomb => {
                // Deep enough to smash an unguarded recursive parser,
                // cheap enough to generate by the thousand.
                let depth = self.rng.random_range(100..5000usize);
                let mut line = String::with_capacity(depth + 16);
                for _ in 0..depth {
                    line.push('[');
                }
                Frame {
                    bytes: line.into_bytes(),
                    mutation,
                    expect: Expectation::Error,
                }
            }
            Mutation::Oversized => {
                // Over the protocol cap; the pad is structured JSON
                // prefix so the parser would engage if the cap failed.
                let mut line = String::with_capacity(protocol::MAX_LINE_BYTES + 64);
                line.push_str("{\"n\":64,\"pad\":\"");
                while line.len() <= protocol::MAX_LINE_BYTES {
                    line.push('x');
                }
                line.push_str("\"}");
                Frame {
                    bytes: line.into_bytes(),
                    mutation,
                    expect: Expectation::LineTooLong,
                }
            }
            Mutation::DuplicateKey => {
                let mut line = base;
                line.pop(); // drop trailing '}'
                let dup: u64 = self.rng.random_range(0..1024);
                line.push_str(&format!(",\"n\":{dup}}}"));
                Frame {
                    bytes: line.into_bytes(),
                    mutation,
                    expect: Expectation::ReplyOrError,
                }
            }
            Mutation::BadUtf8 => {
                let mut bytes = base.into_bytes();
                let at = self.rng.random_range(0..bytes.len());
                bytes[at] = 0xFF; // never valid in UTF-8
                Frame {
                    bytes,
                    mutation,
                    expect: Expectation::ReplyOrError,
                }
            }
            Mutation::UnknownCmd => {
                let cmd_len = self.rng.random_range(1..24usize);
                let cmd: String = (0..cmd_len)
                    .map(|_| char::from(self.rng.random_range(b'a'..=b'z')))
                    .collect();
                Frame {
                    bytes: format!("{{\"cmd\":\"{cmd}\"}}").into_bytes(),
                    mutation,
                    expect: Expectation::Error,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_replays_the_same_sequence() {
        let mut a = FrameGen::new(11);
        let mut b = FrameGen::new(11);
        for i in 0..50 {
            assert_eq!(a.frame(i).bytes, b.frame(i).bytes, "frame {i} diverged");
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FrameGen::new(1);
        let mut b = FrameGen::new(2);
        let same = (0..20)
            .filter(|&i| a.frame(i).bytes == b.frame(i).bytes)
            .count();
        assert!(same < 20, "seeds 1 and 2 produced identical streams");
    }

    #[test]
    fn every_mutation_class_appears_in_one_window() {
        let mut gen = FrameGen::new(3);
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..Mutation::ALL.len() as u64 {
            seen.insert(gen.frame(i).mutation.name());
        }
        assert_eq!(seen.len(), Mutation::ALL.len());
    }

    #[test]
    fn valid_frames_parse_as_requests() {
        let mut gen = FrameGen::new(5);
        for _ in 0..30 {
            let frame = gen.build(Mutation::Valid);
            let text = String::from_utf8(frame.bytes).expect("valid frames are UTF-8");
            match protocol::parse_command(&text) {
                Ok(protocol::Command::Run(_)) => {}
                other => panic!("valid frame did not parse as a run: {other:?} from {text}"),
            }
        }
    }

    #[test]
    fn oversized_frames_exceed_the_cap() {
        let mut gen = FrameGen::new(7);
        let frame = gen.build(Mutation::Oversized);
        assert!(frame.bytes.len() > protocol::MAX_LINE_BYTES);
    }

    #[test]
    fn mutation_names_are_distinct() {
        let names: std::collections::BTreeSet<_> = Mutation::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), Mutation::ALL.len());
    }
}
