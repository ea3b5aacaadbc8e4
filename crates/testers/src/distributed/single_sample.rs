use dut_probability::empirical::collision_count_of;
use dut_probability::Sampler;
use dut_simnet::{Network, RunOutcome, Verdict};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The Acharya–Canonne–Tyagi single-sample protocol \[1\]: `k` nodes each
/// hold **one** sample and send `ℓ` bits to the referee.
///
/// Shared randomness fixes a balanced partition of the domain into
/// `m = 2^ℓ` equal buckets; each node sends the bucket index of its
/// sample, and the referee runs a collision test on the `k` bucket
/// indices. Under uniform input the induced bucket distribution is
/// exactly uniform on `m`; under an ε-far input a random balanced
/// partition retains squared-ℓ₂ deviation ≈ `ε²/n`, so the bucket
/// collision probability rises from `1/m` to ≈ `1/m + ε²/n`.
/// Distinguishing these needs `k = Θ(n/(2^{ℓ/2}·ε²))` nodes — the
/// trade-off of \[1\], which Theorem 6.4 matches from below.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SingleSampleProtocol {
    n: usize,
    message_bits: u8,
    epsilon: f64,
}

impl SingleSampleProtocol {
    /// Creates the protocol for domain size `n`, message length
    /// `message_bits` (`ℓ`), and proximity `epsilon`.
    ///
    /// # Panics
    ///
    /// Panics unless `2^ℓ` divides `n`, `1 ≤ ℓ ≤ 16` (a bucket index
    /// is stored as a `u16`), and `epsilon ∈ (0, 1]`.
    #[must_use]
    pub fn new(n: usize, message_bits: u8, epsilon: f64) -> Self {
        assert!(
            (1..=16).contains(&message_bits),
            "message length must be 1..=16 bits"
        );
        let m = 1usize << message_bits;
        assert!(
            n >= m && n.is_multiple_of(m),
            "bucket count {m} must divide the domain size {n}"
        );
        assert!(
            epsilon > 0.0 && epsilon <= 1.0,
            "epsilon must be in (0, 1], got {epsilon}"
        );
        Self {
            n,
            message_bits,
            epsilon,
        }
    }

    /// Number of buckets `m = 2^ℓ`.
    #[must_use]
    pub fn bucket_count(&self) -> usize {
        1usize << self.message_bits
    }

    /// The predicted sufficient node count `c·n/(2^{ℓ/2}·ε²)` from \[1\].
    #[must_use]
    pub fn predicted_node_count(&self) -> usize {
        let m = self.bucket_count() as f64;
        let k = 6.0 * self.n as f64 / (m.sqrt() * self.epsilon * self.epsilon);
        dut_stats::convert::ceil_to_usize(k).max(2)
    }

    /// The referee threshold on bucket collisions among `k` messages:
    /// midpoint between `C(k,2)/m` (uniform) and `C(k,2)·(1/m + ε²/n)`
    /// (minimal far shift under a random balanced partition).
    #[must_use]
    pub fn referee_threshold(&self, k: usize) -> f64 {
        let pairs = (k * k.saturating_sub(1)) as f64 / 2.0;
        pairs
            * (1.0 / self.bucket_count() as f64
                + self.epsilon * self.epsilon / (2.0 * self.n as f64))
    }

    /// Runs the protocol with `k` nodes: draws the shared seed and
    /// builds its partition, then runs the nodes on
    /// [`Network::run_nodes`]. Each node draws one sample and sends its
    /// `ℓ`-bit bucket index, and the referee accepts iff the bucket
    /// collisions stay at most [`Self::referee_threshold`].
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`.
    pub fn run<S, R>(&self, sampler: &S, k: usize, rng: &mut R) -> RunOutcome<usize>
    where
        S: Sampler,
        R: Rng + ?Sized,
    {
        assert!(k >= 2, "need at least two nodes for a collision test");
        let bucket_of = self.shared_partition(rng.random());
        let threshold = self.referee_threshold(k);
        Network::new(k).run_nodes(
            vec![1; k],
            self.message_bits,
            rng,
            |_, _, rng| usize::from(bucket_of[sampler.sample(rng)]),
            |buckets| Verdict::from_accept_bit(collision_count_of(buckets) as f64 <= threshold),
        )
    }

    /// The balanced partition defined by the shared seed: a vector
    /// mapping each domain element to its bucket, with exactly `n/m`
    /// elements per bucket.
    #[must_use]
    pub fn shared_partition(&self, shared_seed: u64) -> Vec<u16> {
        let m = self.bucket_count();
        let per_bucket = self.n / m;
        let mut assignment: Vec<u16> = (0..m)
            .flat_map(|b| {
                #[expect(
                    clippy::expect_used,
                    reason = "b < bucket_count() <= 2^16, since messages are at most 16 bits"
                )]
                let bucket = u16::try_from(b).expect("bucket count fits a u16");
                std::iter::repeat_n(bucket, per_bucket)
            })
            .collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(shared_seed);
        assignment.shuffle(&mut rng);
        assignment
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dut_probability::families;

    fn acceptance_rate<S: Sampler>(
        proto: &SingleSampleProtocol,
        sampler: &S,
        k: usize,
        trials: usize,
        seed: u64,
    ) -> f64 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let accepts = (0..trials)
            .filter(|_| proto.run(sampler, k, &mut rng).verdict.is_accept())
            .count();
        accepts as f64 / trials as f64
    }

    #[test]
    fn partition_is_balanced_and_deterministic() {
        let proto = SingleSampleProtocol::new(64, 3, 0.5);
        let p1 = proto.shared_partition(123);
        let p2 = proto.shared_partition(123);
        assert_eq!(p1, p2);
        let mut counts = vec![0usize; 8];
        for &b in &p1 {
            counts[b as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == 8), "{counts:?}");
        // Different seeds give different partitions.
        assert_ne!(p1, proto.shared_partition(124));
    }

    #[test]
    fn accepts_uniform() {
        let n = 1 << 8;
        let proto = SingleSampleProtocol::new(n, 4, 0.7);
        let k = proto.predicted_node_count();
        let uniform = families::uniform(n).alias_sampler();
        let rate = acceptance_rate(&proto, &uniform, k, 200, 111);
        assert!(rate > 2.0 / 3.0, "acceptance under uniform = {rate}");
    }

    #[test]
    fn rejects_far() {
        let n = 1 << 8;
        let eps = 0.7;
        let proto = SingleSampleProtocol::new(n, 4, eps);
        let k = proto.predicted_node_count();
        let far = families::two_level(n, eps).unwrap().alias_sampler();
        let rate = acceptance_rate(&proto, &far, k, 200, 113);
        assert!(rate < 1.0 / 3.0, "acceptance under far = {rate}");
    }

    #[test]
    fn more_bits_need_fewer_nodes() {
        let n = 1 << 10;
        let small = SingleSampleProtocol::new(n, 2, 0.5).predicted_node_count();
        let large = SingleSampleProtocol::new(n, 8, 0.5).predicted_node_count();
        // 2^{l/2} scaling: 8 bits vs 2 bits -> factor 2^3 = 8.
        assert!((small as f64 / large as f64 - 8.0).abs() < 1.0);
    }

    #[test]
    fn messages_have_declared_length() {
        let proto = SingleSampleProtocol::new(64, 3, 0.5);
        let uniform = families::uniform(64).alias_sampler();
        let mut rng = rand::rngs::StdRng::seed_from_u64(117);
        let out = proto.run(&uniform, 10, &mut rng);
        assert_eq!(out.transcript.messages.len(), 10);
        assert_eq!(out.transcript.samples_drawn, vec![1; 10]);
        assert!(out.transcript.messages.iter().all(|&bucket| bucket < 8));
    }

    #[test]
    fn point_mass_rejected_decisively() {
        let proto = SingleSampleProtocol::new(64, 3, 0.9);
        let point = families::point_mass(64, 5).unwrap().alias_sampler();
        let rate = acceptance_rate(&proto, &point, 40, 50, 119);
        assert_eq!(rate, 0.0);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn bucket_count_must_divide_domain() {
        let _ = SingleSampleProtocol::new(100, 3, 0.5);
    }

    #[test]
    #[should_panic(expected = "message length must be 1..=16 bits")]
    fn rejects_seventeen_bit_messages() {
        let _ = SingleSampleProtocol::new(1 << 17, 17, 0.5);
    }

    #[test]
    fn sixteen_bit_messages_run() {
        let n = 1 << 16;
        let proto = SingleSampleProtocol::new(n, 16, 0.5);
        let uniform = families::uniform(n).alias_sampler();
        let mut rng = rand::rngs::StdRng::seed_from_u64(121);
        let out = proto.run(&uniform, 4, &mut rng);
        assert_eq!(out.transcript.messages.len(), 4);
        assert!(out.transcript.messages.iter().all(|&bucket| bucket < n));
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn needs_two_nodes() {
        let proto = SingleSampleProtocol::new(16, 2, 0.5);
        let uniform = families::uniform(16).alias_sampler();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let _ = proto.run(&uniform, 1, &mut rng);
    }
}
