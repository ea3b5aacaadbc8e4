//! Distributed uniformity testers and learners — the upper-bound
//! protocols that the paper's lower bounds (Theorems 1.1–1.4) are
//! measured against.

mod asymmetric;
mod balanced;
mod learning;
mod prepared;
mod quantized_sum;
mod single_sample;
mod t_threshold;

pub use asymmetric::{AsymmetricThresholdTester, PreparedAsymmetricTester};
pub use balanced::BalancedThresholdTester;
pub use learning::FourierLearner;
pub use prepared::PreparedThresholdTester;
pub use quantized_sum::{PreparedQuantizedSumTester, QuantizedSumTester};
pub use single_sample::SingleSampleProtocol;
pub use t_threshold::TThresholdTester;
