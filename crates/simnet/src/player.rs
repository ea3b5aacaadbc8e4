/// Per-player information available when deciding: identity, network
/// size, and the shared-randomness seed (the paper's lower bounds hold
/// even with shared randomness; several protocols use it, e.g. the
/// single-sample hashing protocol of \[ACT18\] shares a random partition).
///
/// Both star networks hand it to their node closure,
/// `(ctx, q, rng) -> bool`, which draws the player's `q` samples from
/// `rng` and returns its accept bit (`true` = accept = the bit `1` of
/// the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlayerContext {
    /// This player's index in `0..num_players`.
    pub player_id: usize,
    /// Total number of players `k`.
    pub num_players: usize,
    /// Shared randomness: the same value is handed to every player (and
    /// to the referee, by convention).
    pub shared_seed: u64,
}
