/// Per-player information available when deciding: identity, network
/// size, and the shared-randomness seed (the paper's lower bounds hold
/// even with shared randomness; several protocols use it, e.g. the
/// single-sample hashing protocol of \[ACT18\] shares a random partition).
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

/// A player in the one-bit model: examines its own `q` samples and emits
/// an accept bit (`true` = accept = the bit `1` of the paper).
pub trait Player {
    /// Decides whether to accept based on local samples only.
    fn accepts(&self, ctx: &PlayerContext, samples: &[usize]) -> bool;
}

impl<F: Fn(&PlayerContext, &[usize]) -> bool> Player for F {
    fn accepts(&self, ctx: &PlayerContext, samples: &[usize]) -> bool {
        self(ctx, samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> PlayerContext {
        PlayerContext {
            player_id: 0,
            num_players: 4,
            shared_seed: 7,
        }
    }

    #[test]
    fn closure_is_a_player() {
        let player = |_ctx: &PlayerContext, samples: &[usize]| samples.len() < 3;
        assert!(player.accepts(&ctx(), &[1, 2]));
        assert!(!player.accepts(&ctx(), &[1, 2, 3]));
    }

    #[test]
    fn context_fields_accessible() {
        let c = ctx();
        assert_eq!(c.player_id, 0);
        assert_eq!(c.num_players, 4);
        assert_eq!(c.shared_seed, 7);
    }
}
