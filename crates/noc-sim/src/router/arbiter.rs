//! Arbitration primitives shared by VC and switch allocation.
//!
//! Requesters are the set bits of a mask (bit `i` = position `i` in the
//! arbiter's input space: an input VC, an input port), so both policies
//! run in registers with no candidate list to build.

/// Round-robin winner: the first set bit of `mask` at or after the
/// rotating pointer `ptr`, wrapping around.
#[inline]
pub fn round_robin(mask: u64, ptr: u32) -> usize {
    debug_assert!(mask != 0 && ptr < 64);
    let at_or_after = mask & (u64::MAX << ptr);
    (if at_or_after != 0 { at_or_after } else { mask }).trailing_zeros() as usize
}

/// Age-based winner: the set bit of `mask` whose packet is oldest
/// (smallest `age`, the birth cycle); ties break by lowest index for
/// determinism.
#[inline]
pub fn oldest(mut mask: u64, age: impl Fn(usize) -> u64) -> usize {
    let mut best: Option<(u64, usize)> = None;
    while mask != 0 {
        let i = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        let a = age(i);
        // ascending scan + strict `<` keeps the lowest index on ties
        if best.is_none_or(|(b, _)| a < b) {
            best = Some((a, i));
        }
    }
    best.expect("arbitration over an empty request mask").1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_picks_at_or_after_pointer() {
        let mask = 0b10_0101; // requesters 0, 2, 5
        assert_eq!(round_robin(mask, 0), 0);
        assert_eq!(round_robin(mask, 1), 2);
        assert_eq!(round_robin(mask, 2), 2);
        assert_eq!(round_robin(mask, 3), 5);
        assert_eq!(round_robin(mask, 6), 0, "wraps");
        assert_eq!(round_robin(1 << 63, 63), 63);
    }

    #[test]
    fn age_based_picks_oldest() {
        let ages = [10, 0, 5, 0, 0, 7];
        assert_eq!(oldest(0b10_0101, |i| ages[i]), 2);
    }

    #[test]
    fn age_ties_break_by_index() {
        assert_eq!(oldest(0b1_0100, |_| 5), 2);
        assert_eq!(oldest(0b1_0100, |_| u64::MAX), 2, "even at the maximum age");
    }

    #[test]
    fn round_robin_alternates_when_pointer_follows_winner() {
        // with the standard "pointer = winner + 1" update, two persistent
        // requesters alternate grants
        let mask = 0b1010;
        let mut ptr = 0;
        let mut wins = [0usize; 4];
        for _ in 0..8 {
            let w = round_robin(mask, ptr);
            wins[w] += 1;
            ptr = (w as u32 + 1) % 8;
        }
        assert_eq!(wins, [0, 4, 0, 4]);
    }
}
