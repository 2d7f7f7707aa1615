//! One-byte recency ranks: the replacement order of a set-associative
//! table.
//!
//! Each way of a set holds its rank within the set, a permutation of
//! `0..assoc` with 0 the most recent, in the low seven bits of one
//! byte. The top bit is left to the owner (the caches keep the dirty
//! flag there). Making a way most recent moves every more recent way
//! one rank down, so the order is exactly the order a per-way stamp of
//! a global use counter would give, in a byte instead of eight.

/// The largest associativity a rank byte orders: ranks `0..128` fill
/// its low seven bits.
pub const MAX_ASSOC: usize = 128;

/// The rank bits of a way's byte; the top bit is the owner's.
pub const RANK: u8 = 0x7f;

/// Fresh ranks for `sets` sets of `assoc` ways: way `i` of every set
/// holds rank `i`, with the owner's bit clear.
///
/// # Panics
///
/// Panics if `assoc` is zero or above [`MAX_ASSOC`].
#[must_use]
pub fn fresh(assoc: usize, sets: usize) -> Vec<u8> {
    assert!(
        (1..=MAX_ASSOC).contains(&assoc),
        "associativity {assoc} outside 1..={MAX_ASSOC}"
    );
    (0..assoc as u8).cycle().take(assoc * sets).collect()
}

/// Makes `way` the most recent of the set whose bytes are `set`,
/// keeping every byte's top bit.
pub fn promote(set: &mut [u8], way: usize) {
    let old = set[way] & RANK;
    if old == 0 {
        return;
    }
    for r in set.iter_mut() {
        *r += u8::from(*r & RANK < old);
    }
    set[way] &= !RANK;
}

/// The least recent way of the set whose bytes are `set`.
#[must_use]
pub fn least_recent(set: &[u8]) -> usize {
    let last = set.len() as u8 - 1;
    set.iter()
        .position(|r| r & RANK == last)
        .expect("a set's ranks are a permutation of 0..assoc")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn promote_moves_more_recent_ways_down_one_rank() {
        let mut set = fresh(4, 1);
        assert_eq!(set, [0, 1, 2, 3]);
        assert_eq!(least_recent(&set), 3);
        promote(&mut set, 2);
        assert_eq!(set, [1, 2, 0, 3]);
        set[1] |= 0x80;
        promote(&mut set, 3);
        assert_eq!(set, [2, 0x83, 1, 0]);
        assert_eq!(least_recent(&set), 1);
        promote(&mut set, 3);
        assert_eq!(set, [2, 0x83, 1, 0], "the most recent way stays put");
    }

    #[test]
    fn the_widest_set_keeps_a_permutation() {
        let mut set = fresh(MAX_ASSOC, 1);
        for way in (0..MAX_ASSOC).rev() {
            promote(&mut set, way);
        }
        assert_eq!(least_recent(&set), MAX_ASSOC - 1);
        let mut sorted = set.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, fresh(MAX_ASSOC, 1));
    }
}
