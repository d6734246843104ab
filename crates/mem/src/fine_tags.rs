//! Fine-grain access-control tags for S-COMA page-cache frames.
//!
//! The S-COMA RAD keeps "two bits per block to detect when the RAD must
//! inhibit memory and intervene" (Section 2.2). A block in a page-cache
//! frame is either absent ([`AccessTag::Invalid`]), readable
//! ([`AccessTag::ReadOnly`]), or writable ([`AccessTag::ReadWrite`]).
//! Loads to `Invalid` and stores to `Invalid`/`ReadOnly` inhibit memory
//! and trigger a protocol action at the home node.
//!
//! The tags are stored exactly as the hardware would: two bits per block,
//! 128 blocks per 4-KB page, i.e. four 64-bit words per frame.

use std::fmt;

use crate::addr::BLOCKS_PER_PAGE;

/// The access-control state of one 32-byte block within a frame.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum AccessTag {
    /// Block not present in the frame; any access must fetch it.
    #[default]
    Invalid = 0,
    /// Block present read-only; stores must upgrade at the home.
    ReadOnly = 1,
    /// Block present with write permission (and possibly dirty).
    ReadWrite = 2,
}

impl AccessTag {
    fn unpack(bits: u64) -> AccessTag {
        match bits & 0b11 {
            0 => AccessTag::Invalid,
            1 => AccessTag::ReadOnly,
            2 => AccessTag::ReadWrite,
            _ => unreachable!("tag encoding 3 is never written"),
        }
    }

    /// `true` when a load can be satisfied locally.
    #[must_use]
    pub fn readable(self) -> bool {
        self != AccessTag::Invalid
    }

    /// `true` when a store can be satisfied locally.
    #[must_use]
    pub fn writable(self) -> bool {
        self == AccessTag::ReadWrite
    }
}

impl fmt::Display for AccessTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AccessTag::Invalid => "inv",
            AccessTag::ReadOnly => "ro",
            AccessTag::ReadWrite => "rw",
        };
        f.write_str(s)
    }
}

const WORDS: usize = (BLOCKS_PER_PAGE as usize * 2).div_ceil(64);

/// The 2-bit-per-block tag array of one page-cache frame.
///
/// # Example
///
/// ```
/// use rnuma_mem::fine_tags::{AccessTag, FineTags};
///
/// let mut tags = FineTags::new();
/// assert_eq!(tags.get(5), AccessTag::Invalid);
/// tags.set(5, AccessTag::ReadWrite);
/// assert!(tags.get(5).writable());
/// assert_eq!(tags.count_valid(), 1);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FineTags {
    words: [u64; WORDS],
}

impl FineTags {
    /// All-invalid tags (a freshly allocated frame).
    #[must_use]
    pub fn new() -> FineTags {
        FineTags::default()
    }

    /// The tag of block `index` within the page.
    ///
    /// # Panics
    ///
    /// Panics if `index >= BLOCKS_PER_PAGE`.
    #[must_use]
    pub fn get(&self, index: u64) -> AccessTag {
        assert!(index < BLOCKS_PER_PAGE, "block index {index} out of page");
        let bit = (index as usize) * 2;
        AccessTag::unpack(self.words[bit / 64] >> (bit % 64))
    }

    /// Sets the tag of block `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= BLOCKS_PER_PAGE`.
    pub fn set(&mut self, index: u64, tag: AccessTag) {
        assert!(index < BLOCKS_PER_PAGE, "block index {index} out of page");
        let bit = (index as usize) * 2;
        let word = &mut self.words[bit / 64];
        *word &= !(0b11 << (bit % 64));
        *word |= (tag as u64) << (bit % 64);
    }

    /// Number of blocks present (read-only or read-write).
    #[must_use]
    pub fn count_valid(&self) -> u32 {
        self.words.iter().map(|&w| valid_bits(w).count_ones()).sum()
    }

    /// Resets every tag to `Invalid`.
    pub fn clear(&mut self) {
        self.words = [0; WORDS];
    }

    /// Iterates `(block_index, tag)` over non-invalid blocks, in
    /// ascending block order. Walks only the set bits, so a frame with
    /// few valid blocks costs a few steps, not one per block.
    pub fn iter_valid(&self) -> impl Iterator<Item = (u64, AccessTag)> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            let mut valid = valid_bits(word);
            std::iter::from_fn(move || {
                if valid == 0 {
                    return None;
                }
                let bit = valid.trailing_zeros();
                valid &= valid - 1;
                let index = (i * 64 + bit as usize) as u64 / 2;
                Some((index, AccessTag::unpack(word >> bit)))
            })
        })
    }
}

/// The low bit of every 2-bit tag cell in a word.
const LOW_BITS: u64 = 0x5555_5555_5555_5555;

/// One bit per non-invalid cell of `word`, at the cell's low bit.
fn valid_bits(word: u64) -> u64 {
    (word | (word >> 1)) & LOW_BITS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hardware_budget_is_two_bits_per_block() {
        // 128 blocks x 2 bits = 256 bits = 4 words of 64.
        assert_eq!(WORDS, 4);
        assert_eq!(std::mem::size_of::<FineTags>(), 32);
    }

    #[test]
    fn fresh_tags_are_all_invalid() {
        let t = FineTags::new();
        assert_eq!(t.count_valid(), 0);
        for i in 0..BLOCKS_PER_PAGE {
            assert_eq!(t.get(i), AccessTag::Invalid);
        }
    }

    #[test]
    fn set_get_round_trip_all_positions() {
        let mut t = FineTags::new();
        for i in 0..BLOCKS_PER_PAGE {
            let tag = match i % 3 {
                0 => AccessTag::Invalid,
                1 => AccessTag::ReadOnly,
                _ => AccessTag::ReadWrite,
            };
            t.set(i, tag);
        }
        for i in 0..BLOCKS_PER_PAGE {
            let want = match i % 3 {
                0 => AccessTag::Invalid,
                1 => AccessTag::ReadOnly,
                _ => AccessTag::ReadWrite,
            };
            assert_eq!(t.get(i), want, "block {i}");
        }
    }

    #[test]
    fn neighbors_do_not_interfere() {
        let mut t = FineTags::new();
        t.set(31, AccessTag::ReadWrite); // word boundary region
        t.set(32, AccessTag::ReadOnly);
        t.set(33, AccessTag::ReadWrite);
        assert_eq!(t.get(31), AccessTag::ReadWrite);
        assert_eq!(t.get(32), AccessTag::ReadOnly);
        assert_eq!(t.get(33), AccessTag::ReadWrite);
        t.set(32, AccessTag::Invalid);
        assert_eq!(t.get(31), AccessTag::ReadWrite);
        assert_eq!(t.get(33), AccessTag::ReadWrite);
    }

    #[test]
    fn counts() {
        let mut t = FineTags::new();
        t.set(0, AccessTag::ReadOnly);
        t.set(1, AccessTag::ReadWrite);
        t.set(2, AccessTag::ReadWrite);
        assert_eq!(t.count_valid(), 3);
        let read_write: Vec<u64> = t
            .iter_valid()
            .filter(|&(_, tag)| tag == AccessTag::ReadWrite)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(read_write, vec![1, 2]);
        t.clear();
        assert_eq!(t.count_valid(), 0);
    }

    #[test]
    fn permission_semantics() {
        assert!(!AccessTag::Invalid.readable());
        assert!(AccessTag::ReadOnly.readable());
        assert!(!AccessTag::ReadOnly.writable());
        assert!(AccessTag::ReadWrite.writable());
    }

    #[test]
    fn iter_valid_lists_only_present_blocks() {
        let mut t = FineTags::new();
        t.set(10, AccessTag::ReadOnly);
        t.set(100, AccessTag::ReadWrite);
        let v: Vec<_> = t.iter_valid().collect();
        assert_eq!(
            v,
            vec![(10, AccessTag::ReadOnly), (100, AccessTag::ReadWrite)]
        );
    }

    #[test]
    #[should_panic(expected = "out of page")]
    fn out_of_range_get_panics() {
        let _ = FineTags::new().get(BLOCKS_PER_PAGE);
    }
}
