//! Address arithmetic for the simulated 48-bit physical address space.
//!
//! All caches in the hierarchy operate on 64-byte blocks, matching the
//! configuration evaluated in the paper (Table I assumes 48-bit physical
//! addresses and 64 B cache blocks).

/// log2 of the cache block size in bytes.
pub const BLOCK_BITS: u32 = 6;

/// Cache block size in bytes.
pub const BLOCK_BYTES: u64 = 1 << BLOCK_BITS;

/// log2 of the (4 KiB) page size.
pub const PAGE_BITS: u32 = 12;

/// Page size in bytes.
pub const PAGE_BYTES: u64 = 1 << PAGE_BITS;

/// Number of physical address bits modelled (Table IV assumes 48).
pub const PHYS_ADDR_BITS: u32 = 48;

/// Mask selecting the byte offset within a block.
pub const BLOCK_OFFSET_MASK: u64 = BLOCK_BYTES - 1;

/// Convert a byte address to its block (line) address.
#[inline(always)]
pub fn block_of(addr: u64) -> u64 {
    addr >> BLOCK_BITS
}

/// Convert a block address back to the byte address of its first byte.
#[inline(always)]
pub fn block_base(block: u64) -> u64 {
    block << BLOCK_BITS
}

/// Convert a byte address to its 4 KiB page number.
#[inline(always)]
pub fn page_of(addr: u64) -> u64 {
    addr >> PAGE_BITS
}

/// Word index (8-byte granularity) of `addr` within its block.
///
/// Used by the Line Distillation baseline, which tracks per-word usage.
#[inline(always)]
pub fn word_in_block(addr: u64) -> usize {
    ((addr & BLOCK_OFFSET_MASK) >> 3) as usize
}

/// Number of 8-byte words per block.
pub const WORDS_PER_BLOCK: usize = (BLOCK_BYTES / 8) as usize;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_round_trip() {
        for addr in [0u64, 1, 63, 64, 65, 4095, 4096, (1 << 47) + 123] {
            let b = block_of(addr);
            assert!(block_base(b) <= addr);
            assert!(addr < block_base(b) + BLOCK_BYTES);
        }
    }

    #[test]
    fn same_block_iff_same_line() {
        assert_eq!(block_of(0), block_of(63));
        assert_ne!(block_of(63), block_of(64));
    }

    #[test]
    fn page_contains_64_blocks() {
        assert_eq!(PAGE_BYTES / BLOCK_BYTES, 64);
        assert_eq!(page_of(4095), 0);
        assert_eq!(page_of(4096), 1);
    }

    #[test]
    fn word_index_is_8_byte_granular() {
        assert_eq!(word_in_block(0), 0);
        assert_eq!(word_in_block(7), 0);
        assert_eq!(word_in_block(8), 1);
        assert_eq!(word_in_block(63), 7);
        assert_eq!(WORDS_PER_BLOCK, 8);
    }
}
