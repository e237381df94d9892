//! Fixed-width packed arrays: how a [`Csr`](crate::Csr) stores its offset
//! and neighbour arrays (DESIGN §11, "Packed storage").
//!
//! A `PackedArray` of width `w` holds value `i` in bits `[i·w, (i+1)·w)`
//! of a run of `u64` words, least significant bit first, followed by one
//! zero pad word. Every read is then the same two word loads, one 128-bit
//! shift and a mask, with no branch on whether the value straddles a word
//! boundary, and random access stays O(1).

/// The width that holds every value up to `max`: 0 for 0, 64 for values
/// of 2^63 and above.
pub fn bits(max: u64) -> u32 {
    u64::BITS - max.leading_zeros()
}

/// Words an array of `len` values of `width` bits occupies: its data words
/// (at least one, so that an array of zero-width values has one to read)
/// and one zero pad word.
pub fn words(len: usize, width: u32) -> usize {
    (len * width as usize).div_ceil(64).max(1) + 1
}

/// The largest value `width` bits hold.
fn max_value(width: u32) -> u64 {
    u64::MAX.checked_shr(64 - width).unwrap_or(0)
}

/// The value at bit `bit` of `words`, `mask` wide: the word holding its
/// first bit and the next one, shifted as one 128-bit number. The pad word
/// is the next word of the array's last data word.
#[inline]
fn read(words: &[u64], bit: usize, mask: u64) -> u64 {
    let i = bit / 64;
    let pair = &words[i..i + 2];
    let both = u128::from(pair[1]) << 64 | u128::from(pair[0]);
    // The shift leaves the value in the low 64 bits; the mask drops the rest.
    #[expect(clippy::cast_possible_truncation, reason = "keeps the low word, as intended")]
    let low = (both >> (bit % 64)) as u64;
    low & mask
}

/// Gathers values into whole words, least significant bit first.
#[derive(Debug)]
struct Acc {
    /// The word being filled.
    word: u64,
    /// Bits of `word` already filled, below 64.
    fill: u32,
    width: u32,
    mask: u64,
}

impl Acc {
    fn new(width: u32) -> Self {
        assert!(width <= 64, "a packed width is at most 64 bits, not {width}");
        Acc { word: 0, fill: 0, width, mask: max_value(width) }
    }

    /// Add every value, passing each word they complete to `store`. Panics
    /// if a value does not fit the width.
    #[inline]
    fn add_all(&mut self, values: impl Iterator<Item = u64>, mut store: impl FnMut(u64)) {
        // Locals, so the loop keeps them in registers; bits of any value past
        // the width collect in `wide`, checked once at the end.
        let (mut word, mut fill, width) = (self.word, self.fill, self.width);
        let mut wide = 0;
        for value in values {
            wide |= value & !self.mask;
            word |= value << fill;
            fill += width;
            if fill >= 64 {
                store(word);
                fill -= 64;
                // The bits of `value` the full word had no room for (none
                // when it ended exactly at the word's end).
                word = value.checked_shr(width - fill).unwrap_or(0);
            }
        }
        assert!(wide == 0, "a value does not fit {width} bits");
        (self.word, self.fill) = (word, fill);
    }

    /// The partly filled word, if any.
    fn rest(&self) -> Option<u64> {
        (self.fill > 0).then_some(self.word)
    }
}

/// Unsigned values of one fixed width, `0..=64` bits.
///
/// Bits past the last value are zero, so two arrays are equal exactly when
/// they hold the same values at the same width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PackedArray {
    words: Vec<u64>,
    len: usize,
    width: u32,
    /// `max_value(width)`, kept so a read need not derive it.
    mask: u64,
}

impl PackedArray {
    /// `len` zeros of `width` bits.
    pub(crate) fn zeroed(width: u32, len: usize) -> Self {
        let mask = Acc::new(width).mask;
        PackedArray { words: vec![0; words(len, width)], len, width, mask }
    }

    /// `values` packed at `width` bits each.
    pub(crate) fn from_values(width: u32, values: impl ExactSizeIterator<Item = u64>) -> Self {
        let mut p = Packer::new(width);
        p.reserve(values.len());
        p.extend(values);
        p.finish()
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn width(&self) -> u32 {
        self.width
    }

    /// The largest value the width holds.
    pub(crate) fn max_value(&self) -> u64 {
        self.mask
    }

    /// Bytes of packed words, pad word included.
    pub(crate) fn footprint_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Value `i`. Panics if `i` is out of bounds.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> u64 {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        read(&self.words, i * self.width as usize, self.mask)
    }

    /// Every value, in order.
    pub(crate) fn iter(&self) -> Iter<'_> {
        self.range(0..self.len)
    }

    /// Values `slots.start..slots.end`, decoded sequentially. Panics if the
    /// range is out of bounds.
    #[inline]
    pub(crate) fn range(&self, slots: std::ops::Range<usize>) -> Iter<'_> {
        assert!(
            slots.start <= slots.end && slots.end <= self.len,
            "range {slots:?} out of bounds (len {})",
            self.len
        );
        let w = self.width as usize;
        Iter {
            words: &self.words,
            front: slots.start * w,
            back: slots.end * w,
            left: slots.end - slots.start,
            width: self.width,
            mask: self.mask,
        }
    }

    /// One writer per slot range `starts[k]..starts[k + 1]`, the last
    /// ending at `len`, so that threads can fill the ranges at once. Each
    /// start must be a multiple of 64 (and `starts[0]` zero): a range then
    /// begins on a word boundary, and the writers own disjoint words.
    pub(crate) fn writers(&mut self, starts: &[usize]) -> Vec<Writer<'_>> {
        assert!(starts.first() == Some(&0), "the first range starts at slot 0");
        let width = self.width;
        let mut rest = &mut self.words[..];
        let mut out = Vec::with_capacity(starts.len());
        for (k, &start) in starts.iter().enumerate() {
            let end = starts.get(k + 1).copied().unwrap_or(self.len);
            assert!(start % 64 == 0 && start <= end && end <= self.len, "bad range {start}..{end}");
            let take = if k + 1 == starts.len() {
                rest.len()
            } else {
                (end - start) * width as usize / 64
            };
            let words;
            (words, rest) = std::mem::take(&mut rest).split_at_mut(take);
            out.push(Writer { words, next: 0, acc: Acc::new(width), start, left: end - start });
        }
        out
    }
}

/// Builds a [`PackedArray`] value by value.
#[derive(Debug)]
pub(crate) struct Packer {
    /// The filled words.
    words: Vec<u64>,
    len: usize,
    acc: Acc,
}

impl Packer {
    /// An empty array of `width`-bit values.
    pub(crate) fn new(width: u32) -> Self {
        Packer { words: Vec::new(), len: 0, acc: Acc::new(width) }
    }

    /// Make room for `additional` more values without reallocating.
    pub(crate) fn reserve(&mut self, additional: usize) {
        let need = words(self.len + additional, self.acc.width);
        self.words.reserve_exact(need - self.words.len());
    }

    pub(crate) fn finish(mut self) -> PackedArray {
        self.words.extend(self.acc.rest());
        self.words.resize(words(self.len, self.acc.width), 0);
        let Acc { width, mask, .. } = self.acc;
        PackedArray { words: self.words, len: self.len, width, mask }
    }
}

/// Appends values. Panics if one does not fit the width.
impl Extend<u64> for Packer {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, values: I) {
        let mut count = 0;
        let words = &mut self.words;
        self.acc.add_all(values.into_iter().inspect(|_| count += 1), |word| words.push(word));
        self.len += count;
    }
}

/// Fills one slot range of a zeroed [`PackedArray`] in order.
pub(crate) struct Writer<'a> {
    words: &'a mut [u64],
    /// The next word to store.
    next: usize,
    acc: Acc,
    start: usize,
    left: usize,
}

impl Writer<'_> {
    /// The first slot this writer fills.
    pub(crate) fn start(&self) -> usize {
        self.start
    }

    /// Slots still to fill.
    pub(crate) fn left(&self) -> usize {
        self.left
    }

    /// Fill the next `ids.len()` slots. Panics past the range's end or if
    /// an id does not fit the width.
    pub(crate) fn extend_from(&mut self, ids: &[u32]) {
        assert!(ids.len() <= self.left, "extend past the writer's range");
        self.left -= ids.len();
        let (words, next) = (&mut *self.words, &mut self.next);
        self.acc.add_all(ids.iter().map(|&v| u64::from(v)), |word| {
            words[*next] = word;
            *next += 1;
        });
    }

    /// Store the last, partly filled word. Panics unless every slot of the
    /// range was filled.
    pub(crate) fn finish(self) {
        assert_eq!(self.left, 0, "a writer's range was left unfilled");
        if let Some(word) = self.acc.rest() {
            self.words[self.next] = word;
        }
    }
}

/// Sequential decoder over a range of a [`PackedArray`], from either end.
#[derive(Debug, Clone)]
pub(crate) struct Iter<'a> {
    words: &'a [u64],
    /// Bit offset of the front value.
    front: usize,
    /// Bit offset just past the back value.
    back: usize,
    left: usize,
    width: u32,
    mask: u64,
}

impl Iterator for Iter<'_> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        if self.left == 0 {
            return None;
        }
        let v = read(self.words, self.front, self.mask);
        self.front += self.width as usize;
        self.left -= 1;
        Some(v)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl DoubleEndedIterator for Iter<'_> {
    #[inline]
    fn next_back(&mut self) -> Option<u64> {
        if self.left == 0 {
            return None;
        }
        self.back -= self.width as usize;
        self.left -= 1;
        Some(read(self.words, self.back, self.mask))
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Values of `width` bits: zero, the maximum, and a pattern that puts
    /// values across every word boundary the length reaches.
    fn values(width: u32, len: usize) -> Vec<u64> {
        let max = max_value(width);
        (0..len as u64)
            .map(|i| match i % 4 {
                0 => 0,
                1 => max,
                2 => max ^ (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & max),
                _ => i & max,
            })
            .collect()
    }

    #[test]
    fn every_width_round_trips_at_word_boundary_lengths() {
        for width in 0..=64 {
            for len in [0, 1, 63, 64, 65] {
                let want = values(width, len);
                let a = PackedArray::from_values(width, want.iter().copied());
                assert_eq!(a.len(), len);
                assert_eq!(a.footprint_bytes(), 8 * words(len, width), "width {width}, len {len}");
                let got: Vec<u64> = (0..len).map(|i| a.get(i)).collect();
                assert_eq!(got, want, "get, width {width}, len {len}");
                assert_eq!(a.iter().collect::<Vec<_>>(), want, "iter, width {width}");
                let mut back: Vec<u64> = a.iter().rev().collect();
                back.reverse();
                assert_eq!(back, want, "reverse iter, width {width}");
                if len > 2 {
                    let mid: Vec<u64> = a.range(1..len - 1).collect();
                    assert_eq!(mid, want[1..len - 1], "range, width {width}");
                }
            }
        }
    }

    #[test]
    fn parallel_writers_pack_the_same_words_as_a_packer() {
        for width in [0, 1, 7, 20, 31, 32] {
            let want = values(width, 300);
            let pushed = PackedArray::from_values(width, want.iter().copied());
            for starts in [vec![0], vec![0, 64], vec![0, 128, 256], vec![0, 64, 64, 256]] {
                let mut a = PackedArray::zeroed(width, want.len());
                for mut w in a.writers(&starts) {
                    let start = w.start();
                    let ids: Vec<u32> = want[start..start + w.left()]
                        .iter()
                        .map(|&v| v.try_into().unwrap())
                        .collect();
                    w.extend_from(&ids);
                    w.finish();
                }
                assert_eq!(a, pushed, "width {width}, starts {starts:?}");
            }
        }
    }

    #[test]
    fn widths_match_the_largest_value() {
        assert_eq!(bits(0), 0);
        assert_eq!(bits(1), 1);
        assert_eq!(bits((1 << 20) - 1), 20);
        assert_eq!(bits(1 << 20), 21);
        assert_eq!(bits(u64::MAX), 64);
        assert_eq!(words(0, 64), 2);
        assert_eq!(words(100, 0), 2);
        assert_eq!(words(1 << 20, 20), (1 << 20) * 20 / 64 + 1);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn push_rejects_a_value_wider_than_the_array() {
        Packer::new(3).extend([8]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_past_the_end_panics() {
        PackedArray::from_values(8, [1, 2].into_iter()).get(2);
    }
}
