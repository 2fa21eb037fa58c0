//! Word-packed bitsets — the frontier/marker machinery of the
//! maintainability model checker, extracted so every layer that tracks
//! large boolean populations (BFS frontiers, cluster alive-sets,
//! visited markers) shares one implementation.
//!
//! A [`BitWords`] is a fixed-capacity set over `0..len` backed by
//! `u64` words. The dense-iteration idiom the model checker relies on
//! (`word &= word - 1` to strip set bits in ascending order) is wrapped
//! by [`BitWords::for_each_one`] / [`BitWords::iter_ones`], and the raw
//! words stay reachable through [`BitWords::words`] /
//! [`BitWords::words_mut`] for callers that batch at word granularity.

use serde::{Deserialize, Serialize};

/// Butterfly masks for the six in-word XOR strides: `XOR_MASKS[b]` marks
/// the bit positions `p` with `p & (1 << b) == 0`.
const XOR_MASKS: [u64; 6] = [
    0x5555_5555_5555_5555,
    0x3333_3333_3333_3333,
    0x0f0f_0f0f_0f0f_0f0f,
    0x00ff_00ff_00ff_00ff,
    0x0000_ffff_0000_ffff,
    0x0000_0000_ffff_ffff,
];

/// Permute the 64 bits of `w` by the involution `p ↦ p ^ m` (`m < 64`):
/// bit `p` of the result is bit `p ^ m` of the input. This is the
/// word-level "batch flip" of the implicit model checkers — one call
/// moves 64 states across a single-bit (or multi-bit) XOR edge at once.
pub fn word_xor_permute(mut w: u64, m: usize) -> u64 {
    debug_assert!(m < 64, "in-word permute stride {m} out of range");
    for (b, &mask) in XOR_MASKS.iter().enumerate() {
        if m >> b & 1 == 1 {
            let d = 1 << b;
            w = ((w >> d) & mask) | ((w & mask) << d);
        }
    }
    w
}

/// Membership word of `{p ^ m : p ∈ src}` at destination word index `w`:
/// bit `o` of the result says whether state `64·w + o ^ m` is in `src`.
/// The word count must be closed under XOR with `m >> 6` (always true
/// when `src` covers a power-of-two state space containing `m`).
pub fn xor_shifted_word(src: &[u64], w: usize, m: usize) -> u64 {
    word_xor_permute(src[w ^ (m >> 6)], m & 63)
}

/// One-flip dilation word: bit `o` of the result says whether some
/// single-bit neighbor `64·w + o ^ (1 << b)`, `b < n_bits`, is in `src`.
/// Equal to OR-ing [`xor_shifted_word`] over the `n_bits` one-bit masks,
/// but the six in-word strides are constant butterflies applied to
/// `src[w]` once, and each higher bit is a plain word re-index. `src`
/// must cover `2^n_bits` states with `n_bits >= 6`.
pub fn one_flip_dilation_word(src: &[u64], w: usize, n_bits: usize) -> u64 {
    debug_assert!(n_bits >= 6, "one-flip dilation needs whole words");
    let x = src[w];
    let mut acc = 0u64;
    for (b, &mask) in XOR_MASKS.iter().enumerate() {
        let d = 1 << b;
        acc |= ((x >> d) & mask) | ((x & mask) << d);
    }
    for j in 0..n_bits - 6 {
        acc |= src[w ^ (1 << j)];
    }
    acc
}

/// In-place union with the XOR-translate of `src`: for every destination
/// word, OR in [`xor_shifted_word`]. `dst` and `src` must have the same
/// power-of-two capacity covering `m`.
pub fn or_xor_shifted(dst: &mut [u64], src: &[u64], m: usize) {
    debug_assert_eq!(dst.len(), src.len(), "capacity mismatch");
    for (w, slot) in dst.iter_mut().enumerate() {
        *slot |= xor_shifted_word(src, w, m);
    }
}

/// In-place intersection with the XOR-translate of `src` — the erosion
/// step of the compressed adversarial fixed point. Same capacity
/// contract as [`or_xor_shifted`].
pub fn and_xor_shifted(dst: &mut [u64], src: &[u64], m: usize) {
    debug_assert_eq!(dst.len(), src.len(), "capacity mismatch");
    for (w, slot) in dst.iter_mut().enumerate() {
        *slot &= xor_shifted_word(src, w, m);
    }
}

/// Count of set bits across a raw word slice.
pub fn count_words(words: &[u64]) -> u64 {
    words.iter().map(|w| u64::from(w.count_ones())).sum()
}

/// A fixed-capacity set of `usize` indices packed 64 per word.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitWords {
    len: usize,
    words: Vec<u64>,
}

impl BitWords {
    /// An empty set over `0..len`.
    pub fn new(len: usize) -> Self {
        BitWords {
            len,
            words: vec![0u64; len.div_ceil(64)],
        }
    }

    /// A full set over `0..len` (every index present).
    pub fn new_filled(len: usize) -> Self {
        let mut b = BitWords {
            len,
            words: vec![u64::MAX; len.div_ceil(64)],
        };
        b.trim_tail();
        b
    }

    /// Zero any bits beyond `len` in the final partial word.
    fn trim_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// The capacity (number of addressable indices), *not* the count of
    /// set bits — see [`BitWords::count`].
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the capacity is zero.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len` (in debug builds; release indexes the word
    /// vector, which still panics for `i / 64` out of range).
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Remove `i`.
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Whether `i` is present.
    pub fn get(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no bits are set.
    pub fn none_set(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Remove every index (capacity unchanged).
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Insert every index in `0..len`.
    pub fn set_all(&mut self) {
        self.words.fill(u64::MAX);
        self.trim_tail();
    }

    /// The backing words (little-endian bit order within each word).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable access to the backing words. Callers must not set bits at
    /// or above `len` — [`BitWords::count`] and iteration would see them.
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Visit every set index in ascending order (the dense word-stripping
    /// loop of the model checker).
    pub fn for_each_one(&self, mut f: impl FnMut(usize)) {
        for (w, &word) in self.words.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                f(w * 64 + word.trailing_zeros() as usize);
                word &= word - 1;
            }
        }
    }

    /// Iterator over the set indices in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            std::iter::successors((word != 0).then_some(word), |&m| {
                let m = m & (m - 1);
                (m != 0).then_some(m)
            })
            .map(move |m| w * 64 + m.trailing_zeros() as usize)
        })
    }

    /// In-place union with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn union_with(&mut self, other: &BitWords) {
        assert_eq!(self.len, other.len, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place difference: remove every bit set in `other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn difference_with(&mut self, other: &BitWords) {
        assert_eq!(self.len, other.len, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn set_get_clear_roundtrip() {
        let mut b = BitWords::new(130);
        assert_eq!(b.len(), 130);
        assert_eq!(b.count(), 0);
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(128));
        assert_eq!(b.count(), 4);
        b.clear(63);
        assert!(!b.get(63));
        assert_eq!(b.count(), 3);
    }

    #[test]
    fn filled_respects_partial_tail_word() {
        let b = BitWords::new_filled(70);
        assert_eq!(b.count(), 70);
        let mut c = BitWords::new(70);
        c.set_all();
        assert_eq!(b, c);
        assert_eq!(BitWords::new_filled(64).count(), 64);
        assert_eq!(BitWords::new_filled(0).count(), 0);
    }

    #[test]
    fn iteration_is_ascending_and_complete() {
        let mut b = BitWords::new(200);
        let targets = [0usize, 5, 63, 64, 65, 127, 128, 199];
        for &t in &targets {
            b.set(t);
        }
        let mut visited = Vec::new();
        b.for_each_one(|i| visited.push(i));
        assert_eq!(visited, targets);
        let iterated: Vec<usize> = b.iter_ones().collect();
        assert_eq!(iterated, targets);
    }

    #[test]
    fn set_ops() {
        let mut a = BitWords::new(100);
        let mut b = BitWords::new(100);
        a.set(1);
        a.set(70);
        b.set(70);
        b.set(99);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter_ones().collect::<Vec<_>>(), vec![1, 70, 99]);
        a.difference_with(&b);
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn clear_all_and_none_set() {
        let mut b = BitWords::new_filled(65);
        assert!(!b.none_set());
        b.clear_all();
        assert!(b.none_set());
        assert_eq!(b.count(), 0);
    }

    #[test]
    fn xor_permute_matches_per_bit_reference() {
        let samples = [
            0u64,
            u64::MAX,
            0x0123_4567_89ab_cdef,
            0xdead_beef_f00d_cafe,
            1,
            1 << 63,
        ];
        for &w in &samples {
            for m in 0..64usize {
                let fast = word_xor_permute(w, m);
                for p in 0..64usize {
                    let want = w >> (p ^ m) & 1;
                    assert_eq!(fast >> p & 1, want, "w={w:#x} m={m} p={p}");
                }
            }
        }
    }

    #[test]
    fn xor_shift_ops_match_explicit_translation() {
        // 512-state space (8 words); arbitrary mask mixing word and
        // in-word components.
        let n = 512usize;
        let mut src = BitWords::new(n);
        for s in [0usize, 1, 63, 64, 100, 255, 300, 511] {
            src.set(s);
        }
        for m in [1usize, 5, 64, 65, 130, 511] {
            let mut translated = BitWords::new(n);
            for s in 0..n {
                if src.get(s ^ m) {
                    translated.set(s);
                }
            }
            let mut ored = vec![0u64; n / 64];
            or_xor_shifted(&mut ored, src.words(), m);
            assert_eq!(&ored, translated.words(), "or m={m}");
            let mut anded = vec![u64::MAX; n / 64];
            and_xor_shifted(&mut anded, src.words(), m);
            assert_eq!(&anded, translated.words(), "and m={m}");
            assert_eq!(count_words(&ored), translated.count() as u64);
        }
    }

    #[test]
    fn one_flip_dilation_matches_per_bit_gathers() {
        let mut rng = resilience_core::seeded_rng(61);
        for n_bits in 6..=10usize {
            let src: Vec<u64> = (0..1usize << (n_bits - 6))
                .map(|_| rand::Rng::gen::<u64>(&mut rng) & rand::Rng::gen::<u64>(&mut rng))
                .collect();
            for w in 0..src.len() {
                let want = (0..n_bits).fold(0u64, |acc, b| acc | xor_shifted_word(&src, w, 1 << b));
                assert_eq!(
                    one_flip_dilation_word(&src, w, n_bits),
                    want,
                    "n={n_bits} w={w}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn prop_matches_reference_set(len in 1usize..300, ops in proptest::collection::vec((0usize..300, 0usize..2), 0..200)) {
            let mut bits = BitWords::new(len);
            let mut reference = std::collections::BTreeSet::new();
            for (i, insert) in ops {
                let i = i % len;
                if insert == 1 {
                    bits.set(i);
                    reference.insert(i);
                } else {
                    bits.clear(i);
                    reference.remove(&i);
                }
            }
            prop_assert_eq!(bits.count(), reference.len());
            let via_iter: Vec<usize> = bits.iter_ones().collect();
            let expected: Vec<usize> = reference.iter().copied().collect();
            prop_assert_eq!(via_iter, expected);
            for i in 0..len {
                prop_assert_eq!(bits.get(i), reference.contains(&i));
            }
        }
    }
}
