//! BLEU score over code tokens (the paper's lexical-similarity metric).
//!
//! Scoring is reference-once / candidate-many: a [`BleuReference`]
//! tokenizes its reference once, interns the tokens as dense `u32` ids
//! and keeps the reference's n-grams as sorted packed keys; each
//! [`BleuReference::score`] maps a candidate through that vocabulary
//! and merge-walks its sorted keys against the reference's. The clipped
//! and total n-gram counts are the same integers a hash-map count
//! yields, and the float operations run in the same order, so every
//! score is bit-identical to the textbook definition (kept below as the
//! test oracle).
//!
//! One sort serves all four orders: the key of position `i` packs the
//! ids of tokens `i..i + 4` (0 past the end) into a `u128`, high slot
//! first, so the n-gram at `i` is the key's top `n` slots. Sorting the
//! keys sorts every n-prefix too, and a prefix whose last slot is 0
//! runs past the end: it is not an n-gram, and the walk skips it.

use crate::tokenize::CodeTokens;
use std::cmp::Ordering;
use sv_ast::SymbolMap;

/// Highest n-gram order (BLEU-4).
const MAX_N: usize = 4;

/// Computes smoothed BLEU-4 between a candidate and a single reference.
///
/// Uses +1 smoothing on n-gram precisions (Lin & Och) and the standard
/// brevity penalty, over the lexical code tokens of both strings.
/// Scoring many candidates against one reference should hold a
/// [`BleuReference`] instead; the result is the same to the bit.
///
/// # Examples
///
/// ```
/// use fveval_core::bleu;
/// let reference = "assert property (@(posedge clk) a |-> b);";
/// assert!((bleu(reference, reference) - 1.0).abs() < 1e-9);
/// assert!(bleu(reference, "assert property (@(posedge clk) !a);") < 0.8);
/// ```
pub fn bleu(reference: &str, candidate: &str) -> f64 {
    BleuReference::new(reference).score(candidate)
}

/// A reference prepared for BLEU scoring: tokenized and n-grammed once,
/// then scored against any number of candidates.
///
/// # Examples
///
/// ```
/// use fveval_core::{bleu, BleuReference};
/// let reference = "assert property (@(posedge clk) a |-> ##1 b);";
/// let prepared = BleuReference::new(reference);
/// for candidate in ["assert property (@(posedge clk) a |=> b);", "", reference] {
///     assert_eq!(prepared.score(candidate).to_bits(), bleu(reference, candidate).to_bits());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct BleuReference<'r> {
    /// Distinct reference tokens and their ids, 1-based in order of
    /// first appearance (0 marks "past the end" in a key).
    vocab: SymbolMap<&'r str, u32>,
    /// Reference token count, for the brevity penalty.
    len: usize,
    /// One packed key per reference position, sorted.
    keys: Vec<u128>,
}

impl<'r> BleuReference<'r> {
    /// Tokenizes and n-grams `reference`.
    pub fn new(reference: &'r str) -> BleuReference<'r> {
        let mut vocab = SymbolMap::default();
        let ids: Vec<u32> = CodeTokens::new(reference)
            .map(|t| {
                let next = vocab.len() as u32 + 1;
                *vocab.entry(t).or_insert(next)
            })
            .collect();
        BleuReference {
            vocab,
            len: ids.len(),
            keys: sorted_keys(&ids),
        }
    }

    /// Smoothed BLEU-4 of `candidate` against this reference; equal to
    /// the bit to [`bleu`] of the same pair.
    pub fn score(&self, candidate: &str) -> f64 {
        // Tokens outside the reference vocabulary share one id that no
        // reference n-gram contains: every n-gram holding one clips to
        // 0, whichever token it was.
        let oov = self.vocab.len() as u32 + 1;
        let ids: Vec<u32> = CodeTokens::new(candidate)
            .map(|t| self.vocab.get(t).copied().unwrap_or(oov))
            .collect();
        if ids.is_empty() || self.len == 0 {
            return 0.0;
        }
        let keys = sorted_keys(&ids);
        let mut log_sum = 0.0;
        for n in 1..=MAX_N {
            let total = (ids.len() + 1).saturating_sub(n);
            let clipped = clipped_matches(&keys, &self.keys, n);
            // +1 smoothing keeps zero-overlap candidates comparable.
            let p = (clipped as f64 + 1.0) / (total as f64 + 1.0);
            log_sum += p.ln() * 0.25;
        }
        let bp = if ids.len() >= self.len {
            1.0
        } else {
            (1.0 - self.len as f64 / ids.len() as f64).exp()
        };
        bp * log_sum.exp()
    }
}

/// The sorted keys of every position of `ids` (ids are nonzero): key
/// `i` holds ids `i..i + 4` in 32-bit slots, high slot first, 0 past
/// the end.
fn sorted_keys(ids: &[u32]) -> Vec<u128> {
    let mut keys: Vec<u128> = (0..ids.len())
        .map(|i| {
            (i..i + MAX_N).fold(0u128, |key, j| {
                key << 32 | u128::from(ids.get(j).copied().unwrap_or(0))
            })
        })
        .collect();
    keys.sort_unstable();
    keys
}

/// The n-grams among sorted keys, in sorted order: each key's top `n`
/// slots, skipping prefixes that end in 0 (they run past the end).
fn ngrams(keys: &[u128], n: usize) -> impl Iterator<Item = u128> + '_ {
    let shift = 32 * (MAX_N - n);
    keys.iter()
        .map(move |key| key >> shift)
        .filter(|gram| *gram as u32 != 0)
}

/// BLEU's clipped n-gram count: the size of the multiset intersection
/// of the two sides' n-grams (each distinct n-gram counts
/// min(candidate count, reference count)).
fn clipped_matches(candidate: &[u128], reference: &[u128], n: usize) -> usize {
    let (mut cs, mut rs) = (ngrams(candidate, n), ngrams(reference, n));
    let (mut c, mut r) = (cs.next(), rs.next());
    let mut matched = 0;
    while let (Some(x), Some(y)) = (c, r) {
        match x.cmp(&y) {
            Ordering::Less => c = cs.next(),
            Ordering::Greater => r = rs.next(),
            Ordering::Equal => {
                matched += 1;
                c = cs.next();
                r = rs.next();
            }
        }
    }
    matched
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The pairwise definition [`BleuReference`] must reproduce to the
    /// bit: its own char-by-char tokenizer, one `String` per token and
    /// hash-map n-gram counts.
    mod oracle {
        use std::collections::HashMap;

        pub fn code_tokens(text: &str) -> Vec<String> {
            let mut out = Vec::new();
            let mut cur = String::new();
            for ch in text.chars() {
                if ch.is_ascii_alphanumeric() || ch == '_' || ch == '$' {
                    cur.push(ch);
                } else {
                    if !cur.is_empty() {
                        out.push(std::mem::take(&mut cur));
                    }
                    if !ch.is_whitespace() {
                        out.push(ch.to_string());
                    }
                }
            }
            if !cur.is_empty() {
                out.push(cur);
            }
            out
        }

        pub fn bleu(reference: &str, candidate: &str) -> f64 {
            let r = code_tokens(reference);
            let c = code_tokens(candidate);
            if c.is_empty() || r.is_empty() {
                return 0.0;
            }
            let mut log_sum = 0.0;
            for n in 1..=4usize {
                let p = modified_precision(&r, &c, n);
                log_sum += p.ln() * 0.25;
            }
            let bp = if c.len() >= r.len() {
                1.0
            } else {
                (1.0 - r.len() as f64 / c.len() as f64).exp()
            };
            bp * log_sum.exp()
        }

        fn ngram_counts(tokens: &[String], n: usize) -> HashMap<&[String], usize> {
            let mut m: HashMap<&[String], usize> = HashMap::new();
            if tokens.len() >= n {
                for w in tokens.windows(n) {
                    *m.entry(w).or_insert(0) += 1;
                }
            }
            m
        }

        fn modified_precision(reference: &[String], candidate: &[String], n: usize) -> f64 {
            let ref_counts = ngram_counts(reference, n);
            let cand_counts = ngram_counts(candidate, n);
            let total: usize = cand_counts.values().sum();
            let clipped: usize = cand_counts
                .iter()
                .map(|(g, &c)| c.min(ref_counts.get(g).copied().unwrap_or(0)))
                .sum();
            (clipped as f64 + 1.0) / (total as f64 + 1.0)
        }
    }

    fn assert_matches_oracle(reference: &str, candidate: &str) {
        let want = oracle::bleu(reference, candidate);
        let got = bleu(reference, candidate);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{reference:?} vs {candidate:?}: {got} != {want}"
        );
    }

    /// Token pieces: identifiers (with `$` and `_`), numbers, ASCII and
    /// multi-byte punctuation, and separators that include Unicode
    /// whitespace and nothing at all (so neighbours can fuse).
    const PIECES: &[&str] = &[
        "a", "b", "clk", "req_1", "$past", "$rose", "_t", "4", "'h", "F", "(", ")", "|", "-", ">",
        "#", "&&", ";", "[", ":", "$", "]", "é", "λ", "≤", "→", "x'", "@",
    ];
    const SEPARATORS: &[&str] = &[" ", " ", " ", "", "\t", "\n", "\u{a0}", "\u{2003}", "  "];

    /// xorshift64: the proptest shim draws one seed, the stream is
    /// derived from it.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// A random stream of `len` pieces drawn from the first `alphabet`
    /// entries of [`PIECES`]; a small alphabet repeats n-grams.
    fn stream(state: &mut u64, len: usize, alphabet: usize) -> Vec<&'static str> {
        (0..len)
            .map(|_| PIECES[next(state) as usize % alphabet])
            .collect()
    }

    fn join(state: &mut u64, pieces: &[&str]) -> String {
        let mut out = String::new();
        for p in pieces {
            out.push_str(p);
            out.push_str(SEPARATORS[next(state) as usize % SEPARATORS.len()]);
        }
        out
    }

    /// An edited copy of `pieces`: dropped, repeated, replaced and
    /// inserted pieces, so the candidate overlaps the reference partly
    /// and may come out longer or shorter than it.
    fn mutate(state: &mut u64, pieces: &[&'static str], alphabet: usize) -> Vec<&'static str> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < pieces.len() {
            match next(state) % 8 {
                0 => {}
                1 => {
                    let end = (i + 1 + next(state) as usize % 4).min(pieces.len());
                    out.extend_from_slice(&pieces[i..end]);
                    out.extend_from_slice(&pieces[i..end]);
                }
                2 => out.push(PIECES[next(state) as usize % alphabet]),
                3 => {
                    out.push(PIECES[next(state) as usize % alphabet]);
                    out.push(pieces[i]);
                }
                _ => out.push(pieces[i]),
            }
            i += 1;
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Bit-identical to the oracle on random streams, and the span
        /// tokenizer splits exactly as the oracle's does.
        #[test]
        fn matches_oracle_bit_for_bit(
            seed in 1u64..=u64::MAX,
            ref_len in 0usize..40,
            alphabet in 1usize..=PIECES.len(),
            edited in 0u32..4,
        ) {
            let mut state = seed;
            let ref_pieces = stream(&mut state, ref_len, alphabet);
            // One case in four scores an unrelated candidate.
            let cand_pieces = if edited == 0 {
                let len = next(&mut state) as usize % 40;
                stream(&mut state, len, alphabet)
            } else {
                mutate(&mut state, &ref_pieces, alphabet)
            };
            let reference = join(&mut state, &ref_pieces);
            let candidate = join(&mut state, &cand_pieces);
            for text in [&reference, &candidate] {
                prop_assert_eq!(crate::code_tokens(text), oracle::code_tokens(text));
            }
            let want = oracle::bleu(&reference, &candidate);
            let prepared = BleuReference::new(&reference);
            prop_assert_eq!(prepared.score(&candidate).to_bits(), want.to_bits());
            prop_assert_eq!(bleu(&reference, &candidate).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn empty_and_whitespace_only_match_oracle() {
        let texts = ["", " ", "\t\n", "\u{a0}\u{3000}", "a", "a b c", "é"];
        for r in texts {
            for c in texts {
                assert_matches_oracle(r, c);
            }
        }
    }

    #[test]
    fn clipping_and_brevity_match_oracle() {
        let r = "$past(a) |-> $past(a) && b";
        for c in [
            "$past(a) $past(a) $past(a) $past(a)",
            "a a a a a a a a a a a a a a a a a a a a a a a a",
            "$past",
            "$past(a) |-> $past(a) && b ## $past(a) |-> $past(a) && b",
            "λ é λ é ≤ ≤",
        ] {
            assert_matches_oracle(r, c);
            assert_matches_oracle(c, r);
        }
    }

    /// Ids past 16 bits: the packed keys hold full 32-bit ids.
    #[test]
    fn more_than_65536_distinct_tokens_match_oracle() {
        let n = 70_000;
        let reference: String = (0..n).map(|i| format!("t{i} ")).collect();
        // Every other 4-gram of the reference, then a reversed tail.
        let mut candidate = String::new();
        for i in (0..n - 4).step_by(8) {
            for j in i..i + 4 {
                candidate.push_str(&format!("t{j} "));
            }
        }
        for i in (n - 10_000..n).rev() {
            candidate.push_str(&format!("t{i} "));
        }
        candidate.push_str("t70000 t70001");
        assert_matches_oracle(&reference, &candidate);
        assert_matches_oracle(&candidate, &reference);
    }

    #[test]
    fn clipped_matches_is_multiset_intersection() {
        // Unigram keys (one id, then "past the end"): clipping keeps
        // min(2, 1) of id 1 and min(1, 2) of id 3; id 2 is unmatched.
        let unigrams = |ids: &[u32]| {
            let mut keys: Vec<u128> = ids.iter().map(|&id| u128::from(id) << 96).collect();
            keys.sort_unstable();
            keys
        };
        let c = unigrams(&[1, 1, 2, 3]);
        let r = unigrams(&[1, 3, 3, 4]);
        assert_eq!(clipped_matches(&c, &r, 1), 2);
        // Bigram prefixes past the end are skipped on both sides: "1"
        // ends both streams, but (1, end) is not a bigram.
        assert_eq!(clipped_matches(&c, &r, 2), 0);
        assert_eq!(
            clipped_matches(&sorted_keys(&[2, 1]), &sorted_keys(&[3, 1]), 2),
            0
        );
        assert_eq!(
            clipped_matches(&sorted_keys(&[3, 1]), &sorted_keys(&[3, 1]), 2),
            1
        );
    }

    #[test]
    fn identical_is_one() {
        let s = "asrt: assert property (@(posedge clk) a |-> ##2 b);";
        assert!((bleu(s, s) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_candidate_is_zero() {
        assert_eq!(bleu("a b c", ""), 0.0);
        assert_eq!(bleu("", "a"), 0.0);
    }

    #[test]
    fn partial_overlap_is_between() {
        let r = "assert property (@(posedge clk) (a && b) |-> c);";
        let c = "assert property (@(posedge clk) (a || b) |-> c);";
        let s = bleu(r, c);
        assert!(s > 0.5 && s < 1.0, "got {s}");
    }

    #[test]
    fn order_matters() {
        let r = "a b c d e f g h";
        let shuffled = "h g f e d c b a";
        assert!(bleu(r, shuffled) < bleu(r, "a b c d e f g x"));
    }

    #[test]
    fn brevity_penalty_applies() {
        let r = "a b c d e f g h i j";
        let short = "a b c";
        let long = "a b c d e f g h i j";
        assert!(bleu(r, short) < bleu(r, long));
    }

    #[test]
    fn symmetric_in_range() {
        let r = "assert property (x |-> y);";
        let c = "property assert (y |-> x);";
        let s = bleu(r, c);
        assert!((0.0..=1.0).contains(&s));
    }
}
