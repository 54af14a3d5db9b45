//! Approximate tokenization.
//!
//! The paper measures prompt/solution lengths with the Llama-3
//! tokenizer; this reproduction substitutes a byte-pair-style
//! approximation (alphanumeric runs count one token per ~4 characters,
//! punctuation one each), which preserves the *shape* of the length
//! distributions in Figures 2–4.

/// Splits text into lexical code tokens (identifiers, numbers, one
/// token per operator/punctuation char). Used by BLEU.
pub fn code_tokens(text: &str) -> Vec<String> {
    CodeTokens::new(text).map(str::to_owned).collect()
}

/// The tokens of [`code_tokens`] as slices of the input, with no
/// allocation: a run of ASCII alphanumerics, `_` and `$` is one token;
/// every other non-whitespace char (multi-byte ones included) is a
/// token of its own; whitespace (Unicode's definition) separates.
#[derive(Debug, Clone)]
pub(crate) struct CodeTokens<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> CodeTokens<'a> {
    pub(crate) fn new(text: &'a str) -> CodeTokens<'a> {
        CodeTokens { text, pos: 0 }
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b'$'
}

impl<'a> Iterator for CodeTokens<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let bytes = self.text.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            let start = self.pos;
            if is_ident_byte(b) {
                self.pos += bytes[start..]
                    .iter()
                    .position(|&b| !is_ident_byte(b))
                    .unwrap_or(bytes.len() - start);
                return Some(&self.text[start..self.pos]);
            }
            let ch = if b.is_ascii() {
                char::from(b)
            } else {
                self.text[start..]
                    .chars()
                    .next()
                    .expect("pos is on a char boundary")
            };
            self.pos += ch.len_utf8();
            if !ch.is_whitespace() {
                return Some(&self.text[start..self.pos]);
            }
        }
        None
    }
}

/// Approximate subword token count (Llama-3 tokenizer substitute).
///
/// # Examples
///
/// ```
/// use fveval_core::token_count;
/// assert!(token_count("assert property (a && b);") >= 8);
/// assert_eq!(token_count(""), 0);
/// ```
pub fn token_count(text: &str) -> usize {
    let mut count = 0usize;
    let mut run = 0usize;
    for ch in text.chars() {
        if ch.is_ascii_alphanumeric() || ch == '_' {
            run += 1;
        } else {
            count += run.div_ceil(4);
            run = 0;
            if !ch.is_whitespace() {
                count += 1;
            }
        }
    }
    count + run.div_ceil(4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_tokens_split_operators() {
        assert_eq!(
            code_tokens("a |-> ##2 b;"),
            vec!["a", "|", "-", ">", "#", "#", "2", "b", ";"]
        );
        assert_eq!(code_tokens("$onehot0(x)"), vec!["$onehot0", "(", "x", ")"]);
    }

    #[test]
    fn code_tokens_keep_multibyte_chars_whole() {
        assert_eq!(
            code_tokens("λx\u{a0}é_1 $past(a_b)\u{2003}≤\x0b;"),
            vec!["λ", "x", "é", "_1", "$past", "(", "a_b", ")", "≤", ";"]
        );
        assert!(code_tokens(" \t\n\u{85}\u{3000}").is_empty());
    }

    #[test]
    fn token_count_scales_with_length() {
        let short = token_count("wr_push |-> rd_pop");
        let long =
            token_count("wr_push |-> strong(##[0:$] rd_pop) && another_long_signal_name == 4'hF");
        assert!(long > short);
        assert!(short > 3);
    }

    #[test]
    fn token_count_handles_identifier_runs() {
        // 8-char identifier ~ 2 subword tokens.
        assert_eq!(token_count("abcdefgh"), 2);
        assert_eq!(token_count("ab"), 1);
        assert_eq!(token_count("a b"), 2);
    }
}
