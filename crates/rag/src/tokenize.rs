//! Word tokenization.

/// Lowercases and splits on non-alphanumeric boundaries, dropping empties.
pub fn tokenize(text: &str) -> Vec<String> {
    tokens(&text.to_lowercase()).map(str::to_owned).collect()
}

/// The tokens of already-lowercased text, borrowed from it: what
/// [`tokenize`] returns for the original text, without a `String` per token.
pub(crate) fn tokens(lower: &str) -> impl Iterator<Item = &str> {
    lower
        .split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_and_lowercases() {
        assert_eq!(
            tokenize("CUDA kernels launch on SMs!"),
            vec!["cuda", "kernels", "launch", "on", "sms"]
        );
    }

    #[test]
    fn handles_punctuation_and_numbers() {
        assert_eq!(
            tokenize("g4dn.xlarge costs $0.526/hr"),
            vec!["g4dn", "xlarge", "costs", "0", "526", "hr"]
        );
    }

    #[test]
    fn empty_and_symbol_only_inputs() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("!!! --- ***").is_empty());
    }
}
