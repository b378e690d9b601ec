//! SQL `LIKE` pattern matching.

/// A `LIKE` pattern compiled once per expression: `%` matches any run of
/// characters (including none), `_` exactly one, everything else itself,
/// case-sensitively, as in standard SQL. The shapes queries actually
/// write — `%lit%`, `lit%`, `%lit`, and a bare literal, with no other
/// wildcard in `lit` — become one `str` search; anything else runs the
/// general matcher straight over `text.chars()`. Matching allocates
/// nothing either way.
#[derive(Debug, Clone)]
pub struct LikePattern(Shape);

#[derive(Debug, Clone)]
enum Shape {
    /// No wildcard: equality with the literal.
    Exact(String),
    /// `lit%`.
    Prefix(String),
    /// `%lit`.
    Suffix(String),
    /// `%lit%`.
    Contains(String),
    /// Any other arrangement of wildcards: the pattern's characters.
    General(Vec<char>),
}

impl LikePattern {
    /// Compile `pattern`.
    pub fn new(pattern: &str) -> LikePattern {
        let exact = |lit: &str| is_exact_pattern(lit).then(|| lit.to_owned());
        let inner = pattern.strip_prefix('%');
        LikePattern(if let Some(lit) = exact(pattern) {
            Shape::Exact(lit)
        } else if let Some(lit) = prefix_of_pattern(pattern) {
            Shape::Prefix(lit.to_owned())
        } else if let Some(lit) = inner.and_then(exact) {
            Shape::Suffix(lit)
        } else if let Some(lit) = inner.and_then(prefix_of_pattern) {
            Shape::Contains(lit.to_owned())
        } else {
            Shape::General(pattern.chars().collect())
        })
    }

    /// Does `text` match?
    pub fn matches(&self, text: &str) -> bool {
        match &self.0 {
            Shape::Exact(lit) => text == lit,
            Shape::Prefix(lit) => text.starts_with(lit.as_str()),
            Shape::Suffix(lit) => text.ends_with(lit.as_str()),
            Shape::Contains(lit) => text.contains(lit.as_str()),
            Shape::General(pattern) => general_match(pattern, text),
        }
    }
}

/// The classic two-pointer greedy match with backtracking over the last
/// `%` — O(n·m) worst case, linear on typical patterns — walking `text`
/// by `Chars` iterators (a position to come back to is a clone of one),
/// so no character vector is built for it.
fn general_match(pattern: &[char], text: &str) -> bool {
    let mut pi = 0;
    let mut rest = text.chars();
    // (pattern index of the last `%`, the text it has not absorbed yet)
    let mut star: Option<(usize, std::str::Chars<'_>)> = None;
    loop {
        let mut after = rest.clone();
        let Some(c) = after.next() else { break };
        match pattern.get(pi) {
            Some('%') => {
                star = Some((pi, rest.clone()));
                pi += 1;
            }
            Some(&p) if p == '_' || p == c => {
                pi += 1;
                rest = after;
            }
            _ => {
                // Backtrack: let the last % absorb one more character.
                let Some((at, absorbed)) = &mut star else {
                    return false;
                };
                absorbed.next();
                rest = absorbed.clone();
                pi = *at + 1;
            }
        }
    }
    pattern[pi..].iter().all(|&p| p == '%')
}

/// The reference [`LikePattern`] is tested against: the same algorithm
/// over materialized character vectors, one pattern and one text at a
/// time.
#[cfg(test)]
fn like_match(pattern: &str, text: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    let (mut pi, mut ti) = (0usize, 0usize);
    let mut star: Option<usize> = None;
    let mut star_ti = 0usize;

    while ti < t.len() {
        if pi < p.len() && p[pi] == '%' {
            star = Some(pi);
            star_ti = ti;
            pi += 1;
        } else if pi < p.len() && (p[pi] == '_' || p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if let Some(sp) = star {
            // Backtrack: let the last % absorb one more character.
            pi = sp + 1;
            star_ti += 1;
            ti = star_ti;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

/// True when the pattern contains no wildcards, i.e. behaves as equality.
pub fn is_exact_pattern(pattern: &str) -> bool {
    !pattern.contains('%') && !pattern.contains('_')
}

/// If the pattern is a pure prefix pattern (`abc%`), return the prefix.
pub fn prefix_of_pattern(pattern: &str) -> Option<&str> {
    let stripped = pattern.strip_suffix('%')?;
    is_exact_pattern(stripped).then_some(stripped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The compiled pattern's verdict, checked against the reference's.
    fn like_match(pattern: &str, text: &str) -> bool {
        let got = LikePattern::new(pattern).matches(text);
        assert_eq!(
            got,
            super::like_match(pattern, text),
            "{pattern:?} ~ {text:?}"
        );
        got
    }

    /// Short strings over an alphabet that collides often: two ASCII
    /// letters, a two-byte and a three-byte character, both wildcards.
    fn arb_string(max: usize) -> impl Strategy<Value = String> {
        let ch = prop_oneof![
            3 => Just('a'),
            2 => Just('b'),
            1 => Just('é'),
            1 => Just('✓'),
            2 => Just('%'),
            1 => Just('_'),
        ];
        proptest::collection::vec(ch, 0..=max).prop_map(|cs| cs.into_iter().collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]

        /// Every shape — the four `str` searches and the general matcher
        /// — agrees with the reference, on patterns with `%%`, leading
        /// and trailing wildcards, multi-byte characters, and empty
        /// patterns and texts (wildcard characters in the *text* are
        /// ordinary characters).
        #[test]
        fn compiled_patterns_agree_with_the_reference(
            pattern in arb_string(6),
            text in arb_string(9),
        ) {
            prop_assert_eq!(
                LikePattern::new(&pattern).matches(&text),
                super::like_match(&pattern, &text),
                "{:?} ~ {:?}", pattern, text
            );
        }
    }

    #[test]
    fn shapes_compile_to_the_search_they_are() {
        let shape = |p: &str| LikePattern::new(p).0;
        assert!(matches!(shape("hello"), Shape::Exact(_)));
        assert!(matches!(shape(""), Shape::Exact(_)));
        assert!(matches!(shape("PROMO%"), Shape::Prefix(_)));
        assert!(matches!(shape("%"), Shape::Prefix(_)));
        assert!(matches!(shape("%BRASS"), Shape::Suffix(_)));
        assert!(matches!(shape("%green%"), Shape::Contains(_)));
        assert!(matches!(shape("%%"), Shape::Contains(_)));
        for general in ["a%b", "%a_b%", "_", "a%%", "%%a", "%a%b%"] {
            assert!(matches!(shape(general), Shape::General(_)), "{general}");
        }
    }

    #[test]
    fn a_percent_in_the_text_is_an_ordinary_character() {
        assert!(like_match("%", "%abc"));
        assert!(like_match("%a%", "%ba"));
        assert!(like_match("50_%", "50%%"));
        assert!(!like_match("a%", "%a"));
    }

    #[test]
    fn percent_matches_any_run() {
        assert!(like_match("%COPPER%", "STANDARD POLISHED COPPER"));
        assert!(like_match("%COPPER%", "COPPER"));
        assert!(!like_match("%COPPER%", "STANDARD POLISHED BRASS"));
    }

    #[test]
    fn underscore_matches_one() {
        assert!(like_match("A_C", "ABC"));
        assert!(!like_match("A_C", "AC"));
        assert!(!like_match("A_C", "ABBC"));
    }

    #[test]
    fn prefix_patterns() {
        assert!(like_match("A%", "Anna"));
        assert!(like_match("A%", "A"));
        assert!(!like_match("A%", "banana"));
    }

    #[test]
    fn exact_when_no_wildcards() {
        assert!(like_match("hello", "hello"));
        assert!(!like_match("hello", "hello!"));
        assert!(is_exact_pattern("hello"));
        assert!(!is_exact_pattern("he%o"));
    }

    #[test]
    fn empty_cases() {
        assert!(like_match("", ""));
        assert!(like_match("%", ""));
        assert!(!like_match("_", ""));
        assert!(!like_match("", "x"));
    }

    #[test]
    fn backtracking_patterns() {
        assert!(like_match("%a%b%", "xaxxbx"));
        assert!(like_match("%ab%ab%", "abab"));
        assert!(!like_match("%ab%ab%", "ab"));
        assert!(like_match("a%%%b", "ab"));
    }

    #[test]
    fn prefix_extraction() {
        assert_eq!(prefix_of_pattern("PROMO%"), Some("PROMO"));
        assert_eq!(prefix_of_pattern("%PROMO"), None);
        assert_eq!(prefix_of_pattern("PRO_O%"), None);
        assert_eq!(prefix_of_pattern("exact"), None);
    }
}
