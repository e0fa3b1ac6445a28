//! Reader for the one-line, flat JSON objects this workspace emits: the
//! `exflow-events/v1` JSONL records and the rows of the
//! `exflow-bench-summary` document. The workspace builds offline (no
//! serde), so this is the one hand-rolled JSON reader both share.
//!
//! A flat object holds string, number or integer-list values, with no
//! nesting and no escapes. Anything else — a truncated line, an
//! unbalanced `[` or `"`, a missing `:`, an empty value, a trailing
//! comma, non-ASCII text — is rejected with an `Err`, never a panic.

/// Split one flat JSON object into `(key, raw value)` pairs, in line
/// order. String values keep their quotes, so a raw value is exactly the
/// JSON token that was printed.
///
/// ```
/// use exflow_core::flat_json::split_flat_object;
///
/// let fields = split_flat_object(r#"{"a": 1, "b": "x", "c": [1,2]}"#).unwrap();
/// assert_eq!(fields[1], ("b".to_string(), "\"x\"".to_string()));
/// assert_eq!(fields[2].1, "[1,2]");
/// assert!(split_flat_object(r#"{"a": [1, 2}"#).is_err());
/// ```
pub fn split_flat_object(line: &str) -> Result<Vec<(String, String)>, String> {
    if !line.is_ascii() {
        return Err(format!("non-ASCII input: {line}"));
    }
    let body = line
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| format!("not a JSON object: {line}"))?;
    let mut fields = Vec::new();
    let mut rest = body.trim_start();
    while !rest.is_empty() {
        let after_quote = rest
            .strip_prefix('"')
            .ok_or_else(|| format!("expected a quoted key at: {rest}"))?;
        let key_end = after_quote
            .find('"')
            .ok_or_else(|| format!("unterminated key at: {rest}"))?;
        let key = &after_quote[..key_end];
        let after_key = after_quote[key_end + 1..]
            .trim_start()
            .strip_prefix(':')
            .ok_or_else(|| format!("expected ':' after key {key:?}"))?
            .trim_start();
        // Value runs to the next top-level comma (never inside a string
        // or a [...] list).
        let mut depth = 0usize;
        let mut in_str = false;
        let mut end = after_key.len();
        for (i, c) in after_key.char_indices() {
            match c {
                '"' => in_str = !in_str,
                '[' if !in_str => depth += 1,
                ']' if !in_str => {
                    depth = depth
                        .checked_sub(1)
                        .ok_or_else(|| format!("unbalanced ']' in value of {key:?}"))?
                }
                ',' if !in_str && depth == 0 => {
                    end = i;
                    break;
                }
                _ => {}
            }
        }
        if in_str || depth != 0 {
            return Err(format!("unterminated string or list in value of {key:?}"));
        }
        let value = after_key[..end].trim();
        if value.is_empty() {
            return Err(format!("empty value for key {key:?}"));
        }
        fields.push((key.to_string(), value.to_string()));
        if end == after_key.len() {
            break;
        }
        rest = after_key[end + 1..].trim_start();
        if rest.is_empty() {
            return Err(format!("trailing comma after key {key:?}"));
        }
    }
    Ok(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// One well-formed line from drawn `(key, kind, n)` triples, plus the
    /// byte offsets of its structural `:`, `"` and `]` characters.
    fn line_from(fields: &[(u8, u8, u32)]) -> (String, Vec<usize>) {
        let mut line = String::from("{");
        for (i, &(key, kind, n)) in fields.iter().enumerate() {
            if i > 0 {
                line.push_str(", ");
            }
            line.push_str(&format!("\"k{i}{}\": ", (b'a' + key % 26) as char));
            line.push_str(&match kind % 4 {
                0 => n.to_string(),
                1 => format!("{}", f64::from(n) / 7.0 - 3.0),
                2 => format!("\"MoE-{n}/e{}\"", n % 5),
                _ => format!("[{},{}]", n % 3, n),
            });
        }
        line.push('}');
        let structural = line
            .char_indices()
            .filter(|&(_, c)| matches!(c, ':' | '"' | ']'))
            .map(|(i, _)| i)
            .collect();
        (line, structural)
    }

    #[test]
    fn empty_object_and_malformed_edges() {
        assert!(split_flat_object("{}").unwrap().is_empty());
        for bad in [
            "",
            "{",
            "}",
            "{\"a\": 1,}",
            "{\"a\": 1,, \"b\": 2}",
            "{\"a\" 1}",
            "{\"a\"}",
        ] {
            assert!(split_flat_object(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn malformed_lines_are_rejected_without_panicking(
            fields in vec((0u8..255, 0u8..4, 0u32..100_000), 1..7),
            cut in 0usize..10_000,
            pick in 0usize..10_000,
            noise in vec(0usize..14, 0..40),
        ) {
            let (line, structural) = line_from(&fields);
            let parsed = split_flat_object(&line).expect("well-formed line");
            prop_assert_eq!(parsed.len(), fields.len());

            // Truncated anywhere short of the closing brace.
            let truncated = &line[..cut % line.len()];
            prop_assert!(split_flat_object(truncated).is_err(), "{truncated}");

            // One structural ':' / '"' / ']' dropped: a missing separator,
            // an unbalanced string or an unbalanced list.
            let at = structural[pick % structural.len()];
            let dropped = format!("{}{}", &line[..at], &line[at + 1..]);
            prop_assert!(split_flat_object(&dropped).is_err(), "{dropped}");

            // An emptied value.
            let (key, value) = &parsed[pick % parsed.len()];
            let emptied = line.replacen(&format!("\"{key}\": {value}"), &format!("\"{key}\": "), 1);
            prop_assert!(split_flat_object(&emptied).is_err(), "{emptied}");

            // Non-ASCII text anywhere.
            let mut accented = line.clone();
            accented.insert(cut % (line.len() + 1), 'é');
            prop_assert!(split_flat_object(&accented).is_err(), "{accented}");

            // Arbitrary junk over the structural alphabet never panics.
            let alphabet = ['{', '}', '[', ']', '"', ':', ',', ' ', 'a', '1', '.', '-', 'é', '∈'];
            let junk: String = noise.iter().map(|&i| alphabet[i]).collect();
            let _ = split_flat_object(&junk);
            let _ = split_flat_object(&format!("{{{junk}}}"));
        }
    }
}
