//! A small dependency-free argument parser: `--key value`, `--flag`,
//! and positional arguments, with typed getters and error reporting.

/// Parsed arguments: positionals in order plus `--key [value]` options
/// in the order given (a repeated key's last value wins).
#[derive(Debug, Default, Clone)]
pub struct Args {
    positional: Vec<String>,
    options: Vec<(String, Option<String>)>,
}

/// Argument errors with user-facing messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parse a raw token list. A token starting with `--` becomes an
    /// option; if the next token does not start with `--`, it is the
    /// option's value, otherwise the option is a bare flag.
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Args {
        let mut out = Args::default();
        let mut it = tokens.into_iter().peekable();
        while let Some(t) = it.next() {
            if let Some(key) = t.strip_prefix("--") {
                let value = match it.peek() {
                    Some(v) if !v.starts_with("--") => it.next(),
                    _ => None,
                };
                out.options.push((key.to_string(), value));
            } else {
                out.positional.push(t);
            }
        }
        out
    }

    /// Positional argument `i`.
    pub fn pos(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(|s| s.as_str())
    }

    /// The last `--key` given, if any.
    fn option(&self, key: &str) -> Option<&Option<String>> {
        self.options.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Whether `--key` was given (with or without a value).
    pub fn has(&self, key: &str) -> bool {
        self.option(key).is_some()
    }

    /// String value of `--key value`.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.option(key).and_then(|v| v.as_deref())
    }

    /// Refuse the first `--key` not in `known`, so a mistyped or
    /// unsupported option fails instead of being ignored.
    pub fn only(&self, known: &[&str]) -> Result<(), ArgError> {
        match self.options.iter().find(|(k, _)| !known.contains(&k.as_str())) {
            None => Ok(()),
            Some((key, _)) => Err(ArgError(format!(
                "unknown option --{key}; this command takes --{}",
                known.join(", --")
            ))),
        }
    }

    /// Typed value with a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(s) => s
                .parse()
                .map_err(|_| ArgError(format!("--{key}: cannot parse '{s}'"))),
        }
    }

    /// Required typed value.
    pub fn require<T: std::str::FromStr>(&self, key: &str) -> Result<T, ArgError> {
        let s = self
            .get(key)
            .ok_or_else(|| ArgError(format!("missing required option --{key}")))?;
        s.parse().map_err(|_| ArgError(format!("--{key}: cannot parse '{s}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn positionals_and_options_mix() {
        // Options greedily consume the following token as their value;
        // flags only stay bare before another option or at the end.
        let a = parse("te solve --nodes 40 --quiet extra");
        assert_eq!(a.pos(0), Some("te"));
        assert_eq!(a.pos(1), Some("solve"));
        assert_eq!(a.get("nodes"), Some("40"));
        assert_eq!(a.get("quiet"), Some("extra"));
        let b = parse("te --quiet --nodes 40");
        assert!(b.has("quiet"));
        assert_eq!(b.get("quiet"), None);
    }

    #[test]
    fn typed_getters() {
        let a = parse("--n 12 --frac 0.5");
        assert_eq!(a.get_or::<usize>("n", 3).unwrap(), 12);
        assert_eq!(a.get_or::<f64>("frac", 0.0).unwrap(), 0.5);
        assert_eq!(a.get_or::<usize>("absent", 7).unwrap(), 7);
    }

    #[test]
    fn parse_errors_are_reported() {
        let a = parse("--n twelve");
        assert!(a.get_or::<usize>("n", 3).is_err());
        assert!(a.require::<usize>("missing").is_err());
    }

    #[test]
    fn only_names_the_first_unknown_option() {
        let a = parse("sweep --seeds 3 --colour blue --size 4 --seeds 5");
        assert_eq!(a.get("seeds"), Some("5"), "a repeated key's last value wins");
        assert!(a.only(&["seeds", "colour", "size"]).is_ok());
        let e = a.only(&["seeds", "size"]).unwrap_err();
        assert!(e.0.starts_with("unknown option --colour;"), "{e}");
        assert!(e.0.ends_with("takes --seeds, --size"), "{e}");
    }

    #[test]
    fn flag_followed_by_option() {
        let a = parse("--verbose --n 4");
        assert!(a.has("verbose"));
        assert_eq!(a.get("verbose"), None);
        assert_eq!(a.get_or::<usize>("n", 0).unwrap(), 4);
    }
}
