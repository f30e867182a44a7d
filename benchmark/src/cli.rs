//! `--key value` and `--flag` arguments, plus positional ones.

pub struct Args {
    pairs: Vec<(String, Option<String>)>,
    pub positional: Vec<String>,
}

impl Args {
    pub fn parse(raw: &[String]) -> Args {
        let mut pairs = Vec::new();
        let mut positional = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            if let Some(key) = raw[i].strip_prefix("--") {
                let value = raw.get(i + 1).filter(|v| !v.starts_with("--")).cloned();
                i += 1 + usize::from(value.is_some());
                pairs.push((key.to_string(), value));
            } else {
                positional.push(raw[i].clone());
                i += 1;
            }
        }
        Args { pairs, positional }
    }

    pub fn flag(&self, key: &str) -> bool {
        self.pairs.iter().any(|(k, _)| k == key)
    }

    pub fn value(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    /// The number after `--key`, or `default` when absent or unreadable.
    pub fn num(&self, key: &str, default: f64) -> f64 {
        self.value(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pairs_flags_and_positionals() {
        let raw: Vec<String> = "compare a.json --seed 7 --smoke b.json --trace 0"
            .split(' ')
            .map(String::from)
            .collect();
        let args = Args::parse(&raw);
        assert_eq!(args.positional, ["compare", "a.json"]);
        assert_eq!(args.num("seed", 1.0), 7.0);
        // A flag followed by a positional takes it as its value: put
        // positionals first.
        assert_eq!(args.value("smoke"), Some("b.json"));
        assert_eq!(args.num("trace", 1.0), 0.0);
        assert!(args.flag("trace") && !args.flag("workload"));
        assert_eq!(args.num("missing", 2.5), 2.5);
    }
}
