//! A small reader for the fact-file format (`pred(a,b).`, one atom per
//! line, `#` comments), independent of `soct_parser`, so that the
//! reference checks never share code with the program they check.

/// One ground atom: predicate name and constant names.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fact {
    pub pred: String,
    pub args: Vec<String>,
}

impl Fact {
    pub fn new(pred: &str, args: &[&str]) -> Fact {
        Fact {
            pred: pred.to_string(),
            args: args.iter().map(|a| a.to_string()).collect(),
        }
    }

    /// The atom in fact-file syntax, without the trailing period.
    pub fn render(&self) -> String {
        format!("{}({})", self.pred, self.args.join(","))
    }
}

/// Parses one line; `None` for blank and comment lines.
pub fn parse_line(line: &str) -> Result<Option<Fact>, String> {
    let t = line.trim();
    if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
        return Ok(None);
    }
    let t = t.strip_suffix('.').unwrap_or(t);
    let open = t
        .find('(')
        .ok_or_else(|| format!("no `(` in fact `{line}`"))?;
    let inner = t[open + 1..]
        .strip_suffix(')')
        .ok_or_else(|| format!("no closing `)` in fact `{line}`"))?;
    let args = inner
        .split(',')
        .map(|a| a.trim().trim_matches(|c| c == '\'' || c == '"').to_string())
        .collect();
    Ok(Some(Fact {
        pred: t[..open].trim().to_string(),
        args,
    }))
}

/// Parses a whole fact file.
pub fn parse(text: &str) -> Result<Vec<Fact>, String> {
    let mut out = Vec::new();
    for line in text.lines() {
        if let Some(f) = parse_line(line)? {
            out.push(f);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_facts_and_skips_comments() {
        let got = parse("# header\nr(a,b).\n\n  s( c ).\n").unwrap();
        assert_eq!(
            got,
            vec![Fact::new("r", &["a", "b"]), Fact::new("s", &["c"])]
        );
        assert_eq!(got[0].render(), "r(a,b)");
    }

    #[test]
    fn rejects_a_line_without_parentheses() {
        assert!(parse("oops.\n").is_err());
    }
}
