//! The operations of the two command-line workloads, and the line format
//! in which `soctbench` hands them to `socttrace` for the in-process
//! replay.

use std::path::PathBuf;

/// What an operation exercises; decides its checks and its replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    /// §7.1 simple-linear set on D_Σ.
    Sl,
    /// §8.1 linear set on a first-k-rows view of D★.
    L,
    /// §9 scenario with its database.
    Scenario,
    /// The arity-stress set on D_Σ.
    Arity,
    /// Transitive closure of a path.
    Closure,
    /// Saturation of a §9 scenario.
    Saturate,
    /// `r(X,Y) -> r(Y,Z)` under an atom budget.
    Diverge,
}

impl Kind {
    const NAMES: [(Kind, &'static str); 7] = [
        (Kind::Sl, "sl"),
        (Kind::L, "l"),
        (Kind::Scenario, "scenario"),
        (Kind::Arity, "arity"),
        (Kind::Closure, "closure"),
        (Kind::Saturate, "saturate"),
        (Kind::Diverge, "diverge"),
    ];

    pub fn name(self) -> &'static str {
        Self::NAMES
            .iter()
            .find(|(k, _)| *k == self)
            .map(|(_, n)| *n)
            .expect("every kind is named")
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Self::NAMES.iter().find(|(_, n)| *n == s).map(|(k, _)| *k)
    }

    /// True for `soct chase` operations, false for `soct check`.
    pub fn is_chase(self) -> bool {
        matches!(self, Kind::Closure | Kind::Saturate | Kind::Diverge)
    }
}

/// One `soct check` or `soct chase` invocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Op {
    /// Unique within a workload, e.g. `l3/v250/db`.
    pub label: String,
    pub kind: Kind,
    pub rules: PathBuf,
    pub db: Option<PathBuf>,
    /// `--mode` of a check, when not the default.
    pub mode: Option<String>,
    /// `--max-atoms` of a chase, when not the default.
    pub max_atoms: Option<usize>,
    /// Index of the rule set within its family (L views share it).
    pub set: usize,
    /// Kind-specific size: view rows (L), arity (Arity), path edges
    /// (Closure), reference chase size (Saturate), seeded edges
    /// (Diverge); 0 otherwise.
    pub param: usize,
    /// Where a chase writes its result.
    pub out: Option<PathBuf>,
}

impl Op {
    /// The `soct` arguments of this operation.
    pub fn argv(&self) -> Vec<String> {
        let mut a: Vec<String> = vec![
            if self.kind.is_chase() {
                "chase"
            } else {
                "check"
            }
            .into(),
            "--rules".into(),
            self.rules.display().to_string(),
        ];
        if let Some(db) = &self.db {
            a.extend(["--db".into(), db.display().to_string()]);
        }
        if let Some(m) = &self.mode {
            a.extend(["--mode".into(), m.clone()]);
        }
        if let Some(out) = &self.out {
            a.extend(["--out".into(), out.display().to_string()]);
        }
        if let Some(n) = self.max_atoms {
            a.extend(["--max-atoms".into(), n.to_string()]);
        }
        a
    }

    /// One tab-separated line; `-` marks an absent field.
    pub fn to_line(&self) -> String {
        let opt = |s: Option<String>| s.unwrap_or_else(|| "-".into());
        [
            self.label.clone(),
            self.kind.name().into(),
            self.rules.display().to_string(),
            opt(self.db.as_ref().map(|p| p.display().to_string())),
            opt(self.mode.clone()),
            opt(self.max_atoms.map(|n| n.to_string())),
            self.set.to_string(),
            self.param.to_string(),
            opt(self.out.as_ref().map(|p| p.display().to_string())),
        ]
        .join("\t")
    }

    pub fn from_line(line: &str) -> Result<Op, String> {
        let f: Vec<&str> = line.split('\t').collect();
        let [label, kind, rules, db, mode, max_atoms, set, param, out] = f[..] else {
            return Err(format!("expected 9 fields in `{line}`"));
        };
        let opt = |s: &str| (s != "-").then(|| s.to_string());
        let num = |s: &str| s.parse::<usize>().map_err(|_| format!("bad number `{s}`"));
        Ok(Op {
            label: label.into(),
            kind: Kind::parse(kind).ok_or_else(|| format!("unknown kind `{kind}`"))?,
            rules: rules.into(),
            db: opt(db).map(PathBuf::from),
            mode: opt(mode),
            max_atoms: opt(max_atoms).map(|s| num(&s)).transpose()?,
            set: num(set)?,
            param: num(param)?,
            out: opt(out).map(PathBuf::from),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_round_trip() {
        let op = Op {
            label: "l3/v250/db".into(),
            kind: Kind::L,
            rules: "w/l3.rules".into(),
            db: Some("w/l3_v250.facts".into()),
            mode: Some("db".into()),
            max_atoms: None,
            set: 3,
            param: 250,
            out: None,
        };
        assert_eq!(Op::from_line(&op.to_line()), Ok(op.clone()));
        assert_eq!(
            op.argv(),
            [
                "check",
                "--rules",
                "w/l3.rules",
                "--db",
                "w/l3_v250.facts",
                "--mode",
                "db"
            ]
        );
    }
}
