//! CPLEX-LP text format: writer and parser.
//!
//! Two reasons this module exists. First, it is how real tool-chains
//! interoperate: PuLP (the solver the paper's participant A ended up
//! with) always serialises the model to an `.lp` file and hands it to a
//! CBC subprocess, so [`crate::dense::DenseSimplex`] — the PuLP/CBC
//! stand-in — round-trips every model through this format to reproduce
//! that pipeline's per-solve overhead with *real* work rather than a
//! timer. Second, dumping an LP is invaluable when debugging a TE
//! formulation.
//!
//! The dialect covers what this workspace generates: an objective,
//! `Subject To`, `Bounds` with `-inf`/`+inf`, and `End`.

use crate::model::{ConstraintOp, Problem, Sense};

/// Serialise `p` to CPLEX LP text.
pub fn write_lp(p: &Problem) -> String {
    // Canonical `v{i}` column names: user-chosen names need not be
    // unique, and the round-trip must preserve VarId assignment.
    let mut out = String::with_capacity(64 * (p.num_vars() + p.num_constraints()));
    out.push_str(match p.sense() {
        Sense::Maximize => "Maximize\n",
        Sense::Minimize => "Minimize\n",
    });
    out.push_str(" obj:");
    // Every column appears in the objective (zero coefficients
    // included) so the parser's first-appearance ordering reproduces
    // the original VarId assignment exactly.
    let mut first = true;
    for i in 0..p.num_vars() {
        let v = crate::VarId(i as u32);
        let c = p.vars[i].obj;
        push_term(&mut out, c, &format!("v{}", v.index()), first);
        first = false;
    }
    if first {
        out.push_str(" 0 x0_dummy");
    }
    out.push('\n');

    out.push_str("Subject To\n");
    for (ci, con) in p.constraints.iter().enumerate() {
        out.push_str(&format!(" c{ci}:"));
        let mut first = true;
        for &(v, c) in &con.terms {
            push_term(&mut out, c, &format!("v{}", v.index()), first);
            first = false;
        }
        if first {
            out.push_str(" 0 x0_dummy");
        }
        let op = match con.op {
            ConstraintOp::Le => "<=",
            ConstraintOp::Ge => ">=",
            ConstraintOp::Eq => "=",
        };
        out.push_str(&format!(" {op} {}\n", fmt(con.rhs)));
    }

    out.push_str("Bounds\n");
    for i in 0..p.num_vars() {
        let v = crate::VarId(i as u32);
        let (lo, hi) = p.var_bounds(v);
        let name = format!("v{}", v.index());
        // Default in LP format is [0, +inf); write anything else.
        match (lo == 0.0, hi.is_infinite() && hi > 0.0) {
            (true, true) => {}
            _ => {
                let lo_s = if lo.is_infinite() { "-inf".to_string() } else { fmt(lo) };
                let hi_s = if hi.is_infinite() { "+inf".to_string() } else { fmt(hi) };
                out.push_str(&format!(" {lo_s} <= {name} <= {hi_s}\n"));
            }
        }
    }
    out.push_str("End\n");
    out
}

fn push_term(out: &mut String, c: f64, name: &str, first: bool) {
    if c >= 0.0 && !first {
        out.push_str(&format!(" + {} {}", fmt(c), name));
    } else if c >= 0.0 {
        out.push_str(&format!(" {} {}", fmt(c), name));
    } else {
        out.push_str(&format!(" - {} {}", fmt(-c), name));
    }
}

fn fmt(v: f64) -> String {
    // Full round-trip precision (the solver must see identical numbers).
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains("inf") {
        s
    } else {
        format!("{s}.0")
    }
}

/// Parse error for LP text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LP parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse CPLEX LP text produced by [`write_lp`] back into a problem.
/// Variable order follows first appearance, so a write→parse round trip
/// over a [`write_lp`] output preserves `VarId` assignment.
pub fn parse_lp(text: &str) -> Result<Problem, ParseError> {
    #[derive(PartialEq)]
    enum Section {
        Objective,
        Constraints,
        Bounds,
        Done,
    }
    let mut sense = None;
    let mut section = None;
    let mut names: std::collections::HashMap<String, crate::VarId> = Default::default();
    // (terms, op, rhs) rows staged until all variables are known.
    type StagedRow = (Vec<(String, f64)>, ConstraintOp, f64);
    let mut obj_terms: Vec<(String, f64)> = Vec::new();
    let mut rows: Vec<StagedRow> = Vec::new();
    let mut bounds: Vec<(String, f64, f64)> = Vec::new();

    let err = |line: usize, m: &str| ParseError { line, message: m.to_string() };

    for (ln, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let lno = ln + 1;
        if line.is_empty() || line.starts_with('\\') {
            continue;
        }
        match line.to_ascii_lowercase().as_str() {
            "maximize" | "max" => {
                sense = Some(Sense::Maximize);
                section = Some(Section::Objective);
                continue;
            }
            "minimize" | "min" => {
                sense = Some(Sense::Minimize);
                section = Some(Section::Objective);
                continue;
            }
            "subject to" | "st" | "s.t." => {
                section = Some(Section::Constraints);
                continue;
            }
            "bounds" => {
                section = Some(Section::Bounds);
                continue;
            }
            "end" => {
                section = Some(Section::Done);
                continue;
            }
            _ => {}
        }
        match section {
            Some(Section::Objective) => {
                let body = line.split_once(':').map(|(_, b)| b).unwrap_or(line);
                obj_terms.extend(parse_terms(body).map_err(|m| err(lno, &m))?);
            }
            Some(Section::Constraints) => {
                let body = line.split_once(':').map(|(_, b)| b).unwrap_or(line);
                let (lhs, op, rhs) = split_relation(body).ok_or_else(|| err(lno, "no relation"))?;
                let terms = parse_terms(lhs).map_err(|m| err(lno, &m))?;
                let rhs: f64 = rhs.trim().parse().map_err(|_| err(lno, "bad rhs"))?;
                rows.push((terms, op, rhs));
            }
            Some(Section::Bounds) => {
                // form: lo <= name <= hi
                let parts: Vec<&str> = line.split("<=").map(|s| s.trim()).collect();
                if parts.len() != 3 {
                    return Err(err(lno, "unsupported bound form"));
                }
                let lo = parse_inf(parts[0]).ok_or_else(|| err(lno, "bad lower bound"))?;
                let hi = parse_inf(parts[2]).ok_or_else(|| err(lno, "bad upper bound"))?;
                bounds.push((parts[1].to_string(), lo, hi));
            }
            Some(Section::Done) | None => {
                return Err(err(lno, "content outside any section"));
            }
        }
    }

    let sense = sense.ok_or_else(|| err(0, "no objective sense"))?;
    let mut problem = Problem::new(sense);
    let mut ensure = |problem: &mut Problem, name: &str| -> crate::VarId {
        if let Some(&v) = names.get(name) {
            v
        } else {
            let v = problem.add_var(0.0, f64::INFINITY, 0.0);
            names.insert(name.to_string(), v);
            v
        }
    };
    for (name, c) in &obj_terms {
        let v = ensure(&mut problem, name);
        let cur = problem.vars[v.index()].obj;
        problem.set_obj(v, cur + c);
    }
    for (terms, op, rhs) in rows {
        let ids: Vec<(crate::VarId, f64)> =
            terms.iter().map(|(n, c)| (ensure(&mut problem, n), *c)).collect();
        problem.add_constraint(&ids, op, rhs);
    }
    for (name, lo, hi) in bounds {
        let v = ensure(&mut problem, &name);
        problem.vars[v.index()].lo = lo;
        problem.vars[v.index()].hi = hi;
    }
    Ok(problem)
}

fn parse_inf(s: &str) -> Option<f64> {
    match s {
        "-inf" => Some(f64::NEG_INFINITY),
        "+inf" | "inf" => Some(f64::INFINITY),
        _ => s.parse().ok(),
    }
}

fn split_relation(body: &str) -> Option<(&str, ConstraintOp, &str)> {
    for (pat, op) in [("<=", ConstraintOp::Le), (">=", ConstraintOp::Ge), ("=", ConstraintOp::Eq)] {
        if let Some(pos) = body.find(pat) {
            return Some((&body[..pos], op, &body[pos + pat.len()..]));
        }
    }
    None
}

/// Parse `± coef name ± coef name …` (coefficient always explicit, the
/// form [`write_lp`] emits).
fn parse_terms(body: &str) -> Result<Vec<(String, f64)>, String> {
    let tokens: Vec<&str> = body.split_whitespace().collect();
    let mut out = Vec::new();
    let mut i = 0;
    let mut sign = 1.0;
    while i < tokens.len() {
        match tokens[i] {
            "+" => {
                sign = 1.0;
                i += 1;
            }
            "-" => {
                sign = -1.0;
                i += 1;
            }
            t => {
                let coef: f64 = t.parse().map_err(|_| format!("bad coefficient '{t}'"))?;
                let name = tokens.get(i + 1).ok_or("dangling coefficient")?;
                out.push((name.to_string(), sign * coef));
                sign = 1.0;
                i += 2;
            }
        }
    }
    // Drop placeholder zero terms.
    out.retain(|(n, c)| !(n == "x0_dummy" && *c == 0.0));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::revised::RevisedSimplex;
    use crate::{LpSolver, Status};

    fn sample() -> Problem {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, f64::INFINITY, 3.0);
        let y = p.add_var(1.0, 8.0, 2.0);
        let z = p.add_var(f64::NEG_INFINITY, f64::INFINITY, -1.0);
        p.add_le(&[(x, 1.0), (y, 1.0)], 4.0);
        p.add_ge(&[(x, 2.0), (z, -1.5)], -3.0);
        p.add_eq(&[(y, 1.0), (z, 1.0)], 2.0);
        p
    }

    #[test]
    fn writer_emits_sections() {
        let text = write_lp(&sample());
        for s in ["Maximize", "Subject To", "Bounds", "End"] {
            assert!(text.contains(s), "missing section {s} in:\n{text}");
        }
    }

    #[test]
    fn round_trip_preserves_shape() {
        let p = sample();
        let back = parse_lp(&write_lp(&p)).expect("parse");
        assert_eq!(back.num_vars(), p.num_vars());
        assert_eq!(back.num_constraints(), p.num_constraints());
        assert_eq!(back.sense(), p.sense());
        for i in 0..p.num_vars() {
            let v = crate::VarId(i as u32);
            assert_eq!(back.var_bounds(v), p.var_bounds(v), "bounds of var {i}");
        }
    }

    #[test]
    fn round_trip_preserves_optimum() {
        let p = sample();
        let back = parse_lp(&write_lp(&p)).expect("parse");
        let s1 = RevisedSimplex::default().solve(&p).unwrap();
        let s2 = RevisedSimplex::default().solve(&back).unwrap();
        assert_eq!(s1.status, Status::Optimal);
        assert_eq!(s2.status, Status::Optimal);
        assert!((s1.objective - s2.objective).abs() < 1e-9);
    }

    #[test]
    fn negative_rhs_and_coefficients_survive() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(0.0, f64::INFINITY, -2.5);
        p.add_ge(&[(x, -1.0)], -7.5);
        let back = parse_lp(&write_lp(&p)).unwrap();
        let s1 = RevisedSimplex::default().solve(&p).unwrap();
        let s2 = RevisedSimplex::default().solve(&back).unwrap();
        assert!((s1.objective - s2.objective).abs() < 1e-9);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_lp("this is not an lp").is_err());
        assert!(parse_lp("Maximize\n obj: 1 x\nSubject To\n c0: 1 x 4\nEnd\n").is_err());
    }

    #[test]
    fn empty_objective_round_trips() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(0.0, 5.0, 0.0);
        p.add_ge(&[(x, 1.0)], 1.0);
        let back = parse_lp(&write_lp(&p)).unwrap();
        let s = RevisedSimplex::default().solve(&back).unwrap();
        assert_eq!(s.status, Status::Optimal);
    }
}
