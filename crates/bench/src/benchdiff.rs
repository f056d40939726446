//! `experiments bench-diff <old> <new>`: compare two fleet benchmark
//! results, metric by metric, against the bounds `BENCHMARK.json` declares.
//!
//! Each side is either a fleetbench result — the JSON line fleetbench
//! prints last, a file holding its whole stdout, or the
//! `fleetbench/out/*.json` artifact, which wraps the same result under
//! `"result"` — or a commit of the `BENCH_fleet.json` trajectory, named by
//! a prefix of its sha. Every end-to-end metric of every workload both
//! sides carry is printed as `new / old`. A metric is *worse* when that
//! ratio passes its bound in the metric's bad direction (`run_ref` with
//! bound 0.25 is worse above 1.25; `ops_ok_ratio` with bound 0.01 below
//! 0.99), and the diff fails when any metric is worse or the new side ran
//! incorrect.
//!
//! The workspace has no JSON dependency, so [`Json`] is a small
//! recursive-descent reader, enough for these three documents.

use std::fmt::Write as _;

/// A parsed JSON value. Objects keep their members in document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string, escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one JSON document (surrounding whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing characters at byte {}", p.i));
        }
        Ok(v)
    }

    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut members = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    members.push((key, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(members));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return Ok(v);
                    }
                }
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at byte {start}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(format!("expected a string at byte {}", self.i));
        }
        self.i += 1;
        let mut out = String::new();
        loop {
            let start = self.i;
            while self.i < self.s.len() && !matches!(self.s[self.i], b'"' | b'\\') {
                self.i += 1;
            }
            out.push_str(std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?);
            match self.s.get(self.i) {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let esc = *self.s.get(self.i + 1).ok_or("unterminated escape")?;
                    self.i += 2;
                    out.push(match esc {
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                            self.i += 4;
                            std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .unwrap_or('\u{fffd}')
                        }
                        c => c as char,
                    });
                }
                _ => return Err("unterminated string".into()),
            }
        }
    }
}

/// One end-to-end metric of `BENCHMARK.json`: its name, whether lower is
/// better, and the relative bound past which a change is worse.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name, as fleetbench reports it.
    pub name: String,
    /// `true` when a smaller value is better.
    pub lower_is_better: bool,
    /// Largest allowed relative change in the bad direction.
    pub bound: f64,
}

/// The `end_to_end` metrics of a `BENCHMARK.json` document.
pub fn bounds(benchmark: &Json) -> Result<Vec<Bound>, String> {
    let Some(Json::Arr(list)) = benchmark.get("end_to_end") else {
        return Err("no \"end_to_end\" list".into());
    };
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::str)
                .ok_or("metric without a name")?;
            Ok(Bound {
                name: name.to_string(),
                lower_is_better: m.get("better").and_then(Json::str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Json::num)
                    .ok_or_else(|| format!("{name}: no bound"))?,
            })
        })
        .collect()
}

/// One side of a diff: its label, and per workload whether the run was
/// correct and its metric values by name.
#[derive(Debug, Clone, PartialEq)]
pub struct Side {
    /// What the side is (a path, or a trajectory sha and subject).
    pub label: String,
    /// The workloads, in document order.
    pub workloads: Vec<Workload>,
}

/// One workload's run on one side of a diff.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Workload name (`city-10k`, …).
    pub name: String,
    /// Whether every scenario of the run matched its golden digest.
    pub correct: bool,
    /// End-to-end metric values by name, in document order.
    pub metrics: Vec<(String, f64)>,
}

/// The workload name of a bare result line, which does not say.
const UNNAMED: &str = "result";

/// Read a fleetbench result from `text`: a bare result line, the whole
/// stdout of a run (its first JSON line is the fingerprint, its last the
/// result), or an out artifact (`{"fingerprint": …, "result": …}`). The
/// workload is named by the fingerprint when there is one.
pub fn side(label: &str, text: &str) -> Result<Side, String> {
    let (fingerprint, doc) = match Json::parse(text) {
        Ok(doc) => (doc.get("fingerprint").cloned(), doc),
        Err(e) => {
            let lines: Vec<&str> = text
                .lines()
                .filter(|l| l.trim_start().starts_with('{'))
                .collect();
            let parse = |l: &str| Json::parse(l).map_err(|e| format!("{label}: {e}"));
            match lines[..] {
                [] => return Err(format!("{label}: not JSON ({e})")),
                [only] => (None, parse(only)?),
                [first, .., last] => (Some(parse(first)?), parse(last)?),
            }
        }
    };
    let result = doc.get("result").unwrap_or(&doc);
    let workload = fingerprint
        .as_ref()
        .and_then(|f| f.get("workload"))
        .and_then(Json::str)
        .unwrap_or(UNNAMED)
        .to_string();
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        return Err(format!("{label}: no \"metrics\" object"));
    };
    let values = metrics
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value").and_then(Json::num)?)))
        .collect();
    let correct = result.get("correct") == Some(&Json::Bool(true));
    Ok(Side {
        label: label.to_string(),
        workloads: vec![Workload {
            name: workload,
            correct,
            metrics: values,
        }],
    })
}

/// The point of a `BENCH_fleet.json` trajectory whose sha starts with
/// `sha` (at least four hex digits, and only one point may match).
pub fn trajectory_point(trajectory: &Json, sha: &str) -> Result<Side, String> {
    if sha.len() < 4 || !sha.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(format!(
            "{sha}: not a sha prefix of four or more hex digits"
        ));
    }
    let Some(Json::Arr(commits)) = trajectory.get("commits") else {
        return Err("the trajectory has no \"commits\" list".into());
    };
    let mut found = commits.iter().filter(|c| {
        c.get("sha")
            .and_then(Json::str)
            .is_some_and(|s| s.starts_with(sha))
    });
    let point = found
        .next()
        .ok_or_else(|| format!("{sha}: no such commit in the trajectory"))?;
    if found.next().is_some() {
        return Err(format!("{sha}: more than one commit matches"));
    }
    let full = point.get("sha").and_then(Json::str).unwrap_or(sha);
    let subject = point.get("subject").and_then(Json::str).unwrap_or("");
    let Some(Json::Obj(workloads)) = point.get("workloads") else {
        return Err(format!("{sha}: no \"workloads\" object"));
    };
    let workloads = workloads
        .iter()
        .map(|(name, w)| {
            let metrics = match w.get("metrics") {
                Some(Json::Obj(m)) => m
                    .iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.num()?)))
                    .collect(),
                _ => Vec::new(),
            };
            Workload {
                name: name.clone(),
                correct: w.get("correct") == Some(&Json::Bool(true)),
                metrics,
            }
        })
        .collect();
    Ok(Side {
        label: format!("{} {subject}", &full[..full.len().min(10)]),
        workloads,
    })
}

/// The diff of `old` and `new` under `bounds`: the printed report, and
/// whether it passed (no metric worse than its bound, and every workload
/// of `new` correct). Workloads pair up by name; a lone fleetbench result
/// on either side pairs with the other side's only workload.
pub fn diff(old: &Side, new: &Side, bounds: &[Bound]) -> (String, bool) {
    let mut out = String::new();
    let _ = writeln!(out, "bench-diff: old {}", old.label);
    let _ = writeln!(out, "            new {}", new.label);
    let _ = writeln!(
        out,
        "{:<10} {:<14} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "old", "new", "new/old", "bound"
    );
    let mut ok = true;
    let lone = old.workloads.len() == 1 || new.workloads.len() == 1;
    for w in &new.workloads {
        let name = &w.name;
        let paired = old
            .workloads
            .iter()
            .find(|o| o.name == *name)
            .or_else(|| lone.then(|| old.workloads.first()).flatten());
        let Some(paired) = paired else {
            let _ = writeln!(out, "{name:<10} (not in old)");
            continue;
        };
        if !w.correct {
            ok = false;
            let _ = writeln!(out, "{name:<10} {:<14} new run is not correct", "correct");
        }
        for b in bounds {
            let value = |m: &[(String, f64)]| m.iter().find(|(k, _)| *k == b.name).map(|p| p.1);
            let (Some(o), Some(n)) = (value(&paired.metrics), value(&w.metrics)) else {
                continue;
            };
            let ratio = n / o;
            let worse = if b.lower_is_better {
                ratio > 1.0 + b.bound
            } else {
                ratio < 1.0 - b.bound
            };
            ok &= !worse;
            let sign = if b.lower_is_better { '+' } else { '-' };
            let bound = format!("{sign}{:.0}%", 100.0 * b.bound);
            let _ = writeln!(
                out,
                "{name:<10} {:<14} {o:>14.6} {n:>14.6} {ratio:>8.3} {bound:>7}  {}",
                b.name,
                if worse { "WORSE" } else { "ok" }
            );
        }
    }
    let _ = writeln!(out, "bench-diff: {}", if ok { "pass" } else { "FAIL" });
    (out, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK: &str = r#"{"end_to_end": [
        {"name": "run_ref", "unit": "ref", "better": "lower", "bound": 0.25},
        {"name": "ops_ok_ratio", "unit": "ratio", "better": "higher", "bound": 0.01}
    ]}"#;

    fn result(run_ref: f64, ok: f64, correct: bool) -> String {
        format!(
            "{{\"correct\": {correct}, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {{\"run_ref\": {{\"value\": {run_ref}, \"unit\": \"ref\"}}, \
             \"ops_ok_ratio\": {{\"value\": {ok}, \"unit\": \"ratio\"}}}}}}"
        )
    }

    #[test]
    fn parses_nested_documents_with_escapes() {
        let v = Json::parse(r#" {"a": [1, -2.5e3, true, null], "b": {"c": "x\"é\n"}} "#).unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-2500.0),
                Json::Bool(true),
                Json::Null
            ]))
        );
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")),
            Some(&Json::Str("x\"é\n".into()))
        );
        for bad in ["{", "[1,]", "{\"a\" 1}", "\"open", "1 2", "{\"a\": tru}"] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn ratios_pass_inside_the_bound_and_fail_past_it() {
        let bounds = bounds(&Json::parse(BENCHMARK).unwrap()).unwrap();
        let old = side("old", &result(200.0, 1.0, true)).unwrap();
        // Faster, and slower inside the 25 % bound: both pass.
        for run_ref in [100.0, 249.0] {
            let new = side("new", &result(run_ref, 1.0, true)).unwrap();
            let (report, ok) = diff(&old, &new, &bounds);
            assert!(ok, "{report}");
        }
        // Slower past the bound, a lost operation, an incorrect run: fail.
        for (run_ref, ops, correct) in
            [(251.0, 1.0, true), (200.0, 0.98, true), (200.0, 1.0, false)]
        {
            let new = side("new", &result(run_ref, ops, correct)).unwrap();
            let (report, ok) = diff(&old, &new, &bounds);
            assert!(!ok, "{report}");
        }
    }

    #[test]
    fn reads_stdout_artifacts_and_trajectory_points() {
        let stdout = format!(
            "{{\"workload\": \"churn-1k\"}}\n  run_ref 1 ref\n{}\n",
            result(50.0, 1.0, true)
        );
        let s = side("stdout", &stdout).unwrap();
        assert_eq!(s.workloads[0].name, "churn-1k");
        assert_eq!(s.workloads[0].metrics[0], ("run_ref".to_string(), 50.0));
        let artifact = format!(
            "{{\"fingerprint\": {{\"workload\": \"city-10k\"}}, \"result\": {}}}",
            result(60.0, 1.0, true)
        );
        assert_eq!(
            side("artifact", &artifact).unwrap().workloads[0].name,
            "city-10k"
        );
        let trajectory = Json::parse(
            r#"{"commits": [
                {"sha": "abcdef0123", "subject": "one", "workloads":
                    {"city-10k": {"correct": true, "metrics": {"run_ref": 80.0}}}},
                {"sha": "abcd990000", "subject": "two", "workloads": {}}
            ]}"#,
        )
        .unwrap();
        let p = trajectory_point(&trajectory, "abcdef").unwrap();
        assert_eq!(
            p.workloads,
            vec![Workload {
                name: "city-10k".to_string(),
                correct: true,
                metrics: vec![("run_ref".to_string(), 80.0)]
            }]
        );
        assert!(trajectory_point(&trajectory, "abcd").is_err(), "ambiguous");
        assert!(trajectory_point(&trajectory, "ffff").is_err(), "missing");
        assert!(trajectory_point(&trajectory, "ab").is_err(), "too short");
        // A lone result pairs with the trajectory point's only workload.
        let bounds = bounds(&Json::parse(BENCHMARK).unwrap()).unwrap();
        let (report, ok) = diff(&p, &side("new", &result(40.0, 1.0, true)).unwrap(), &bounds);
        assert!(ok && report.contains("0.500"), "{report}");
    }
}
