//! Output formatting: a human-readable table (default) and a
//! hand-rolled JSON encoding for CI (`--format json`).

use crate::{Finding, Report};
use std::fmt::Write as _;

/// Renders the report as an aligned human-readable table.
#[must_use]
pub fn table(report: &Report) -> String {
    let mut out = String::new();
    if report.findings.is_empty() {
        let _ = writeln!(
            out,
            "vsgm-analyze: clean — {} files scanned, 0 findings ({} waived{})",
            report.files_scanned,
            report.waived,
            waived_breakdown(report)
        );
        return out;
    }
    let loc_width = report
        .findings
        .iter()
        .map(|f| f.file.len() + 1 + digits(f.line))
        .max()
        .unwrap_or(0);
    for f in &report.findings {
        let loc = format!("{}:{}", f.file, f.line);
        let _ = writeln!(out, "{loc:loc_width$}  {}  {}", f.rule, f.message);
        let _ = writeln!(out, "{:loc_width$}      hint: {}", "", f.hint);
    }
    let _ = writeln!(
        out,
        "\nvsgm-analyze: {} finding(s) in {} files scanned ({} waived{})",
        report.findings.len(),
        report.files_scanned,
        report.waived,
        waived_breakdown(report)
    );
    out
}

/// `: I1 2, R1 7` — or empty when nothing was waived.
fn waived_breakdown(report: &Report) -> String {
    if report.waived_by_rule.is_empty() {
        return String::new();
    }
    let parts: Vec<String> =
        report.waived_by_rule.iter().map(|(r, n)| format!("{r} {n}")).collect();
    format!(": {}", parts.join(", "))
}

/// Renders the report as a single JSON object. Hand-rolled so the crate
/// stays dependency-free; strings are escaped per RFC 8259.
#[must_use]
pub fn json(report: &Report) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"files_scanned\": {},", report.files_scanned);
    let _ = writeln!(out, "  \"waived\": {},", report.waived);
    let _ = write!(out, "  \"waived_by_rule\": {{");
    for (i, (r, n)) in report.waived_by_rule.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{}: {n}", json_str(r));
    }
    out.push_str("},\n");
    let _ = write!(out, "  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        out.push_str(&json_finding(f));
    }
    if report.findings.is_empty() {
        out.push(']');
    } else {
        out.push_str("\n  ]");
    }
    out.push_str("\n}\n");
    out
}

fn json_finding(f: &Finding) -> String {
    format!(
        "{{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}, \"hint\": {}}}",
        json_str(&f.rule),
        json_str(&f.file),
        f.line,
        json_str(&f.message),
        json_str(&f.hint)
    )
}

/// Escapes `s` as a JSON string literal (including the quotes).
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn digits(mut n: usize) -> usize {
    let mut d = 1;
    while n >= 10 {
        n /= 10;
        d += 1;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            findings: vec![Finding {
                rule: "R1".to_string(),
                file: "crates/net/src/x.rs".to_string(),
                line: 7,
                message: "lock field `m` declares no vsgm-lock-tier".to_string(),
                hint: "declare a tier".to_string(),
            }],
            waived: 2,
            files_scanned: 10,
            ..Report::default()
        }
    }

    #[test]
    fn json_escapes_specials() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn json_shape() {
        let j = json(&sample());
        assert!(j.contains("\"rule\": \"R1\""));
        assert!(j.contains("\"line\": 7"));
        assert!(j.contains("\"files_scanned\": 10"));
        assert!(j.contains("\"waived\": 2"));
    }

    #[test]
    fn table_mentions_location_and_hint() {
        let t = table(&sample());
        assert!(t.contains("crates/net/src/x.rs:7"));
        assert!(t.contains("hint: declare a tier"));
        assert!(t.contains("1 finding(s)"));
    }

    #[test]
    fn clean_table_is_one_line() {
        let r = Report { files_scanned: 3, ..Report::default() };
        assert!(table(&r).starts_with("vsgm-analyze: clean"));
    }
}
