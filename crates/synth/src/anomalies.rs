//! Text-level corruption of otherwise valid reports.
//!
//! The paper's stage-1 filters exist because real submissions contain
//! bookkeeping defects. Each injector takes the canonical text of a valid
//! run and produces a file that fails validation for *exactly one* category,
//! so the filter cascade's per-category counts can be asserted precisely.

use spec_model::YearMonth;

use crate::market::AnomalyKind;

/// Apply the corruption for `kind` to a canonical report text.
///
/// `alt_cpu` supplies the second model name used by the ambiguous-CPU
/// injector.
pub fn inject(kind: AnomalyKind, text: &str, alt_cpu: &str) -> String {
    match kind {
        // Status-based kinds are handled at RunResult level by the caller;
        // the text already carries the Non-Compliant status. Nothing to do.
        AnomalyKind::NotAccepted => text.to_string(),
        AnomalyKind::AmbiguousDate => transform_line(text, "Hardware Availability:", |value| {
            let next = YearMonth::parse(value)
                .map(|d| d.add_months(1).to_string())
                .unwrap_or_else(|_| "Jul-2014".to_string());
            format!("{value} or {next}")
        }),
        // Implausible dates are valid-looking dates outside the window;
        // handled at RunResult level. Nothing to do at text level.
        AnomalyKind::ImplausibleDate => text.to_string(),
        AnomalyKind::AmbiguousCpuName => {
            transform_line(text, "CPU Name:", |value| format!("{value} / {alt_cpu}"))
        }
        AnomalyKind::MissingNodeCount => text
            .lines()
            .filter(|l| !l.starts_with("Nodes:"))
            .collect::<Vec<_>>()
            .join("\n"),
        AnomalyKind::InconsistentCoreThread => {
            transform_line(text, "Hardware Threads:", |value| {
                // "64 (2 / core)" → report eight threads too many.
                let (num, rest) = split_leading_number(value);
                format!("{} {}", num + 8, rest)
            })
        }
        AnomalyKind::ImplausibleCoreThread => {
            // Keep the bookkeeping internally consistent but physically
            // absurd: 999 cores per chip.
            let mut chips = 1u64;
            let mut tpc = 2u64;
            for line in text.lines() {
                if let Some(v) = line.strip_prefix("CPU(s) Enabled:") {
                    if let Some(c) = v.split(',').nth(1) {
                        chips = split_leading_number(c.trim()).0.max(1);
                    }
                }
                if let Some(v) = line.strip_prefix("Hardware Threads:") {
                    if let Some(paren) = v.split_once('(') {
                        tpc = split_leading_number(paren.1.trim()).0.clamp(1, 2);
                    }
                }
            }
            let total_cores = chips * 999;
            let total_threads = total_cores * tpc;
            let step1 = transform_line(text, "CPU(s) Enabled:", |_| {
                format!("{total_cores} cores, {chips} chips, 999 cores/chip")
            });
            transform_line(&step1, "Hardware Threads:", |_| {
                format!("{total_threads} ({tpc} / core)")
            })
        }
    }
}

/// Replace the value of the first line starting with `prefix`.
fn transform_line(text: &str, prefix: &str, f: impl FnOnce(&str) -> String) -> String {
    let mut f = Some(f);
    let lines: Vec<String> = text
        .lines()
        .map(|line| {
            if let Some(value) = line.strip_prefix(prefix) {
                if let Some(f) = f.take() {
                    return format!("{prefix} {}", f(value.trim()));
                }
            }
            line.to_string()
        })
        .collect();
    lines.join("\n")
}

/// Split a leading integer off a string: `"64 (2 / core)"` → `(64, "(2 / core)")`.
fn split_leading_number(s: &str) -> (u64, &str) {
    let s = s.trim();
    let end = s
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(s.len());
    let num = s[..end].parse().unwrap_or(0);
    (num, s[end..].trim())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec_format::{parse_run_interned, validate_interned, ValidityIssue};
    use spec_model::linear_test_run;

    fn base_text() -> String {
        spec_format::write_run(&linear_test_run(3, 1e6, 60.0, 300.0))
    }

    fn issues_of(text: &str) -> Vec<ValidityIssue> {
        validate_interned(&parse_run_interned(text).expect("parses")).unwrap_err()
    }

    #[test]
    fn ambiguous_date_fails_only_that_filter() {
        let text = inject(AnomalyKind::AmbiguousDate, &base_text(), "x");
        assert_eq!(issues_of(&text), vec![ValidityIssue::AmbiguousDate]);
    }

    #[test]
    fn ambiguous_cpu_fails_only_that_filter() {
        let text = inject(
            AnomalyKind::AmbiguousCpuName,
            &base_text(),
            "Intel Xeon E5-2690",
        );
        assert_eq!(issues_of(&text), vec![ValidityIssue::AmbiguousCpuName]);
    }

    #[test]
    fn missing_nodes_fails_only_that_filter() {
        let text = inject(AnomalyKind::MissingNodeCount, &base_text(), "x");
        assert_eq!(issues_of(&text), vec![ValidityIssue::MissingNodeCount]);
    }

    #[test]
    fn inconsistent_threads_fails_only_that_filter() {
        let text = inject(AnomalyKind::InconsistentCoreThread, &base_text(), "x");
        assert_eq!(issues_of(&text), vec![ValidityIssue::InconsistentCoreThread]);
    }

    #[test]
    fn implausible_counts_fails_only_that_filter() {
        let text = inject(AnomalyKind::ImplausibleCoreThread, &base_text(), "x");
        assert_eq!(issues_of(&text), vec![ValidityIssue::ImplausibleCoreThread]);
    }

    #[test]
    fn leading_number_splitting() {
        assert_eq!(split_leading_number("64 (2 / core)"), (64, "(2 / core)"));
        assert_eq!(split_leading_number("2 chips"), (2, "chips"));
        assert_eq!(split_leading_number("abc"), (0, "abc"));
    }

    #[test]
    fn untouched_kinds_pass_through() {
        let text = base_text();
        assert_eq!(inject(AnomalyKind::NotAccepted, &text, "x"), text);
        assert_eq!(inject(AnomalyKind::ImplausibleDate, &text, "x"), text);
    }
}
