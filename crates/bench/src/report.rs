//! Experiment report structure: what every experiment returns.

use msp_analysis::{Json, Table};

/// The rendered outcome of one experiment.
#[derive(Clone, Debug)]
pub struct ExperimentReport {
    /// Short id (`e1` … `a3`), matching the ARCHITECTURE.md experiment index.
    pub id: &'static str,
    /// Human-readable title.
    pub title: String,
    /// The theorem/lemma and the shape it predicts.
    pub claim: String,
    /// The main table (the reproduction's "figure").
    pub table: Table,
    /// One-line conclusions drawn from the numbers (fitted exponents,
    /// pass/fail of shape checks).
    pub findings: Vec<String>,
    /// Machine-readable record of the same data.
    pub json: Json,
}

impl ExperimentReport {
    /// Renders the full report as Markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "## {} — {}\n\n",
            self.id.to_uppercase(),
            self.title
        ));
        out.push_str(&format!("**Claim (paper):** {}\n\n", self.claim));
        out.push_str(&self.table.to_markdown());
        out.push('\n');
        for f in &self.findings {
            out.push_str(&format!("- {f}\n"));
        }
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_contains_all_sections() {
        let mut table = Table::new(vec!["x", "y"]);
        table.push_row(vec!["1", "2"]);
        let r = ExperimentReport {
            id: "e1",
            title: "demo".into(),
            claim: "ratio grows".into(),
            table,
            findings: vec!["exponent 0.5".into()],
            json: Json::Null,
        };
        let md = r.to_markdown();
        assert!(md.contains("## E1 — demo"));
        assert!(md.contains("ratio grows"));
        assert!(md.contains("exponent 0.5"));
        assert!(md.contains("| 1 | 2 |"));
    }
}
