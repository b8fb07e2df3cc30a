//! Stable diagnostics shared by every `mdf-analyze` pass.
//!
//! Each diagnostic carries a stable `MDF0xx`/`MDF1xx` code so that tools
//! (and the CI artifact diff) can track individual findings across
//! refactors. Rendering is either human-readable (`rustc`-flavoured) or a
//! JSON document printed by `mdf_trace::json`'s writer.

use std::fmt::Write as _;

use mdf_trace::json::{object, Json};

/// How serious a diagnostic is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: a property was positively certified.
    Info,
    /// A remark tying graph-level facts back to source lines.
    Note,
    /// Suspicious but not fatal.
    Warning,
    /// A proven problem (a race witness, a broken certificate, bad input).
    Error,
}

impl Severity {
    /// Lower-case label used in both output formats.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// A 1-based source position attached to a diagnostic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

/// One finding of an analysis or lint pass.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Stable code, e.g. `"MDF002"`.
    pub code: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// One-line message.
    pub message: String,
    /// Source position, when the finding maps to DSL input.
    pub span: Option<Span>,
    /// Extra free-form detail lines.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// Creates a diagnostic with no span and no notes.
    pub fn new(code: &'static str, severity: Severity, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity,
            message: message.into(),
            span: None,
            notes: Vec::new(),
        }
    }

    /// Attaches a source position.
    #[must_use]
    pub fn with_span(mut self, line: usize, col: usize) -> Self {
        self.span = Some(Span { line, col });
        self
    }

    /// Appends a detail line.
    #[must_use]
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }
}

/// `true` when any diagnostic is an [`Severity::Error`].
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Renders diagnostics in a `rustc`-flavoured human format.
pub fn render_human(diags: &[Diagnostic], source_name: &str) -> String {
    let mut out = String::new();
    for d in diags {
        let _ = writeln!(out, "{}[{}]: {}", d.severity.as_str(), d.code, d.message);
        if let Some(sp) = d.span {
            let _ = writeln!(out, "  --> {}:{}:{}", source_name, sp.line, sp.col);
        }
        for n in &d.notes {
            let _ = writeln!(out, "  = note: {n}");
        }
    }
    let _ = writeln!(
        out,
        "{} diagnostic(s): {} error(s), {} warning(s)",
        diags.len(),
        count(diags, Severity::Error),
        count(diags, Severity::Warning)
    );
    out
}

/// How many of `diags` have `severity`.
fn count(diags: &[Diagnostic], severity: Severity) -> usize {
    diags.iter().filter(|d| d.severity == severity).count()
}

/// Renders diagnostics as a single pretty-printed JSON document.
pub fn render_json(diags: &[Diagnostic], source_name: &str) -> String {
    render_json_with(diags, source_name, Vec::new())
}

/// Like [`render_json`], with extra top-level `(key, value)` sections
/// inserted after the counts — used by `mdfuse analyze --json` to attach
/// e.g. the `bytecode` certificate section.
pub fn render_json_with(
    diags: &[Diagnostic],
    source_name: &str,
    sections: Vec<(&str, Json)>,
) -> String {
    let mut fields = vec![
        ("source", Json::from(source_name)),
        ("errors", count(diags, Severity::Error).into()),
        ("warnings", count(diags, Severity::Warning).into()),
    ];
    fields.extend(sections);
    fields.push(("diagnostics", diags.iter().map(diag_json).collect()));
    object(fields).pretty()
}

/// One diagnostic as a JSON object.
pub(crate) fn diag_json(d: &Diagnostic) -> Json {
    let mut fields = vec![
        ("code", Json::from(d.code)),
        ("severity", d.severity.as_str().into()),
        ("message", d.message.as_str().into()),
    ];
    if let Some(sp) = d.span {
        fields.push(("line", sp.line.into()));
        fields.push(("col", sp.col.into()));
    }
    if !d.notes.is_empty() {
        fields.push(("notes", d.notes.iter().map(String::as_str).collect()));
    }
    object(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_rendering_includes_code_span_and_notes() {
        let d = Diagnostic::new("MDF002", Severity::Error, "race on 'a'")
            .with_span(3, 7)
            .with_note("conflict vector (0, 2)");
        let s = render_human(&[d], "ex.mdf");
        assert!(s.contains("error[MDF002]: race on 'a'"));
        assert!(s.contains("--> ex.mdf:3:7"));
        assert!(s.contains("note: conflict vector (0, 2)"));
        assert!(s.contains("1 error(s)"));
    }

    #[test]
    fn json_rendering_is_well_formed_and_escaped() {
        let d = Diagnostic::new(
            "MDF101",
            Severity::Warning,
            "unused array \"x\"\nsecond line",
        );
        let s = render_json(&[d], "a\\b.mdf");
        assert!(s.contains("\"source\": \"a\\\\b.mdf\""));
        assert!(s.contains("\\\"x\\\"\\nsecond line"));
        assert!(s.contains("\"warnings\": 1"));
        // Balanced braces/brackets as a cheap well-formedness proxy.
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }

    #[test]
    fn empty_diagnostics_render() {
        assert!(render_json(&[], "x").contains("\"diagnostics\": []"));
        assert!(!has_errors(&[]));
    }

    #[test]
    fn extra_sections_render_between_counts_and_diagnostics() {
        let s = render_json_with(
            &[],
            "x",
            vec![("bytecode", object([("verified", Json::from(true))]))],
        );
        assert!(s.contains("\"bytecode\": { \"verified\": true },"));
        let counts = s.find("\"warnings\"").unwrap();
        let section = s.find("\"bytecode\"").unwrap();
        let list = s.find("\"diagnostics\"").unwrap();
        assert!(counts < section && section < list);
        assert_eq!(s.matches('{').count(), s.matches('}').count());
    }
}
