//! The scheme property matrix of paper Table 2, as data.
//!
//! Kept in the core crate (next to the schemes it describes) so the Table 2
//! regenerator and the documentation can never drift from the code: each
//! row's claims are asserted by the scheme's own test suite.

/// Lossiness classes of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lossiness {
    Lossless,
    Minor,
    Medium,
}

/// Security classes of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SecurityClass {
    IndCpa,
    Coa,
}

/// One row of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemeRow {
    pub datatype: &'static str,
    pub operation: &'static str,
    pub lossiness: Lossiness,
    pub security: SecurityClass,
    /// None / "precision tradeoff".
    pub inflation: &'static str,
    /// None / "Minimal, FPU".
    pub hardware: &'static str,
}

/// The six supported schemes, in Table 2's column order.
pub const TABLE2: [SchemeRow; 6] = [
    SchemeRow {
        datatype: "Int, Fixed point",
        operation: "MPI_SUM",
        lossiness: Lossiness::Lossless,
        security: SecurityClass::IndCpa,
        inflation: "None",
        hardware: "None",
    },
    SchemeRow {
        datatype: "Int, Fixed point",
        operation: "MPI_PROD",
        lossiness: Lossiness::Lossless,
        security: SecurityClass::IndCpa,
        inflation: "None",
        hardware: "None",
    },
    SchemeRow {
        datatype: "Int, Bool",
        operation: "MPI_LXOR, MPI_BXOR",
        lossiness: Lossiness::Lossless,
        security: SecurityClass::IndCpa,
        inflation: "None",
        hardware: "None",
    },
    SchemeRow {
        datatype: "Float, Complex",
        operation: "MPI_SUM v1",
        lossiness: Lossiness::Minor,
        security: SecurityClass::Coa,
        inflation: "Precision tradeoff",
        hardware: "Minimal, FPU",
    },
    SchemeRow {
        datatype: "Float, Complex",
        operation: "MPI_SUM v2",
        lossiness: Lossiness::Medium,
        security: SecurityClass::Coa,
        inflation: "Precision tradeoff",
        hardware: "Minimal, FPU",
    },
    SchemeRow {
        datatype: "Float, Complex",
        operation: "MPI_PROD",
        lossiness: Lossiness::Minor,
        security: SecurityClass::Coa,
        inflation: "Precision tradeoff",
        hardware: "Minimal, FPU",
    },
];

/// Render Table 2 as a GitHub-flavoured markdown table. README/DESIGN
/// embed this output verbatim (a docs-sync test keeps them current), so
/// the documentation cannot drift from the code.
pub fn table2_markdown() -> String {
    let mut s = String::from(
        "| Datatype | Operation | Lossiness | Security | Inflation | Hardware |\n\
         |---|---|---|---|---|---|\n",
    );
    for row in &TABLE2 {
        s.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} |\n",
            row.datatype, row.operation, row.lossiness, row.security, row.inflation, row.hardware
        ));
    }
    s
}

/// Render the engine's composition matrix: every Table 2 scheme composes
/// with every reduction algorithm, chunking mode and verification mode.
/// The orthogonality is structural (one generic engine), so each cell is
/// simply "yes" — except XOR verification, whose nibble-counter digest is
/// sound only up to 15 ranks.
pub fn composition_matrix_markdown() -> String {
    let mut s = String::from(
        "| Scheme | Recursive doubling | Ring | Switch (INC) | Pipelined | HoMAC verified |\n\
         |---|---|---|---|---|---|\n",
    );
    for row in &TABLE2 {
        let verified = if row.operation.contains("XOR") {
            "yes (≤ 15 ranks)"
        } else {
            "yes"
        };
        s.push_str(&format!(
            "| {} {} | yes | yes | yes | yes | {} |\n",
            row.datatype, row.operation, verified
        ));
    }
    s
}

impl std::fmt::Display for Lossiness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Lossiness::Lossless => write!(f, "Lossless"),
            Lossiness::Minor => write!(f, "Minor"),
            Lossiness::Medium => write!(f, "Medium"),
        }
    }
}

impl std::fmt::Display for SecurityClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SecurityClass::IndCpa => write!(f, "IND-CPA"),
            SecurityClass::Coa => write!(f, "COA"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_matches_paper_shape() {
        assert_eq!(TABLE2.len(), 6);
        // Integer schemes: lossless, IND-CPA, no inflation, no HW changes.
        for row in &TABLE2[..3] {
            assert_eq!(row.lossiness, Lossiness::Lossless);
            assert_eq!(row.security, SecurityClass::IndCpa);
            assert_eq!(row.inflation, "None");
            assert_eq!(row.hardware, "None");
        }
        // Float schemes: COA, precision tradeoff, FPU changes.
        for row in &TABLE2[3..] {
            assert_eq!(row.security, SecurityClass::Coa);
            assert_eq!(row.inflation, "Precision tradeoff");
            assert_eq!(row.hardware, "Minimal, FPU");
        }
        // v2 is the only medium-loss scheme.
        assert_eq!(TABLE2[4].lossiness, Lossiness::Medium);
    }

    #[test]
    fn markdown_renders_every_row() {
        let t2 = table2_markdown();
        let matrix = composition_matrix_markdown();
        for row in &TABLE2 {
            assert!(t2.contains(row.operation), "{} missing", row.operation);
            assert!(matrix.contains(row.operation), "{} missing", row.operation);
        }
        // Header + separator + six scheme rows.
        assert_eq!(t2.lines().count(), 8);
        assert_eq!(matrix.lines().count(), 8);
        assert!(matrix.contains("≤ 15 ranks"));
    }
}
