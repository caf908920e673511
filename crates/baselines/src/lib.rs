//! # hear-baselines — classical homomorphic-encryption baselines
//!
//! Paper Table 1 compares HEAR against the established HE families on the
//! four design requirements (R1 ≤2× inflation, R2 unlimited operations,
//! R3 low operation complexity, R4 many operation types). This crate
//! implements the representative PHE schemes from scratch over `hear-num`
//! so the `table1` harness can *measure* — not just quote — their
//! ciphertext inflation and per-operation cost:
//!
//! * [`paillier::Paillier`] — additive PHE (Paillier '99),
//! * [`rsa::Rsa`] — multiplicative PHE (unpadded RSA '78),
//! * [`elgamal::ElGamal`] — multiplicative PHE with pair ciphertexts.
//!
//! The SWHE/FHE columns of Table 1 (BGV, CKKS, TFHE…) are reported from
//! the literature in the harness; implementing lattice FHE from scratch is
//! out of scope and unnecessary for the table's conclusion, since the PHE
//! row already shows the *best* case for classical HE failing R1/R3.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]

pub mod elgamal;
pub mod paillier;
pub mod rsa;

pub use elgamal::{ElGamal, ElGamalCt};
pub use paillier::Paillier;
pub use rsa::Rsa;

/// Requirement verdicts used by the Table 1 regenerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Fails,
    Partial,
    Meets,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Fails => write!(f, "✗"),
            Verdict::Partial => write!(f, "◐"),
            Verdict::Meets => write!(f, "●"),
        }
    }
}

/// One Table 1 column: a scheme's verdicts on R1–R4.
#[derive(Debug, Clone, Copy)]
pub struct Table1Row {
    pub family: &'static str,
    pub scheme: &'static str,
    pub r1_inflation: Verdict,
    pub r2_operations: Verdict,
    pub r3_complexity: Verdict,
    pub r4_op_types: Verdict,
    /// True when the verdicts are backed by measurements from this crate
    /// rather than the literature.
    pub measured_here: bool,
}

/// The Table 1 verdict matrix (paper §3).
pub const TABLE1: [Table1Row; 8] = [
    Table1Row {
        family: "PHE",
        scheme: "RSA [78]",
        r1_inflation: Verdict::Fails,
        r2_operations: Verdict::Meets,
        r3_complexity: Verdict::Partial,
        r4_op_types: Verdict::Fails,
        measured_here: true,
    },
    Table1Row {
        family: "PHE",
        scheme: "ElGamal [33]",
        r1_inflation: Verdict::Fails,
        r2_operations: Verdict::Meets,
        r3_complexity: Verdict::Partial,
        r4_op_types: Verdict::Fails,
        measured_here: true,
    },
    Table1Row {
        family: "PHE",
        scheme: "Paillier [72]",
        r1_inflation: Verdict::Fails,
        r2_operations: Verdict::Meets,
        r3_complexity: Verdict::Fails,
        r4_op_types: Verdict::Fails,
        measured_here: true,
    },
    Table1Row {
        family: "PHE",
        scheme: "Symmetria-style rings [85]",
        r1_inflation: Verdict::Partial,
        r2_operations: Verdict::Meets,
        r3_complexity: Verdict::Meets,
        r4_op_types: Verdict::Partial,
        measured_here: false,
    },
    Table1Row {
        family: "SWHE",
        scheme: "BGN [12]",
        r1_inflation: Verdict::Fails,
        r2_operations: Verdict::Fails,
        r3_complexity: Verdict::Fails,
        r4_op_types: Verdict::Partial,
        measured_here: false,
    },
    Table1Row {
        family: "FHE",
        scheme: "TFHE [19]",
        r1_inflation: Verdict::Partial,
        r2_operations: Verdict::Meets,
        r3_complexity: Verdict::Fails,
        r4_op_types: Verdict::Meets,
        measured_here: false,
    },
    Table1Row {
        family: "FHE",
        scheme: "CKKS [17]",
        r1_inflation: Verdict::Fails,
        r2_operations: Verdict::Partial,
        r3_complexity: Verdict::Fails,
        r4_op_types: Verdict::Meets,
        measured_here: false,
    },
    Table1Row {
        family: "—",
        scheme: "HEAR (this work)",
        r1_inflation: Verdict::Meets,
        r2_operations: Verdict::Meets,
        r3_complexity: Verdict::Meets,
        r4_op_types: Verdict::Partial,
        measured_here: true,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hear_is_the_only_scheme_meeting_r1_r2_r3() {
        let full = TABLE1
            .iter()
            .filter(|r| {
                r.r1_inflation == Verdict::Meets
                    && r.r2_operations == Verdict::Meets
                    && r.r3_complexity == Verdict::Meets
            })
            .count();
        assert_eq!(full, 1);
        assert_eq!(TABLE1.last().unwrap().scheme, "HEAR (this work)");
    }

    #[test]
    fn measured_schemes_have_implementations() {
        // Every row claiming "measured_here" (other than HEAR itself) has a
        // working implementation in this crate.
        use hear_num::{BigUint, SplitMix64};
        let mut rng = SplitMix64::new(1);
        let p = Paillier::generate(128, &mut rng);
        let r = Rsa::generate(128, &mut rng);
        let e = ElGamal::generate(96, &mut rng);
        assert!(p.inflation(32) > 2.0);
        assert!(r.inflation(32) > 2.0);
        assert!(e.inflation(32) > 2.0);
        let m = BigUint::from_u64(9);
        assert_eq!(p.decrypt(&p.encrypt(&m, &mut rng)), m);
        assert_eq!(r.decrypt(&r.encrypt(&m)), m);
        assert_eq!(e.decrypt(&e.encrypt(&m, &mut rng)), m);
    }
}
