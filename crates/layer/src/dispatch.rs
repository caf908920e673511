//! Runtime-typed dispatch — the actual PMPI entry-point shape.
//!
//! A real `MPI_Allreduce` receives its datatype and operation as *runtime
//! arguments*; libhear's interposition function dispatches on that pair
//! (§6: "intercepts the MPI_Allreduce calls and performs encryption and
//! decryption for specific data and operation types"). This module is that
//! dispatcher: one entry point, every supported `(datatype, op)` pair
//! routed to its scheme, every unsupported pair rejected with the paper's
//! rationale instead of silently falling back to plaintext.
//!
//! [`SecureComm::pmpi_allreduce`] is the full front door: it additionally
//! takes an [`EngineCfg`], so any `(datatype, op)` cell can be run
//! blocked, pipelined, on any transport, and HoMAC-verified — the same
//! orthogonality the engine gives the static API.

use crate::engine::{EngineCfg, EngineError};
use crate::secure::{SecureComm, VerificationError};
use hear_core::derived::{decode_logical, encode_bools, MpiOp, UnsupportedOp};
use hear_core::{
    FloatProdScheme, FloatSumScheme, HfpError, HfpFormat, IntProdScheme, IntSumScheme, IntXorScheme,
};
use hear_prf::{as_unsigned_i32, as_unsigned_i64};

/// A borrowed, runtime-typed send buffer (the `void* sendbuf` +
/// `MPI_Datatype` pair of the C API).
#[derive(Debug, Clone, Copy)]
pub enum TypedSlice<'a> {
    U8(&'a [u8]),
    U16(&'a [u16]),
    U32(&'a [u32]),
    U64(&'a [u64]),
    I32(&'a [i32]),
    I64(&'a [i64]),
    F32(&'a [f32]),
    F64(&'a [f64]),
    Bool(&'a [bool]),
}

impl TypedSlice<'_> {
    fn datatype_name(&self) -> &'static str {
        match self {
            TypedSlice::U8(_) => "MPI_UINT8_T",
            TypedSlice::U16(_) => "MPI_UINT16_T",
            TypedSlice::U32(_) => "MPI_UINT32_T",
            TypedSlice::U64(_) => "MPI_UINT64_T",
            TypedSlice::I32(_) => "MPI_INT",
            TypedSlice::I64(_) => "MPI_INT64_T",
            TypedSlice::F32(_) => "MPI_FLOAT",
            TypedSlice::F64(_) => "MPI_DOUBLE",
            TypedSlice::Bool(_) => "MPI_C_BOOL",
        }
    }

    pub fn len(&self) -> usize {
        match self {
            TypedSlice::U8(s) => s.len(),
            TypedSlice::U16(s) => s.len(),
            TypedSlice::U32(s) => s.len(),
            TypedSlice::U64(s) => s.len(),
            TypedSlice::I32(s) => s.len(),
            TypedSlice::I64(s) => s.len(),
            TypedSlice::F32(s) => s.len(),
            TypedSlice::F64(s) => s.len(),
            TypedSlice::Bool(s) => s.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The owned, runtime-typed receive buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum TypedVec {
    U8(Vec<u8>),
    U16(Vec<u16>),
    U32(Vec<u32>),
    U64(Vec<u64>),
    I32(Vec<i32>),
    I64(Vec<i64>),
    F32(Vec<f32>),
    F64(Vec<f64>),
    /// Logical results decode to (or, and) pairs (§5.4).
    Logical(Vec<(bool, bool)>),
    /// Raw booleans, as moved by the data-movement collectives
    /// (allgather/alltoall carry no reduction, so no (or, and) decode).
    Bool(Vec<bool>),
}

/// Why a `(datatype, op)` pair was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchError {
    /// The operation itself is outside HEAR's model (MIN/MAX, user ops).
    Insecure(UnsupportedOp),
    /// The op exists but not for this datatype (e.g. XOR on floats).
    TypeMismatch { datatype: &'static str, op: MpiOp },
    /// Float encoding failed (NaN/Inf/overflow).
    Hfp(HfpError),
    /// HoMAC verification rejected the aggregate.
    Verify(VerificationError),
    /// The transport failed (timeout, dead peer, downed switch) beyond
    /// what the engine's retry policy could absorb.
    Comm(hear_mpi::CommError),
}

impl std::fmt::Display for DispatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DispatchError::Insecure(u) => write!(f, "{u}"),
            DispatchError::TypeMismatch { datatype, op } => {
                write!(f, "{op:?} is not defined for {datatype} under HEAR")
            }
            DispatchError::Hfp(e) => write!(f, "{e}"),
            DispatchError::Verify(e) => write!(f, "{e}"),
            DispatchError::Comm(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DispatchError {}

impl From<HfpError> for DispatchError {
    fn from(e: HfpError) -> Self {
        DispatchError::Hfp(e)
    }
}

impl From<EngineError> for DispatchError {
    fn from(e: EngineError) -> Self {
        match e {
            EngineError::Hfp(h) => DispatchError::Hfp(h),
            EngineError::Verification(v) => DispatchError::Verify(v),
            EngineError::Comm(c) => DispatchError::Comm(c),
        }
    }
}

/// Generate a PMPI reduction front door over the full `(datatype, op)`
/// matrix, routed to the named engine entry point. `pmpi_allreduce` and
/// `pmpi_reduce_scatter` are the same matrix — by construction, since they
/// expand from this one macro — differing only in which engine collective
/// runs underneath.
macro_rules! reduction_front_door {
    ($(#[$attr:meta])* $fn_name:ident => $method:ident) => {
        $(#[$attr])*
        pub fn $fn_name(
            &mut self,
            data: TypedSlice<'_>,
            op: MpiOp,
            cfg: EngineCfg,
        ) -> Result<TypedVec, DispatchError> {
            // Reject the insecure operations up front, with the rationale.
            if let Err(u) = op.support() {
                return Err(DispatchError::Insecure(u));
            }
            let out = match (data, op) {
                // --- SUM ----------------------------------------------------
                (TypedSlice::U8(s), MpiOp::Sum) => self
                    .$method(&mut IntSumScheme::default(), s, cfg)
                    .map(TypedVec::U8),
                (TypedSlice::U16(s), MpiOp::Sum) => self
                    .$method(&mut IntSumScheme::default(), s, cfg)
                    .map(TypedVec::U16),
                (TypedSlice::U32(s), MpiOp::Sum) => self
                    .$method(&mut IntSumScheme::default(), s, cfg)
                    .map(TypedVec::U32),
                (TypedSlice::U64(s), MpiOp::Sum) => self
                    .$method(&mut IntSumScheme::default(), s, cfg)
                    .map(TypedVec::U64),
                (TypedSlice::I32(s), MpiOp::Sum) => self
                    .$method(&mut IntSumScheme::default(), as_unsigned_i32(s), cfg)
                    .map(|v| TypedVec::I32(v.into_iter().map(|x| x as i32).collect())),
                (TypedSlice::I64(s), MpiOp::Sum) => self
                    .$method(&mut IntSumScheme::default(), as_unsigned_i64(s), cfg)
                    .map(|v| TypedVec::I64(v.into_iter().map(|x| x as i64).collect())),
                (TypedSlice::F32(s), MpiOp::Sum) => {
                    let wide: Vec<f64> = s.iter().map(|v| *v as f64).collect();
                    self.$method(&mut FloatSumScheme::new(HfpFormat::fp32(2, 2)), &wide, cfg)
                        .map(|v| TypedVec::F32(v.into_iter().map(|v| v as f32).collect()))
                }
                (TypedSlice::F64(s), MpiOp::Sum) => self
                    .$method(&mut FloatSumScheme::new(HfpFormat::fp64(2, 2)), s, cfg)
                    .map(TypedVec::F64),
                // --- PROD ---------------------------------------------------
                (TypedSlice::U32(s), MpiOp::Prod) => self
                    .$method(&mut IntProdScheme::default(), s, cfg)
                    .map(TypedVec::U32),
                (TypedSlice::U64(s), MpiOp::Prod) => self
                    .$method(&mut IntProdScheme::default(), s, cfg)
                    .map(TypedVec::U64),
                (TypedSlice::F64(s), MpiOp::Prod) => self
                    .$method(&mut FloatProdScheme::new(HfpFormat::fp64(0, 0)), s, cfg)
                    .map(TypedVec::F64),
                (TypedSlice::F32(s), MpiOp::Prod) => {
                    let wide: Vec<f64> = s.iter().map(|v| *v as f64).collect();
                    self.$method(&mut FloatProdScheme::new(HfpFormat::fp32(0, 0)), &wide, cfg)
                        .map(|v| TypedVec::F32(v.into_iter().map(|v| v as f32).collect()))
                }
                // --- XOR ----------------------------------------------------
                (TypedSlice::U16(s), MpiOp::Bxor | MpiOp::Lxor) => self
                    .$method(&mut IntXorScheme::default(), s, cfg)
                    .map(TypedVec::U16),
                (TypedSlice::U32(s), MpiOp::Bxor | MpiOp::Lxor) => self
                    .$method(&mut IntXorScheme::default(), s, cfg)
                    .map(TypedVec::U32),
                (TypedSlice::U64(s), MpiOp::Bxor | MpiOp::Lxor) => self
                    .$method(&mut IntXorScheme::default(), s, cfg)
                    .map(TypedVec::U64),
                // --- logical AND/OR via summation encoding (§5.4) ------------
                (TypedSlice::Bool(s), MpiOp::Land | MpiOp::Lor) => {
                    let mut enc = Vec::new();
                    encode_bools(s, &mut enc);
                    self.$method(&mut IntSumScheme::<u32>::default(), &enc, cfg)
                        .map(|sums| TypedVec::Logical(decode_logical(&sums, self.world())))
                }
                // --- everything else is a type mismatch ----------------------
                _ => {
                    return Err(DispatchError::TypeMismatch {
                        datatype: data.datatype_name(),
                        op,
                    })
                }
            };
            out.map_err(DispatchError::from)
        }
    };
}

/// Generate a PMPI data-movement front door dispatched on datatype alone
/// (no reduction happens, so there is no op and no arithmetic): every
/// datatype rides the single-origin cell transport as its exact bit
/// pattern — floats travel as `to_bits` words, so the moved values are
/// bit-for-bit the contributed ones.
macro_rules! movement_front_door {
    ($(#[$attr:meta])* $fn_name:ident => $method:ident) => {
        $(#[$attr])*
        pub fn $fn_name(
            &mut self,
            data: TypedSlice<'_>,
            cfg: EngineCfg,
        ) -> Result<TypedVec, DispatchError> {
            match data {
                TypedSlice::U8(s) => self
                    .$method(&mut IntSumScheme::<u8>::default(), s, cfg)
                    .map(TypedVec::U8)
                    .map_err(DispatchError::from),
                TypedSlice::U16(s) => self
                    .$method(&mut IntSumScheme::<u16>::default(), s, cfg)
                    .map(TypedVec::U16)
                    .map_err(DispatchError::from),
                TypedSlice::U32(s) => self
                    .$method(&mut IntSumScheme::<u32>::default(), s, cfg)
                    .map(TypedVec::U32)
                    .map_err(DispatchError::from),
                TypedSlice::U64(s) => self
                    .$method(&mut IntSumScheme::<u64>::default(), s, cfg)
                    .map(TypedVec::U64)
                    .map_err(DispatchError::from),
                TypedSlice::I32(s) => self
                    .$method(
                        &mut IntSumScheme::<u32>::default(),
                        as_unsigned_i32(s),
                        cfg,
                    )
                    .map(|v| TypedVec::I32(v.into_iter().map(|x| x as i32).collect()))
                    .map_err(DispatchError::from),
                TypedSlice::I64(s) => self
                    .$method(
                        &mut IntSumScheme::<u64>::default(),
                        as_unsigned_i64(s),
                        cfg,
                    )
                    .map(|v| TypedVec::I64(v.into_iter().map(|x| x as i64).collect()))
                    .map_err(DispatchError::from),
                TypedSlice::F32(s) => {
                    let bits: Vec<u32> = s.iter().map(|v| v.to_bits()).collect();
                    self.$method(&mut IntSumScheme::<u32>::default(), &bits, cfg)
                        .map(|v| TypedVec::F32(v.into_iter().map(f32::from_bits).collect()))
                        .map_err(DispatchError::from)
                }
                TypedSlice::F64(s) => {
                    let bits: Vec<u64> = s.iter().map(|v| v.to_bits()).collect();
                    self.$method(&mut IntSumScheme::<u64>::default(), &bits, cfg)
                        .map(|v| TypedVec::F64(v.into_iter().map(f64::from_bits).collect()))
                        .map_err(DispatchError::from)
                }
                TypedSlice::Bool(s) => {
                    let bits: Vec<u8> = s.iter().map(|&b| u8::from(b)).collect();
                    self.$method(&mut IntSumScheme::<u8>::default(), &bits, cfg)
                        .map(|v| TypedVec::Bool(v.into_iter().map(|x| x != 0).collect()))
                        .map_err(DispatchError::from)
                }
            }
        }
    };
}

impl SecureComm {
    reduction_front_door! {
        /// The interposition entry point, `MPI_Allreduce(sendbuf, …,
        /// datatype, op, comm)`: every supported `(datatype, op)` pair,
        /// composed with any [`EngineCfg`] — transport algorithm, blocked or
        /// pipelined chunking, and HoMAC verification are all orthogonal to
        /// the cell. Float SUM uses the FP32/FP64 γ=2 addition layout; float
        /// PROD the δ=0 multiplicative layout.
        /// `pmpi_allreduce(data, op, EngineCfg::pipelined(b).verified())`
        /// is the one-call version of the paper's full stack.
        pmpi_allreduce => allreduce_with
    }

    reduction_front_door! {
        /// `MPI_Reduce_scatter_block` front door: the same `(datatype, op)`
        /// matrix as [`SecureComm::pmpi_allreduce`] — the two expand from
        /// one macro, so the matrices cannot drift — routed to the engine's
        /// [`SecureComm::reduce_scatter_with`]. Every rank contributes the
        /// full vector and receives its own fully reduced share (see
        /// [`SecureComm::shard_bounds`] for the sync-mode layout).
        pmpi_reduce_scatter => reduce_scatter_with
    }

    movement_front_door! {
        /// `MPI_Allgather(v)` front door: rank-ordered concatenation of the
        /// per-rank contributions (which may differ in length), dispatched
        /// on datatype alone and composed with any [`EngineCfg`] —
        /// chunking, retries, and per-cell HoMAC verification included.
        pmpi_allgather => allgather_with
    }

    movement_front_door! {
        /// `MPI_Alltoall` front door: `data` carries `world` equal-length
        /// chunks back to back; the result holds the received chunks in
        /// source-rank order. Dispatched on datatype alone, composed with
        /// any [`EngineCfg`].
        pmpi_alltoall => alltoall_with
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::secure::ReduceAlgo;
    use hear_core::{Backend, CommKeys, Homac};
    use hear_mpi::{Communicator, SimConfig, Simulator};

    fn secure(comm: &Communicator, seed: u64) -> SecureComm {
        let keys = CommKeys::generate(comm.world(), seed, Backend::best_available())
            .into_iter()
            .nth(comm.rank())
            .unwrap();
        SecureComm::new(comm.clone(), keys)
    }

    /// The `(datatype, op)` pairs the reduction front door accepts — the
    /// table every other secure pair must be rejected against.
    const ACCEPTED: [(&str, MpiOp); 20] = [
        ("MPI_UINT8_T", MpiOp::Sum),
        ("MPI_UINT16_T", MpiOp::Sum),
        ("MPI_UINT32_T", MpiOp::Sum),
        ("MPI_UINT64_T", MpiOp::Sum),
        ("MPI_INT", MpiOp::Sum),
        ("MPI_INT64_T", MpiOp::Sum),
        ("MPI_FLOAT", MpiOp::Sum),
        ("MPI_DOUBLE", MpiOp::Sum),
        ("MPI_UINT32_T", MpiOp::Prod),
        ("MPI_UINT64_T", MpiOp::Prod),
        ("MPI_FLOAT", MpiOp::Prod),
        ("MPI_DOUBLE", MpiOp::Prod),
        ("MPI_UINT16_T", MpiOp::Bxor),
        ("MPI_UINT32_T", MpiOp::Bxor),
        ("MPI_UINT64_T", MpiOp::Bxor),
        ("MPI_UINT16_T", MpiOp::Lxor),
        ("MPI_UINT32_T", MpiOp::Lxor),
        ("MPI_UINT64_T", MpiOp::Lxor),
        ("MPI_C_BOOL", MpiOp::Land),
        ("MPI_C_BOOL", MpiOp::Lor),
    ];

    /// Rank `r`'s send buffer in every datatype: integers that wrap when
    /// summed or multiplied, signed floats near one (products stay in
    /// range), and booleans that are all, some and none true across ranks.
    fn inputs(r: usize) -> [TypedVec; 9] {
        let x: Vec<u64> = (1..=5u64)
            .map(|j| j.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (r as u64 + 1) << 61 | r as u64)
            .collect();
        let f: Vec<f64> = (0..5)
            .map(|j| {
                (0.5 + (j + r) as f64 * 0.375) * if (j + r).is_multiple_of(3) { -1.0 } else { 1.0 }
            })
            .collect();
        [
            TypedVec::U8(x.iter().map(|v| *v as u8).collect()),
            TypedVec::U16(x.iter().map(|v| *v as u16).collect()),
            TypedVec::U32(x.iter().map(|v| *v as u32).collect()),
            TypedVec::U64(x.clone()),
            TypedVec::I32(x.iter().map(|v| *v as i32).collect()),
            TypedVec::I64(x.iter().map(|v| *v as i64).collect()),
            TypedVec::F32(f.iter().map(|v| *v as f32).collect()),
            TypedVec::F64(f),
            TypedVec::Bool(vec![true, false, r == 0, r != 0, r.is_multiple_of(2)]),
        ]
    }

    fn send_buf(v: &TypedVec) -> TypedSlice<'_> {
        match v {
            TypedVec::U8(v) => TypedSlice::U8(v),
            TypedVec::U16(v) => TypedSlice::U16(v),
            TypedVec::U32(v) => TypedSlice::U32(v),
            TypedVec::U64(v) => TypedSlice::U64(v),
            TypedVec::I32(v) => TypedSlice::I32(v),
            TypedVec::I64(v) => TypedSlice::I64(v),
            TypedVec::F32(v) => TypedSlice::F32(v),
            TypedVec::F64(v) => TypedSlice::F64(v),
            TypedVec::Bool(v) => TypedSlice::Bool(v),
            TypedVec::Logical(_) => unreachable!("not a send buffer"),
        }
    }

    /// `comm.allreduce` of `data` under `op`, in plaintext; AND/OR give the
    /// front door's `(or, and)` pairs.
    fn plain(comm: &Communicator, data: &TypedVec, op: MpiOp) -> TypedVec {
        macro_rules! ring {
            ($v:expr, $ty:ident) => {
                TypedVec::$ty(comm.allreduce($v, move |a, b| match op {
                    MpiOp::Sum => a.wrapping_add(*b),
                    MpiOp::Prod => a.wrapping_mul(*b),
                    _ => a ^ b,
                }))
            };
        }
        macro_rules! float {
            ($v:expr, $ty:ident) => {
                TypedVec::$ty(comm.allreduce($v, move |a, b| match op {
                    MpiOp::Sum => a + b,
                    _ => a * b,
                }))
            };
        }
        match data {
            TypedVec::U8(v) => ring!(v, U8),
            TypedVec::U16(v) => ring!(v, U16),
            TypedVec::U32(v) => ring!(v, U32),
            TypedVec::U64(v) => ring!(v, U64),
            TypedVec::I32(v) => ring!(v, I32),
            TypedVec::I64(v) => ring!(v, I64),
            TypedVec::F32(v) => float!(v, F32),
            TypedVec::F64(v) => float!(v, F64),
            TypedVec::Bool(v) => {
                let or = comm.allreduce(v, |a, b| *a || *b);
                let and = comm.allreduce(v, |a, b| *a && *b);
                TypedVec::Logical(or.into_iter().zip(and).collect())
            }
            TypedVec::Logical(_) => unreachable!("not a send buffer"),
        }
    }

    /// Bitwise for integers and booleans; within the scheme's Table 2
    /// lossiness for floats.
    fn agrees(got: &TypedVec, want: &TypedVec, op: MpiOp) -> bool {
        use hear_core::properties::{Lossiness, TABLE2};
        use hear_core::Scheme;
        let row = match op {
            MpiOp::Sum => FloatSumScheme::TABLE2_ROW,
            _ => FloatProdScheme::TABLE2_ROW,
        };
        let tol = match TABLE2[row].lossiness {
            Lossiness::Lossless => 0.0,
            Lossiness::Minor => 1e-4,
            Lossiness::Medium => 1e-3,
        };
        let close = |g: &[f64], w: &[f64]| {
            g.len() == w.len()
                && g.iter()
                    .zip(w)
                    .all(|(g, w)| (g - w).abs() <= tol * w.abs().max(1.0))
        };
        let wide = |v: &[f32]| v.iter().map(|x| f64::from(*x)).collect::<Vec<_>>();
        match (got, want) {
            (TypedVec::F32(g), TypedVec::F32(w)) => close(&wide(g), &wide(w)),
            (TypedVec::F64(g), TypedVec::F64(w)) => close(g, w),
            _ => got == want,
        }
    }

    #[test]
    fn dispatch_covers_the_table2_matrix() {
        // One communicator per rank runs every secure (datatype, op) pair in
        // sequence, so the key progression must also stay in lockstep
        // across twenty schemes and widths.
        let ops = [
            MpiOp::Sum,
            MpiOp::Prod,
            MpiOp::Bxor,
            MpiOp::Lxor,
            MpiOp::Land,
            MpiOp::Lor,
        ];
        for world in [1usize, 3] {
            let results = Simulator::new(world).run(|comm| {
                let mut sc = secure(comm, 1);
                let mut rows = Vec::new();
                for data in inputs(comm.rank()) {
                    for op in ops {
                        let name = send_buf(&data).datatype_name();
                        let got = sc.pmpi_allreduce(send_buf(&data), op, EngineCfg::sync());
                        rows.push((name, op, got, plain(comm, &data, op)));
                    }
                }
                rows
            });
            let mut accepted = 0;
            for (rank, rows) in results.iter().enumerate() {
                for (name, op, got, want) in rows {
                    let at = format!("world={world} rank={rank} {name} {op:?}");
                    if ACCEPTED.contains(&(*name, *op)) {
                        let got = got.as_ref().unwrap_or_else(|e| panic!("{at}: {e}"));
                        assert!(agrees(got, want, *op), "{at}: {got:?} vs {want:?}");
                        accepted += 1;
                    } else {
                        let mismatch = DispatchError::TypeMismatch {
                            datatype: name,
                            op: *op,
                        };
                        assert_eq!(got.as_ref().unwrap_err(), &mismatch, "{at}");
                    }
                }
            }
            assert_eq!(accepted, ACCEPTED.len() * world);
        }
    }

    #[test]
    fn insecure_ops_rejected_before_any_traffic() {
        let results = Simulator::new(1).run(|comm| {
            let mut sc = secure(comm, 2);
            let cfg = EngineCfg::sync();
            let min = sc.pmpi_allreduce(TypedSlice::U32(&[1]), MpiOp::Min, cfg);
            let user = sc.pmpi_allreduce(TypedSlice::F64(&[1.0]), MpiOp::UserDefined, cfg);
            (min.unwrap_err(), user.unwrap_err())
        });
        assert_eq!(results[0].0, DispatchError::Insecure(UnsupportedOp::MinMax));
        assert_eq!(
            results[0].1,
            DispatchError::Insecure(UnsupportedOp::UserDefined)
        );
    }

    #[test]
    fn type_mismatches_rejected() {
        let results = Simulator::new(1).run(|comm| {
            let mut sc = secure(comm, 3);
            let cfg = EngineCfg::sync();
            // XOR has no float scheme; PROD has no bool scheme.
            let a = sc.pmpi_allreduce(TypedSlice::F32(&[1.0]), MpiOp::Bxor, cfg);
            let b = sc.pmpi_allreduce(TypedSlice::Bool(&[true]), MpiOp::Prod, cfg);
            (a.unwrap_err(), b.unwrap_err())
        });
        assert!(matches!(results[0].0, DispatchError::TypeMismatch { .. }));
        assert!(matches!(results[0].1, DispatchError::TypeMismatch { .. }));
        assert!(results[0].0.to_string().contains("MPI_FLOAT"));
    }

    #[test]
    fn float_encoding_errors_propagate() {
        let results = Simulator::new(1).run(|comm| {
            let mut sc = secure(comm, 4);
            sc.pmpi_allreduce(TypedSlice::F64(&[f64::NAN]), MpiOp::Sum, EngineCfg::sync())
                .unwrap_err()
        });
        assert!(matches!(
            results[0],
            DispatchError::Hfp(HfpError::NonFinite)
        ));
    }

    #[test]
    fn slice_metadata() {
        let s = TypedSlice::U16(&[1, 2, 3]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.datatype_name(), "MPI_UINT16_T");
        assert!(TypedSlice::F64(&[]).is_empty());
    }

    #[test]
    fn pmpi_front_door_composes_previously_unwritable_cells() {
        // Pipelined + HoMAC-verified float sum over the switch tree: before
        // the engine refactor no API spelled this combination at all.
        let results = Simulator::with_config(4, SimConfig::default().with_switch(4)).run(|comm| {
            let homac = Homac::generate(21, Backend::best_available());
            let mut sc = secure(comm, 20).with_homac(homac);
            let data: Vec<f64> = (0..37).map(|j| (comm.rank() + j) as f64 * 0.25).collect();
            let cfg = EngineCfg::pipelined(8)
                .verified()
                .with_algo(ReduceAlgo::Switch);
            let got = sc.pmpi_allreduce(TypedSlice::F64(&data), MpiOp::Sum, cfg);
            // Verified pipelined u64 product on the ring, too.
            let prod = sc
                .pmpi_allreduce(
                    TypedSlice::U64(&[comm.rank() as u64 + 2]),
                    MpiOp::Prod,
                    EngineCfg::pipelined(1)
                        .verified()
                        .with_algo(ReduceAlgo::Ring),
                )
                .unwrap();
            (got.unwrap(), prod)
        });
        for (sum, prod) in &results {
            match sum {
                TypedVec::F64(v) => {
                    for (j, got) in v.iter().enumerate() {
                        let expect: f64 = (0..4).map(|r| (r + j) as f64 * 0.25).sum();
                        assert!((got - expect).abs() < 1e-3, "j={j}: {got} vs {expect}");
                    }
                }
                other => panic!("wrong type: {other:?}"),
            }
            assert_eq!(*prod, TypedVec::U64(vec![2 * 3 * 4 * 5]));
        }
    }

    #[test]
    fn pmpi_reduce_scatter_shares_the_allreduce_matrix() {
        let results = Simulator::new(2).run(|comm| {
            let mut sc = secure(comm, 30);
            let r = comm.rank() as u32;
            let data: Vec<u32> = (0..4).map(|j| j * 10 + r).collect();
            let shard = sc
                .pmpi_reduce_scatter(TypedSlice::U32(&data), MpiOp::Sum, EngineCfg::sync())
                .unwrap();
            let insecure = sc
                .pmpi_reduce_scatter(TypedSlice::U32(&data), MpiOp::Min, EngineCfg::sync())
                .unwrap_err();
            (shard, sc.shard_bounds(4), insecure)
        });
        for (rank, (shard, (lo, hi), insecure)) in results.iter().enumerate() {
            assert_eq!((*lo, *hi), (rank * 2, rank * 2 + 2));
            let expect: Vec<u32> = (*lo..*hi).map(|j| 20 * j as u32 + 1).collect();
            assert_eq!(*shard, TypedVec::U32(expect));
            assert_eq!(*insecure, DispatchError::Insecure(UnsupportedOp::MinMax));
        }
    }

    #[test]
    fn pmpi_allgather_moves_exact_bits_even_ragged() {
        let results = Simulator::new(3).run(|comm| {
            let mut sc = secure(comm, 31);
            let r = comm.rank();
            let mine: Vec<f64> = (0..=r).map(|j| -(j as f64) * 0.1 - r as f64).collect();
            sc.pmpi_allgather(TypedSlice::F64(&mine), EngineCfg::sync())
                .unwrap()
        });
        let expect: Vec<f64> = (0..3)
            .flat_map(|r| (0..=r).map(move |j| -(j as f64) * 0.1 - r as f64))
            .collect();
        for got in &results {
            match got {
                TypedVec::F64(v) => {
                    assert_eq!(v.len(), expect.len());
                    for (a, b) in v.iter().zip(&expect) {
                        assert_eq!(a.to_bits(), b.to_bits());
                    }
                }
                other => panic!("wrong type: {other:?}"),
            }
        }
    }

    #[test]
    fn pmpi_alltoall_transposes_every_datatype_shape() {
        let results = Simulator::new(2).run(|comm| {
            let mut sc = secure(comm, 32);
            let r = comm.rank();
            // Two chunks of two bools each: chunk d is [r==d, true].
            let bools: Vec<bool> = (0..2).flat_map(|d| [r == d, true]).collect();
            let b = sc
                .pmpi_alltoall(TypedSlice::Bool(&bools), EngineCfg::sync())
                .unwrap();
            let ints: Vec<i32> = (0..2).map(|d| -((r * 10 + d) as i32)).collect();
            let i = sc
                .pmpi_alltoall(TypedSlice::I32(&ints), EngineCfg::sync())
                .unwrap();
            (b, i)
        });
        for (me, (b, i)) in results.iter().enumerate() {
            // Chunk from src is [src==me, true].
            let expect_b: Vec<bool> = (0..2).flat_map(|src| [src == me, true]).collect();
            assert_eq!(*b, TypedVec::Bool(expect_b));
            let expect_i: Vec<i32> = (0..2).map(|src| -((src * 10 + me) as i32)).collect();
            assert_eq!(*i, TypedVec::I32(expect_i));
        }
    }

    #[test]
    fn pmpi_verification_failure_surfaces_as_dispatch_error() {
        // Without with_homac() a verified cfg panics; with it, honest
        // networks pass. Exercise the honest path end-to-end here.
        let results = Simulator::new(2).run(|comm| {
            let homac = Homac::generate(22, Backend::best_available());
            let mut sc = secure(comm, 23).with_homac(homac);
            sc.pmpi_allreduce(
                TypedSlice::I32(&[-5, 9]),
                MpiOp::Sum,
                EngineCfg::sync().verified(),
            )
            .unwrap()
        });
        for r in &results {
            assert_eq!(*r, TypedVec::I32(vec![-10, 18]));
        }
    }
}
