//! One secure call re-enacted from public pieces, each piece in a span:
//! `CommKeys::advance` → `Scheme::mask_slice` → [`Homac::tag_into`] →
//! plaintext collective over the masked `S::Wire` with `S::op` →
//! [`Homac::verify`] → `Scheme::unmask_slice`. Prefetch is off (the keys
//! carry no cache), so every stage pays its full inline cost.
//!
//! This is what the engine does minus the engine: the difference between
//! the sum of these stages and the real call is the engine's own share
//! (`layer.engine_self_us`), negative where prefetch or pipelining hides
//! a stage.

use crate::spans::SpanLog;
use crate::workload::{float_close, homac, plain_allreduce, rank_keys, Call, Inputs, Spec, LR};
use hear::core::{
    CommKeys, FloatSumScheme, HfpFormat, Homac, IntSum, IntSumScheme, Scheme, Scratch, DIGEST_BASE,
    DIGEST_LANES,
};
use hear::hfp::Hfp;
use hear::layer::EngineCfg;
use hear::mpi::Communicator;
use hear::prf::keystream_u64;

/// Keys of the re-enactment are distinct from the real session's.
const KEY_SALT: u64 = 0x5354_4147_4544; // "STAGED"

// One value per rank thread, created once: the variants' size difference
// (key schedules and scratch) costs nothing worth a Box.
#[allow(clippy::large_enum_variant)]
pub enum Staged<'a> {
    Allreduce(StagedAllreduce<'a>),
    ZeroStep(StagedZeroStep<'a>),
}

impl<'a> Staged<'a> {
    pub fn open(spec: &Spec, comm: &Communicator, inputs: &'a Inputs, seed: u64) -> Staged<'a> {
        let keys = rank_keys(comm, seed ^ KEY_SALT);
        match spec.call {
            Call::Allreduce { cfg } => Staged::Allreduce(StagedAllreduce {
                keys,
                scheme: IntSumScheme::default(),
                homac: cfg.verified.then(|| homac(seed ^ KEY_SALT)),
                cfg,
                input: &inputs.ints[comm.rank()],
                expected: &inputs.int_sum,
                wire: Vec::new(),
                out: Vec::new(),
                lanes: Vec::new(),
                tags: Vec::new(),
                scratch: Scratch::default(),
            }),
            Call::ZeroStep => Staged::ZeroStep(StagedZeroStep {
                keys,
                scheme: FloatSumScheme::new(HfpFormat::fp64(2, 2)),
                grads: &inputs.grads[comm.rank()],
                grad_sum: &inputs.grad_sum,
                params: inputs.params.clone(),
                wire: Vec::new(),
                shard_grads: Vec::new(),
                pad: Vec::new(),
            }),
        }
    }

    /// One staged call under a `staged_call` span; `false` when the output
    /// differs from the plaintext reference.
    pub fn call(&mut self, comm: &Communicator, log: &mut SpanLog) -> bool {
        log.next_call();
        let root = log.begin("staged_call");
        let ok = match self {
            Staged::Allreduce(s) => s.call(comm, log),
            Staged::ZeroStep(s) => s.call(comm, log),
        };
        log.end(root);
        ok
    }
}

pub struct StagedAllreduce<'a> {
    keys: CommKeys,
    scheme: IntSumScheme<u32>,
    homac: Option<Homac>,
    cfg: EngineCfg,
    input: &'a [u32],
    expected: &'a [u32],
    wire: Vec<u32>,
    out: Vec<u32>,
    lanes: Vec<u64>,
    tags: Vec<u64>,
    scratch: Scratch<u64>,
}

impl StagedAllreduce<'_> {
    fn call(&mut self, comm: &Communicator, log: &mut SpanLog) -> bool {
        let s = log.begin("key_advance");
        self.keys.advance();
        log.end(s);

        let s = log.begin("mask");
        let masked = self
            .scheme
            .mask_slice(&self.keys, 0, self.input, &mut self.wire);
        log.end(s);
        if masked.is_err() {
            return false;
        }

        // Verified mode ships, per element, four digest lanes under the
        // lossless IntSum cipher and a HoMAC tag per lane, next to the
        // payload ciphertext — the engine's (c, d, sigma) packet, as three
        // vectors because the packet type is private to the engine.
        if let Some(homac) = &self.homac {
            let s = log.begin("digest_seal");
            self.lanes.clear();
            let mut lanes = [0u64; DIGEST_LANES];
            for x in self.input {
                self.scheme.digest(x, &mut lanes);
                self.lanes.extend_from_slice(&lanes);
            }
            IntSum::encrypt_in_place(&self.keys, DIGEST_BASE, &mut self.lanes, &mut self.scratch);
            log.end(s);

            let s = log.begin("homac_tag");
            homac.tag_into(&self.keys, DIGEST_BASE, &self.lanes, &mut self.tags);
            log.end(s);
        }

        let s = log.begin("transport");
        let agg = plain_allreduce(comm, &self.cfg, &self.wire, IntSumScheme::<u32>::op);
        let verified = self.homac.as_ref().map(|_| {
            let lanes = plain_allreduce(comm, &self.cfg, &self.lanes, |a, b| a.wrapping_add(*b));
            let tags = plain_allreduce(comm, &self.cfg, &self.tags, |a, b| Homac::combine(*a, *b));
            (lanes, tags)
        });
        log.end(s);

        let mut ok = true;
        let mut lane_sums = Vec::new();
        if let (Some(homac), Some((lanes, tag_sums))) = (&self.homac, verified) {
            let s = log.begin("homac_verify");
            ok &= homac.verify(&self.keys, DIGEST_BASE, &lanes, &tag_sums);
            log.end(s);
            lane_sums = lanes;
        }

        let s = log.begin("unmask");
        self.scheme.unmask_slice(&self.keys, 0, &agg, &mut self.out);
        log.end(s);

        if self.homac.is_some() {
            let s = log.begin("digest_open");
            IntSum::decrypt_in_place(&self.keys, DIGEST_BASE, &mut lane_sums, &mut self.scratch);
            let world = comm.world();
            ok &= self
                .out
                .iter()
                .zip(lane_sums.chunks_exact(DIGEST_LANES))
                .all(|(r, lanes)| {
                    let lanes: &[u64; DIGEST_LANES] =
                        lanes.try_into().expect("chunks_exact yields DIGEST_LANES");
                    self.scheme.digest_check(r, lanes, world)
                });
            log.end(s);
        }
        ok && self.out.as_slice() == self.expected
    }
}

pub struct StagedZeroStep<'a> {
    keys: CommKeys,
    scheme: FloatSumScheme,
    grads: &'a [f64],
    grad_sum: &'a [f64],
    params: Vec<f64>,
    wire: Vec<Hfp>,
    shard_grads: Vec<f64>,
    pad: Vec<u64>,
}

impl StagedZeroStep<'_> {
    /// Float-SUM reduce-scatter, local update, cell allgather — the
    /// sharded step, from the same public pieces the engine composes.
    fn call(&mut self, comm: &Communicator, log: &mut SpanLog) -> bool {
        let (rank, world) = (comm.rank(), comm.world());
        let bounds = hear::mpi::ring_chunk_bounds(self.grads.len(), world);
        let (lo, hi) = bounds[rank];

        let s = log.begin("key_advance");
        self.keys.advance();
        log.end(s);

        let s = log.begin("mask");
        let masked = self
            .scheme
            .mask_slice(&self.keys, 0, self.grads, &mut self.wire);
        log.end(s);
        if masked.is_err() {
            return false;
        }

        let s = log.begin("transport");
        let share = comm.reduce_scatter(&self.wire, FloatSumScheme::op);
        log.end(s);

        let s = log.begin("unmask");
        self.scheme
            .unmask_slice(&self.keys, lo as u64, &share, &mut self.shard_grads);
        log.end(s);
        let reduced_ok = self
            .shard_grads
            .iter()
            .zip(&self.grad_sum[lo..hi])
            .all(|(g, want)| float_close(*g, *want));

        let s = log.begin("update");
        let scale = LR / world as f64;
        let shard: Vec<f64> = self.params[lo..hi]
            .iter()
            .zip(&self.shard_grads)
            .map(|(p, g)| p - scale * g)
            .collect();
        log.end(s);

        // The allgather is its own epoch: single-origin data rides as
        // lossless u64 cells XOR-padded on the collective keystream, each
        // element at its global position.
        let s = log.begin("key_advance");
        self.keys.advance();
        log.end(s);

        let s = log.begin("cell_seal");
        self.fill_pad(lo as u64, shard.len());
        let cells: Vec<u64> = shard
            .iter()
            .zip(&self.pad)
            .map(|(x, p)| FloatSumScheme::cell_encode(x) ^ p)
            .collect();
        log.end(s);

        let s = log.begin("transport");
        let gathered = comm.allgather(cells);
        log.end(s);

        let s = log.begin("cell_open");
        for (part, (start, end)) in gathered.iter().zip(&bounds) {
            self.fill_pad(*start as u64, part.len());
            for ((slot, c), p) in self.params[*start..*end]
                .iter_mut()
                .zip(part)
                .zip(&self.pad)
            {
                *slot = FloatSumScheme::cell_decode(c ^ p);
            }
        }
        log.end(s);

        // Cells are lossless: this rank's shard must come back bit-exact.
        reduced_ok
            && gathered.iter().map(Vec::len).sum::<usize>() == self.params.len()
            && self.params[lo..hi] == shard[..]
    }

    fn fill_pad(&mut self, first: u64, n: usize) {
        self.pad.clear();
        self.pad.resize(n, 0);
        keystream_u64(
            self.keys.prf(),
            self.keys.base_collective(),
            first,
            &mut self.pad,
        );
    }
}
