//! Disk-backed, bit-exact checkpoint save/resume for a running
//! experiment.
//!
//! A checkpoint captures *everything mutable* about a run between two
//! rounds — the global weights (as a dense wire frame), every RNG stream
//! (selection, the resident clients' batchers, TiFL, network faults),
//! the client-state pool's membership and eviction memory, the wire
//! codec's delta bases and error-feedback residuals, the bytes odometer
//! and the per-round records so far — inside the
//! [`aergia_codec::checkpoint`] chunk container. Everything *immutable*
//! (datasets, partition, the enclave's on-demand similarity view of
//! normalised histograms, model template, phase costs) is regenerated
//! deterministically by [`Engine::new`] from the same configuration, so
//! a checkpoint stays small: roughly one model plus bookkeeping.
//!
//! The contract, pinned by `tests/checkpoint.rs`: kill a run anywhere
//! between rounds, rebuild a fresh engine from the same
//! config/strategy, [`Engine::restore_checkpoint`], resume — and every
//! subsequent round record, the final accuracy and the final global
//! weights match an uninterrupted run **bit for bit**, under every codec.
//!
//! [`Engine::save_checkpoint`] returns bytes; putting them on disk is the
//! caller's job. The networked coordinator (`aergia-net`) writes them to a
//! temporary file and renames it over the last checkpoint, so a kill
//! mid-write never leaves a torn file; [`Engine::restore_checkpoint_from`]
//! reads one back.
//!
//! Topology overrides (link models, speed overrides, fault injection)
//! are not part of engine state proper: rebuild the engine through
//! [`Engine::with_topology`] with the same
//! [`TopologyBuilder`](crate::topology::TopologyBuilder) before
//! restoring, exactly as the original run was constructed. The same goes
//! for mid-run transient-load changes made with
//! [`Engine::set_client_speed`].

use std::error::Error;
use std::fmt;
use std::path::Path;

use aergia_codec::checkpoint::{ChunkReader, ChunkWriter};
use aergia_codec::io::{
    put_bool, put_f64, put_indices, put_opt_u32, put_u16, put_u32, put_u64, Reader,
};
use aergia_codec::{dense, CodecError, CodecId, Frame, FrameBuilder, SectionKind};
use aergia_data::batcher::BatcherState;
use aergia_simnet::{SimDuration, SimTime};
use aergia_tensor::Tensor;

use crate::config::ClientStateMode;
use crate::metrics::RoundRecord;

use super::{make_batcher, tifl::TiflSnapshot, Engine};

/// Where a run currently stands: the next round to execute, the virtual
/// clock, and everything recorded so far. Produced by
/// [`Engine::start_progress`], advanced by [`Engine::step_round`], carried
/// across a kill/restore by the checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct RunProgress {
    /// The next round [`Engine::step_round`] will execute.
    pub next_round: u32,
    /// Virtual time at which that round starts.
    pub now: SimTime,
    /// Pre-training cost charged before round 0.
    pub pretraining: SimDuration,
    /// Records of every completed round, in order.
    pub rounds: Vec<RoundRecord>,
}

/// Errors surfaced while restoring a checkpoint.
#[derive(Debug)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The buffer is not a valid checkpoint of this version.
    Codec(CodecError),
    /// The checkpoint belongs to a different configuration or strategy.
    Mismatch(&'static str),
    /// Reading or writing the checkpoint file failed.
    Io(std::io::Error),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Codec(e) => write!(f, "checkpoint encoding error: {e}"),
            CheckpointError::Mismatch(what) => {
                write!(f, "checkpoint does not match this engine: {what}")
            }
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
        }
    }
}

impl Error for CheckpointError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CheckpointError::Codec(e) => Some(e),
            CheckpointError::Io(e) => Some(e),
            CheckpointError::Mismatch(_) => None,
        }
    }
}

impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> Self {
        CheckpointError::Codec(e)
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

// Chunk tags.
const META: [u8; 4] = *b"META";
const GLOB: [u8; 4] = *b"GLOB";
const SRNG: [u8; 4] = *b"SRNG";
const NETW: [u8; 4] = *b"NETW";
const BTCH: [u8; 4] = *b"BTCH";
const TIFL: [u8; 4] = *b"TIFL";
const WDLB: [u8; 4] = *b"WDLB"; // wire: downlink base
const WUPR: [u8; 4] = *b"WUPR"; // wire: one client's uplink residual
const RNDS: [u8; 4] = *b"RNDS";
const CHRN: [u8; 4] = *b"CHRN"; // churn: availability flags + rng
const POOL: [u8; 4] = *b"POOL"; // client-state pool: clock + eviction memory
const COHT: [u8; 4] = *b"COHT"; // cohort layout fingerprint
const ENGV: [u8; 4] = *b"ENGV";

/// Version of the engine's chunk *bodies* (the container frames the
/// chunks; this versions what is inside them). v2 added the optional
/// `CHRN` chunk for scenario churn state. v3 moved `BTCH` chunks to the
/// client-state pool (one per *resident* client, prefixed with its id
/// and LRU stamp), added the `POOL` and `COHT` chunks, and extended the
/// round records with pool statistics.
const ENGINE_LAYOUT_VERSION: u16 = 3;

/// FNV-1a over the debug rendering of the config/strategy pair — enough
/// to catch restoring into the wrong experiment, which would otherwise
/// fail in silently-wrong ways. `parallelism` is excluded: the
/// determinism suite proves results are bit-identical across it, so a
/// checkpoint from an 8-way run must resume on a 1-core box.
fn config_fingerprint(engine: &Engine) -> u64 {
    let mut config = engine.config.clone();
    config.parallelism = 0;
    let text = format!("{:?}|{:?}", config, engine.strategy);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A full snapshot as a dense two-section frame (the same frames that
/// travel the wire — bit-exact by construction).
fn dense_frame(weights: &[Tensor], feature_tensors: usize) -> Frame {
    let (feat, clf) = weights.split_at(feature_tensors);
    let mut builder = FrameBuilder::new();
    builder.push_section(SectionKind::Features, CodecId::DenseF32, feat.len(), |out| {
        dense::encode_payload_into(feat, out);
    });
    builder.push_section(SectionKind::Classifier, CodecId::DenseF32, clf.len(), |out| {
        dense::encode_payload_into(clf, out);
    });
    builder.finish()
}

/// Decodes a [`dense_frame`] back into the flat tensor list.
fn frame_tensors(frame: &Frame) -> Result<Vec<Tensor>, CodecError> {
    let mut out = Vec::new();
    for section in frame.sections()? {
        if section.codec != CodecId::DenseF32 {
            return Err(CodecError::Corrupt("checkpoint frames must be dense"));
        }
        out.append(&mut dense::decode_payload(section.payload, section.tensor_count)?);
    }
    Ok(out)
}

fn put_rng(out: &mut Vec<u8>, state: [u64; 4]) {
    for s in state {
        put_u64(out, s);
    }
}

fn read_rng(r: &mut Reader<'_>) -> Result<[u64; 4], CodecError> {
    Ok([r.u64()?, r.u64()?, r.u64()?, r.u64()?])
}

/// Appends a batcher snapshot: cursor, RNG state, then the shard's index
/// list. This is the body of the checkpoint's `BTCH` chunk (after the
/// client id and LRU stamp) *and* how `aergia-net` ships batcher state in
/// its orders and replies, so a state that round-trips the network is
/// byte-for-byte the state a checkpoint would have persisted.
pub fn put_batcher(out: &mut Vec<u8>, state: &BatcherState) {
    put_u64(out, state.cursor as u64);
    put_rng(out, state.rng);
    put_indices(out, &state.indices);
}

/// Reads a snapshot written by [`put_batcher`].
///
/// # Errors
///
/// Returns [`CodecError::Truncated`] if the buffer ends early and
/// [`CodecError::Corrupt`] for a cursor beyond the index list.
pub fn read_batcher(r: &mut Reader<'_>) -> Result<BatcherState, CodecError> {
    let cursor = r.u64()? as usize;
    let rng = read_rng(r)?;
    let indices = r.indices()?;
    if cursor > indices.len() {
        return Err(CodecError::Corrupt("batcher cursor out of range"));
    }
    Ok(BatcherState { indices, cursor, rng })
}

impl Engine {
    /// Encodes the run's full mutable state between rounds.
    ///
    /// Pair with [`Engine::restore_checkpoint`] on a fresh engine built
    /// from the same configuration and strategy.
    pub fn save_checkpoint(&self, progress: &RunProgress) -> Vec<u8> {
        let feature_tensors = self.wire.feature_tensors;
        let mut w = ChunkWriter::new();

        let mut meta = Vec::new();
        put_u32(&mut meta, progress.next_round);
        put_u64(&mut meta, progress.now.as_micros());
        put_u64(&mut meta, progress.pretraining.as_micros());
        put_u32(&mut meta, self.config.num_clients as u32);
        put_u64(&mut meta, config_fingerprint(self));
        put_u64(&mut meta, self.wire.broadcasts);
        w.chunk(META, meta);

        w.frame_chunk(GLOB, &dense_frame(&self.global, feature_tensors));

        let mut srng = Vec::new();
        put_rng(&mut srng, self.select_rng.state());
        w.chunk(SRNG, srng);

        let (drop_prob, jitter, net_rng) = self.network.fault_state();
        let mut netw = Vec::new();
        put_f64(&mut netw, drop_prob);
        put_u64(&mut netw, jitter.as_micros());
        put_rng(&mut netw, net_rng);
        put_u64(&mut netw, self.network.bytes_delivered());
        w.chunk(NETW, netw);

        // One BTCH chunk per *resident* pool entry, in client-id order:
        // under cohort sampling only the ≤ `max_resident` clients with a
        // live draw stream are persisted, so checkpoint size follows the
        // pool cap, not the simulated population.
        for (client, stamp, batcher) in self.pool.snapshot_entries() {
            let mut body = Vec::new();
            put_u32(&mut body, client as u32);
            put_u64(&mut body, stamp);
            put_batcher(&mut body, &batcher.state());
            w.chunk(BTCH, body);
        }

        let (clock, evicted) = self.pool.snapshot_meta();
        let mut pool = Vec::new();
        put_u64(&mut pool, clock);
        put_indices(&mut pool, &evicted);
        w.chunk(POOL, pool);

        let mut coht = Vec::new();
        put_u32(&mut coht, self.cohorts.num_edges() as u32);
        put_u64(&mut coht, self.cohorts.fingerprint());
        w.chunk(COHT, coht);

        if let Some(tifl) = &self.tifl {
            let snap = tifl.snapshot();
            let mut body = Vec::new();
            put_u32(&mut body, snap.credits.len() as u32);
            for &c in &snap.credits {
                put_u32(&mut body, c);
            }
            for &a in &snap.accuracy {
                put_f64(&mut body, a);
            }
            put_opt_u32(&mut body, snap.last_selected.map(|t| t as u32));
            put_rng(&mut body, snap.rng);
            w.chunk(TIFL, body);
        }

        if let Some(base) = &self.wire.downlink_base {
            w.frame_chunk(WDLB, &dense_frame(base, feature_tensors));
        }
        for (client, residual) in self.wire.uplink_residual.iter().enumerate() {
            if let Some(residual) = residual {
                let mut body = Vec::new();
                put_u32(&mut body, client as u32);
                body.extend_from_slice(dense_frame(residual, feature_tensors).as_bytes());
                w.chunk(WUPR, body);
            }
        }

        if let Some(churn) = &self.churn {
            let (available, rng) = churn.snapshot();
            let mut body = Vec::new();
            put_u32(&mut body, available.len() as u32);
            for &a in &available {
                put_bool(&mut body, a);
            }
            put_rng(&mut body, rng);
            w.chunk(CHRN, body);
        }

        let mut rnds = Vec::new();
        put_u32(&mut rnds, progress.rounds.len() as u32);
        for record in &progress.rounds {
            record.encode_into(&mut rnds);
        }
        w.chunk(RNDS, rnds);

        // Version marker of the *engine* state layout (the container has
        // its own); bump when chunks change incompatibly — restore rejects
        // anything else.
        let mut vers = Vec::new();
        put_u16(&mut vers, ENGINE_LAYOUT_VERSION);
        w.chunk(ENGV, vers);

        w.finish()
    }

    /// Restores the state captured by [`Engine::save_checkpoint`] into
    /// this engine (freshly built from the same config and strategy) and
    /// returns the progress to resume from.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Codec`] on a malformed buffer and
    /// [`CheckpointError::Mismatch`] if the checkpoint belongs to a
    /// different experiment.
    pub fn restore_checkpoint(&mut self, bytes: &[u8]) -> Result<RunProgress, CheckpointError> {
        let chunks = ChunkReader::parse(bytes)?;

        let mut vers =
            Reader::new(chunks.get(ENGV).ok_or(CheckpointError::Mismatch("no layout version"))?);
        let layout = vers.u16()?;
        if layout != ENGINE_LAYOUT_VERSION {
            return Err(CheckpointError::Codec(CodecError::UnsupportedVersion(layout)));
        }

        let mut meta = Reader::new(chunks.get(META).ok_or(CheckpointError::Mismatch("no meta"))?);
        let next_round = meta.u32().map_err(CheckpointError::Codec)?;
        let now = SimTime::from_micros(meta.u64().map_err(CheckpointError::Codec)?);
        let pretraining = SimDuration::from_micros(meta.u64().map_err(CheckpointError::Codec)?);
        let num_clients = meta.u32().map_err(CheckpointError::Codec)? as usize;
        let fingerprint = meta.u64().map_err(CheckpointError::Codec)?;
        let broadcasts = meta.u64().map_err(CheckpointError::Codec)?;
        if num_clients != self.config.num_clients {
            return Err(CheckpointError::Mismatch("client count"));
        }
        if fingerprint != config_fingerprint(self) {
            return Err(CheckpointError::Mismatch("config/strategy fingerprint"));
        }
        if next_round > self.config.rounds {
            return Err(CheckpointError::Mismatch("round beyond configured horizon"));
        }

        let global = frame_tensors(&chunks.frame(GLOB)?)?;
        if global.len() != self.global.len() {
            return Err(CheckpointError::Mismatch("global snapshot structure"));
        }
        self.global = global;
        self.last_accuracy = None;

        let mut srng = Reader::new(chunks.get(SRNG).ok_or(CheckpointError::Mismatch("no rng"))?);
        self.select_rng = rand::rngs::StdRng::from_state(read_rng(&mut srng)?);

        let mut netw =
            Reader::new(chunks.get(NETW).ok_or(CheckpointError::Mismatch("no network state"))?);
        let drop_prob = netw.f64()?;
        let jitter = SimDuration::from_micros(netw.u64()?);
        let net_rng = read_rng(&mut netw)?;
        let odometer = netw.u64()?;
        // Validate before handing off: the setters assert, and a corrupt
        // checkpoint must surface as an error, not a panic.
        if !(0.0..1.0).contains(&drop_prob) {
            return Err(CheckpointError::Mismatch("drop probability out of range"));
        }
        self.network.restore_fault_state(drop_prob, jitter, net_rng, odometer);

        let mut pool_r =
            Reader::new(chunks.get(POOL).ok_or(CheckpointError::Mismatch("no pool state"))?);
        let clock = pool_r.u64()?;
        let evicted = pool_r.indices()?;

        let mut coht =
            Reader::new(chunks.get(COHT).ok_or(CheckpointError::Mismatch("no cohort layout"))?);
        let num_edges = coht.u32()? as usize;
        let layout_fp = coht.u64()?;
        if num_edges != self.cohorts.num_edges() || layout_fp != self.cohorts.fingerprint() {
            return Err(CheckpointError::Mismatch("cohort layout"));
        }

        let bodies = chunks.get_all(BTCH);
        match self.config.client_state {
            ClientStateMode::Resident => {
                if bodies.len() != self.config.num_clients {
                    return Err(CheckpointError::Mismatch("batcher count"));
                }
            }
            ClientStateMode::CohortSampled { max_resident } => {
                if bodies.len() > max_resident {
                    return Err(CheckpointError::Mismatch("resident count beyond pool capacity"));
                }
            }
        }
        let mut entries = Vec::with_capacity(bodies.len());
        let mut prev_client = None;
        for body in bodies {
            let mut r = Reader::new(body);
            let client = r.u32()? as usize;
            let stamp = r.u64()?;
            let state = read_batcher(&mut r)?;
            if client >= self.config.num_clients {
                return Err(CheckpointError::Mismatch("resident client id"));
            }
            if prev_client.is_some_and(|p| p >= client) {
                return Err(CheckpointError::Mismatch("resident clients out of order"));
            }
            prev_client = Some(client);
            if stamp > clock {
                return Err(CheckpointError::Mismatch("pool stamp beyond clock"));
            }
            if state.indices.len() != self.clients[client].shard_len {
                return Err(CheckpointError::Mismatch("batcher shard size"));
            }
            let mut batcher = make_batcher(&self.partition, &self.config, client);
            batcher.restore_state(state);
            entries.push((client, stamp, batcher));
        }
        self.pool.restore(entries, clock, evicted);

        match (&mut self.tifl, chunks.get(TIFL)) {
            (Some(tifl), Some(body)) => {
                let mut r = Reader::new(body);
                let n = r.u32()? as usize;
                if n != tifl.tier_count() {
                    return Err(CheckpointError::Mismatch("tifl tier count"));
                }
                let mut credits = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    credits.push(r.u32()?);
                }
                let mut accuracy = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    accuracy.push(r.f64()?);
                }
                let last_selected = r.opt_u32()?.map(|t| t as usize);
                if last_selected.is_some_and(|t| t >= n) {
                    return Err(CheckpointError::Mismatch("tifl last-selected tier"));
                }
                let rng = read_rng(&mut r)?;
                tifl.restore(TiflSnapshot { credits, accuracy, last_selected, rng });
            }
            (None, None) => {}
            _ => return Err(CheckpointError::Mismatch("tifl state presence")),
        }

        match (&mut self.churn, chunks.get(CHRN)) {
            (Some(churn), Some(body)) => {
                let mut r = Reader::new(body);
                let n = r.u32()? as usize;
                if n != self.config.num_clients {
                    return Err(CheckpointError::Mismatch("churn availability count"));
                }
                let mut available = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    available.push(r.bool()?);
                }
                let rng = read_rng(&mut r)?;
                churn.restore(available, rng);
            }
            (None, None) => {}
            _ => return Err(CheckpointError::Mismatch("churn state presence")),
        }

        self.wire.broadcasts = broadcasts;
        self.wire.downlink_base = match chunks.get(WDLB) {
            Some(body) => Some(frame_tensors(&Frame::from_bytes(body.to_vec())?)?),
            None => None,
        };
        for slot in self.wire.uplink_residual.iter_mut() {
            *slot = None;
        }
        for body in chunks.get_all(WUPR) {
            let mut r = Reader::new(body);
            let client = r.u32()? as usize;
            if client >= self.wire.uplink_residual.len() {
                return Err(CheckpointError::Mismatch("uplink residual client id"));
            }
            let frame = Frame::from_bytes(r.take(r.remaining())?.to_vec())?;
            self.wire.uplink_residual[client] = Some(frame_tensors(&frame)?);
        }

        let mut rnds =
            Reader::new(chunks.get(RNDS).ok_or(CheckpointError::Mismatch("no round records"))?);
        let n = rnds.u32()? as usize;
        if n != next_round as usize {
            return Err(CheckpointError::Mismatch("record count vs next round"));
        }
        let mut rounds = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            rounds.push(RoundRecord::decode(&mut rnds)?);
        }

        Ok(RunProgress { next_round, now, pretraining, rounds })
    }

    /// Reads a checkpoint file and restores it into this engine.
    ///
    /// # Errors
    ///
    /// See [`Engine::restore_checkpoint`]; filesystem failures surface as
    /// [`CheckpointError::Io`].
    pub fn restore_checkpoint_from(
        &mut self,
        path: impl AsRef<Path>,
    ) -> Result<RunProgress, CheckpointError> {
        let bytes = std::fs::read(path)?;
        self.restore_checkpoint(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ExperimentConfig, Mode};
    use crate::scenario::{ChurnConfig, OffloadPolicy};
    use crate::strategy::Strategy;

    /// A timing-mode engine one round in, with its checkpoint.
    fn one_round_in(config: ExperimentConfig, strategy: Strategy) -> (Engine, Vec<u8>) {
        let mut engine = Engine::new(config, strategy).expect("valid config");
        let mut progress = engine.start_progress();
        engine.step_round(&mut progress).expect("round 0");
        let bytes = engine.save_checkpoint(&progress);
        (engine, bytes)
    }

    fn timing() -> ExperimentConfig {
        ExperimentConfig { mode: Mode::Timing, ..ExperimentConfig::default() }
    }

    fn churning() -> ExperimentConfig {
        let mut config = timing();
        config.scenario.churn = Some(ChurnConfig {
            leave_prob: 0.3,
            rejoin_prob: 0.5,
            crash_prob: 0.0,
            offload_policy: OffloadPolicy::Drop,
        });
        config
    }

    /// Where `chunk` (a slice [`ChunkReader`] handed out) starts in `bytes`.
    fn offset_in(bytes: &[u8], chunk: &[u8]) -> usize {
        chunk.as_ptr() as usize - bytes.as_ptr() as usize
    }

    /// Layout v3 of the chunks whose bodies go through shared codecs
    /// (`BTCH` → [`put_batcher`], `TIFL`/`CHRN` → the `io` flag writers),
    /// re-assembled here field by field from the live engine state. The
    /// `RNDS` record layout is pinned by `metrics::record_bytes_are_pinned`.
    #[test]
    fn shared_codec_chunks_follow_layout_v3() {
        let u32le = |v: usize| (v as u32).to_le_bytes();
        let rng_le = |rng: [u64; 4]| rng.into_iter().flat_map(u64::to_le_bytes);

        let (engine, bytes) = one_round_in(timing(), Strategy::tifl_default());
        let chunks = ChunkReader::parse(&bytes).unwrap();
        let entries = engine.pool.snapshot_entries();
        let bodies = chunks.get_all(BTCH);
        assert_eq!(bodies.len(), entries.len());
        assert!(!bodies.is_empty());
        for ((client, stamp, batcher), body) in entries.into_iter().zip(bodies) {
            let state = batcher.state();
            let mut want = Vec::new();
            want.extend(u32le(client));
            want.extend(stamp.to_le_bytes());
            want.extend((state.cursor as u64).to_le_bytes());
            want.extend(rng_le(state.rng));
            want.extend(u32le(state.indices.len()));
            want.extend(state.indices.iter().flat_map(|&i| u32le(i)));
            assert_eq!(body, want, "BTCH of client {client}");
        }

        let snap = engine.tifl.as_ref().expect("tifl state").snapshot();
        let mut want = Vec::new();
        want.extend(u32le(snap.credits.len()));
        want.extend(snap.credits.iter().flat_map(|c| c.to_le_bytes()));
        want.extend(snap.accuracy.iter().flat_map(|a| a.to_bits().to_le_bytes()));
        want.push(u8::from(snap.last_selected.is_some()));
        want.extend(u32le(snap.last_selected.unwrap_or(0)));
        want.extend(rng_le(snap.rng));
        assert_eq!(chunks.get(TIFL).expect("TIFL chunk"), want);
        assert!(snap.last_selected.is_some(), "round 0 must have selected a tier");

        let (engine, bytes) = one_round_in(churning(), Strategy::FedAvg);
        let chunks = ChunkReader::parse(&bytes).unwrap();
        let (available, rng) = engine.churn.as_ref().expect("churn state").snapshot();
        let mut want = Vec::new();
        want.extend(u32le(available.len()));
        want.extend(available.iter().map(|&a| u8::from(a)));
        want.extend(rng_le(rng));
        assert_eq!(chunks.get(CHRN).expect("CHRN chunk"), want);
    }

    /// A flag byte that is neither 0 nor 1 is corruption, not `false`.
    #[test]
    fn corrupt_flag_bytes_are_rejected() {
        let rejected = |config: ExperimentConfig, strategy: Strategy, bytes: &[u8]| {
            let mut fresh = Engine::new(config, strategy).expect("valid config");
            matches!(
                fresh.restore_checkpoint(bytes),
                Err(CheckpointError::Codec(CodecError::Corrupt(_)))
            )
        };

        let tifl = Strategy::tifl_default();
        let (engine, mut bytes) = one_round_in(timing(), tifl);
        let tiers = engine.tifl.as_ref().expect("tifl state").tier_count();
        let chunks = ChunkReader::parse(&bytes).unwrap();
        // TIFL body: count, credits, accuracies, then the last-selected flag.
        let flag = offset_in(&bytes, chunks.get(TIFL).unwrap()) + 4 + tiers * (4 + 8);
        assert_eq!(bytes[flag], 1);
        bytes[flag] = 2;
        assert!(rejected(timing(), tifl, &bytes), "last-selected flag");
        bytes[flag] = 1;
        assert!(!rejected(timing(), tifl, &bytes), "the untouched checkpoint restores");

        let (_, mut bytes) = one_round_in(churning(), Strategy::FedAvg);
        let chunks = ChunkReader::parse(&bytes).unwrap();
        let first = offset_in(&bytes, chunks.get(CHRN).unwrap()) + 4;
        for flag in first..first + churning().num_clients {
            let original = std::mem::replace(&mut bytes[flag], 2);
            assert!(rejected(churning(), Strategy::FedAvg, &bytes), "availability byte {flag}");
            bytes[flag] = original;
        }
    }
}
