//! Disk-backed, bit-exact checkpoint save/resume for a running
//! experiment.
//!
//! A checkpoint captures *everything mutable* about a run between two
//! rounds — the global weights (as a dense wire frame), every RNG stream
//! (selection, the resident clients' batchers, TiFL, churn), the
//! client-state pool's membership and eviction memory, the wire
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
//! Each chunk body is one [`Wire`] value, decoded strictly (trailing
//! bytes are corruption): `META` is a field list declared below;
//! `SRNG`, `BTCH`, `POOL`, `COHT`, `CHRN`, `RNDS` and `ENGV` are
//! tuples and lists of types that bring their own layout — the `BTCH`
//! batcher snapshot is the very value `aergia-net` ships in its orders
//! and replies — and `TIFL` keeps a hand impl for its shared count. The
//! weight-bearing `GLOB`, `WDLB` and `WUPR` chunks stay dense
//! two-section frames, `WUPR`'s after its client id.
//!
//! [`Engine::save_checkpoint`] returns bytes; putting them on disk is the
//! caller's job. The networked coordinator (`aergia-net`) writes them to a
//! temporary file and renames it over the last checkpoint, so a kill
//! mid-write never leaves a torn file; [`Engine::restore_checkpoint_from`]
//! reads one back.
//!
//! Topology overrides (federator links, edge cohorts) are not part of
//! engine state proper: rebuild the engine through
//! [`Engine::with_topology`] with the same
//! [`TopologyBuilder`](crate::topology::TopologyBuilder) before
//! restoring, exactly as the original run was constructed. The same goes
//! for mid-run transient-load changes made with
//! [`Engine::set_client_speed`].

use std::error::Error;
use std::fmt;
use std::path::Path;

use aergia_codec::checkpoint::{ChunkReader, ChunkWriter};
use aergia_codec::frame::decode_sections;
use aergia_codec::wire::{read_all, Reader, Wire};
use aergia_codec::wire_struct;
use aergia_codec::{CodecConfig, CodecError, Frame};
use aergia_data::batcher::BatcherState;
use aergia_simnet::{SimDuration, SimTime};
use aergia_tensor::Tensor;

use crate::config::ClientStateMode;
use crate::metrics::RoundRecord;
use crate::wire::{fnv1a, FNV_OFFSET};

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
/// round records with pool statistics. v4 dropped the `NETW` chunk with
/// the simulated network's fault-injection state (drop probability,
/// jitter bound, RNG): the network is reliable and holds no random
/// state, so its one mutable value, the bytes odometer, became the last
/// field of `META`.
const ENGINE_LAYOUT_VERSION: u16 = 4;

/// FNV-1a over the debug rendering of the config/strategy pair — enough
/// to catch restoring into the wrong experiment, which would otherwise
/// fail in silently-wrong ways. `parallelism` is excluded: the
/// determinism suite proves results are bit-identical across it, so a
/// checkpoint from an 8-way run must resume on a 1-core box.
fn config_fingerprint(engine: &Engine) -> u64 {
    let mut config = engine.config.clone();
    config.parallelism = 0;
    fnv1a(FNV_OFFSET, format!("{:?}|{:?}", config, engine.strategy).as_bytes())
}

/// Decodes a weight chunk's frame, borrowed in place and parsed once.
/// Checkpoints write only dense frames (there is no shared base on disk),
/// so any other codec is corruption.
fn dense_tensors(body: &[u8]) -> Result<Vec<Tensor>, CodecError> {
    let sections = Frame::parse(body)?;
    let dense = CodecConfig::DenseF32.steady_id();
    if sections.iter().any(|s| s.codec != dense) {
        return Err(CodecError::Corrupt("checkpoint frames must be dense"));
    }
    decode_sections(&sections, None)
}

/// The `META` chunk: where the run stands, and which experiment it
/// belongs to.
struct Meta {
    next_round: u32,
    now: SimTime,
    pretraining: SimDuration,
    num_clients: usize,
    fingerprint: u64,
    broadcasts: u64,
    /// The simulated network's bytes odometer.
    odometer: u64,
}

wire_struct!(Meta { next_round, now, pretraining, num_clients, fingerprint, broadcasts, odometer });

// Credits and accuracies share one count, and the last-selected tier is a
// fixed-width `u32` option.
impl Wire for TiflSnapshot {
    fn put(&self, out: &mut Vec<u8>) {
        self.credits.put(out);
        self.accuracy.iter().for_each(|a| a.put(out));
        self.last_selected.map(|t| t as u32).put(out);
        self.rng.put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let credits = Vec::<u32>::get(r)?;
        let accuracy = credits.iter().map(|_| f64::get(r)).collect::<Result<_, _>>()?;
        let last_selected = Option::<u32>::get(r)?.map(|t| t as usize);
        Ok(TiflSnapshot { credits, accuracy, last_selected, rng: Wire::get(r)? })
    }
}

/// Decodes the one `tag` chunk, which must be present.
fn required<T: Wire>(
    chunks: &ChunkReader<'_>,
    tag: [u8; 4],
    missing: &'static str,
) -> Result<T, CheckpointError> {
    Ok(T::decode(chunks.get(tag).ok_or(CheckpointError::Mismatch(missing))?)?)
}

/// Decodes the `tag` chunk if the checkpoint has one.
fn optional<T: Wire>(chunks: &ChunkReader<'_>, tag: [u8; 4]) -> Result<Option<T>, CodecError> {
    chunks.get(tag).map(T::decode).transpose()
}

impl Engine {
    /// Encodes the run's full mutable state between rounds.
    ///
    /// Pair with [`Engine::restore_checkpoint`] on a fresh engine built
    /// from the same configuration and strategy.
    pub fn save_checkpoint(&self, progress: &RunProgress) -> Vec<u8> {
        // A full snapshot as a dense two-section frame (the same frames
        // that travel the wire — bit-exact by construction).
        let dense_frame = |w: &[Tensor]| {
            CodecConfig::DenseF32.encode_frame(w, self.wire.feature_tensors, None, None)
        };
        let mut w = ChunkWriter::new();

        let meta = Meta {
            next_round: progress.next_round,
            now: progress.now,
            pretraining: progress.pretraining,
            num_clients: self.config.num_clients,
            fingerprint: config_fingerprint(self),
            broadcasts: self.wire.broadcasts,
            odometer: self.network.bytes_delivered(),
        };
        w.chunk(META, meta.encode());
        w.chunk(GLOB, dense_frame(&self.global).as_bytes().to_vec());
        w.chunk(SRNG, self.select_rng.state().encode());

        // One BTCH chunk per *resident* pool entry, in client-id order:
        // under cohort sampling only the ≤ `max_resident` clients with a
        // live draw stream are persisted, so checkpoint size follows the
        // pool cap, not the simulated population.
        for (client, stamp, batcher) in self.pool.snapshot_entries() {
            w.chunk(BTCH, (client, stamp, batcher.state()).encode());
        }
        w.chunk(POOL, self.pool.snapshot_meta().encode());
        w.chunk(COHT, (self.cohorts.num_edges(), self.cohorts.fingerprint()).encode());

        if let Some(tifl) = &self.tifl {
            w.chunk(TIFL, tifl.snapshot().encode());
        }

        // The weight-bearing chunks stay dense two-section frames; a
        // residual's frame follows its client id.
        if let Some(base) = &self.wire.downlink_base {
            w.chunk(WDLB, dense_frame(base).as_bytes().to_vec());
        }
        for (client, residual) in self.wire.uplink_residual.iter().enumerate() {
            if let Some(residual) = residual {
                let mut body = client.encode();
                body.extend_from_slice(dense_frame(residual).as_bytes());
                w.chunk(WUPR, body);
            }
        }

        if let Some(churn) = &self.churn {
            w.chunk(CHRN, churn.snapshot().encode());
        }
        w.chunk(RNDS, progress.rounds.encode());

        // Version marker of the *engine* state layout (the container has
        // its own); bump when chunks change incompatibly — restore rejects
        // anything else.
        w.chunk(ENGV, ENGINE_LAYOUT_VERSION.encode());

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

        let layout: u16 = required(&chunks, ENGV, "no layout version")?;
        if layout != ENGINE_LAYOUT_VERSION {
            return Err(CheckpointError::Codec(CodecError::UnsupportedVersion(layout)));
        }

        let meta: Meta = required(&chunks, META, "no meta")?;
        if meta.num_clients != self.config.num_clients {
            return Err(CheckpointError::Mismatch("client count"));
        }
        if meta.fingerprint != config_fingerprint(self) {
            return Err(CheckpointError::Mismatch("config/strategy fingerprint"));
        }
        if meta.next_round > self.config.rounds {
            return Err(CheckpointError::Mismatch("round beyond configured horizon"));
        }

        let global =
            dense_tensors(chunks.get(GLOB).ok_or(CodecError::Corrupt("missing required chunk"))?)?;
        if global.len() != self.global.len() {
            return Err(CheckpointError::Mismatch("global snapshot structure"));
        }
        self.global = global;
        self.last_accuracy = None;

        self.select_rng = rand::rngs::StdRng::from_state(required(&chunks, SRNG, "no rng")?);
        self.network.restore_odometer(meta.odometer);

        let (clock, evicted): (u64, Vec<usize>) = required(&chunks, POOL, "no pool state")?;

        let (num_edges, layout_fp): (usize, u64) = required(&chunks, COHT, "no cohort layout")?;
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
            let (client, stamp, state) = <(usize, u64, BatcherState)>::decode(body)?;
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

        match (&mut self.tifl, optional::<TiflSnapshot>(&chunks, TIFL)?) {
            (Some(tifl), Some(snap)) => {
                let n = snap.credits.len();
                if n != tifl.tier_count() {
                    return Err(CheckpointError::Mismatch("tifl tier count"));
                }
                if snap.last_selected.is_some_and(|t| t >= n) {
                    return Err(CheckpointError::Mismatch("tifl last-selected tier"));
                }
                tifl.restore(snap);
            }
            (None, None) => {}
            _ => return Err(CheckpointError::Mismatch("tifl state presence")),
        }

        match (&mut self.churn, optional::<(Vec<bool>, [u64; 4])>(&chunks, CHRN)?) {
            (Some(churn), Some((available, rng))) => {
                if available.len() != self.config.num_clients {
                    return Err(CheckpointError::Mismatch("churn availability count"));
                }
                churn.restore(available, rng);
            }
            (None, None) => {}
            _ => return Err(CheckpointError::Mismatch("churn state presence")),
        }

        self.wire.broadcasts = meta.broadcasts;
        self.wire.downlink_base = chunks.get(WDLB).map(dense_tensors).transpose()?;
        for slot in self.wire.uplink_residual.iter_mut() {
            *slot = None;
        }
        for body in chunks.get_all(WUPR) {
            let (client, frame) = read_all(body, |r| Ok((usize::get(r)?, r.take(r.remaining())?)))?;
            if client >= self.wire.uplink_residual.len() {
                return Err(CheckpointError::Mismatch("uplink residual client id"));
            }
            self.wire.uplink_residual[client] = Some(dense_tensors(frame)?);
        }

        let rounds: Vec<RoundRecord> = required(&chunks, RNDS, "no round records")?;
        if rounds.len() != meta.next_round as usize {
            return Err(CheckpointError::Mismatch("record count vs next round"));
        }

        Ok(RunProgress {
            next_round: meta.next_round,
            now: meta.now,
            pretraining: meta.pretraining,
            rounds,
        })
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
    use aergia_codec::wire::assert_wire_laws;

    /// An engine one round in, with its progress and its checkpoint.
    fn one_round_in(
        config: ExperimentConfig,
        strategy: Strategy,
    ) -> (Engine, RunProgress, Vec<u8>) {
        let mut engine = Engine::new(config, strategy).expect("valid config");
        let mut progress = engine.start_progress();
        engine.step_round(&mut progress).expect("round 0");
        let bytes = engine.save_checkpoint(&progress);
        (engine, progress, bytes)
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

    /// Layout v4 of the chunks whose bodies share impls with other types
    /// (`BTCH` → the `BatcherState` the protocol ships, `TIFL`/`CHRN` →
    /// the flag and option rules), re-assembled here field by field from
    /// the live engine state. The
    /// `RNDS` record layout is pinned by `metrics::record_bytes_are_pinned`.
    #[test]
    fn shared_codec_chunks_follow_layout_v4() {
        let u32le = |v: usize| (v as u32).to_le_bytes();
        let rng_le = |rng: [u64; 4]| rng.into_iter().flat_map(u64::to_le_bytes);

        let (engine, _, bytes) = one_round_in(timing(), Strategy::tifl_default());
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

        let (engine, _, bytes) = one_round_in(churning(), Strategy::FedAvg);
        let chunks = ChunkReader::parse(&bytes).unwrap();
        let (available, rng) = engine.churn.as_ref().expect("churn state").snapshot();
        let mut want = Vec::new();
        want.extend(u32le(available.len()));
        want.extend(available.iter().map(|&a| u8::from(a)));
        want.extend(rng_le(rng));
        assert_eq!(chunks.get(CHRN).expect("CHRN chunk"), want);
    }

    /// Layout v4 of the engine's own chunk bodies, re-assembled field by
    /// field. The config and cohort-layout fingerprints are literals: a
    /// change to either hash strands every checkpoint already written.
    #[test]
    fn engine_chunks_follow_layout_v4() {
        let u32le = |v: usize| (v as u32).to_le_bytes();
        let rng_le = |rng: [u64; 4]| rng.into_iter().flat_map(u64::to_le_bytes);
        let indices_le = |v: &[usize]| {
            let mut out = u32le(v.len()).to_vec();
            out.extend(v.iter().flat_map(|&i| u32le(i)));
            out
        };

        let (engine, progress, bytes) = one_round_in(timing(), Strategy::FedAvg);
        let chunks = ChunkReader::parse(&bytes).unwrap();

        let mut want = Vec::new();
        want.extend(1u32.to_le_bytes());
        want.extend(progress.now.as_micros().to_le_bytes());
        want.extend(progress.pretraining.as_micros().to_le_bytes());
        want.extend(u32le(timing().num_clients));
        want.extend(0x5e8b_99e3_01be_434du64.to_le_bytes());
        want.extend(engine.wire.broadcasts.to_le_bytes());
        want.extend(engine.network.bytes_delivered().to_le_bytes());
        assert_eq!(chunks.get(META).expect("META chunk"), want);

        let want: Vec<u8> = rng_le(engine.select_rng.state()).collect();
        assert_eq!(chunks.get(SRNG).expect("SRNG chunk"), want);

        let (clock, evicted) = engine.pool.snapshot_meta();
        let mut want = clock.to_le_bytes().to_vec();
        want.extend(indices_le(&evicted));
        assert_eq!(chunks.get(POOL).expect("POOL chunk"), want);

        let mut want = u32le(engine.cohorts.num_edges()).to_vec();
        want.extend(0xdd33_c694_fd66_f3a0u64.to_le_bytes());
        assert_eq!(chunks.get(COHT).expect("COHT chunk"), want);

        let mut want = u32le(progress.rounds.len()).to_vec();
        for record in &progress.rounds {
            want.extend(record.round.to_le_bytes());
            want.extend(record.duration.as_micros().to_le_bytes());
            want.extend(record.test_accuracy.to_bits().to_le_bytes());
            want.extend(record.train_loss.to_bits().to_le_bytes());
            want.extend(record.bytes_on_wire.to_le_bytes());
            want.extend(indices_le(&record.participants));
            want.extend(u32le(record.offloads.len()));
            want.extend(record.offloads.iter().flat_map(|&(s, r)| [u32le(s), u32le(r)]).flatten());
            want.extend(indices_le(&record.dropped));
            let pool = &record.pool;
            for v in [pool.hits, pool.misses, pool.rebuilds, pool.evictions, pool.resident_clients]
            {
                want.extend(v.to_le_bytes());
            }
            want.extend(pool.resident_bytes.to_le_bytes());
        }
        assert_eq!(chunks.get(RNDS).expect("RNDS chunk"), want);

        assert_eq!(chunks.get(ENGV).expect("ENGV chunk"), [4, 0]);

        // WUPR: the client id, then the residual as a dense frame.
        let config = ExperimentConfig {
            codec: aergia_codec::CodecConfig::TopKDelta { keep_permille: 100 },
            ..ExperimentConfig::default()
        };
        let (engine, _, bytes) = one_round_in(config, Strategy::FedAvg);
        let chunks = ChunkReader::parse(&bytes).unwrap();
        let residuals: Vec<_> = engine.wire.uplink_residual.iter().enumerate().collect();
        let bodies = chunks.get_all(WUPR);
        assert_eq!(bodies.len(), residuals.len());
        for ((client, residual), body) in residuals.into_iter().zip(bodies) {
            let residual = residual.as_deref().expect("residual");
            let frame = CodecConfig::DenseF32.encode_frame(
                residual,
                engine.wire.feature_tensors,
                None,
                None,
            );
            let mut want = u32le(client).to_vec();
            want.extend_from_slice(frame.as_bytes());
            assert_eq!(body, want, "WUPR of client {client}");
        }
    }

    /// Round trip, every truncation and one trailing byte, for each chunk
    /// body the engine writes through [`Wire`].
    #[test]
    fn chunk_bodies_keep_the_wire_laws() {
        let (engine, progress, bytes) = one_round_in(timing(), Strategy::tifl_default());
        let chunks = ChunkReader::parse(&bytes).unwrap();
        let meta: Meta = required(&chunks, META, "meta").unwrap();
        assert_wire_laws(&meta);
        assert_wire_laws(&engine.select_rng.state());
        for (client, stamp, batcher) in engine.pool.snapshot_entries() {
            assert_wire_laws(&(client, stamp, batcher.state()));
        }
        assert_wire_laws(&engine.pool.snapshot_meta());
        assert_wire_laws(&(engine.cohorts.num_edges(), engine.cohorts.fingerprint()));
        assert_wire_laws(&engine.tifl.as_ref().expect("tifl state").snapshot());
        assert_wire_laws(&progress.rounds);
        assert_wire_laws(&ENGINE_LAYOUT_VERSION);

        let (engine, _, _) = one_round_in(churning(), Strategy::FedAvg);
        assert_wire_laws(&engine.churn.as_ref().expect("churn state").snapshot());
    }

    /// A checkpoint of an older engine layout is refused by its version,
    /// before any chunk body is read.
    #[test]
    fn older_engine_layouts_are_rejected() {
        let (_, _, mut bytes) = one_round_in(timing(), Strategy::FedAvg);
        let chunks = ChunkReader::parse(&bytes).unwrap();
        let engv = offset_in(&bytes, chunks.get(ENGV).unwrap());
        bytes[engv..engv + 2].copy_from_slice(&3u16.to_le_bytes());
        let mut fresh = Engine::new(timing(), Strategy::FedAvg).expect("valid config");
        assert!(matches!(
            fresh.restore_checkpoint(&bytes),
            Err(CheckpointError::Codec(CodecError::UnsupportedVersion(3)))
        ));
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
        let (engine, _, mut bytes) = one_round_in(timing(), tifl);
        let tiers = engine.tifl.as_ref().expect("tifl state").tier_count();
        let chunks = ChunkReader::parse(&bytes).unwrap();
        // TIFL body: count, credits, accuracies, then the last-selected flag.
        let flag = offset_in(&bytes, chunks.get(TIFL).unwrap()) + 4 + tiers * (4 + 8);
        assert_eq!(bytes[flag], 1);
        bytes[flag] = 2;
        assert!(rejected(timing(), tifl, &bytes), "last-selected flag");
        bytes[flag] = 1;
        assert!(!rejected(timing(), tifl, &bytes), "the untouched checkpoint restores");

        let (_, _, mut bytes) = one_round_in(churning(), Strategy::FedAvg);
        let chunks = ChunkReader::parse(&bytes).unwrap();
        let first = offset_in(&bytes, chunks.get(CHRN).unwrap()) + 4;
        for flag in first..first + churning().num_clients {
            let original = std::mem::replace(&mut bytes[flag], 2);
            assert!(rejected(churning(), Strategy::FedAvg, &bytes), "availability byte {flag}");
            bytes[flag] = original;
        }
    }
}
