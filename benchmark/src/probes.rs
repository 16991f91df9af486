//! Layer probes: each layer's `pub` functions called on inputs built from
//! the workload's own configuration, timed from outside, and the modelled
//! share of a round that follows from unit cost x calls per round.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

use aergia::prelude::*;
use aergia::scheduler::{self, ClientPerf, OpVariant};
use aergia::transport::build_template;
use aergia::{engine::RunProgress, fold};
use aergia_codec::envelope::{self, MsgKind};
use aergia_codec::partial::{self, PartialAggregate};
use aergia_codec::{dense, quant, topk, CodecConfig};
use aergia_data::batcher::Batcher;
use aergia_data::partition::Partition;
use aergia_enclave::{establish_session, SimilarityEnclave};
use aergia_net::proto::{TrainOrderMsg, TrainReplyMsg};
use aergia_nn::fused::{fused_forward, fusion_supported, FusedMember};
use aergia_nn::models::ModelArch;
use aergia_nn::optim::Sgd;
use aergia_nn::Cnn;
use aergia_runtime::ThreadPool;
use aergia_simnet::node::BASE_FLOPS;
use aergia_simnet::{EventQueue, SimTime};
use aergia_tensor::conv::{col2im_into, im2col_into, ConvGeometry};
use aergia_tensor::gemm::{self, GemmOp, PackedA, PackedB};
use aergia_tensor::{ops, Tensor, Workspace};

use crate::child::metric;
use crate::sys::median;
use crate::trace::Tracer;
use crate::workloads::Built;

/// What the timed rounds of this child measured, for the share model.
pub struct RunFacts {
    pub round_wall_s: f64,
    pub rounds: u32,
    pub engine_new_s: f64,
    pub allocs_per_round: f64,
}

/// One GEMM-backed layer as the three products it runs per batch.
struct GemmLayer {
    conv: bool,
    /// Output channels / features.
    out: usize,
    /// `in_channels * kh * kw`, or input features.
    k: usize,
    /// im2col rows (`batch * out_h * out_w`), or the batch size.
    rows: usize,
}

impl GemmLayer {
    fn macs(&self) -> usize {
        self.rows * self.k * self.out
    }
}

/// Reads every conv / linear layer's GEMM shape off the model: the weight
/// is `[out, k]` and a forward pass costs `2 * rows * out * k` flops.
fn gemm_layers(model: &Cnn, batch: usize) -> Vec<GemmLayer> {
    model
        .layers()
        .iter()
        .filter(|l| matches!(l.name(), "conv2d" | "linear"))
        .map(|l| {
            let dims = l.params()[0].dims().to_vec();
            let (out, k) = (dims[0], dims[1]);
            let rows = (l.forward_flops(batch) / (2 * out * k) as u64) as usize;
            GemmLayer { conv: l.name() == "conv2d", out, k, rows }
        })
        .collect()
}

/// Geometry of the largest convolution of the architectures the workloads
/// use: `(in_channels, height = width, kernel, pad, out_channels)`.
fn largest_conv(arch: ModelArch) -> (usize, usize, usize, usize, usize) {
    match arch {
        ModelArch::MnistCnn | ModelArch::FmnistCnn => (16, 14, 5, 2, 32),
        ModelArch::Cifar10Cnn => (32, 32, 3, 1, 32),
        other => panic!("no probe geometry for {other}; add its largest conv here"),
    }
}

/// Zero-free pseudo-random fill (exact zeros would take the GEMM's guarded
/// skip path, which dense training operands rarely do).
fn filled(dims: &[usize], salt: usize) -> Tensor {
    let mut t = Tensor::zeros(dims);
    for (i, v) in t.data_mut().iter_mut().enumerate() {
        *v = (((i + salt) * 2_654_435_761 % 2000) as f32 - 999.5) * 1e-3;
    }
    t
}

/// Median seconds of one call of `f`: at least 10 calls; calls too slow
/// for that stop at 3 once 1.5 s have gone, and a single call above 0.5 s
/// is its own sample.
fn time_median(mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    loop {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
        let spent = start.elapsed().as_secs_f64();
        let enough = samples.len() >= 10 || (samples.len() >= 3 && spent > 1.5);
        if enough || samples[0] > 0.5 {
            return median(&samples);
        }
    }
}

/// The first `gemm::tuned_variant` of every layer shape, in a process
/// whose tuner is still cold. Returns `(shape, variant)` labels.
pub fn autotune_all(built: &Built) -> Vec<(String, String)> {
    let model = build_template(&built.config);
    let t = Instant::now();
    let mut picks = Vec::new();
    for l in gemm_layers(&model, built.config.batch_size) {
        for (op, label, m, k, n) in [
            (GemmOp::Nt, "nt", l.rows, l.k, l.out),
            (GemmOp::Nn, "nn", l.rows, l.out, l.k),
            (GemmOp::Tn, "tn", l.out, l.rows, l.k),
        ] {
            let v = gemm::tuned_variant(op, m, k, n);
            picks.push((
                format!("{label}_{m}x{k}x{n}"),
                format!("{}_{}x{}", v.isa.label(), v.mr, v.nr),
            ));
        }
    }
    metric("tensor.autotune_s", t.elapsed().as_secs_f64());
    picks
}

/// Collects probe results, opening one span per probe.
struct Probes<'a> {
    tracer: &'a mut Tracer,
    values: BTreeMap<&'static str, f64>,
}

impl Probes<'_> {
    /// Times `f` inside a span named after the metric and records
    /// `value(median seconds per call)` under that name.
    fn probe(&mut self, name: &'static str, value: impl Fn(f64) -> f64, f: impl FnMut()) {
        let open = self.tracer.begin(&format!("probe.{name}"));
        let secs = time_median(f);
        self.tracer.end(open);
        self.put(name, value(secs));
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        *self.values.get(name).unwrap_or_else(|| panic!("probe {name} has not run"))
    }
}

/// Runs every probe and prints every child-side per-layer metric.
pub fn run_all(
    built: &Built,
    engine: &mut Engine,
    progress: &RunProgress,
    snapshot: &str,
    run: &RunFacts,
    tracer: &mut Tracer,
) {
    let all = tracer.begin("probes");
    let mut p = Probes { tracer, values: BTreeMap::new() };
    let config = &built.config;
    let template = build_template(config);
    let weights = template.weights();
    let model_bytes = weights.iter().map(Tensor::numel).sum::<usize>() as f64 * 4.0;

    tensor_probes(&mut p, config);
    let trained = nn_probes(&mut p, config, engine, &template);
    codec_probes(&mut p, config, &weights, &trained, model_bytes);
    data_probes(&mut p, config, engine);
    enclave_probe(&mut p, config, engine);
    core_probes(&mut p, built, engine, progress, &template, &weights, run);
    net_probes(&mut p, config, engine, &weights);
    runtime_probes(&mut p, run);
    counters(&mut p, config, snapshot, run);
    shares(&mut p, built, engine, &template, model_bytes, run);

    for (name, value) in &p.values {
        metric(name, *value);
    }
    p.tracer.end(all);
}

fn tensor_probes(p: &mut Probes<'_>, config: &ExperimentConfig) {
    let (in_c, hw, kernel, pad, out_c) = largest_conv(config.arch);
    let batch = config.batch_size;
    let geom = ConvGeometry::new(hw, hw, kernel, kernel, 1, pad);
    let (rows, ckk) = (batch * geom.out_h * geom.out_w, in_c * kernel * kernel);
    let flops = 2.0 * (rows * ckk * out_c) as f64;
    let patch_bytes = (rows * ckk * 4) as f64;

    let x = filled(&[batch, in_c, hw, hw], 1);
    let w = filled(&[out_c, ckk], 2);
    let dy_rows = filled(&[rows, out_c], 3);
    let mut cols = Tensor::default();
    p.probe(
        "tensor.im2col_gbps",
        |secs| patch_bytes / secs / 1e9,
        || im2col_into(&x, in_c, &geom, &mut cols).unwrap(),
    );

    let v = gemm::tuned_variant(GemmOp::Nt, rows, ckk, out_c);
    let mut pwt = PackedB::new();
    pwt.pack_transposed_with(&w, v).unwrap();
    let mut y_rows = Tensor::default();
    p.probe(
        "tensor.gemm_nt_gflops",
        |secs| flops / secs / 1e9,
        || {
            ops::matmul_nt_packed_into(&cols, &pwt, &mut y_rows).unwrap();
        },
    );

    let v = gemm::tuned_variant(GemmOp::Nn, rows, out_c, ckk);
    let mut pw = PackedB::new();
    pw.pack_with(&w, v).unwrap();
    let mut dcols = Tensor::default();
    p.probe(
        "tensor.gemm_nn_gflops",
        |secs| flops / secs / 1e9,
        || {
            ops::matmul_packed_into(&dy_rows, &pw, &mut dcols).unwrap();
        },
    );

    let v = gemm::tuned_variant(GemmOp::Tn, out_c, rows, ckk);
    let mut pb = PackedB::new();
    p.probe("tensor.pack_b_us", |secs| secs * 1e6, || pb.pack_with(&cols, v).unwrap());
    let mut pa = PackedA::new();
    pa.pack_transposed_with(&dy_rows, v).unwrap();
    let mut dw = Tensor::default();
    p.probe(
        "tensor.gemm_tn_gflops",
        |secs| flops / secs / 1e9,
        || {
            ops::matmul_tn_packed_into(&pa, &pb, &mut dw).unwrap();
        },
    );

    let mut dx = Tensor::default();
    p.probe(
        "tensor.col2im_gbps",
        |secs| patch_bytes / secs / 1e9,
        || {
            col2im_into(&dcols, batch, in_c, &geom, &mut dx).unwrap();
        },
    );
}

/// Returns the weights after the probe's training steps (a realistic
/// `current` for the delta codec).
fn nn_probes(
    p: &mut Probes<'_>,
    config: &ExperimentConfig,
    engine: &Engine,
    template: &Cnn,
) -> Vec<Tensor> {
    let train = engine.train_dataset();
    let mut batcher =
        Batcher::new(engine.partition().indices(0).to_vec(), config.batch_size, config.seed);
    let (mut x, mut y) = (Tensor::default(), Vec::new());
    let mut model = template.clone();
    let mut ws = Workspace::new();
    let mut opt = Sgd::new(config.sgd);
    // Every timed step trains on a fresh batch, as a round does; the first
    // (untimed) step warms the workspace.
    batcher.next_batch_into(train, &mut x, &mut y);
    model.train_batch_with(&x, &y, &mut opt, &mut ws).unwrap();

    let open = p.tracer.begin("probe.nn.forward_backward");
    let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
    for _ in 0..12 {
        batcher.next_batch_into(train, &mut x, &mut y);
        let t = Instant::now();
        let phase = model.forward_phase(&x, &mut ws);
        fwd.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        model.backward_phase(phase, &y, &mut opt, &mut ws).unwrap();
        bwd.push(t.elapsed().as_secs_f64());
    }
    p.tracer.end(open);
    p.put("nn.forward_ms", median(&fwd) * 1e3);
    p.put("nn.backward_ms", median(&bwd) * 1e3);

    p.probe("nn.sgd_step_ms", |secs| secs * 1e3, || opt.apply(&mut model));

    let mut model = template.clone();
    let mut opt = Sgd::new(config.sgd);
    p.probe(
        "nn.train_batch_ms",
        |secs| secs * 1e3,
        || {
            batcher.next_batch_into(train, &mut x, &mut y);
            model.train_batch_with(&x, &y, &mut opt, &mut ws).unwrap();
        },
    );
    let trained = model.weights();

    model.freeze_features();
    p.probe(
        "nn.frozen_batch_ms",
        |secs| secs * 1e3,
        || {
            batcher.next_batch_into(train, &mut x, &mut y);
            model.train_batch_with(&x, &y, &mut opt, &mut ws).unwrap();
        },
    );

    let test = engine.test_dataset();
    let idx: Vec<usize> = (0..test.len().min(32)).collect();
    let (xe, ye) = test.batch(&idx);
    let mut eval_model = template.clone();
    p.probe(
        "nn.eval_ms_per_sample",
        |secs| secs * 1e3 / idx.len() as f64,
        || {
            eval_model.evaluate_with(&xe, &ye, &mut ws);
        },
    );

    // Fused forward over the round's cohort (capped: plan_4k selects 4096).
    let n = config.clients_per_round.min(32);
    let speedup = if fusion_supported(template) && n > 1 {
        let w0 = template.weights();
        let mut models: Vec<Cnn> = (0..n).map(|_| template.clone()).collect();
        let mut wss: Vec<Workspace> = (0..n).map(|_| Workspace::new()).collect();
        let mut opts: Vec<Sgd> = (0..n).map(|_| Sgd::new(config.sgd)).collect();
        let (mut fused_t, mut serial_t) = (Vec::new(), Vec::new());
        let open = p.tracer.begin("probe.nn.fused_forward_speedup");
        for _ in 0..11 {
            // Members start a round from one broadcast: identical weights.
            for m in &mut models {
                m.set_weights(&w0).unwrap();
            }
            let t = Instant::now();
            let mut members: Vec<FusedMember<'_>> = models
                .iter_mut()
                .zip(wss.iter_mut())
                .map(|(model, ws)| FusedMember { model, ws, x: &x })
                .collect();
            let phases = fused_forward(&mut members).unwrap();
            drop(members);
            fused_t.push(t.elapsed().as_secs_f64());
            // The backward pass hands the activation buffers back.
            for (((m, ws), opt), phase) in
                models.iter_mut().zip(wss.iter_mut()).zip(opts.iter_mut()).zip(phases)
            {
                m.backward_phase(phase, &y, opt, ws).unwrap();
            }
            for m in &mut models {
                m.set_weights(&w0).unwrap();
            }
            let mut serial = 0.0;
            for ((m, ws), opt) in models.iter_mut().zip(wss.iter_mut()).zip(opts.iter_mut()) {
                let t = Instant::now();
                let phase = m.forward_phase(&x, ws);
                serial += t.elapsed().as_secs_f64();
                m.backward_phase(phase, &y, opt, ws).unwrap();
            }
            serial_t.push(serial);
        }
        p.tracer.end(open);
        // The first iteration warms every member's workspace.
        median(&serial_t[1..]) / median(&fused_t[1..])
    } else {
        1.0
    };
    p.put("nn.fused_forward_speedup", speedup);
    trained
}

fn codec_probes(
    p: &mut Probes<'_>,
    config: &ExperimentConfig,
    base: &[Tensor],
    current: &[Tensor],
    model_bytes: f64,
) {
    let mbps = |secs: f64| model_bytes / secs / 1e6;
    let mut out = Vec::new();
    p.probe("codec.dense_encode_mbps", mbps, || {
        out.clear();
        dense::encode_payload_into(current, &mut out);
    });
    p.probe("codec.dense_decode_mbps", mbps, || {
        dense::decode_payload(&out, current.len()).unwrap();
    });

    let body = out.clone();
    let mut wire = Vec::new();
    p.probe("codec.envelope_encode_mbps", mbps, || {
        wire = envelope::encode(MsgKind::TrainOrder, &body);
    });
    p.probe("codec.envelope_read_mbps", mbps, || {
        envelope::read_from(&mut wire.as_slice()).unwrap();
    });

    p.probe("codec.quant_encode_mbps", mbps, || {
        out.clear();
        quant::encode_payload_into(current, &mut out);
    });
    p.probe("codec.quant_decode_mbps", mbps, || {
        quant::decode_payload(&out, current.len()).unwrap();
    });

    let keep = match config.codec {
        CodecConfig::TopKDelta { keep_permille } => keep_permille,
        _ => 50,
    };
    let mut residual = topk::zero_residual(base);
    p.probe("codec.topk_encode_mbps", mbps, || {
        out.clear();
        topk::encode_payload_into(current, base, keep, Some(&mut residual), &mut out);
    });
    p.probe("codec.topk_decode_mbps", mbps, || {
        topk::decode_payload(&out, current.len(), base).unwrap();
    });

    let edge =
        PartialAggregate { edge: 0, count: 8, weight: 8.0, aux: 0.0, tensors: current.to_vec() };
    p.probe(
        "codec.partial_roundtrip_ms",
        |secs| secs * 1e3,
        || {
            partial::decode(&partial::encode(&edge)).unwrap();
        },
    );
}

fn data_probes(p: &mut Probes<'_>, config: &ExperimentConfig, engine: &Engine) {
    p.probe(
        "data.generate_s",
        |secs| secs,
        || {
            config.dataset.generate_pair();
        },
    );
    let train = engine.train_dataset();
    p.probe(
        "data.partition_s",
        |secs| secs,
        || {
            Partition::split(train, config.num_clients, config.partition, config.seed);
        },
    );

    let mut batcher =
        Batcher::new(engine.partition().indices(0).to_vec(), config.batch_size, config.seed);
    let (mut x, mut y) = (Tensor::default(), Vec::new());
    const INNER: usize = 50;
    p.probe(
        "data.next_batch_us",
        |secs| secs * 1e6 / INNER as f64,
        || {
            for _ in 0..INNER {
                batcher.next_batch_into(train, &mut x, &mut y);
            }
        },
    );
}

/// The engine's set-up protocol for N clients, step for step.
fn enclave_probe(p: &mut Probes<'_>, config: &ExperimentConfig, engine: &Engine) {
    let train = engine.train_dataset();
    let partition = engine.partition();
    let hists: Vec<Vec<u64>> =
        (0..config.num_clients).map(|c| partition.class_histogram(train, c)).collect();
    p.probe(
        "enclave.similarity_matrix_s",
        |secs| secs,
        || {
            let mut enclave = SimilarityEnclave::new(train.num_classes(), config.seed);
            for (client, hist) in hists.iter().enumerate() {
                let mut session =
                    establish_session(&mut enclave, client as u32, config.seed ^ client as u64)
                        .unwrap();
                let blob = session.seal_histogram(hist);
                enclave.submit(client as u32, blob).unwrap();
            }
            if config.num_clients >= 2 {
                enclave.compute_similarity_matrix().unwrap();
            }
        },
    );
}

/// Events a round pushes through the queue, modelled: one per local batch
/// plus four deliveries (broadcast, profile, schedule, update) per client.
fn modelled_events(config: &ExperimentConfig) -> usize {
    config.clients_per_round * (config.local_updates as usize + 4)
}

fn core_probes(
    p: &mut Probes<'_>,
    built: &Built,
    engine: &mut Engine,
    progress: &RunProgress,
    template: &Cnn,
    weights: &[Tensor],
    run: &RunFacts,
) {
    let config = &built.config;
    let n = config.clients_per_round;

    let events = modelled_events(config);
    let mut queue: EventQueue<u32> = EventQueue::new();
    p.probe(
        "simnet.events_per_s",
        |secs| events as f64 / secs,
        || {
            for i in 0..events {
                queue.push(SimTime::from_micros((i * 2_654_435_761 % 1_000_003) as u64), i as u32);
            }
            while queue.pop().is_some() {}
        },
    );

    // The reports a round's participants send after the profiling window.
    let flops = template.phase_flops(config.batch_size);
    let profile_batches = match built.strategy {
        Strategy::Aergia { profile_batches, .. } => profile_batches,
        _ => 0,
    };
    let perfs: Vec<ClientPerf> = (0..n)
        .map(|id| {
            let secs_per_flop = 1.0 / (config.speeds[id] * BASE_FLOPS);
            ClientPerf {
                id,
                t123: (flops.ff + flops.fc + flops.bc) * secs_per_flop,
                t4: flops.bf * secs_per_flop,
                feature_only: (flops.ff + flops.bf) * secs_per_flop,
                remaining: config.local_updates.saturating_sub(profile_batches),
            }
        })
        .collect();
    let similarity = engine.similarity_matrix().to_vec();
    p.probe(
        "core.schedule_ms",
        |secs| secs * 1e3,
        || {
            scheduler::schedule(&perfs, &similarity, 1.0, OpVariant::Unimodal);
        },
    );

    let folded = n.min(64);
    let contributions: Vec<(f32, Vec<Tensor>)> =
        (0..folded).map(|i| (8.0 + i as f32, weights.to_vec())).collect();
    let layout = engine.cohort_layout();
    let edges: Vec<usize> = (0..folded).map(|c| layout.edge_of(c)).collect();
    let num_edges = layout.num_edges();
    p.probe(
        "core.fold_flat_ms",
        |secs| secs * 1e3,
        || {
            let _ = fold::weighted_flat(&contributions);
        },
    );
    p.probe(
        "core.fold_hier_ms",
        |secs| secs * 1e3,
        || {
            let _ = fold::weighted_hierarchical(&contributions, &edges, num_edges, true);
        },
    );
    drop(contributions);

    p.probe(
        "core.evaluate_global_ms",
        |secs| secs * 1e3,
        || {
            engine.evaluate_global();
        },
    );

    let mut checkpoint = Vec::new();
    p.probe(
        "core.checkpoint_save_ms",
        |secs| secs * 1e3,
        || checkpoint = engine.save_checkpoint(progress),
    );
    p.put("core.checkpoint_bytes", checkpoint.len() as f64);
    p.probe(
        "core.checkpoint_restore_ms",
        |secs| secs * 1e3,
        || {
            engine.restore_checkpoint(&checkpoint).unwrap();
        },
    );
    p.put("core.engine_new_s", run.engine_new_s);

    // The single-worker baseline: the same rounds on this thread alone,
    // in the same warm process. Round 0 materialises the workspaces.
    let speedup = if config.mode == Mode::Real && !built.tcp {
        let serial = ExperimentConfig { parallelism: 1, rounds: 2, ..config.clone() };
        let open = p.tracer.begin("probe.core.parallel_speedup");
        let mut engine =
            Engine::with_topology(serial, built.strategy, built.topology.clone()).unwrap();
        let mut progress = engine.start_progress();
        engine.step_round(&mut progress).unwrap();
        let t = Instant::now();
        engine.step_round(&mut progress).unwrap();
        let serial_round = t.elapsed().as_secs_f64();
        p.tracer.end(open);
        serial_round / run.round_wall_s
    } else {
        0.0
    };
    p.put("core.parallel_speedup", speedup);
}

fn net_probes(p: &mut Probes<'_>, config: &ExperimentConfig, engine: &Engine, weights: &[Tensor]) {
    let batcher =
        Batcher::new(engine.partition().indices(0).to_vec(), config.batch_size, config.seed);
    let order = TrainOrderMsg {
        round: 0,
        client: 0,
        own_batches: config.local_updates,
        freeze_after: None,
        snapshot_wanted: false,
        batcher: batcher.state(),
        round_base: weights.to_vec(),
    };
    let mut body = Vec::new();
    p.probe("net.order_encode_ms", |secs| secs * 1e3, || body = order.encode());
    p.probe(
        "net.order_decode_ms",
        |secs| secs * 1e3,
        || {
            TrainOrderMsg::decode(&body).unwrap();
        },
    );

    let reply = TrainReplyMsg {
        round: 0,
        client: 0,
        losses: vec![0.5; config.local_updates as usize],
        weights: weights.to_vec(),
        snapshot: None,
        batcher: batcher.state(),
    };
    p.probe("net.reply_encode_ms", |secs| secs * 1e3, || body = reply.encode());
    p.probe(
        "net.reply_decode_ms",
        |secs| secs * 1e3,
        || {
            TrainReplyMsg::decode(&body).unwrap();
        },
    );

    // A model-size envelope out and back over a loopback socket pair.
    let wire = envelope::encode(MsgKind::TrainReply, &body);
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind loopback");
    let addr = listener.local_addr().expect("loopback address");
    let echo = std::thread::spawn(move || {
        let (mut peer, _) = listener.accept().expect("accept loopback");
        peer.set_nodelay(true).expect("nodelay");
        while let Ok((kind, body)) = envelope::read_from(&mut peer) {
            if envelope::write_to(&mut peer, kind, &body).is_err() {
                break;
            }
        }
    });
    let mut conn = TcpStream::connect(addr).expect("connect loopback");
    conn.set_nodelay(true).expect("nodelay");
    p.probe(
        "net.loopback_rtt_ms",
        |secs| secs * 1e3,
        || {
            conn.write_all(&wire).expect("loopback write");
            envelope::read_from(&mut conn).expect("loopback read");
        },
    );
    drop(conn);
    echo.join().expect("echo thread");
}

fn runtime_probes(p: &mut Probes<'_>, run: &RunFacts) {
    const JOBS: usize = 1000;
    let pool = ThreadPool::global();
    p.probe(
        "runtime.spawn_us",
        |secs| secs * 1e6 / JOBS as f64,
        || {
            pool.scope(|s| {
                for _ in 0..JOBS {
                    s.spawn(|| {});
                }
            });
        },
    );
    p.put("runtime.allocs_per_round", run.allocs_per_round);
}

/// Counts read off the telemetry snapshot taken right after the rounds.
fn counters(p: &mut Probes<'_>, config: &ExperimentConfig, snapshot: &str, run: &RunFacts) {
    let samples = aergia_telemetry::parse_snapshot(snapshot).expect("own snapshot parses");
    let sum = |prefix: &str| -> f64 {
        // `fold` from +0.0: an empty `sum()` is -0.0, which prints as "-0".
        samples.iter().filter(|(k, _)| k.starts_with(prefix)).fold(0.0, |acc, (_, v)| acc + v)
    };
    p.put("tensor.gemm_calls_per_round", sum("aergia_gemm_calls_total") / f64::from(run.rounds));
    let guarded = sum("aergia_gemm_subtiles_guarded_total");
    let subtiles = guarded + sum("aergia_gemm_subtiles_dense_total");
    p.put("tensor.guarded_subtile_share", if subtiles > 0.0 { guarded / subtiles } else { 0.0 });
    let codec = match config.codec {
        CodecConfig::DenseF32 => "dense_f32",
        CodecConfig::QuantI8 => "quant_i8",
        CodecConfig::TopKDelta { .. } => "topk_delta",
    };
    let encoded = sum(&format!("aergia_codec_encoded_bytes_total{{codec=\"{codec}\""));
    let dense_equiv = sum(&format!("aergia_codec_dense_equiv_bytes_total{{codec=\"{codec}\""));
    p.put("codec.compression_ratio", if encoded > 0.0 { dense_equiv / encoded } else { 0.0 });
}

/// Unit cost x modelled calls per round, as shares of `round_wall_s`.
///
/// Client-side work runs `par` wide (pool threads, or client processes);
/// federator-side work is serial. Every participant is charged
/// `local_updates` full batches: an offload moves work between two
/// clients and adds one forward pass per offloaded batch, which the model
/// leaves in `core.unattributed_share`.
fn shares(
    p: &mut Probes<'_>,
    built: &Built,
    engine: &Engine,
    template: &Cnn,
    model_bytes: f64,
    run: &RunFacts,
) {
    let config = &built.config;
    let n = config.clients_per_round as f64;
    let batches = n * f64::from(config.local_updates);
    let real = config.mode == Mode::Real;
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let par = cores.min(config.clients_per_round).max(1) as f64;
    let num_edges = engine.cohort_layout().num_edges();

    // Kernel seconds inside one training batch: every GEMM at the probed
    // rate of its form, im2col / col2im / pack by bytes moved.
    let layers = gemm_layers(template, config.batch_size);
    let gemm_s = |gflops: &str| {
        2.0 * layers.iter().map(GemmLayer::macs).sum::<usize>() as f64 / p.get(gflops) / 1e9
    };
    let patch_bytes: f64 =
        layers.iter().filter(|l| l.conv).map(|l| (l.rows * l.k * 4) as f64).sum();
    let largest = layers.iter().filter(|l| l.conv).map(|l| l.rows * l.k * 4).max().unwrap_or(1);
    let forward_kernels =
        gemm_s("tensor.gemm_nt_gflops") + patch_bytes / p.get("tensor.im2col_gbps") / 1e9;
    let backward_kernels = gemm_s("tensor.gemm_nn_gflops")
        + gemm_s("tensor.gemm_tn_gflops")
        + patch_bytes / p.get("tensor.col2im_gbps") / 1e9
        + p.get("tensor.pack_b_us") * 1e-6 * patch_bytes / largest as f64;
    let batch_s = p.get("nn.train_batch_ms") * 1e-3;
    let batch_kernels = (forward_kernels + backward_kernels).min(batch_s);
    // Evaluation is forward only, per sample.
    let eval_s = p.get("core.evaluate_global_ms") * 1e-3;
    let eval_kernels =
        (forward_kernels / config.batch_size as f64 * config.eval_samples as f64).min(eval_s);

    let (tensor, nn, data) = if real {
        (
            batches * batch_kernels / par + eval_kernels,
            batches * (batch_s - batch_kernels) / par + (eval_s - eval_kernels),
            batches * p.get("data.next_batch_us") * 1e-6 / par,
        )
    } else {
        (0.0, 0.0, 0.0)
    };

    // One broadcast and one update per participant, encoded and decoded.
    let (enc, dec) = match config.codec {
        CodecConfig::DenseF32 => ("codec.dense_encode_mbps", "codec.dense_decode_mbps"),
        CodecConfig::QuantI8 => ("codec.quant_encode_mbps", "codec.quant_decode_mbps"),
        CodecConfig::TopKDelta { .. } => ("codec.topk_encode_mbps", "codec.topk_decode_mbps"),
    };
    let payload_s = model_bytes / 1e6 * (1.0 / p.get(enc) + 1.0 / p.get(dec));
    let partials = if num_edges > 1 {
        num_edges as f64 * p.get("codec.partial_roundtrip_ms") * 1e-3
    } else {
        0.0
    };
    let codec = if real { (n + 1.0) * payload_s + partials } else { 0.0 };

    let fold = if num_edges > 1 { "core.fold_hier_ms" } else { "core.fold_flat_ms" };
    let fold_s = if real { p.get(fold) * 1e-3 * n / n.min(64.0) } else { 0.0 };
    let checkpoint = if built.tcp { p.get("core.checkpoint_save_ms") * 1e-3 } else { 0.0 };
    let core = p.get("core.schedule_ms") * 1e-3 + fold_s + checkpoint;

    let simnet = modelled_events(config) as f64 / p.get("simnet.events_per_s");
    let tasks = if real && !built.tcp { n + num_edges as f64 } else { 0.0 };
    let runtime = tasks * p.get("runtime.spawn_us") * 1e-6;
    let net = if built.tcp {
        let per_client = p.get("net.order_encode_ms")
            + p.get("net.order_decode_ms")
            + p.get("net.reply_encode_ms")
            + p.get("net.reply_decode_ms")
            + p.get("net.loopback_rtt_ms");
        n * per_client * 1e-3 / par
    } else {
        0.0
    };

    let round = run.round_wall_s;
    let mut attributed = 0.0;
    for (name, secs) in [
        ("tensor.modelled_share", tensor),
        ("nn.modelled_share", nn),
        ("codec.modelled_share", codec),
        ("data.modelled_share", data),
        ("simnet.modelled_share", simnet),
        ("core.modelled_share", core),
        ("net.modelled_share", net),
        ("runtime.modelled_share", runtime),
    ] {
        p.put(name, secs / round);
        attributed += secs / round;
    }
    p.put("core.unattributed_share", 1.0 - attributed);
}
